"""Sparse rank-one recovery from randomly subsampled convolutions.

The measurement model convolves two dictionary-sparse signals,
subsamples the result at random time points, and rescales. This
package provides the measurement operator in factored form
(FactoredOperator), with the FFT forward that plants and scores solver
instances, restricted signal models with spectral-flatness
projections, Monte Carlo estimators of restricted isometry, angle, and
orthogonality constants, closed-form entropy and sample-complexity
calculators, and an alternating least-squares recovery solver with a
phase-transition sweep harness.

Each module's __all__ lists its share of the public names, and the
package re-exports exactly those: liftconv.__all__ is the modules'
lists plus __version__. A name outside every __all__ (a module's
constants, helpers and the views of FactoredOperator kept for the
benchmark's layer tracer) stays importable from its module and is not
part of the public API.
"""

from . import bounds, concentration, measurement, models, solver, util
from .bounds import *
from .concentration import *
from .measurement import *
from .models import *
from .solver import *
from .util import *

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *concentration.__all__, *measurement.__all__,
           *models.__all__, *solver.__all__, *util.__all__, "__version__"]
