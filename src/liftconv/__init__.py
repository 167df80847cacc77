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
"""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundQuery,
    SampleComplexity,
    angle_preservation_bound,
    dudley_fourier_bound,
    dudley_sparse_bound,
    dyadic_chain_check,
    gamma2_bound,
    greedy_cover,
    maurey_f,
    maurey_h,
    sample_complexity,
    solve_a,
)
from .concentration import (
    EstimateReport,
    estimate_rap,
    estimate_rip,
    estimate_rip_matrix,
    estimate_rop,
    exact_rip_small,
    isotropy_check,
    rop_form_samples,
)
from .fourier import dft_matrix, fftu, ifftu
from .measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    adjoint_apply,
    forward,
    lifted_dist,
    lifted_inner,
    partial_forward,
    sample_omega,
)
from .models import (
    InfeasibleModelError,
    ModelSpec,
    OrthogonalizationError,
    hard_threshold,
    in_gamma,
    in_tilde_gamma,
    orthogonalize_pair,
    project_flat,
    sample_model,
    spectral_flatness,
)
from .solver import (
    AttemptRecord,
    SolveOptions,
    SolveResult,
    SolverBreakdownError,
    plant_instance,
    recover,
    success_metric,
)
from .util import ZeroVectorError, derive_seed, rng_for

__version__ = "0.1.0"

# The imports above are the one list of public names; the submodules
# they bind as package attributes are not part of it.
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__all__.append("__version__")
