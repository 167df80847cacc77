"""Monte Carlo estimators for restricted isometry and angle constants.

Each estimator samples restricted rank-one pairs, evaluates the
measurement deviation of interest, and reports the sample maximum with
quantiles and the maximizing witness. Trial t consumes its own derived
generator, so reports are identical however trials are distributed
across workers, and a longer run with the same seed extends a shorter
one (the maximum can only grow).

Trial draw protocol (part of the contract, tests replay it):
  rip:      u ~ spec_u, v ~ spec_v
  rap/rop:  u ~ spec_u, v ~ spec_v, u_hat ~ spec_u, v_hat ~ spec_v
all from rng_for(seed, "trial", t), in that order (taken from its batch
form util.rng_streams, which yields the same generators).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .measurement import (
    Ensemble,
    FactoredOperator,
    LiftedPoint,
    lifted_inner,
    sample_omega,
    _gaussian_dictionary,
    _spectrum,
)
from .models import (
    ModelSpec,
    OrthogonalizationError,
    orthogonalize_pair,
    sample_model,
)
from .util import _INV_SQRT2, ZeroVectorError, derive_seed, rng_for, rng_streams, vnorm

__all__ = [
    "EstimateReport",
    "estimate_rip",
    "estimate_rap",
    "estimate_rop",
    "isotropy_check",
]

ISOTROPY_GUARD = 64
_ISOTROPY_BLOCK = 2**13  # complex entries of each stacked array of isotropy draws

# Fresh 4-tuples a rop trial may draw before its orthogonalization
# failure is reported.
_ROP_MAX_ATTEMPTS = 8

@dataclass
class EstimateReport:
    """Outcome of one Monte Carlo estimation run: what the estimator measured.

    delta_hat is the maximum per-trial deviation; quantiles are linear
    interpolation quantiles of the same sample, so q99 <= delta_hat.
    resamples counts the rop draws redone after a failed
    orthogonalization. witness holds the maximizing trial's draws for
    replay. The run's inputs stay with the caller.
    """

    delta_hat: float
    trials: int
    quantiles: dict
    wall_time: float
    resamples: int = 0
    witness: dict = field(default_factory=dict, repr=False)
    deviations: np.ndarray | None = field(default=None, repr=False)


def _run_trials(trials, seed, trial):
    """Run trial(t, rng) -> (deviation, draws) on every trial stream.

    The witness is the first trial reaching the maximum deviation; it
    holds that trial's draws between its deviation and its seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    t0 = time.perf_counter()
    devs = np.empty(trials)
    witness = {}
    for t, rng in enumerate(rng_streams(seed, "trial", range(trials))):
        dev, draws = trial(t, rng)
        devs[t] = dev
        if not witness or dev > witness["deviation"]:
            witness = {"trial": t, "deviation": dev, **draws,
                       "seed": derive_seed(seed, "trial", t)}
    qs = np.quantile(devs, [0.5, 0.9, 0.99])
    return EstimateReport(
        delta_hat=float(devs.max()),
        trials=trials,
        quantiles={0.5: float(qs[0]), 0.9: float(qs[1]), 0.99: float(qs[2])},
        wall_time=time.perf_counter() - t0,
        witness=witness,
        deviations=devs,
    )


def _form(p_hat, p, op_hat, op_plain):
    """<A'(p_hat), A''(p)>: the hatted pair measured by op_hat, the plain by op_plain."""
    return np.vdot(op_hat.forward(p_hat.u, p_hat.v), op_plain.forward(p.u, p.v))


def _decoupled_ops(ens, op, rng):
    """(op_hat, op_plain): op of ens with independent dictionary copies per side.

    The hatted side gets a fresh phi, then the plain side a fresh psi,
    each drawn from rng only when that dictionary is not the identity.
    """
    op_hat, op_plain = op, op
    if ens.phi_kind != "identity":
        op_hat = replace(op, G_phi=_spectrum(_gaussian_dictionary(ens.n, rng)))
    if ens.psi_kind != "identity":
        op_plain = replace(op, G_psi=_spectrum(_gaussian_dictionary(ens.n, rng)))
    return op_hat, op_plain


def estimate_rip(
    ens: Ensemble,
    spec_u: ModelSpec,
    spec_v: ModelSpec,
    trials: int,
    seed: int = 0,
) -> EstimateReport:
    """Sample max of | ||A(u v^T)||^2 - ||u v^T||_F^2 | / ||u v^T||_F^2."""
    op = FactoredOperator.of(ens)

    def trial(t, rng):
        u = sample_model(spec_u, rng)
        v = sample_model(spec_v, rng)
        wsq = LiftedPoint(u, v).norm_f ** 2
        dev = abs(vnorm(op.forward(u, v)) ** 2 - wsq) / wsq
        return dev, {"u": u, "v": v}

    return _run_trials(trials, seed, trial)


def estimate_rap(
    ens: Ensemble,
    spec_u: ModelSpec,
    spec_v: ModelSpec,
    trials: int,
    seed: int = 0,
) -> EstimateReport:
    """Sample max of the normalized angle deviation

        | <A(u_hat v_hat^T), A(u v^T)> - <u_hat v_hat^T, u v^T> |
          / (||u_hat v_hat^T||_F ||u v^T||_F)

    over independent pairs. With the hatted pair equal to the plain one
    this is the isometry deviation, which estimate_rip measures.
    """
    op = FactoredOperator.of(ens)

    def trial(t, rng):
        u = sample_model(spec_u, rng)
        v = sample_model(spec_v, rng)
        u_hat = sample_model(spec_u, rng)
        v_hat = sample_model(spec_v, rng)
        p = LiftedPoint(u, v)
        p_hat = LiftedPoint(u_hat, v_hat)
        denom = p.norm_f * p_hat.norm_f
        val = _form(p_hat, p, op, op) - lifted_inner(p_hat, p)
        return abs(val) / denom, {"u": u, "v": v, "u_hat": u_hat, "v_hat": v_hat}

    return _run_trials(trials, seed, trial)


def estimate_rop(
    ens: Ensemble,
    spec_u: ModelSpec,
    spec_v: ModelSpec,
    trials: int,
    seed: int = 0,
    orthogonality: str = "both",
    decoupled: bool = False,
) -> EstimateReport:
    """Sample max of |<A(u_hat v_hat^T), A(u v^T)>| over orthogonal pairs.

    orthogonality "both" enforces <u, u_hat> = 0 and <v, v_hat> = 0;
    "either" enforces exactly one of the two, alternating sides by
    trial parity. The matrix inner product <u_hat v_hat^T, u v^T>
    vanishes under either constraint, so no identity term is
    subtracted.

    decoupled=True replaces the shared dictionaries with independent
    copies on the hatted side (fresh Gaussian draws per trial; identity
    dictionaries are their own copy), the comparison form used to
    justify reducing to independent factors. Failed orthogonalizations
    resample the whole 4-tuple from the trial stream and are counted in
    the report's resamples field; a trial raises OrthogonalizationError
    once its resample budget is spent.
    """
    if orthogonality not in ("both", "either"):
        raise ValueError("orthogonality must be 'both' or 'either'")
    op = FactoredOperator.of(ens)
    both = orthogonality == "both"
    resamples = 0

    def trial(t, rng):
        nonlocal resamples
        left, right = both or t % 2 == 0, both or t % 2 == 1
        for _ in range(_ROP_MAX_ATTEMPTS):
            u = sample_model(spec_u, rng)
            v = sample_model(spec_v, rng)
            u_hat0 = sample_model(spec_u, rng)
            v_hat0 = sample_model(spec_v, rng)
            try:
                u_hat = orthogonalize_pair(u, u_hat0, spec_u) if left else u_hat0
                v_hat = orthogonalize_pair(v, v_hat0, spec_v) if right else v_hat0
                break
            except OrthogonalizationError:
                resamples += 1
        else:
            raise OrthogonalizationError(
                f"orthogonalization failed {_ROP_MAX_ATTEMPTS} times in trial {t}"
            )
        p = LiftedPoint(u, v)
        p_hat = LiftedPoint(u_hat, v_hat)
        ops = _decoupled_ops(ens, op, rng) if decoupled else (op, op)
        dev = abs(_form(p_hat, p, *ops)) / (p.norm_f * p_hat.norm_f)
        return dev, {"u": u, "v": v, "u_hat": u_hat, "v_hat": v_hat}

    rep = _run_trials(trials, seed, trial)
    rep.resamples = resamples
    return rep


def isotropy_check(
    n: int,
    m: int,
    x: LiftedPoint,
    draws: int,
    seed: int = 0,
    fixed_kind: str = "gaussian",
    average_over: str = "phi",
    omega_mode: str = "without_replacement",
) -> float:
    """Relative error of the Monte Carlo mean of A^* A (X) vs its expectation.

    Holding omega and one dictionary fixed and averaging over fresh
    draws of the other, the expectation is X (Psi^* Psi)^T when the
    left dictionary is averaged out and (Phi^* Phi) X when the right
    one is. Returns ||mean - target||_F / ||target||_F; a zero point,
    whose target is zero, raises ZeroVectorError.

    Each draw is A^*(A(X)) for the factored operator of omega and the
    fixed dictionary with the averaged factor swapped for that draw's,
    drawn from rng_for(seed, "draw", k). Blocks of 2^13 // n^2 draws
    (128 KiB arrays) are measured through the operator with their spectra
    stacked, and summed in draw order: bit for bit a per-draw loop.
    """
    if average_over not in ("phi", "psi"):
        raise ValueError("average_over must be 'phi' or 'psi'")
    if n > ISOTROPY_GUARD:
        raise ValueError(f"isotropy check materializes matrices; n <= {ISOTROPY_GUARD}")
    if draws < 1:
        raise ValueError("draws must be positive")
    if x.norm_f == 0:
        raise ZeroVectorError("the isotropy check needs a nonzero point")

    setup = rng_for(seed, "setup")
    omega = sample_omega(n, m, omega_mode, setup)
    fixed = None if fixed_kind == "identity" else _gaussian_dictionary(n, setup)
    ens = Ensemble(n, m, omega, fixed_kind, fixed_kind, phi=fixed, psi=fixed)
    X = x.dense()

    gram = ens.phi.conj().T @ ens.phi
    target = X @ gram.T if average_over == "phi" else gram @ X

    op = FactoredOperator.of(ens)
    swap = "G_phi" if average_over == "phi" else "G_psi"
    streams = rng_streams(seed, "draw", range(draws))
    per_block = max(1, _ISOTROPY_BLOCK // n**2)
    acc = np.zeros((n, n), dtype=complex)
    for start in range(0, draws, per_block):
        k = min(per_block, draws - start)
        z = np.empty((k, 2, n, n))
        for i in range(k):
            next(streams).standard_normal(out=z[i])
        z *= _INV_SQRT2
        z *= 1.0 / np.sqrt(n)
        D = np.empty((k, n, n), dtype=complex)
        D.real, D.imag = z[:, 0], z[:, 1]
        op_k = replace(op, **{swap: _spectrum(D)})
        for img in op_k.adjoint_image(op_k.forward(x.u[:, None], x.v[:, None])[..., 0]):
            acc += img
    mean = acc / draws
    return float(np.linalg.norm(mean - target) / np.linalg.norm(target))
