"""Generalized information deficits under unread local measurements.

The deficit of a family f is the minimum entropy increase produced by a
complete unread projective measurement on the qubit B:

    I_f = min_k [ S_f(rho'(k)) - S_f(rho) ]

Nonnegativity follows from the majorization of the pinched state by the
original one.  The von Neumann case I_1 is the standard one-way deficit; the
quadratic case I_2 is proportional to the geometric discord and has a closed
form: with the cross-moment tensor J and the B Bloch vector r_b,

    I_2 = (tr M - lam_max(M)) / d_a,   M = r_b r_b^T + J^T J,

minimized by the dominant eigenvector of M, the least disturbing direction.
Renyi deficits share the Tsallis optimizer at the same q and only transform
the reported value.

Optimality of a direction is checked through the commutator residual
``Tr_A [f'(rho'), rho]``, which vanishes at stationary points; the discord
variant adds the marginal correction ``[log2 rho'_B, rho_B]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pairstate import PairContext
from ._sphere import dominant_direction
from .discord import (
    CLOSED_FORM,
    DEFAULT_SEARCH,
    GRID_REFINE,
    TIE_TOL,
    SearchConfig,
    _grid_refine,
)
from .entropy import (
    FAMILY_RENYI,
    FAMILY_VON_NEUMANN,
    QUADRATIC,
    EntropyFunctional,
    f_prime_matrix,
    spectrum_entropy,
    tsallis,
)
from .errors import InvalidQ, UnsupportedFamily
from .measurement import MeasurementDirection, unread_state
from .statekit import BipartiteLayout, DensityMatrix, bloch_decompose, partial_trace

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class DeficitResult:
    """Outcome of a deficit minimization."""

    value: float
    k_star: MeasurementDirection
    theta: float
    phi: float
    method: str
    stationarity_residual: float


@dataclass(frozen=True)
class DeficitMatrix:
    """Second-moment matrix governing the quadratic deficit.

    Positive semidefinite; its dominant eigenvector is the least disturbing
    projective direction.
    """

    matrix: np.ndarray
    lambda_max: float
    trace: float


def deficit_matrix(rho: DensityMatrix, layout: BipartiteLayout) -> DeficitMatrix:
    """Build ``r_b r_b^T + J^T J`` from the Bloch decomposition."""
    layout.require_qubit_b()
    dec = bloch_decompose(rho, layout)
    m = np.outer(dec.r_b, dec.r_b) + dec.moment.T @ dec.moment
    m = 0.5 * (m + m.T)
    lams = np.linalg.eigvalsh(m)
    return DeficitMatrix(matrix=m, lambda_max=float(lams[-1]), trace=float(np.trace(m)))


def _deficit_result(rho, layout, value, k_vec, method, functional) -> DeficitResult:
    kd = MeasurementDirection(k_vec)
    if functional.family == FAMILY_RENYI:
        # Same stationary points as the Tsallis family at equal q.
        res_functional = tsallis(functional.q)
    else:
        res_functional = functional
    residual = stationarity_residual(rho, layout, kd, res_functional, mode="deficit")
    value = float(value)
    if value < 0.0:
        value = 0.0 if value > -1e-9 else value
    return DeficitResult(
        value=value,
        k_star=kd,
        theta=kd.theta,
        phi=kd.phi,
        method=method,
        stationarity_residual=residual,
    )


def deficit(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    functional: EntropyFunctional,
    cfg: SearchConfig | None = None,
) -> DeficitResult:
    """Minimize S_f(rho'(k)) - S_f(rho) by grid search plus Newton refinement."""
    cfg = cfg or DEFAULT_SEARCH
    ctx = PairContext(rho, layout)
    base = float(spectrum_entropy(ctx.joint_spectrum, functional))
    k, val = _grid_refine(lambda dirs: ctx.measured_joint_entropy(dirs, functional), cfg=cfg)
    return _deficit_result(rho, layout, val - base, k, GRID_REFINE, functional)


def quadratic_deficit_closed(rho: DensityMatrix, layout: BipartiteLayout) -> DeficitResult:
    """Closed-form quadratic deficit from the dominant eigenvector of M.

    At an exact eigenvalue tie the reported direction maximizes |k_z| and
    then |k_x| within the tied subspace, so sweep outputs step cleanly.
    """
    dm = deficit_matrix(rho, layout)
    lams, vecs = np.linalg.eigh(dm.matrix)
    tied = lams >= dm.lambda_max - TIE_TOL
    k = dominant_direction(vecs[:, tied])
    value = (dm.trace - dm.lambda_max) / layout.d_a
    return _deficit_result(rho, layout, value, k, CLOSED_FORM, QUADRATIC)


def renyi_deficit(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    q: float,
    cfg: SearchConfig | None = None,
) -> DeficitResult:
    """Renyi-q deficit: min_k log2(Tr rho'^q / Tr rho^q) / (1 - q).

    The optimizer is exactly the Tsallis-q one (closed form at q = 2); only
    the value is transformed.
    """
    q = float(q)
    if q <= 0.0 or q == 1.0:
        raise InvalidQ(f"q must be positive and different from 1, got {q}")
    if q == 2.0:
        inner = quadratic_deficit_closed(rho, layout)
    else:
        inner = deficit(rho, layout, tsallis(q), cfg)
    ctx = PairContext(rho, layout)
    power_after = ctx.measured_power_trace(inner.k_star.k, q)
    power_before = float((np.clip(ctx.joint_spectrum, 0.0, None) ** q).sum())
    value = np.log2(max(power_after, _LOG_FLOOR) / max(power_before, _LOG_FLOOR)) / (1.0 - q)
    if value < 0.0:
        value = 0.0 if value > -1e-9 else float(value)
    return DeficitResult(
        value=float(value),
        k_star=inner.k_star,
        theta=inner.theta,
        phi=inner.phi,
        method=inner.method,
        stationarity_residual=inner.stationarity_residual,
    )


def _log2_matrix(mat: np.ndarray) -> np.ndarray:
    lams, vecs = np.linalg.eigh(mat)
    lams = np.clip(lams, _LOG_FLOOR, None)
    return (vecs * np.log2(lams)) @ vecs.conj().T


def stationarity_residual(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    k,
    functional: EntropyFunctional,
    mode: str = "deficit",
) -> float:
    """Frobenius norm of the optimality commutator at direction k.

    Deficit mode evaluates ``Tr_A [f'(rho'(k)), rho]``; discord mode, defined
    for the von Neumann family only, adds ``[log2 rho'_B, rho_B]``.  The
    residual vanishes at minimizing directions and grows with the distance
    from stationarity, so it doubles as a convergence diagnostic.
    """
    if functional.family == FAMILY_RENYI:
        raise UnsupportedFamily("stationarity residual is defined for trace forms only")
    if mode not in ("deficit", "discord"):
        raise ValueError(f"mode must be 'deficit' or 'discord', got {mode!r}")
    if mode == "discord" and functional.family != FAMILY_VON_NEUMANN:
        raise UnsupportedFamily("discord-mode residual is defined for the von Neumann family")
    layout.require_qubit_b()
    pinched = unread_state(rho, layout, k)
    fp = f_prime_matrix(pinched, functional)
    comm = fp @ rho.entries - rho.entries @ fp
    d_a = layout.d_a
    reduced = np.einsum("aiaj->ij", comm.reshape(d_a, 2, d_a, 2))
    if mode == "discord":
        rho_b = partial_trace(rho, layout, keep="B").entries
        pinched_b = np.einsum("aiaj->ij", pinched.entries.reshape(d_a, 2, d_a, 2))
        log_b = _log2_matrix(pinched_b)
        reduced = reduced + (log_b @ rho_b - rho_b @ log_b)
    return float(np.linalg.norm(reduced))
