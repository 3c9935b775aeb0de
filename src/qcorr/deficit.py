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
Renyi deficits share the Tsallis optimizer at the same q; their value is a
function of the Tsallis deficit there, so no second evaluation is needed.
Every minimization returns a :class:`qcorr.discord.OptimizationResult`
whose ``residual`` is the stationarity residual below.

Optimality of a direction is checked through the commutator residual
``Tr_A [f'(rho'), rho]`` of :func:`stationarity_residual`, which vanishes at
stationary points; the discord variant adds ``[log2 rho'_B, rho_B]``.  Both
come from the pinched state's blocks ``M_s = Tr_B[rho (I x P_sk)]``:
``f'(rho') = sum_s f'(M_s) (x) P_sk`` and ``rho'_B = sum_s (Tr M_s) P_sk``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._pairstate import PairContext, stationarity_residual
from ._sphere import dominant_direction
from .discord import (
    CLOSED_FORM,
    DEFAULT_SEARCH,
    GRID_REFINE,
    TIE_TOL,
    OptimizationResult,
    SearchConfig,
    _clip_noise,
    _grid_refine,
)
from .entropy import FAMILY_RENYI, QUADRATIC, EntropyFunctional, spectrum_entropy, tsallis
from .measurement import MeasurementDirection
from .statekit import BipartiteLayout, DensityMatrix, bloch_decompose


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
    dec = bloch_decompose(rho, layout)
    m = np.outer(dec.r_b, dec.r_b) + dec.moment.T @ dec.moment
    m = 0.5 * (m + m.T)
    lams = np.linalg.eigvalsh(m)
    return DeficitMatrix(matrix=m, lambda_max=float(lams[-1]), trace=float(np.trace(m)))


def _deficit_result(rho, layout, value, k_vec, method, functional) -> OptimizationResult:
    kd = MeasurementDirection(k_vec)
    residual = stationarity_residual(rho, layout, kd, functional, mode="deficit")
    return OptimizationResult(_clip_noise(value), kd, method, residual)


def deficit(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    functional: EntropyFunctional,
    cfg: SearchConfig | None = None,
) -> OptimizationResult:
    """Minimize S_f(rho'(k)) - S_f(rho) by grid search plus Newton refinement.

    A Renyi functional is handed to :func:`renyi_deficit`.
    """
    if functional.family == FAMILY_RENYI:
        return renyi_deficit(rho, layout, functional.q, cfg)
    cfg = cfg or DEFAULT_SEARCH
    ctx = PairContext(rho, layout)
    base = float(spectrum_entropy(ctx.joint_spectrum, functional))
    k, val = _grid_refine(lambda dirs: ctx.measured_joint_entropy(dirs, functional), cfg=cfg)
    return _deficit_result(rho, layout, val - base, k, GRID_REFINE, functional)


def quadratic_deficit_closed(rho: DensityMatrix, layout: BipartiteLayout) -> OptimizationResult:
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
) -> OptimizationResult:
    """Renyi-q deficit: min_k log2(Tr rho'^q / Tr rho^q) / (1 - q).

    The optimizer is exactly the Tsallis-q one (closed form at q = 2), and
    the value follows from the Tsallis deficit I_q at that optimizer:
    ``Tr rho'^q = Tr rho^q - (1 - 2^(1-q)) I_q``.
    """
    functional = tsallis(q)
    q = functional.q
    if q == 2.0:
        inner = quadratic_deficit_closed(rho, layout)
    else:
        inner = deficit(rho, layout, functional, cfg)
    power_before = float((np.clip(np.linalg.eigvalsh(rho.entries), 0.0, None) ** q).sum())
    power_after = power_before - (1.0 - 2.0 ** (1.0 - q)) * inner.value
    return replace(inner, value=_clip_noise(np.log2(power_after / power_before) / (1.0 - q)))
