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
Every deficit is one job of :func:`qcorr.discord._optimize` on the state's
pair context: a searched one is the measure letter "I", the closed-form I_2
the callable that reads it off the context's Bloch decomposition.  The state
object keeps each finished result on its context.  Renyi deficits share the
Tsallis optimizer at the same q (at q = 2 the closed form); their value is a
function of the Tsallis deficit there, so the Renyi deficit takes that result
whole, and no second evaluation is needed.
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

from ._pairstate import pair_context
from ._pairstate import stationarity_residual  # noqa: F401 (public)
from ._sphere import dominant_direction
from .discord import (
    CLOSED_FORM,
    TIE_TOL,
    OptimizationResult,
    SearchConfig,
    _clip_noise,
    _optimize,
)
from .entropy import FAMILY_RENYI, QUADRATIC, EntropyFunctional, tsallis
from .statekit import BipartiteLayout, DensityMatrix


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
    return _deficit_eigh(pair_context(rho, layout).dec)[0]


def _deficit_eigh(dec) -> tuple[DeficitMatrix, np.ndarray, np.ndarray]:
    """The deficit matrix of a decomposition with its eigenvalues and vectors, from one ``eigh``."""
    m = np.outer(dec.r_b, dec.r_b) + dec.moment.T @ dec.moment
    m = 0.5 * (m + m.T)
    lams, vecs = np.linalg.eigh(m)
    return DeficitMatrix(matrix=m, lambda_max=float(lams[-1]), trace=float(np.trace(m))), lams, vecs


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
    return _optimize([(pair_context(rho, layout), "I", functional)], cfg)[0]


def quadratic_deficit_closed(rho: DensityMatrix, layout: BipartiteLayout) -> OptimizationResult:
    """Closed-form quadratic deficit from the dominant eigenvector of M.

    At an exact eigenvalue tie the reported direction maximizes |k_z| and
    then |k_x| within the tied subspace, so sweep outputs step cleanly.
    """
    return _optimize([(pair_context(rho, layout), _i2_row, QUADRATIC)])[0]


def _i2_row(ctx) -> tuple:
    """The closed-form quadratic deficit of a context, as a closed-form job of ``_optimize``."""
    dm, lams, vecs = _deficit_eigh(ctx.dec)
    k = dominant_direction(vecs[:, lams >= dm.lambda_max - TIE_TOL])
    return _clip_noise((dm.trace - dm.lambda_max) / ctx.d_a), k, CLOSED_FORM, "deficit"


def renyi_deficit(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    q: float,
    cfg: SearchConfig | None = None,
) -> OptimizationResult:
    """Renyi-q deficit: min_k log2(Tr rho'^q / Tr rho^q) / (1 - q).

    The Tsallis-q result (at q = 2 the closed form) is taken whole, direction
    and residual included, and is the one the state object already has if
    :func:`deficit` or :func:`quadratic_deficit_closed` ran on it; either way
    it is kept for them.  The value follows from I_q there:
    ``Tr rho'^q = Tr rho^q - (1 - 2^(1-q)) I_q``.
    """
    functional = tsallis(q)
    job = (_i2_row, QUADRATIC) if functional.q == 2.0 else ("I", functional)
    ctx = pair_context(rho, layout)
    return _renyi_from(_optimize([(ctx, *job)], cfg)[0], ctx.joint_spectrum, functional.q)


def _renyi_from(inner: OptimizationResult, spectrum, q: float) -> OptimizationResult:
    """The Renyi-q deficit from the Tsallis-q result ``inner`` of a state of this spectrum."""
    power_before = float((np.clip(spectrum, 0.0, None) ** q).sum())
    power_after = power_before - (1.0 - 2.0 ** (1.0 - q)) * inner.value
    return replace(inner, value=_clip_noise(np.log2(power_after / power_before) / (1.0 - q)))
