"""Quantum discord and minimum measured conditional entropies.

The discord of A given B is the gap between the measured and unmeasured
conditional entropies, minimized over projective measurements on the qubit B:

    D(A|B) = min_k S(A|B_k) - [S(rho_AB) - S(rho_B)]

It vanishes exactly on states that are invariant under measurement in some
basis and reduces to the entanglement entropy on pure states.

Every optimized measure of the package, here and in :mod:`qcorr.deficit`,
returns an :class:`OptimizationResult`: the value, the minimizing direction
``k_star`` (with ``theta`` and ``phi`` read from it), the method and a
stationarity residual.

The generic minimization evaluates an exhaustive hemisphere grid, then
refines its lowest few local minima together with a batched finite-difference
Newton method in tangent charts; the lowest refined minimum wins.  For the
quadratic entropy the minimum has a closed form: the purity gain is a ratio
of quadratic forms in k, maximized by the top eigenvector of the pencil
``corr^T corr k = lam (I - r_b r_b^T) k``, which is solved here through the
whitened tensor ``C_N = corr (I - r_b r_b^T)^(-1/2)`` and its largest
singular value.  The same singular structure defines the
correlation ellipsoid traced by the post-measurement Bloch vectors of A.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._pairstate import PairContext, stationarity_residual
from ._sphere import dominant_direction, grid_minima, minimize_on_sphere, sphere_grid
from .entropy import FAMILY_VON_NEUMANN, VON_NEUMANN, EntropyFunctional, entropy
from .measurement import MeasurementDirection
from .statekit import BipartiteLayout, DensityMatrix, bloch_decompose, partial_trace

CLOSED_FORM = "closed_form"
GRID_REFINE = "grid_refine"

#: Marginal purity threshold: below it the B marginal is effectively pure,
#: correlations vanish and every direction is optimal.
DEGENERATE_MARGINAL_TOL = 1e-9
#: Eigenvalue window treated as an exact tie when selecting the optimizer.
TIE_TOL = 1e-10
#: Lowest grid local minima refined together.  Competing basins can lie
#: closer than the grid's discretization error (in a tilted field, where the
#: discord direction hands over from the xz plane to the y axis, two lie
#: within 1.4e-6), so refining the grid argmin alone is not enough.
REFINE_STARTS = 4
#: Refined minima within this of the lowest are ties, resolved in favour of
#: the lowest grid start, so that symmetric basins are reported stably.
BASIN_TIE = 1e-13


@dataclass(frozen=True)
class SearchConfig:
    """Grid resolution and refinement controls for the sphere search.

    The hemisphere grid has ``grid_theta + 1`` polar rows of ``grid_phi``
    azimuths.  Refinement stops a start once a step predicted to gain less
    than ``refine_tol`` has been evaluated and gained no more, and runs at
    most ``refine_max_iter`` iterations of one batched objective call each
    (see :func:`qcorr._sphere.minimize_on_sphere`).
    """

    grid_theta: int = 60
    grid_phi: int = 120
    refine_tol: float = 1e-10
    refine_max_iter: int = 200

    def __post_init__(self):
        if self.grid_theta < 8 or self.grid_phi < 8:
            raise ValueError("grids must have at least 8 points per angle")
        if self.refine_tol <= 0.0 or self.refine_max_iter <= 0:
            raise ValueError("refinement tolerance and iteration budget must be positive")


DEFAULT_SEARCH = SearchConfig()


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a measurement optimization: discord, conditional entropy or deficit.

    ``residual`` is a stationarity diagnostic: for grid-refined von Neumann
    conditional entropies and for every deficit it is the commutator
    residual of the optimality condition (see
    :func:`qcorr.deficit.stationarity_residual`), for the closed-form
    conditional entropy it is the generalized-eigenproblem defect.  It is
    None when no diagnostic is defined for the family.
    """

    value: float
    k_star: MeasurementDirection
    method: str
    residual: float | None = None
    degenerate_marginal: bool = False

    @property
    def theta(self) -> float:
        return self.k_star.theta

    @property
    def phi(self) -> float:
        return self.k_star.phi


@dataclass(frozen=True)
class CorrelationEllipsoid:
    """Principal structure of the post-measurement Bloch-vector ellipsoid.

    ``semi_axes`` are the singular values of the whitened correlation tensor
    in descending order.  ``axis_dirs_b`` are the corresponding orthonormal
    directions in the whitened measurement space of B, ``axis_dirs_a`` the
    orthonormal image directions in the Bloch space of A, and ``center`` the
    unmeasured Bloch vector of A.
    """

    semi_axes: np.ndarray
    axis_dirs_b: np.ndarray  # (3, 3), rows
    axis_dirs_a: np.ndarray  # (3, d_a^2 - 1), rows
    center: np.ndarray
    degenerate_marginal: bool = False


def _result(value, k_vec, method, residual=None, degenerate=False) -> OptimizationResult:
    kd = MeasurementDirection(k_vec)
    return OptimizationResult(float(value), kd, method, residual, degenerate)


def _clip_noise(value: float) -> float:
    """Value of a nonnegative measure; floating-point noise within 1e-9 below zero reads 0."""
    return 0.0 if -1e-9 < value < 0.0 else float(value)


def _grid_refine(objective, cfg: SearchConfig):
    """Hemisphere grid, then Newton refinement of its lowest local minima.

    ``objective`` maps an (M, 3) array of directions to (M,) values.  Up to
    :data:`REFINE_STARTS` grid minima are refined together, with the grid
    spacing as initial trust radius; the result is never worse than the
    grid minimum.
    """
    grid = sphere_grid(cfg.grid_theta, cfg.grid_phi)
    values = objective(grid)
    starts = grid_minima(values, cfg.grid_theta, cfg.grid_phi)[:REFINE_STARTS]
    step = max(0.5 * np.pi / cfg.grid_theta, 2.0 * np.pi / cfg.grid_phi)
    ks, vals = minimize_on_sphere(
        objective, grid[starts], step, cfg.refine_tol, cfg.refine_max_iter
    )
    best = int(np.flatnonzero(vals <= vals.min() + BASIN_TIE)[0])
    if values[starts[0]] < vals[best]:
        return grid[starts[0]], float(values[starts[0]])
    return ks[best], float(vals[best])


def conditional_entropy_min(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    functional: EntropyFunctional,
    cfg: SearchConfig | None = None,
) -> OptimizationResult:
    """Minimize the measured conditional entropy over projective directions.

    For the quadratic family this agrees with :func:`quadratic_closed_form`
    up to the refinement tolerance, which is exercised by the test suite.
    """
    cfg = cfg or DEFAULT_SEARCH
    ctx = PairContext(rho, layout)
    k, val = _grid_refine(lambda dirs: ctx.conditional_entropy(dirs, functional), cfg=cfg)
    residual = None
    if functional.family == FAMILY_VON_NEUMANN:
        residual = stationarity_residual(rho, layout, k, functional, mode="discord")
    return _result(val, k, GRID_REFINE, residual)


def discord(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    cfg: SearchConfig | None = None,
) -> OptimizationResult:
    """Quantum discord D(A|B) over projective measurements on B.

    Nonnegative by concavity; tiny negative values from floating-point noise
    (within 1e-9) are clipped to zero.
    """
    cond = conditional_entropy_min(rho, layout, VON_NEUMANN, cfg)
    rho_b = partial_trace(rho, layout, keep="B")
    baseline = entropy(rho, VON_NEUMANN) - entropy(rho_b, VON_NEUMANN)
    return replace(cond, value=_clip_noise(cond.value - baseline))


def _whitener(r_b: np.ndarray) -> np.ndarray:
    """Inverse square root of I - r_b r_b^T, for 1 - |r_b| >= ``DEGENERATE_MARGINAL_TOL``."""
    rb2 = float(r_b @ r_b)
    eye = np.eye(3)
    if rb2 < 1e-30:
        return eye
    hat = np.outer(r_b, r_b) / rb2
    return (eye - hat) + hat / np.sqrt(1.0 - rb2)


def quadratic_closed_form(rho: DensityMatrix, layout: BipartiteLayout) -> OptimizationResult:
    """Closed-form minimum of the quadratic conditional entropy.

    Solves ``corr^T corr k = lam (I - r_b r_b^T) k`` and returns
    ``S_2(rho_A) - 2 lam_max / d_a`` together with the optimizing direction.
    When the B marginal is pure within 1e-9 the correlation tensor vanishes,
    any direction is optimal and the result carries the degenerate flag with
    k = z by convention.
    """
    dec = bloch_decompose(rho, layout)
    d_a = layout.d_a
    s2_a = (2.0 / d_a) * (d_a - 1.0 - float(dec.r_a @ dec.r_a))
    if 1.0 - np.linalg.norm(dec.r_b) < DEGENERATE_MARGINAL_TOL:
        return _result(s2_a, np.array([0.0, 0.0, 1.0]), CLOSED_FORM, degenerate=True)
    white = _whitener(dec.r_b)
    gram = white @ (dec.corr.T @ dec.corr) @ white
    gram = 0.5 * (gram + gram.T)
    lams, vecs = np.linalg.eigh(gram)
    lam_max = lams[-1]
    tied = lams >= lam_max - TIE_TOL
    k = dominant_direction(white @ vecs[:, tied])
    n_b = np.eye(3) - np.outer(dec.r_b, dec.r_b)
    residual = float(np.linalg.norm(dec.corr.T @ dec.corr @ k - lam_max * (n_b @ k)))
    return _result(s2_a - 2.0 * lam_max / d_a, k, CLOSED_FORM, residual)


def ellipsoid(rho: DensityMatrix, layout: BipartiteLayout) -> CorrelationEllipsoid:
    """Singular structure of the whitened correlation tensor.

    The direction returned by :func:`quadratic_closed_form` shifts the
    post-measurement Bloch vector of A along the major axis of this
    ellipsoid.
    """
    dec = bloch_decompose(rho, layout)
    n = dec.corr.shape[0]
    if 1.0 - np.linalg.norm(dec.r_b) < DEGENERATE_MARGINAL_TOL:
        return CorrelationEllipsoid(
            semi_axes=np.zeros(3),
            axis_dirs_b=np.eye(3),
            axis_dirs_a=np.eye(n)[:3],
            center=dec.r_a.copy(),
            degenerate_marginal=True,
        )
    white = _whitener(dec.r_b)
    u, s, vt = np.linalg.svd(dec.corr @ white, full_matrices=False)
    return CorrelationEllipsoid(
        semi_axes=s,
        axis_dirs_b=vt,
        axis_dirs_a=u.T[:3],
        center=dec.r_a.copy(),
    )
