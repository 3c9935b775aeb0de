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

from dataclasses import dataclass

import numpy as np

from ._pairstate import SearchStack, pair_context, stationarity_residuals
from ._sphere import dominant_direction, folded_grid, grid_minima, minimize_on_sphere
from .entropy import FAMILY_VON_NEUMANN, VON_NEUMANN, EntropyFunctional, spectrum_entropy
from .measurement import MeasurementDirection
from .statekit import BipartiteLayout, DensityMatrix

CLOSED_FORM = "closed_form"
GRID_REFINE = "grid_refine"

#: Marginal purity threshold: below it the B marginal is effectively pure,
#: correlations vanish and every direction is optimal.
DEGENERATE_MARGINAL_TOL = 1e-9
#: Joint purity threshold: with the largest eigenvalue within it of 1 the state
#: is pure, S(A|B_k) = 0 for every k, and the discord is reported at k = z.
PURE_TOL = 1e-12
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


def _grid_refine(objective, cfg: SearchConfig, *, folds=(0,)):
    """Hemisphere grids, then one Newton refinement of every search's lowest local minima.

    ``objective(dirs, i)`` gives search i's values at the (M, 3) directions,
    ``objective(dirs)`` those of search 0 (all that a plain objective of one
    search takes), and for an (M,) array i row j's of search ``i[j]``.
    Search i is evaluated on the orbit representatives of ``folds[i]`` (see
    :func:`qcorr._sphere.folded_grid`) only, the other grid points taking
    their representative's value.  Up to :data:`REFINE_STARTS` grid minima
    of each search, one per orbit, are refined in one run, with the grid
    spacing as initial trust radius.  Each search keeps its best start, never
    worse than its grid minimum; returns their directions (n, 3) and values
    (n,).
    """
    grids = [folded_grid(cfg.grid_theta, cfg.grid_phi, fold) for fold in folds]
    values = [objective(grid, i) if i else objective(grid) for i, (grid, _) in enumerate(grids)]
    starts = []
    for v, (_, orbit) in zip(values, grids):
        found = orbit[grid_minima(v[orbit], cfg.grid_theta, cfg.grid_phi)]
        starts.append(found[np.sort(np.unique(found, return_index=True)[1])][:REFINE_STARTS])
    owners = np.repeat(np.arange(len(grids)), [len(f) for f in starts])
    step = max(0.5 * np.pi / cfg.grid_theta, 2.0 * np.pi / cfg.grid_phi)
    points = np.concatenate([grid[f] for (grid, _), f in zip(grids, starts)])
    one = len(grids) == 1  # one search is called as objective(dirs)
    ks, vals = minimize_on_sphere(
        objective, points, step, cfg.refine_tol, cfg.refine_max_iter, None if one else owners
    )
    best = []
    for i, ((grid, _), first, v) in enumerate(zip(grids, starts, values)):
        k_i, v_i = ks[owners == i], vals[owners == i]
        j = int(np.flatnonzero(v_i <= v_i.min() + BASIN_TIE)[0])
        best.append((grid[first[0]], v[first[0]]) if v[first[0]] < v_i[j] else (k_i[j], v_i[j]))
    return np.array([k for k, _ in best]), np.array([v for _, v in best])


def _optimize(jobs, cfg: SearchConfig | None = None) -> list[OptimizationResult]:
    """Results of jobs ``(ctx, measure, functional)``: the searches run as one stack.

    A measure letter is a search: "D" the discord, "S" the minimum conditional
    entropy and "I" the deficit.  A callable is a closed form: ``measure(ctx)``
    gives ``(value, k, method, residual mode)``.  A result is kept in its
    context's ``results``, a search's under ``(measure, functional, cfg)`` and a
    closed form's under ``(measure, functional)`` for any search config, and a
    job whose context holds its key is not run again.  All residuals come from
    one batched call.
    """
    cfg = cfg or DEFAULT_SEARCH
    keyed = [(ctx, m, f, (m, f) if callable(m) else (m, f, cfg)) for ctx, m, f in jobs]
    new = [job for job in keyed if job[3] not in job[0].results]
    new.sort(key=lambda job: callable(job[1]))  # the searches first, in job order
    searches = [job for job in new if not callable(job[1])]
    rows = []
    if searches:
        stack = SearchStack([(ctx, measure == "I", f) for ctx, measure, f, _ in searches])
        ks, vals = _grid_refine(stack, cfg=cfg, folds=[job[0].fold for job in searches])
        for (ctx, measure, f, _), k, value in zip(searches, ks, vals):
            mode = "discord" if f.family == FAMILY_VON_NEUMANN else None
            joint = spectrum_entropy(ctx.joint_spectrum, f)
            if measure == "D":
                s_b = spectrum_entropy(np.linalg.eigvalsh(ctx.dec.rho_b), VON_NEUMANN)
                value = _clip_noise(value - float(joint - s_b))
                if ctx.joint_spectrum[-1] > 1.0 - PURE_TOL:
                    k = np.array([0.0, 0.0, 1.0])
            elif measure == "I":
                value, mode = _clip_noise(value - float(joint)), "deficit"
            rows.append((value, ctx.canonical(k), GRID_REFINE, mode))
    rows += [measure(ctx) for ctx, measure, _, _ in new[len(searches):]]
    kds = [MeasurementDirection(row[1]) for row in rows]
    ctxs, functionals, modes = [j[0] for j in new], [j[2] for j in new], [r[3] for r in rows]
    residuals = stationarity_residuals(ctxs, kds, functionals, modes)
    for (ctx, _, _, key), (value, _, method, _), kd, res in zip(new, rows, kds, residuals):
        ctx.results[key] = OptimizationResult(float(value), kd, method, res)
    return [ctx.results[key] for ctx, _, _, key in keyed]


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
    return _optimize([(pair_context(rho, layout), "S", functional)], cfg)[0]


def discord(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    cfg: SearchConfig | None = None,
) -> OptimizationResult:
    """Quantum discord D(A|B) over projective measurements on B.

    Nonnegative by concavity; tiny negative values from floating-point noise
    (within 1e-9) are clipped to zero.
    """
    return _optimize([(pair_context(rho, layout), "D", VON_NEUMANN)], cfg)[0]


def _whitener(r_b: np.ndarray) -> np.ndarray:
    """Inverse square root of I - r_b r_b^T, for 1 - |r_b| >= ``DEGENERATE_MARGINAL_TOL``."""
    rb2 = float(r_b @ r_b)
    eye = np.eye(3)
    if rb2 < 1e-30:
        return eye
    hat = np.outer(r_b, r_b) / rb2
    return (eye - hat) + hat / np.sqrt(1.0 - rb2)


def _whitened_svd(dec):
    """The whitener W of ``dec.r_b`` and the SVD ``u, s, vt`` of ``dec.corr @ W``."""
    white = _whitener(dec.r_b)
    return white, *np.linalg.svd(dec.corr @ white, full_matrices=False)


def quadratic_closed_form(rho: DensityMatrix, layout: BipartiteLayout) -> OptimizationResult:
    """Closed-form minimum of the quadratic conditional entropy.

    Solves ``corr^T corr k = lam (I - r_b r_b^T) k`` and returns
    ``S_2(rho_A) - 2 lam_max / d_a`` together with the optimizing direction.
    When the B marginal is pure within 1e-9 the correlation tensor vanishes,
    any direction is optimal and the result carries the degenerate flag with
    k = z by convention.
    """
    return _s2_closed(pair_context(rho, layout))


def _s2_closed(ctx) -> OptimizationResult:
    """:func:`quadratic_closed_form` from a context's Bloch decomposition."""
    dec, d_a = ctx.dec, ctx.d_a
    s2_a = (2.0 / d_a) * (d_a - 1.0 - float(dec.r_a @ dec.r_a))
    if 1.0 - np.linalg.norm(dec.r_b) < DEGENERATE_MARGINAL_TOL:
        return _result(s2_a, np.array([0.0, 0.0, 1.0]), CLOSED_FORM, degenerate=True)
    white, _, s, vt = _whitened_svd(dec)
    lam_max = s[0] * s[0]
    k = dominant_direction(white @ vt[s * s >= lam_max - TIE_TOL].T)
    n_b = np.eye(3) - np.outer(dec.r_b, dec.r_b)
    residual = float(np.linalg.norm(dec.corr.T @ dec.corr @ k - lam_max * (n_b @ k)))
    return _result(s2_a - 2.0 * lam_max / d_a, k, CLOSED_FORM, residual)


def ellipsoid(rho: DensityMatrix, layout: BipartiteLayout) -> CorrelationEllipsoid:
    """Singular structure of the whitened correlation tensor.

    The direction returned by :func:`quadratic_closed_form` shifts the
    post-measurement Bloch vector of A along the major axis of this
    ellipsoid: both come from the one SVD of :func:`_whitened_svd`.
    """
    dec = pair_context(rho, layout).dec
    if 1.0 - np.linalg.norm(dec.r_b) < DEGENERATE_MARGINAL_TOL:
        return CorrelationEllipsoid(
            semi_axes=np.zeros(3),
            axis_dirs_b=np.eye(3),
            axis_dirs_a=np.eye(dec.corr.shape[0])[:3],
            center=dec.r_a.copy(),
            degenerate_marginal=True,
        )
    _, u, s, vt = _whitened_svd(dec)
    return CorrelationEllipsoid(
        semi_axes=s,
        axis_dirs_b=vt,
        axis_dirs_a=u.T[:3],
        center=dec.r_a.copy(),
    )
