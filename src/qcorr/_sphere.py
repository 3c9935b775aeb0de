"""Sphere-search machinery shared by the discord and deficit optimizers.

Objectives here are even in k (k and -k define the same projective
measurement), so the grid covers the upper hemisphere only.  An objective
that is also even in k_y, or in (k_x, k_y) as well, is evaluated only on the
grid points that represent their orbits (:func:`folded_grid`).  Refinement is a
batched finite-difference Newton method in local tangent charts, which avoid
the polar coordinate singularity.  Each iteration evaluates a 9-point stencil
around every active start in one call to the batched objective; the Newton
steps make reported optima sharp enough for stationarity diagnostics.
"""

from __future__ import annotations

import numpy as np

#: Stencil half-width in the tangent chart, as a fraction of the trust
#: radius at the start and then of the step that led to the stencil's
#: centre, so that it shrinks with the steps; never below FD_STEP_MIN
#: radians.  Wide early stencils see through rounding noise (q < 1 entropies
#: of singular blocks) and narrow late ones resolve kinks.
FD_FRACTION = 0.125
FD_STEP_MIN = 1e-8
#: Widest stencil whose derivatives may end a start; this bounds the
#: finite-difference bias of the final point.
SETTLE_WIDTH = 2e-4

_GRID_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
# Unit chart offsets of the 3x3 stencil; row 4 is the centre.
_STENCIL = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)], dtype=float)
_CENTRE = 4


def folded_grid(grid_theta: int, grid_phi: int, fold: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Orbit representatives of the upper-hemisphere grid and the map onto them.

    The grid has ``grid_theta + 1`` rings, pole to equator, of ``grid_phi``
    directions; ``fold`` 0 keeps it whole.  ``fold`` 1 identifies phi with
    -phi (an objective even in k_y), and 2 also with phi + pi (even in
    (k_x, k_y) too), leaving phi in [0, pi] or [0, pi/2]; the half turn maps
    grid columns onto columns only for even ``grid_phi``, so odd ones fold by
    the mirror alone.  A folded grid counts the pole once.  Returns the
    representative directions (rows of the full grid) and, for every
    full-grid point, its row among them; both arrays are shared and read-only.
    """
    fold = 1 if fold == 2 and grid_phi % 2 else fold
    key = (grid_theta, grid_phi, fold)
    if key not in _GRID_CACHE:
        thetas = np.linspace(0.0, 0.5 * np.pi, grid_theta + 1)
        phis = np.linspace(0.0, 2.0 * np.pi, grid_phi, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        k = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        orbit = np.arange(len(k))
        if fold:  # column j's orbit: +/-j plus multiples of period; the pole is one point
            col, period = orbit % grid_phi, grid_phi // fold
            rep = np.where(orbit < grid_phi, 0, orbit - col + np.minimum(col % period, -col % period))
            reps, orbit = np.unique(rep, return_inverse=True)
            k = k[reps]
        k.setflags(write=False)
        orbit.setflags(write=False)
        _GRID_CACHE[key] = (k, orbit)
    return _GRID_CACHE[key]


def is_sphere_grid(dirs) -> bool:
    """Whether dirs is one of the shared, read-only :func:`folded_grid` arrays."""
    return any(dirs is grid for grid, _ in _GRID_CACHE.values())


def grid_minima(values: np.ndarray, grid_theta: int, grid_phi: int) -> np.ndarray:
    """Indices of the local minima of values on the full :func:`folded_grid`, lowest first.

    A point is a minimum if none of its eight grid neighbours is lower.
    Neighbours across the pole, and across the equator (where k and -k are
    the same measurement), lie half a turn away in phi; for odd ``grid_phi``
    that half turn is rounded down to a grid column.  The pole counts once,
    as a minimum only if it is not above any point of the first ring, and
    the duplicate half of the equator is dropped.  Ties keep grid order.
    """
    n_t, n_p = grid_theta + 1, grid_phi
    half = n_p // 2
    v = np.asarray(values).reshape(n_t, n_p)
    ext = np.vstack([np.roll(v[1:2], half, axis=1), v, np.roll(v[-2:-1], half, axis=1)])
    ext = np.hstack([ext[:, -1:], ext, ext[:, :1]])
    is_min = np.ones(v.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= v <= ext[1 + di : 1 + di + n_t, 1 + dj : 1 + dj + n_p]
    is_min[0, 0] = is_min[0].all()
    is_min[0, 1:] = False
    is_min[-1, half:] = False
    found = np.flatnonzero(is_min)
    return found[np.argsort(v.ravel()[found], kind="stable")]


def _tangent_bases(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent vectors (u, v) at each row of ks.

    u is z x k away from the poles and x x k near them, normalized; v = k x u.
    """
    x, y, z = ks.T
    polar = np.abs(z) >= 0.9
    zero = np.zeros_like(x)
    u = np.stack([np.where(polar, zero, -y), np.where(polar, -z, x), np.where(polar, y, zero)], -1)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    v = ks[:, [1, 2, 0]] * u[:, [2, 0, 1]] - ks[:, [2, 0, 1]] * u[:, [1, 2, 0]]
    return u, v


def _chart(ks, u, v, t):
    """Points normalize(k + t_1 u + t_2 v); t has shape (n, 2) or (n, m, 2)."""
    if t.ndim == 3:
        ks, u, v = ks[:, None], u[:, None], v[:, None]
    p = ks + t[..., :1] * u + t[..., 1:] * v
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def _derivatives(vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central differences from 3x3 stencils of half-width h.

    Returns rows (g_1, g_2, H_11, H_12, H_22) of the local quadratic model.
    """
    f = vals.reshape(-1, 3, 3)
    model = np.empty((len(f), 5))
    model[:, 0] = f[:, 2, 1] - f[:, 0, 1]
    model[:, 1] = f[:, 1, 2] - f[:, 1, 0]
    model[:, :2] /= 2.0 * h[:, None]
    model[:, 2] = f[:, 2, 1] - 2.0 * f[:, 1, 1] + f[:, 0, 1]
    model[:, 3] = 0.25 * (f[:, 2, 2] - f[:, 2, 0] - f[:, 0, 2] + f[:, 0, 0])
    model[:, 4] = f[:, 1, 2] - 2.0 * f[:, 1, 1] + f[:, 1, 0]
    model[:, 2:] /= (h * h)[:, None]
    return model


def _steps(model, radius):
    """Trust-region steps (n, 2) and their predicted decreases.

    Newton steps where the Hessian is positive definite, otherwise a step
    along the negative gradient to the model minimum on that line; both are
    clipped to the trust radius.
    """
    g1, g2, h11, h12, h22 = model.T
    det = h11 * h22 - h12 * h12
    newton = (h11 > 0.0) & (det > 0.0)
    inv_det = 1.0 / np.where(newton, det, 1.0)
    gg = g1 * g1 + g2 * g2
    ghg = h11 * g1 * g1 + 2.0 * h12 * g1 * g2 + h22 * g2 * g2
    line = np.where(ghg > 0.0, gg / np.where(ghg > 0.0, ghg, 1.0), radius / np.sqrt(gg + 1e-300))
    s1 = np.where(newton, (h12 * g2 - h22 * g1) * inv_det, -line * g1)
    s2 = np.where(newton, (h12 * g1 - h11 * g2) * inv_det, -line * g2)
    scale = np.minimum(1.0, radius / np.maximum(np.hypot(s1, s2), 1e-300))
    s1, s2 = scale * s1, scale * s2
    pred = -(g1 * s1 + g2 * s2) - 0.5 * (h11 * s1 * s1 + 2.0 * h12 * s1 * s2 + h22 * s2 * s2)
    return np.stack([s1, s2], -1), pred


def minimize_on_sphere(objective, starts, radius, refine_tol, max_iter, owners=None):
    """Batched finite-difference Newton descent on the sphere from several starts.

    ``objective`` maps an (M, 3) array of unit vectors to (M,) values.  Each
    iteration evaluates a 9-point stencil around the pending point of every
    active start, in one objective call.  The stencil's centre value accepts
    the pending step if it does not raise the objective; its other points
    then give the gradient and Hessian for the next step.  A rejected step
    is retried from the stored derivatives with a quarter of its length as
    the trust radius; after a second rejection the derivatives are
    re-estimated on a stencil of that radius, since a kink inside the old
    stencil can make them point uphill.  The trust radius starts at
    ``radius`` and doubles, up to ``radius``, after an accepted step that
    reached it.  A start stops once a step that was predicted to gain less
    than ``refine_tol`` has been evaluated and did not gain more; steps from
    stencils wider than :data:`SETTLE_WIDTH` do not count, and steps from
    stencils at :data:`FD_STEP_MIN` count whatever their prediction.  All
    starts stop after ``max_iter`` iterations.  With ``owners``, the search
    that owns each start, the objective is ``objective(dirs, owner of each row)``.

    Returns the final directions (n, 3) and values (n,), one per start.
    """
    k = np.array(starts, dtype=float, ndmin=2)
    n = len(k)
    value = np.full(n, np.inf)
    u, v, model = np.zeros_like(k), np.zeros_like(k), np.zeros((n, 5))
    trust, reach = np.full(n, float(radius)), np.zeros(n)
    pending, pred = k.copy(), np.full(n, np.inf)
    # Half-width of the pending point's stencil, and of the one at k.
    width, k_width = FD_FRACTION * trust, np.zeros(n)
    fails = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        pu, pv = _tangent_bases(pending[idx])
        points = _chart(pending[idx], pu, pv, width[idx, None, None] * _STENCIL)
        points[:, _CENTRE] = pending[idx]
        rows = () if owners is None else (np.repeat(owners[idx], 9),)
        vals = np.asarray(objective(points.reshape(-1, 3), *rows)).reshape(idx.size, 9)
        # A re-estimate (zero step) is always taken, even if the centre
        # value differs from the stored one in the last bit.
        accepted = (vals[:, _CENTRE] <= value[idx]) | (reach[idx] == 0.0)
        gain = np.where(accepted, value[idx] - vals[:, _CENTRE], 0.0)
        # At the FD_STEP_MIN floor no finer derivatives exist, so a step from
        # such a stencil that gains nothing ends the start whatever it predicted.
        settled = (gain < refine_tol) & (k_width[idx] <= SETTLE_WIDTH)
        settled &= (pred[idx] < refine_tol) | (k_width[idx] <= FD_STEP_MIN)
        ok, bad = idx[accepted], idx[~accepted]
        grown = ok[reach[ok] >= trust[ok]]
        trust[grown] = np.minimum(2.0 * trust[grown], radius)
        k[ok], u[ok], v[ok] = pending[ok], pu[accepted], pv[accepted]
        value[ok] = vals[accepted, _CENTRE]
        model[ok] = _derivatives(vals[accepted], width[ok])
        k_width[ok] = width[ok]
        fails[ok] = 0
        fails[bad] += 1
        trust[bad] = 0.25 * reach[bad]
        active[idx[settled]] = False

        fresh = np.flatnonzero(active & (fails >= 2))
        pending[fresh], reach[fresh], pred[fresh] = k[fresh], 0.0, np.inf
        width[fresh] = np.maximum(trust[fresh], FD_STEP_MIN)
        idx = np.flatnonzero(active & (fails < 2))
        step, pred[idx] = _steps(model[idx], trust[idx])
        reach[idx] = np.linalg.norm(step, axis=-1)
        width[idx] = np.maximum(FD_FRACTION * reach[idx], FD_STEP_MIN)
        pending[idx] = _chart(k[idx], u[idx], v[idx], step)
    return k, value


def dominant_direction(candidates: np.ndarray) -> np.ndarray:
    """Deterministic representative of a (possibly degenerate) eigenspace.

    Given column vectors spanning the tied subspace, returns the unit vector
    in their span that maximizes |k_z|, falling back to |k_x| and then
    |k_y| when the preferred axis is orthogonal to the span.  The columns
    must be linearly independent (tied eigenvectors or singular vectors, or
    their image under an invertible whitener) for QR to give the span's basis.
    """
    basis = np.linalg.qr(np.reshape(candidates, (3, -1)))[0]
    for axis in (2, 0, 1):
        proj = basis @ basis[axis]
        norm = np.linalg.norm(proj)
        if norm > 1e-8:
            return proj / norm
