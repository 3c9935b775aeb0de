"""The batched sphere optimizer: multi-start basin choice, call budget, grid minima."""

import numpy as np

from helpers import random_density
from qcorr._pairstate import PairContext
from qcorr._sphere import folded_grid, grid_minima, minimize_on_sphere
from qcorr.discord import DEFAULT_SEARCH, SearchConfig, _grid_refine
from qcorr.entropy import VON_NEUMANN, tsallis
from qcorr.statekit import BipartiteLayout


def _direction(theta_deg, phi_deg):
    t, p = np.deg2rad(theta_deg), np.deg2rad(phi_deg)
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def _well(dirs, centre, depth, width):
    """Gaussian well in the angle to an axis; even in k like every objective here."""
    cos = np.clip(np.abs(dirs @ centre), 0.0, 1.0)
    return -depth * np.exp(-0.5 * (np.arccos(cos) / width) ** 2)


class TestMultiStart:
    # On the default 60 x 120 grid nodes lie every 1.5 deg in theta and 3 deg
    # in phi.  The deep well is narrow and centred between nodes, so its
    # nearest node reads about -0.07; the shallow well sits on a node at -0.5
    # and holds the grid argmin.
    DEEP = _direction(45.75, 31.5)
    SHALLOW = _direction(90.0, 120.0)

    def objective(self, dirs):
        dirs = np.atleast_2d(dirs)
        return _well(dirs, self.DEEP, 1.0, 0.01) + _well(dirs, self.SHALLOW, 0.5, 0.3)

    def test_grid_argmin_is_in_the_shallow_well(self):
        grid = folded_grid(DEFAULT_SEARCH.grid_theta, DEFAULT_SEARCH.grid_phi)[0]
        values = self.objective(grid)
        assert abs(values.min() + 0.5) < 1e-12
        assert abs(grid[np.argmin(values)] @ self.SHALLOW) > 1.0 - 1e-12

    def test_refinement_finds_the_deeper_well(self):
        k, value = _grid_refine(self.objective, cfg=DEFAULT_SEARCH)
        assert value < -1.0 + 1e-10
        assert abs(k @ self.DEEP) > 1.0 - 1e-10


class TestCallBudget:
    def test_default_grid_needs_at_most_20_batched_calls(self):
        rng = np.random.default_rng(301)
        worst = 0
        for trial in range(20):
            d_a = 2 + trial % 2
            rho = random_density(rng, 2 * d_a)
            ctx = PairContext(rho, BipartiteLayout(d_a, 2))
            for surface in (ctx.conditional_entropy, ctx.measured_joint_entropy):
                calls = []

                def counted(dirs, surface=surface):
                    calls.append(len(dirs))
                    return surface(dirs, VON_NEUMANN)

                _grid_refine(counted, cfg=DEFAULT_SEARCH)
                worst = max(worst, len(calls))
        assert worst <= 20


class TestMinimizeOnSphere:
    def test_never_worse_than_its_start_and_batched(self):
        rng = np.random.default_rng(302)
        rho = random_density(rng, 4, rank=2)
        ctx = PairContext(rho, BipartiteLayout(2, 2))
        objective = lambda dirs: ctx.measured_joint_entropy(dirs, tsallis(0.5))  # noqa: E731
        starts = folded_grid(8, 8)[0][::7]
        ks, values = minimize_on_sphere(objective, starts, 0.2, 1e-10, 200)
        assert ks.shape == starts.shape and values.shape == (len(starts),)
        assert np.all(values <= objective(starts))
        assert np.allclose(objective(ks), values, rtol=0.0, atol=1e-14)

    def test_quadratic_bowl_converges_to_axis(self):
        axis = _direction(20.0, 200.0)
        objective = lambda dirs: 1.0 - (np.atleast_2d(dirs) @ axis) ** 2  # noqa: E731
        ks, values = minimize_on_sphere(objective, [_direction(35.0, 180.0)], 0.3, 1e-12, 50)
        assert values[0] < 1e-15
        assert abs(ks[0] @ axis) > 1.0 - 1e-15


class TestGridMinima:
    def test_minimum_across_the_equator_counts_once(self):
        # k and -k are one measurement: a well centred on the equator shows
        # up at both phi and phi + 180 deg but is one minimum.
        cfg = SearchConfig(grid_theta=10, grid_phi=12)
        grid = folded_grid(cfg.grid_theta, cfg.grid_phi)[0]
        values = _well(grid, _direction(90.0, 60.0), 1.0, 0.3)
        found = grid_minima(values, cfg.grid_theta, cfg.grid_phi)
        assert len(found) == 1
        assert abs(grid[found[0]] @ _direction(90.0, 60.0)) > 1.0 - 1e-12

    def test_pole_counts_once_and_lowest_comes_first(self):
        cfg = SearchConfig(grid_theta=10, grid_phi=12)
        grid = folded_grid(cfg.grid_theta, cfg.grid_phi)[0]
        values = _well(grid, _direction(0.0, 0.0), 1.0, 0.2) + _well(
            grid, _direction(63.0, 150.0), 2.0, 0.2
        )
        found = grid_minima(values, cfg.grid_theta, cfg.grid_phi)
        assert len(found) == 2
        assert values[found[0]] < values[found[1]]
        assert found[1] == 0
