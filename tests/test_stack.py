"""The measure layer run as one stack: a stack of searches against stacks of
one, the qubit-A rule for stacking, failures inside a stacked sweep point,
and the slotted sweep rows."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import sweep as sweep_module
from qcorr._pairstate import PairContext
from qcorr.cli import main
from qcorr.deficit import deficit
from qcorr.discord import SearchConfig, _optimize, discord
from qcorr.entropy import VON_NEUMANN, tsallis
from qcorr.errors import NotPositive
from qcorr.statekit import BipartiteLayout, make_density
from qcorr.sweep import parse_config, run_sweep

LAY22 = BipartiteLayout(2, 2)
LAY32 = BipartiteLayout(3, 2)
COARSE = SearchConfig(grid_theta=16, grid_phi=32)
ROW_PARITY = np.array([0, 1, 1, 0])  # basis index 2a + b has parity a + b
#: Residuals are not printed, and a batched contraction may round differently.
RESIDUAL_TOL = 1e-14


def two_qubit_state(seed, kind):
    """A full-rank state: parity-even and real (fold 2), real (fold 1) or complex (fold 0)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4))
    if kind == "complex":
        g = g + 1j * rng.normal(size=(4, 4))
    if kind == "parity_even":
        g[ROW_PARITY[:, None] != np.arange(4) % 2] = 0.0
    m = g @ g.conj().T + 0.05 * np.eye(4)
    return make_density(m / np.trace(m).real)


KINDS = ("parity_even", "real", "complex")


class TestStackAgainstStacksOfOne:
    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
        q=st.sampled_from([0.5, 2.5, 3.0]),
    )
    def test_values_and_directions_are_bit_identical(self, seeds, q):
        states = [two_qubit_state(seed, kind) for seed, kind in zip(seeds, KINDS)]
        assert [PairContext(rho, LAY22).fold for rho in states] == [2, 1, 0]
        measures = (("D", VON_NEUMANN), ("I", VON_NEUMANN), ("I", tsallis(q)))
        jobs = [(PairContext(rho, LAY22), m, f) for rho in states for m, f in measures]
        # One state's searches sharing its context, as in `qcorr limits` and pair_observables.
        contexts = [PairContext(rho, LAY22) for rho in states]
        one_state = [[(ctx, m, f) for m, f in measures] for ctx in contexts]
        alone = [
            (
                discord(rho, LAY22, COARSE),
                deficit(rho, LAY22, VON_NEUMANN, COARSE),
                deficit(rho, LAY22, tsallis(q), COARSE),
            )
            for rho in states
        ]
        for stack, singles in [(jobs, alone)] + [(s, [a]) for s, a in zip(one_state, alone)]:
            stacked = iter(_optimize(stack, COARSE))
            for single in (res for per_state in singles for res in per_state):
                res = next(stacked)
                assert res.value == single.value
                assert np.array_equal(res.k_star.k, single.k_star.k)
                assert res.method == single.method
                assert abs(res.residual - single.residual) <= RESIDUAL_TOL

    def test_default_grid_stack_of_a_sweep_point(self):
        states = [two_qubit_state(seed, kind) for seed, kind in enumerate(KINDS)]
        jobs = [(PairContext(rho, LAY22), m, VON_NEUMANN) for rho in states for m in ("D", "I")]
        stacked = _optimize(jobs)
        alone = [f(rho) for rho in states for f in (
            lambda rho: discord(rho, LAY22), lambda rho: deficit(rho, LAY22, VON_NEUMANN),
        )]
        assert [r.value for r in stacked] == [r.value for r in alone]
        assert all(np.array_equal(a.k_star.k, b.k_star.k) for a, b in zip(stacked, alone))


class TestQutritStates:
    def qutrit(self, seed=3):
        g = np.random.default_rng(seed).normal(size=(6, 6))
        return make_density(g @ g.T / np.trace(g @ g.T))

    def test_never_stacked_with_another_state(self):
        jobs = [(PairContext(self.qutrit(), LAY32), "D", VON_NEUMANN),
                (PairContext(two_qubit_state(1, "real"), LAY22), "D", VON_NEUMANN)]
        with pytest.raises(ValueError, match="searched alone"):
            _optimize(jobs, COARSE)
        ctx = PairContext(self.qutrit(), LAY32)  # nor with another search of itself
        with pytest.raises(ValueError, match="searched alone"):
            _optimize([(ctx, "D", VON_NEUMANN), (ctx, "I", VON_NEUMANN)], COARSE)

    def test_stack_of_one_is_the_public_search(self):
        rho = self.qutrit()
        (res,) = _optimize([(PairContext(rho, LAY32), "I", VON_NEUMANN)], COARSE)
        single = deficit(rho, LAY32, VON_NEUMANN, COARSE)
        assert res.value == single.value and np.array_equal(res.k_star.k, single.k_star.k)


def sweep_payload(**extra):
    return {
        "chain": {"n_sites": 8, "j_x": 1.0, "chi": 0.5},
        "sweep": {"variable": "h_z", "from": 0.3, "to": 0.4, "points": 2},
        "separations": [1, 2],
        "measures": ["D", "I1", "I2", "IR2", "concurrence"],
        "search": {"grid_theta": 16, "grid_phi": 32},
        **extra,
    }


class TestStackedPointFailure:
    def test_one_pair_search_failing_names_the_point(self, monkeypatch, tmp_path):
        # Every pair of a point is reduced before the point's searches run, so
        # the last pair reduced is the point's separation-2 pair.
        pairs = []
        reduce = sweep_module.reduced_pair
        monkeypatch.setattr(sweep_module, "reduced_pair", lambda *a: pairs.append(reduce(*a)) or pairs[-1])
        evaluate = PairContext.conditional_entropy

        def failing(self, dirs, functional):
            if self.rho is pairs[-1]:
                raise NotPositive("search failed")
            return evaluate(self, dirs, functional)

        monkeypatch.setattr(PairContext, "conditional_entropy", failing)
        with pytest.raises(NotPositive, match=r"sweep point h_z = 0\.3: search failed"):
            run_sweep(parse_config(sweep_payload()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(sweep_payload()))
        assert main(["sweep", "--config", str(cfg_path)]) == 3


class TestSweepRows:
    def test_rows_are_slotted_share_keys_and_replace(self):
        rows = run_sweep(parse_config(sweep_payload()))
        cell = rows[0].cells[(1, "D")]
        assert not hasattr(cell, "__dict__") and not hasattr(rows[0], "__dict__")
        assert all(a is b for a, b in zip(rows[0].cells, rows[1].cells))
        moved = dataclasses.replace(rows[0], branch="+")
        assert moved.branch == "+" and moved.cells is rows[0].cells
        assert dataclasses.replace(cell, value=0.0).theta == cell.theta
