"""The shared pair context: Bloch-form branch spectra, one context per pair,
one search per objective and state object, and the canonical image of a
minimizer on symmetric states."""

import importlib
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pinched_blocks, random_density, random_pure
from qcorr import _pairstate
from qcorr._pairstate import PairContext
from qcorr._sphere import folded_grid
from qcorr.deficit import deficit, deficit_matrix, quadratic_deficit_closed, renyi_deficit
from qcorr.discord import (
    SearchConfig,
    conditional_entropy_min,
    discord,
    ellipsoid,
    quadratic_closed_form,
)
from qcorr.entropy import QUADRATIC, VON_NEUMANN, entropy, tsallis
from qcorr.errors import LayoutMismatch
from qcorr.measurement import unread_state
from qcorr.spinchain import SpinChainSpec, ground_state, reduced_pair
from qcorr.statekit import BipartiteLayout, make_density
from qcorr.sweep import ALL_MEASURES, measure_state

LAY22 = BipartiteLayout(2, 2)
COARSE = SearchConfig(grid_theta=16, grid_phi=32)
#: Transverse fields of the README sweep (N=8, chi=0.5, 200 points up to 1.25).
README_HZ = np.linspace(0.0, 1.25, 200)
#: (h_z index, separation, measure) of the README sweep cells whose minimizer
#: used to be reported with phi = pi, the mirror image of phi = 0.
README_PI_CELLS = (
    (97, 2, "I1"), (97, 4, "I1"), (99, 2, "I1"), (101, 4, "I1"), (102, 2, "I1"),
    (104, 1, "I1"), (105, 3, "I1"), (107, 1, "I1"), (108, 4, "I1"), (112, 4, "I1"),
    (191, 2, "D"),
)


def chain_pair(hz_index, separation):
    spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, README_HZ[hz_index]))
    return reduced_pair(ground_state(spec), 0, separation)


def make_state(kind, seed, d_a=2):
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return random_density(rng, 2 * d_a)
    if kind == "rank2":
        return random_density(rng, 2 * d_a, rank=2)
    if kind == "pure":
        return random_pure(rng, 2 * d_a)
    # a product with a pure B marginal, plus 1e-9..1e-3 of noise if B is to be nearly pure
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    product = np.kron(random_density(rng, d_a).entries, np.outer(v, v.conj()) / np.vdot(v, v).real)
    eps = 10.0 ** -rng.uniform(3.0, 9.0) if kind == "near_pure_b" else 0.0
    return make_density((1.0 - eps) * product + eps * random_density(rng, 2 * d_a).entries)


KINDS = st.sampled_from(["mixed", "rank2", "pure", "near_pure_b", "pure_b"])
SEEDS = st.integers(0, 2**32 - 1)


def vn_deficit_oracle(rho, k):
    """S(rho'(k)) - S(rho) from the explicitly pinched state."""
    return entropy(unread_state(rho, LAY22, k), VON_NEUMANN) - entropy(rho, VON_NEUMANN)


class TestBlochForm:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(kind=KINDS, seed=SEEDS)
    def test_spectra_match_explicit_blocks(self, kind, seed):
        # Spectra p_s/2 -/+ |r_a + s J k|/4 against eigvalsh of Tr_B[rho (I x P_s)]
        # built from explicit projectors, on random directions, the coordinate
        # axes of a small grid and the directions along and against r_b.
        rho = make_state(kind, seed)
        ctx = PairContext(rho, LAY22)
        rng = np.random.default_rng([seed, 1])
        dirs = rng.normal(size=(24, 3))
        dirs = np.vstack([dirs, folded_grid(8, 8)[0], ctx.r_b, -ctx.r_b])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        probs, lams = ctx.measured_blocks(dirs)
        for s, blocks in enumerate(pinched_blocks(rho, LAY22, dirs)):
            assert np.abs(lams[:, s] - np.linalg.eigvalsh(blocks)).max() < 1e-14
            assert np.abs(probs[:, s] - np.einsum("maa->m", blocks).real).max() < 1e-14

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(kind=KINDS, seed=SEEDS)
    def test_cached_grid_values_equal_single_row_calls(self, kind, seed):
        grid = folded_grid(16, 32)[0]
        for d_a in (2, 3):  # the qubit-A Bloch form and the qutrit-A blocks
            ctx = PairContext(make_state(kind, seed, d_a), BipartiteLayout(d_a, 2))
            for functional in (VON_NEUMANN, QUADRATIC, tsallis(2.5)):
                cond = ctx.conditional_entropy(grid, functional)
                joint = ctx.measured_joint_entropy(grid, functional)
                assert ctx.measured_blocks(grid) is ctx.measured_blocks(grid)  # from the cache
                for i in range(0, len(grid), 13):
                    row = grid[i : i + 1].copy()
                    assert cond[i] == ctx.conditional_entropy(row, functional)[0]
                    assert joint[i] == ctx.measured_joint_entropy(row, functional)[0]


class TestPairMemo:
    def test_all_measures_of_a_pair_build_one_context(self, monkeypatch):
        built, decomposed = [], []
        init, decompose = PairContext.__init__, _pairstate.bloch_decompose

        def counting_init(self, rho, layout):
            built.append(rho)
            init(self, rho, layout)

        def counting_decompose(rho, layout):
            decomposed.append(rho)
            return decompose(rho, layout)

        monkeypatch.setattr(PairContext, "__init__", counting_init)
        for module in [m for name, m in sys.modules.items() if name.startswith("qcorr")]:
            if getattr(module, "bloch_decompose", None) is decompose:  # under every name
                monkeypatch.setattr(module, "bloch_decompose", counting_decompose)
        pair = chain_pair(64, 2)
        for measure in ALL_MEASURES:
            measure_state(pair, measure)
        assert built == decomposed == [pair]
        # closed forms alone build the one context and read its one decomposition
        closed = chain_pair(64, 1)
        measure_state(closed, "I2")
        measure_state(closed, "S2cond")
        ellipsoid(closed, LAY22)
        deficit_matrix(closed, LAY22)
        assert built == decomposed == [pair, closed]
        # the states benchmark's calls on a qubit state, and the closed forms of a qutrit one
        rng = np.random.default_rng(44)
        qubit, qutrit, lay32 = random_density(rng, 4), random_density(rng, 6), BipartiteLayout(3, 2)
        discord(qubit, LAY22, COARSE)
        for functional in (VON_NEUMANN, tsallis(0.5), tsallis(3.0)):
            deficit(qubit, LAY22, functional, COARSE)
        renyi_deficit(qubit, LAY22, 0.5, COARSE)
        renyi_deficit(qubit, LAY22, 2.0, COARSE)
        quadratic_closed_form(qubit, LAY22)
        quadratic_deficit_closed(qubit, LAY22)
        ellipsoid(qubit, LAY22)
        for closed_form in (quadratic_closed_form, quadratic_deficit_closed, ellipsoid):
            closed_form(qutrit, lay32)
        assert built == decomposed == [pair, closed, qubit, qutrit]

    def test_states_evaluated_alternately_keep_their_own_values(self, monkeypatch):
        rng = np.random.default_rng(41)
        entries = [random_density(rng, 4).entries, random_density(rng, 4, rank=2).entries]
        states = [make_density(m) for m in entries]
        measures = (
            lambda rho: discord(rho, LAY22, COARSE),
            lambda rho: deficit(rho, LAY22, VON_NEUMANN, COARSE),
            lambda rho: renyi_deficit(rho, LAY22, 2.0),
            lambda rho: deficit(rho, LAY22, tsallis(0.5), COARSE),
            lambda rho: renyi_deficit(rho, LAY22, 0.5, COARSE),
        )
        alone = []
        for rho in states:
            monkeypatch.setattr(_pairstate, "_last", None)
            alone.append([f(rho).value for f in measures])
        assert alone[0] != alone[1]
        for j, f in enumerate(measures):
            for i in (0, 1, 0, 1):
                assert f(states[i]).value == alone[i][j]
        # a new object for every evaluation, alternating between the two matrices
        for i in (0, 1, 0, 1):
            rho = make_density(entries[i])
            assert [f(rho).value for f in measures] == alone[i]

    def test_ir2_takes_the_closed_form_of_i2(self, monkeypatch):
        # in the sweep's order: D builds the pair's context, I2 leaves its result there
        pair = chain_pair(64, 2)
        discord(pair, LAY22, COARSE)
        i2 = quadratic_deficit_closed(pair, LAY22)
        deficit_module = importlib.import_module("qcorr.deficit")
        monkeypatch.setattr(deficit_module, "quadratic_deficit_closed", None)  # must not be called
        ir2 = renyi_deficit(pair, LAY22, 2.0)
        purity = np.vdot(pair.entries, pair.entries).real
        assert abs(ir2.value + np.log2((purity - 0.5 * i2.value) / purity)) < 1e-14
        assert ir2.k_star is i2.k_star and ir2.residual == i2.residual

    def test_each_objective_is_searched_once_per_state_object(self, monkeypatch):
        calls = Counter()

        def count(module, name):
            original = getattr(importlib.import_module(module), name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(importlib.import_module(module), name, counting)

        count("qcorr.discord", "_grid_refine")
        count("qcorr._pairstate", "bloch_decompose")
        rho = random_density(np.random.default_rng(43), 4)
        tq = deficit(rho, LAY22, tsallis(0.5), COARSE)
        rq = renyi_deficit(rho, LAY22, 0.5, COARSE)
        assert calls["_grid_refine"] == 1
        assert rq.k_star is tq.k_star and rq.residual == tq.residual
        r2 = renyi_deficit(rho, LAY22, 2.0)
        i2 = quadratic_deficit_closed(rho, LAY22)
        assert calls["bloch_decompose"] == 1 and r2.k_star is i2.k_star
        d = discord(rho, LAY22, COARSE)
        again = (
            deficit(rho, LAY22, tsallis(0.5)),  # the default SearchConfig
            deficit(rho, LAY22, tsallis(3.0), COARSE),  # another functional
            conditional_entropy_min(rho, LAY22, VON_NEUMANN, COARSE),  # not the discord
        )
        assert calls["_grid_refine"] == 2 + len(again)
        assert again[0] is not tq and again[2].value != d.value
        assert discord(rho, LAY22, COARSE) is d and calls["_grid_refine"] == 5
        # a 4x4 matrix has one layout; another one is refused, not read from the memo
        with pytest.raises(LayoutMismatch):
            discord(rho, BipartiteLayout(3, 2), COARSE)

    def test_quadratic_and_tsallis_two_share_one_search(self, monkeypatch):
        calls = Counter()
        grid_refine = importlib.import_module("qcorr.discord")._grid_refine

        def counting(*args, **kwargs):
            calls["_grid_refine"] += 1
            return grid_refine(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("qcorr.discord"), "_grid_refine", counting)
        rho = random_density(np.random.default_rng(45), 4)
        first = deficit(rho, LAY22, QUADRATIC, COARSE)
        assert deficit(rho, LAY22, tsallis(2.0), COARSE) is first
        assert calls["_grid_refine"] == 1


class TestCanonicalImage:
    def test_readme_cells_that_read_pi_read_zero(self):
        for index in sorted({cell[0] for cell in README_PI_CELLS}):
            state = ground_state(
                SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, README_HZ[index]))
            )
            for _, separation, measure in (c for c in README_PI_CELLS if c[0] == index):
                cell = measure_state(reduced_pair(state, 0, separation), measure)
                assert cell.phi == 0.0, (index, separation, measure, cell)

    def test_reported_image_is_equivalent_on_the_symmetric_state(self):
        pair = chain_pair(97, 2)
        ctx = PairContext(pair, LAY22)
        assert ctx.real and ctx.parity
        res = deficit(pair, LAY22, VON_NEUMANN)
        assert res.phi == 0.0 and res.k_star.k[0] > 0.0
        assert abs(vn_deficit_oracle(pair, res.k_star) - res.value) < 1e-12

    def test_state_perturbed_past_the_tolerance_is_not_mapped(self):
        # A 1e-9 complex Hermitian perturbation breaks both symmetries: the
        # mirror image then measures differently, and the search's own
        # minimizer (here the one with k_x < 0) is reported as found.
        pair = chain_pair(97, 2)
        rng = np.random.default_rng(7)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        h -= np.trace(h) / 4.0 * np.eye(4)
        rho = make_density(pair.entries + 1e-9 * h / np.abs(h).max())
        ctx = PairContext(rho, LAY22)
        assert not ctx.real and not ctx.parity
        res = deficit(rho, LAY22, VON_NEUMANN)
        k = res.k_star.k
        assert k[0] < 0.0
        assert abs(vn_deficit_oracle(rho, k) - res.value) < 1e-12
        assert vn_deficit_oracle(rho, np.abs(k)) - res.value > 1e-11
