"""The symmetry-folded direction search: grid sizes, agreement with the full
search, the tolerance of the symmetry detection, and tilted ground vectors
that own their data."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcorr import _pairstate
from qcorr._pairstate import PairContext
from qcorr.deficit import deficit
from qcorr.discord import SearchConfig, discord
from qcorr.entropy import VON_NEUMANN, tsallis
from qcorr.measurement import MeasurementDirection
from qcorr.spinchain import SpinChainSpec, ground_state
from qcorr.statekit import BipartiteLayout, make_density

LAY22 = BipartiteLayout(2, 2)
LAY32 = BipartiteLayout(3, 2)
ROW_PARITY = np.array([0, 1, 1, 0])  # basis index 2a + b has parity a + b
MEASURES = {
    "D": lambda rho, layout: discord(rho, layout),
    "I1": lambda rho, layout: deficit(rho, layout, VON_NEUMANN),
    "T2.5": lambda rho, layout: deficit(rho, layout, tsallis(2.5)),
    "T0.5": lambda rho, layout: deficit(rho, layout, tsallis(0.5)),
}
#: Folded against full search: |value difference| and the angle between the
#: reported directions.
VALUE_TOL = 1e-13
ANGLE_TOL = 1e-6
#: For q < 1 the entropy of a rank-deficient branch carries rounding noise of
#: order 1e-8 (CHANGES.md), and each refined start draws its own: the full
#: search also refines the mirror copy of a basin, and may end up to that
#: noise lower.  Measured: 7.6e-9 on the rank-2 two-qubit example pinned
#: below, and at most 2.3e-8 on 80 seeded qutrit-qubit states of ranks 1, 2,
#: 3 and 6.
NOISY_TOL = 5e-8
#: d_A = 3 contracts the grid with matmul, whose rows take other bits in
#: other batches; measured on the same 80 states: at most 3.1e-15 for D and I1.


def real_state(seed, d_a, rank, parity_even=False):
    """Real state of rank ``rank``; parity_even keeps every column in one parity sector."""
    g = np.random.default_rng(seed).normal(size=(2 * d_a, rank))
    if parity_even:
        g[ROW_PARITY[:, None] != np.arange(rank) % 2] = 0.0
    m = g @ g.T
    return make_density(m / np.trace(m))


def x_state(seed=5):
    return real_state(seed, 2, 4, parity_even=True)


def searched(rho, layout, full):
    """Every measure of rho from a fresh context, folded as detected or, if full, never."""
    _pairstate._last = None
    ctx = _pairstate.pair_context(rho, layout)
    if full:
        ctx.fold = 0
    try:
        return {name: f(rho, layout) for name, f in MEASURES.items()}
    finally:
        _pairstate._last = None


def assert_folded_equals_full(rho, layout, fold):
    ctx = PairContext(rho, layout)
    assert ctx.fold == fold
    folded, full = searched(rho, layout, False), searched(rho, layout, True)
    for name, res in folded.items():
        tol = NOISY_TOL if name == "T0.5" else VALUE_TOL
        assert abs(res.value - full[name].value) <= tol, name
        image = MeasurementDirection(ctx.canonical(full[name].k_star.k)).k
        angle = np.arccos(min(1.0, abs(float(res.k_star.k @ image))))
        assert angle <= ANGLE_TOL, (name, res.k_star.k, image)


SEEDS = st.integers(0, 2**32 - 1)


class TestFoldedAgainstFullSearch:
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=SEEDS, rank=st.sampled_from([2, 3, 4]))
    def test_parity_even_real_two_qubit(self, seed, rank):
        assert_folded_equals_full(real_state(seed, 2, rank, parity_even=True), LAY22, 2)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=SEEDS, rank=st.sampled_from([2, 3, 4]))
    @example(seed=111863, rank=2)  # T0.5: the full search lands 7.6e-9 lower
    def test_real_two_qubit(self, seed, rank):
        assert_folded_equals_full(real_state(seed, 2, rank), LAY22, 1)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=SEEDS, rank=st.sampled_from([2, 3, 6]))
    def test_real_qutrit_qubit(self, seed, rank):
        assert_folded_equals_full(real_state(seed, 3, rank), LAY32, 1)


def grid_rows(monkeypatch, rho, layout=LAY22, cfg=None):
    """Rows of the first objective call, the grid call, of a fresh discord search."""
    rows = []
    blocks = PairContext.measured_blocks

    def counting(self, dirs):
        rows.append(len(dirs))
        return blocks(self, dirs)

    monkeypatch.setattr(PairContext, "measured_blocks", counting)
    monkeypatch.setattr(_pairstate, "_last", None)
    discord(rho, layout, cfg)
    return rows[0]


def perturbed(rho, i, j, amount):
    """rho plus amount at (i, j) and its conjugate at (j, i)."""
    m = rho.entries.copy()
    m[i, j] += amount
    m[j, i] += np.conj(amount)
    return make_density(m)


class TestGridSize:
    @pytest.mark.parametrize(
        ("rho", "layout", "rows"),
        [
            (x_state(), LAY22, 1861),
            (real_state(6, 2, 4), LAY22, 3661),
            (real_state(7, 3, 6), LAY32, 3661),
            (perturbed(x_state(), 0, 3, 0.05j), LAY22, 7320),
        ],
        ids=["parity-even-real", "real", "real-qutrit", "complex"],
    )
    def test_default_grid(self, monkeypatch, rho, layout, rows):
        assert grid_rows(monkeypatch, rho, layout) == rows

    def test_odd_grid_phi_folds_by_the_mirror_alone(self, monkeypatch):
        # phi in [0, pi] on 15 columns keeps columns 0..7: 10 rings of 8, plus the pole
        assert grid_rows(monkeypatch, x_state(), cfg=SearchConfig(10, 15)) == 81
        assert grid_rows(monkeypatch, x_state(), cfg=SearchConfig(10, 16)) == 51  # 0..4
        assert grid_rows(monkeypatch, real_state(6, 2, 4), cfg=SearchConfig(10, 15)) == 81


class TestSymmetryTolerance:
    @pytest.mark.parametrize(
        ("i", "j", "amount", "fold"),
        [
            (0, 3, 1e-13j, 2),  # within both tolerances
            (0, 1, 1e-13, 2),
            (0, 3, 1e-9j, 0),  # complex: neither mirror nor half turn
            (0, 1, 1e-9, 1),  # real, parity-odd entry: mirror only
            (1, 3, 1e-9j, 0),
        ],
    )
    def test_perturbation_past_a_tolerance_is_not_folded(self, monkeypatch, i, j, amount, fold):
        rho = perturbed(x_state(), i, j, amount)
        assert PairContext(rho, LAY22).fold == fold
        assert grid_rows(monkeypatch, rho) == {0: 7320, 1: 3661, 2: 1861}[fold]


# orbit blocks of dimension 6 and 78 (dense) and 224 (Lanczos)
@pytest.mark.parametrize("n_sites", [4, 10, 12])
def test_tilted_ground_vector_owns_its_data(n_sites):
    state = ground_state(SpinChainSpec(n_sites=n_sites, j_x=1.0, chi=0.5, field=(0.4, 0.0, 0.6)))
    assert state.amplitudes.base is None
    assert state.amplitudes.nbytes == 8 * state.amplitudes.size
