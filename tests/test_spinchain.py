import tracemalloc

import numpy as np
import pytest

from helpers import free_fermion_sector_energy, kron_hamiltonian, kron_parity, twofold_mixture_pairs
from qcorr import spinchain
from qcorr.deficit import quadratic_deficit_closed
from qcorr.discord import discord
from qcorr.entropy import concurrence
from qcorr.errors import (
    GammaTooLarge,
    IndexOutOfRange,
    InvalidTheta,
    TooLarge,
    UnsupportedGeometry,
)
from qcorr.spinchain import (
    SpinChainSpec,
    afm_map,
    build_hamiltonian,
    canted_qubit,
    concurrence_side_limits,
    factorizing_field,
    ground_state,
    parity_crossings,
    parity_sector_energies,
    parity_sectors,
    reduced_pair,
    rho_theta,
)
from qcorr.statekit import PAULI, BipartiteLayout, make_density, partial_trace

LAY22 = BipartiteLayout(2, 2)


class TestBuildHamiltonian:
    def test_two_site_xx_spectrum(self):
        spec = SpinChainSpec(n_sites=2, j_x=1.0, chi=0.0 + 1e-300, field=(0.0, 0.0, 0.0))
        # chi ~ 0 keeps only the x-x bond; spectrum of -Jx Sx Sx is +-1/4.
        ham = build_hamiltonian(spec)
        lams = np.sort(np.linalg.eigvalsh(ham))
        assert np.allclose(lams, [-0.25, -0.25, 0.25, 0.25], atol=1e-12)

    def test_commutes_with_parity_when_transverse(self):
        rng = np.random.default_rng(1)
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=float(rng.uniform(0.1, 1.0)),
                             field=(0.0, 0.0, 0.8))
        ham = build_hamiltonian(spec)
        even, odd = parity_sectors(6)
        assert np.abs(ham[np.ix_(even, odd)]).max() == 0.0

    def test_field_only_ground_state(self):
        h = (0.3, 0.0, 0.7)
        spec = SpinChainSpec(n_sites=4, j_x=0.0, chi=1.0, field=h)
        gs = ground_state(spec)
        h_norm = np.linalg.norm(h)
        assert abs(gs.energy - (-4 * h_norm / 2)) < 1e-9
        # every spin aligned with the field direction
        pair = reduced_pair(gs, 0, 1)
        single = partial_trace(pair, LAY22, "A")
        bloch = np.array([np.trace(single.entries @ p).real for p in PAULI])
        assert np.abs(bloch - np.array(h) / h_norm).max() < 1e-9

    def test_polarized_limit(self):
        # Discord of any pair decays toward zero as the field dominates and
        # the ground state polarizes along it.
        values = []
        for h_z in (5.0, 50.0):
            spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=(0.0, 0.0, h_z))
            gs = ground_state(spec)
            pair = reduced_pair(gs, 0, 1)
            single = partial_trace(pair, LAY22, "A")
            assert abs(np.trace(single.entries @ PAULI[2]).real - 1.0) < 1e-2 / h_z
            values.append(discord(pair, LAY22).value)
        assert values[1] < values[0] / 10
        assert values[1] < 1e-4

    def test_too_large(self):
        with pytest.raises(TooLarge):
            build_hamiltonian(SpinChainSpec(n_sites=15))

    def test_field_must_be_in_xz_plane(self):
        with pytest.raises(ValueError):
            SpinChainSpec(n_sites=4, field=(0.0, 0.3, 0.0))
        with pytest.raises(ValueError):  # and a ring has at least 2 sites
            SpinChainSpec(n_sites=1)


class TestGroundState:
    def test_parity_blocks_match_full_matrix(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.37, field=(0.0, 0.0, 0.45))
        gs = ground_state(spec)
        full = np.linalg.eigvalsh(build_hamiltonian(spec))[0]
        assert abs(gs.energy - full) < 1e-10
        assert gs.parity in (1, -1)

    def test_nontransverse_parity_broken(self):
        spec = SpinChainSpec(n_sites=4, j_x=1.0, chi=0.5, field=(0.2, 0.0, 0.4))
        gs = ground_state(spec)
        assert gs.parity == 0
        assert gs.parity_label == "broken"

    def test_degenerate_at_factorizing_field(self):
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, np.sqrt(0.5)))
        gs = ground_state(spec)
        assert gs.degenerate
        plus, minus = gs.side_limits
        assert plus.parity == 1 and minus.parity == -1
        assert abs(plus.energy - minus.energy) < 1e-9

    def test_degenerate_level_inside_a_sector(self):
        # Odd antiferromagnetic rings are frustrated: each parity sector's lowest
        # level is twofold (momenta +-k), so the state returned is one of many and
        # is flagged, without side limits; at zero field the two sectors also tie.
        for n in (5, 7):
            for h_z in (0.0, 0.1, 0.3):
                gs = ground_state(SpinChainSpec(n_sites=n, j_x=-1.0, chi=0.5, field=(0.0, 0.0, h_z)))
                assert gs.degenerate, (n, h_z)
                assert gs.side_limits is None, (n, h_z)
        gs = ground_state(SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.3)))
        assert not gs.degenerate

    def test_vector_is_eigenvector(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        ham = build_hamiltonian(spec)
        resid = np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector)
        assert resid < 1e-9 * np.abs(ham).sum(axis=1).max()

    def test_vector_has_definite_parity(self):
        n = 6
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        even, odd = parity_sectors(n)
        signs = np.empty(1 << n)
        signs[even] = 1.0
        signs[odd] = -1.0
        assert np.linalg.norm(signs * gs.vector - gs.parity * gs.vector) < 1e-9

    @pytest.mark.parametrize(
        "n, field",
        [
            (14, (np.sin(np.deg2rad(30.0)), 0.0, np.cos(np.deg2rad(30.0)))),
            (12, (0.0, 0.0, 0.4)),
        ],
        ids=["n14-tilted", "n12-transverse"],
    )
    def test_sparse_solve_is_repeatable(self, n, field):
        # The N = 14 tilted matrix and the N = 12 parity blocks take the
        # Lanczos route; its fixed start vector makes repeated solves, and so
        # sweep output, bit-for-bit identical.
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=field)
        first, second = ground_state(spec), ground_state(spec)
        assert first.energy == second.energy
        assert np.array_equal(first.vector, second.vector)

    def test_lanczos_blocks_match_dense(self):
        # N = 10 parity blocks (dimension 512) take the Lanczos route.
        n = 10
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.37, field=(0.0, 0.0, 0.45))
        gs = ground_state(spec)
        ham = build_hamiltonian(spec)
        assert abs(gs.energy - np.linalg.eigh(ham)[0][0]) < 1e-10
        resid = np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector)
        assert resid < 1e-9 * np.abs(ham).sum(axis=1).max()
        even, odd = parity_sectors(n)
        signs = np.empty(1 << n)
        signs[even] = 1.0
        signs[odd] = -1.0
        assert gs.parity in (1, -1)
        assert np.linalg.norm(signs * gs.vector - gs.parity * gs.vector) < 1e-9

    def test_lanczos_side_limits_at_factorizing_field(self):
        n = 12
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, np.sqrt(0.5)))
        gs = ground_state(spec)
        assert gs.degenerate
        plus, minus = gs.side_limits
        c_plus, c_minus = concurrence_side_limits(0.5, n)
        assert abs(concurrence(reduced_pair(plus, 0, 1)) - c_plus) < 1e-9
        assert abs(concurrence(reduced_pair(minus, 0, 1)) - c_minus) < 1e-9


#: Odd j_x = -1 rings whose lowest level is exactly twofold, at momenta +-k: (N, chi, field).
TWOFOLD_RINGS = {
    "n7-transverse": (7, 0.5, (0.0, 0.0, 0.3)),
    "n9-transverse": (9, 0.5, (0.0, 0.0, 0.1)),
    "n9-tilted": (9, 0.3, (0.1, 0.0, 0.3)),
}
#: Fields of the twofold-level checks: tilted, then transverse.
TWOFOLD_FIELDS = [(0.1, 0.0, 0.3), (0.05, 0.0, 0.5), (0.3, 0.0, 0.4), (0.0, 0.0, 0.1), (0.0, 0.0, 0.3), (0.0, 0.0, 0.5)]


def lanczos_blocks(spec) -> int:
    """The number of blocks of the chain that are solved by Lanczos."""
    orbits = spinchain._assembled(spec)[0]
    sizes = [sel.size for sel in spinchain._sectors(orbits.reps, spec.n_sites)]
    return sum(size > spinchain.DENSE_MAX_DIM for size in (sizes if spec.transverse else [sum(sizes)]))


class TestTwofoldLevels:
    """A twofold block level is flagged at Lanczos size as it is densely (odd j_x < 0 rings)."""

    @pytest.mark.parametrize("n", [5, 7])
    def test_forced_lanczos_blocks_match_dense(self, monkeypatch, n):
        # one start vector grows a Krylov space with one direction of a twofold level;
        # every block here goes through Lanczos, and about half of them are twofold
        monkeypatch.setattr(spinchain, "DENSE_MAX_DIM", 8)
        for chi in (0.3, 0.5, 0.9):
            for field in TWOFOLD_FIELDS:
                spec = SpinChainSpec(n, -1.0, chi, field)
                _, blocks, scale = spinchain._assembled(spec)
                for (_, _, mat), state in zip(blocks, spinchain._block_states(spec)[0], strict=True):
                    w = np.linalg.eigvalsh(dense(mat))
                    assert abs(state.energy - w[0]) < 1e-12 * scale, (chi, field)
                    assert state.degenerate == (w[1] - w[0] <= spinchain.DEGENERACY_RTOL * scale), (chi, field)

    def test_lanczos_tilted_twofold_level(self):
        # the full 512-state basis of a frustrated N = 9 ring, whose lowest level is twofold;
        # the flagged state keeps the vector it was read with, an eigenvector of that level
        spec = SpinChainSpec(9, -1.0, 0.3, (0.1, 0.0, 0.3))
        gs = ground_state(spec)
        ham = build_hamiltonian(spec)
        w = np.linalg.eigvalsh(ham)
        scale = np.abs(ham).sum(axis=1).max()
        assert w[1] - w[0] <= spinchain.DEGENERACY_RTOL * scale
        assert gs.degenerate and gs.side_limits is None
        assert abs(gs.energy - w[0]) < 1e-12 * scale
        assert np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector) < 1e-9 * scale

    @pytest.mark.parametrize("n, chi, field", TWOFOLD_RINGS.values(), ids=TWOFOLD_RINGS.keys())
    def test_twofold_pair_is_the_level_mixture(self, n, chi, field):
        # the vector read is one real vector of the +-k level, not translation invariant;
        # reduced_pair averages its pair over the ring's translations: the level's mixture
        spec = SpinChainSpec(n, -1.0, chi, field)
        gs = ground_state(spec)
        assert gs.degenerate and gs.side_limits is None
        for sep, pair in twofold_mixture_pairs(build_hamiltonian(spec), n).items():
            assert np.abs(reduced_pair(gs, 0, sep).entries - pair.entries).max() < 1e-12, sep

    def test_one_lanczos_solve_per_simple_block(self, monkeypatch):
        # the benchmark's chains (j_x = 1, chi = 0.5, h_x >= 0) have simple ground levels
        # (Perron-Frobenius), so each Lanczos block runs one eigsh; a j_x < 0 block runs two
        import scipy.sparse.linalg

        calls = []
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", lambda *a, **k: calls.append(1) or eigsh(*a, **k))
        tilt = lambda g, h: (h * np.sin(np.deg2rad(g)), 0.0, h * np.cos(np.deg2rad(g)))  # noqa: E731
        specs = [SpinChainSpec(12, 1.0, 0.5, (0.0, 0.0, h)) for h in (0.2, np.sqrt(0.5), 1.2)]
        specs += [SpinChainSpec(12, 1.0, 0.5, tilt(g, 1.0)) for g in (0.0, 25.0)]
        specs += [SpinChainSpec(14, 1.0, 0.5, tilt(g, 1.0)) for g in (10.0, 20.0, 30.0, 40.0)]
        for spec in specs:
            calls.clear()
            ground_state(spec)
            assert len(calls) == lanczos_blocks(spec), spec
        assert sum(lanczos_blocks(spec) for spec in specs) == 5
        calls.clear()
        ground_state(SpinChainSpec(9, -1.0, 0.3, (0.1, 0.0, 0.3)))
        assert len(calls) == 2


class TestParityCrossings:
    def test_n6_crossing_count_and_last(self):
        spec = SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5)
        h_c = 0.5 * (1.0 + 0.5)
        crossings = parity_crossings(spec, 1e-4, h_c, points=600)
        assert len(crossings) == 3
        assert abs(crossings[-1] - np.sqrt(0.5)) < 1e-4

    @pytest.mark.parametrize("n", [6, 10])
    def test_sector_energies_split(self, n):
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.2))
        e_even, e_odd = parity_sector_energies(spec)
        gs = ground_state(spec)
        assert abs(min(e_even, e_odd) - gs.energy) < 1e-12
        with pytest.raises(UnsupportedGeometry):  # a tilted field mixes the sectors
            parity_sector_energies(SpinChainSpec(n, 1.0, 0.5, (0.1, 0.0, 0.2)))

    def test_n10_crossing_count(self):
        # crossings are ~0.1 apart here, so a coarse scan resolves them all
        spec = SpinChainSpec(n_sites=10, j_x=1.0, chi=0.5)
        crossings = parity_crossings(spec, 1e-4, 0.75, points=120)
        assert len(crossings) == 5
        assert abs(crossings[-1] - np.sqrt(0.5)) < 1e-4

    @pytest.mark.parametrize("dense_max_dim", [spinchain.DENSE_MAX_DIM, 8], ids=["dense", "lanczos"])
    def test_n8_crossings_unchanged(self, monkeypatch, dense_max_dim):
        # the full-basis scan without skipped points found these, bisected to CROSSING_TOL;
        # below 20 the N=8 parity blocks (20 and 16) go through Lanczos, as larger blocks do
        monkeypatch.setattr(spinchain, "DENSE_MAX_DIM", dense_max_dim)
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5)
        expected = [0.142590810129677, 0.4058818074242362, 0.606365997249213, 0.7071067811460001]
        crossings = parity_crossings(spec, 0.0, 0.75, points=2000)
        assert np.abs(crossings - expected).max() < spinchain.CROSSING_TOL

    def test_refuses_empty_or_descending_range(self):
        # a descending grid never bisects (hi - lo < 0) and one point has no cell
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5)
        for h_min, h_max, points in ((0.75, 0.0, 2000), (0.5, 0.5, 100), (0.0, 0.75, 1)):
            with pytest.raises(ValueError):
                parity_crossings(spec, h_min, h_max, points=points)

    def test_scan_runs_no_eigensolve(self, monkeypatch):
        # the scan takes its sector energies from Jordan-Wigner fermions, not from ED
        def refused(*args, **kwargs):
            raise AssertionError("the crossing scan ran an eigensolve")

        monkeypatch.setattr(spinchain, "_ground_level", refused)
        crossings = parity_crossings(SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5), 0.0, 1.25, points=2000)
        assert len(crossings) == 4

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
    def test_odd_ring_crosses_at_zero_field(self, n):
        # spin flip maps one P_z sector onto the other and h_z onto -h_z, so for odd N
        # E_even - E_odd is odd in h_z; a range holding 0 reports it exactly, once,
        # whatever the rounding sign of the splitting there
        if n <= 7:
            e_even, e_odd = parity_sector_energies(SpinChainSpec(n, -1.0, 0.5, (0.0, 0.0, 0.3)))
            assert np.allclose(parity_sector_energies(SpinChainSpec(n, -1.0, 0.5, (0.0, 0.0, -0.3))),
                               (e_odd, e_even), rtol=0.0, atol=1e-12)
        for chi in (0.3, 0.5, 0.9, -0.5, 1.5):
            for j_x in (1.0, -1.0):
                crossings = parity_crossings(SpinChainSpec(n, j_x, chi), 0.0, 1.5, points=500)
                assert crossings[0] == 0.0 and (crossings[1:] > 1e-3).all(), (chi, j_x)
        spec = SpinChainSpec(n, 1.0, 0.5)
        for h_min, h_max in ((-0.3, 0.3), (-0.3, 0.0), (-0.2, 0.3)):
            assert np.count_nonzero(parity_crossings(spec, h_min, h_max, points=200) == 0.0) == 1
        both = parity_crossings(spec, -1.5, 1.5, points=2001)
        assert np.abs(both + both[::-1]).max() < spinchain.CROSSING_TOL

    @pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
    def test_crossings_bracket_a_sign_change(self, n):
        # the splitting changes sign within 1e-8 of every crossing, and the last one is h_zs
        spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5)
        crossings = parity_crossings(spec, 1e-4, 0.75, points=120)
        assert len(crossings) == n // 2
        for h in crossings:
            signs = []
            for side in (h - 1e-8, h + 1e-8):
                e_even, e_odd = parity_sector_energies(SpinChainSpec(n, 1.0, 0.5, (0.0, 0.0, side)))
                signs.append(np.sign(e_even - e_odd))
            assert signs[0] * signs[1] == -1.0
        assert abs(crossings[-1] - np.sqrt(0.5)) < 1e-9


def ed_splitting(spec, h_z) -> float:
    """E_even - E_odd from the exact diagonalization of the parity blocks."""
    e_even, e_odd = parity_sector_energies(SpinChainSpec(spec.n_sites, spec.j_x, spec.chi, (0.0, 0.0, h_z)))
    return e_even - e_odd


#: (N, j_x, chi, first field) of scans across the domain of parity_crossings;
#: odd N starts off zero field, where spin flip makes the two sectors degenerate.
CROSSING_DOMAIN = {
    "n2-one-bond": (2, 1.0, 0.5, 1e-4),
    "n3": (3, 1.0, 0.5, 1e-4),
    "n5": (5, 1.0, 0.5, 1e-4),
    "n7": (7, 1.0, 0.5, 1e-4),
    "afm": (6, -1.0, 0.5, 1e-4),
    "chi-negative": (6, 1.0, -0.5, 1e-4),
    "chi-1": (6, 1.0, 1.0, 1e-4),
    "chi-1.5": (6, 1.0, 1.5, 1e-4),
    "zero-field-start": (6, 1.0, 0.5, 0.0),
}


class TestCrossingDomain:
    """The Jordan-Wigner scan against the ED sector energies on every kind of chain it accepts."""

    @pytest.mark.parametrize("n, j_x, chi, h_min", CROSSING_DOMAIN.values(), ids=CROSSING_DOMAIN.keys())
    def test_crossings_match_ed_sign_changes(self, n, j_x, chi, h_min):
        spec = SpinChainSpec(n_sites=n, j_x=j_x, chi=chi)
        grid = np.linspace(h_min, 1.5, 100)
        crossings = parity_crossings(spec, h_min, 1.5, points=100)
        ed = np.array([ed_splitting(spec, h) for h in grid])
        assert len(crossings) == np.count_nonzero(ed[:-1] * ed[1:] < 0.0)
        for h in crossings:
            assert ed_splitting(spec, h - 1e-8) * ed_splitting(spec, h + 1e-8) < 0.0


class TestFreeFermionOracle:
    """Exact diagonalization of the transverse ring against Jordan-Wigner fermions."""

    @pytest.mark.parametrize("n", range(4, 15))
    def test_sector_energies_match(self, n):
        for chi in (0.2, 0.5, 0.9):
            for h_z in (0.05, 0.45, 1.3):
                spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=chi, field=(0.0, 0.0, h_z))
                for parity, energy in zip((1, -1), parity_sector_energies(spec)):
                    assert abs(energy - free_fermion_sector_energy(n, 1.0, chi, h_z, parity)) < 1e-12

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_crossings_bracket_a_free_fermion_sign_change(self, n):
        crossings = parity_crossings(SpinChainSpec(n_sites=n, j_x=1.0, chi=0.5), 1e-4, 0.75, points=120)
        assert len(crossings) == n // 2
        for h in crossings:
            signs = [
                np.sign(free_fermion_sector_energy(n, 1.0, 0.5, side, 1)
                        - free_fermion_sector_energy(n, 1.0, 0.5, side, -1))
                for side in (h - 1e-8, h + 1e-8)
            ]
            assert signs[0] * signs[1] == -1.0


#: Chains with a positive off-diagonal element, which are solved in the full basis.
FULL_BASIS_CHAINS = {
    "afm-transverse": (-1.0, 0.5, (0.0, 0.0, 0.4)),
    "afm-tilted": (-1.0, 0.5, (0.3, 0.0, 0.4)),
    "chi-1.5": (1.0, 1.5, (0.0, 0.0, 0.4)),
    "chi--1.5": (1.0, -1.5, (0.0, 0.0, 0.4)),
    "negative-h_x": (1.0, 0.5, (-0.3, 0.0, 0.4)),
    "j_x-0-negative-h_x": (0.0, 0.5, (-0.3, 0.0, 0.4)),
}
#: The inputs of the orbit-table rule, on and around each of its boundaries.
ORACLE_CHAINS = {
    "transverse": (1.0, 0.5, (0.0, 0.0, 0.4)),
    "tilted": (1.0, 0.5, (0.3, 0.0, 0.4)),
    "chi-1": (1.0, 1.0, (0.0, 0.0, 0.4)),
    "chi--1": (1.0, -1.0, (0.3, 0.0, 0.4)),
    "chi--0.5": (1.0, -0.5, (0.3, 0.0, 0.4)),
    "j_x-0-chi-1.5": (0.0, 1.5, (0.0, 0.0, 0.4)),
    **FULL_BASIS_CHAINS,
}


def isometry(orbits, rows=None) -> np.ndarray:
    """Rows of the dense isometry V onto the normalized orbit sums (all rows by default).

    Built from the table's ``reps``, ``index`` and ``size`` alone: column a is
    ``|O_a|^-1/2`` on the states of orbit a.
    """
    rows = np.arange(orbits.index.size) if rows is None else rows
    cols = orbits.index[rows]
    v = np.zeros((rows.size, orbits.reps.size))
    v[np.arange(rows.size), cols] = orbits.size[cols] ** -0.5
    return v


def dense(mat) -> np.ndarray:
    """An assembled matrix as a numpy array: it is one up to DENSE_MAX_DIM columns, CSR above."""
    return mat if isinstance(mat, np.ndarray) else mat.toarray()


def assert_shared_table(gs, *others):
    """gs and the others hold one read-only orbit table, consistent with itself."""
    orbits = gs.orbits
    assert all(other.orbits is orbits for other in others)
    assert not any(a.flags.writeable for a in (orbits.reps, orbits.index, orbits.size, orbits.weight))
    assert (orbits.index[orbits.reps] == np.arange(orbits.reps.size)).all()
    assert (np.bincount(orbits.index) == orbits.size).all()


class TestSolveBasis:
    @pytest.mark.parametrize("j_x, chi, field", FULL_BASIS_CHAINS.values(), ids=FULL_BASIS_CHAINS.keys())
    def test_positive_off_diagonal_solves_the_full_basis(self, j_x, chi, field):
        spec = SpinChainSpec(n_sites=6, j_x=j_x, chi=chi, field=field)
        gs = ground_state(spec)
        assert gs.amplitudes.size == 64
        assert_shared_table(gs, ground_state(spec))  # one identity, shared by every state
        ham = build_hamiltonian(spec)
        assert abs(gs.energy - np.linalg.eigvalsh(ham)[0]) < 1e-12
        assert np.linalg.norm(ham @ gs.vector - gs.energy * gs.vector) < 1e-12

    @pytest.mark.parametrize("field", [(0.0, 0.0, 0.4), (0.3, 0.0, 0.4)], ids=["transverse", "tilted"])
    def test_stoquastic_chain_solves_momentum_zero(self, field):
        # the 64 states of 6 sites fall into 13 orbits of the rotations and the reflection
        gs = ground_state(SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5, field=field))
        assert gs.amplitudes.size == 13
        assert gs.n_sites == 6
        other = ground_state(SpinChainSpec(n_sites=6, j_x=0.7, chi=0.2, field=(0.0, 0.0, 0.9)))
        assert_shared_table(gs, other)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_orbit_tables_follow_the_ring_symmetries(self, n):
        # each state's least image under the rotations and the mirror, from a bit matrix
        states = np.arange(1 << n)
        bits = (states[:, None] >> np.arange(n)[::-1]) & 1  # site i in column i
        place = 1 << np.arange(n)[::-1]
        rotated = np.roll(bits, 1, axis=1) @ place
        mirrored = bits[:, ::-1] @ place
        images = [np.roll(image, s, axis=1) @ place for image in (bits, bits[:, ::-1]) for s in range(n)]
        symmetric, single = spinchain._orbits(n, True), spinchain._orbits(n, False)
        assert (symmetric.index[rotated] == symmetric.index).all()
        assert (symmetric.index[mirrored] == symmetric.index).all()
        reps, index = np.unique(np.min(images, axis=0), return_inverse=True)
        assert (symmetric.reps == reps).all() and (symmetric.index == index).all()
        assert (single.reps == states).all() and (single.index == states).all()
        for orbits in (symmetric, single):
            assert (np.bincount(orbits.index) == orbits.size).all()

    @pytest.mark.parametrize("n", [4, 8, 12, 14])
    @pytest.mark.parametrize("chain", ["transverse", "tilted", "afm-transverse"])
    def test_vector_is_the_isometry_product(self, n, chain):
        # V is dense, so it is applied a block of rows at a time: at most 2^22 entries
        gs = ground_state(SpinChainSpec(n, *ORACLE_CHAINS[chain]))
        block = max(1, (1 << 22) // gs.amplitudes.size)
        blocks = np.split(np.arange(1 << n), range(block, 1 << n, block))
        product = np.concatenate([isometry(gs.orbits, rows) @ gs.amplitudes for rows in blocks])
        assert np.array_equal(gs.vector, product)

    def test_n14_tilted_state_is_compact(self):
        field = (np.sin(np.deg2rad(20.0)), 0.0, np.cos(np.deg2rad(20.0)))
        gs = ground_state(SpinChainSpec(n_sites=14, j_x=1.0, chi=0.5, field=field))
        assert gs.amplitudes.size == 687
        assert abs(np.linalg.norm(gs.vector) - 1.0) < 1e-12
        assert [spinchain._orbits(n, True).reps.size for n in (8, 10, 12)] == [30, 78, 224]
        assert [sel.size for sel in spinchain._sectors(spinchain._orbits(8, True).reps, 8)] == [18, 12]

    def test_n14_tilted_solve_allocates_little(self):
        # assembling the 2^N matrix and projecting it peaked at about 24 MB
        import scipy.sparse.linalg  # noqa: F401  (loaded on the first Lanczos solve, not per solve)

        field = (np.sin(np.deg2rad(20.0)), 0.0, np.cos(np.deg2rad(20.0)))
        tracemalloc.start()
        try:
            ground_state(SpinChainSpec(n_sites=14, j_x=1.0, chi=0.5, field=field))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("j_x, chi, field", ORACLE_CHAINS.values(), ids=ORACLE_CHAINS.keys())
    def test_assembly_matches_kronecker_oracle(self, n, j_x, chi, field):
        spec = SpinChainSpec(n, j_x, chi, field)
        ham = kron_hamiltonian(spec)
        orbits, blocks, scale = spinchain._assembled(spec)
        basis = isometry(orbits)
        stoquastic = (ham - np.diag(np.diag(ham))).max() <= 0.0
        assert orbits is spinchain._orbits(n, stoquastic)
        # each block is the oracle's block at its positions, assembled in the form it is
        # solved in, and the blocks tile V^T H V: nothing of it lies between them
        projected = np.zeros((orbits.reps.size,) * 2)
        for parity, positions, mat in blocks:
            assert isinstance(mat, np.ndarray) == (positions.size <= spinchain.DENSE_MAX_DIM)
            projected[np.ix_(positions, positions)] = dense(mat)
        assert np.abs(projected - basis.T @ ham @ basis).max() <= 1e-14
        assert abs(scale - np.abs(ham).sum(axis=1).max()) <= 1e-14 * scale
        even, odd = spinchain._sectors(orbits.reps, n)
        signs = np.sign(basis.T @ kron_parity(n))
        assert even.size + odd.size == basis.shape[1]
        assert (signs[even] == 1.0).all() and (signs[odd] == -1.0).all()
        parities = [parity for parity, _, _ in blocks]
        tiles = np.concatenate([positions for _, positions, _ in blocks])
        if spec.transverse:
            assert parities == [1, -1] and (tiles == np.concatenate([even, odd])).all()
        else:
            assert parities == [0] and (tiles == np.arange(basis.shape[1])).all()

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_tilted_second_level_lies_in_momentum_zero(self, n):
        # the flag reads the two lowest momentum-zero levels; here they are the full spectrum's
        for chi in (0.2, 0.5, 0.9):
            for gamma in (0.5, 30.0, 89.5):
                for h_mag in (0.05, 1.5):
                    g = np.deg2rad(gamma)
                    spec = SpinChainSpec(n, 1.0, chi, (h_mag * np.sin(g), 0.0, h_mag * np.cos(g)))
                    ham = kron_hamiltonian(spec)
                    [(_, _, projected)] = spinchain._assembled(spec)[1]  # one block, parity broken
                    low = np.linalg.eigvalsh(dense(projected))[:2]
                    full = np.linalg.eigvalsh(ham)[:2]
                    assert np.abs(low - full).max() < 1e-12
                    scale = np.abs(ham).sum(axis=1).max()
                    expected = full[1] - full[0] <= spinchain.DEGENERACY_RTOL * scale
                    assert ground_state(spec).degenerate == expected


class TestReducedPair:
    def test_translation_invariance(self):
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5, field=(0.0, 0.0, 0.3))
        gs = ground_state(spec)
        a = reduced_pair(gs, 0, 1)
        b = reduced_pair(gs, 3, 4)
        assert np.abs(a.entries - b.entries).max() < 1e-9

    def test_product_ground_state_pair(self):
        # At the tilted factorizing field the ground state is an exact
        # product, so the pair state is pure with zero entanglement.
        gamma = np.deg2rad(15.0)
        spec = SpinChainSpec(n_sites=8, j_x=1.0, chi=0.5,
                             field=(np.sin(gamma), 0.0, np.cos(gamma)))
        gs = ground_state(spec)
        pair = reduced_pair(gs, 0, 1)
        lams = np.linalg.eigvalsh(pair.entries)
        assert lams[-1] > 1.0 - 1e-9
        assert concurrence(pair) < 1e-8
        single = partial_trace(pair, LAY22, "A")
        bloch = np.array([np.trace(single.entries @ p).real for p in PAULI])
        theta = np.arccos(np.sqrt(0.5))
        assert abs(abs(bloch[2]) - np.cos(theta)) < 1e-8
        assert abs(abs(bloch[0]) - np.sin(theta)) < 1e-8

    def test_index_out_of_range(self):
        gs = ground_state(SpinChainSpec(n_sites=4, field=(0.0, 0.0, 0.1)))
        with pytest.raises(IndexOutOfRange):
            reduced_pair(gs, 2, 2)
        with pytest.raises(IndexOutOfRange):
            reduced_pair(gs, 0, 4)


class TestFactorizingField:
    def test_transverse_value(self):
        fac = factorizing_field(0.5, 1.0)
        assert abs(fac.h_zs - 0.7071067812) < 1e-9
        assert abs(fac.h_s - fac.h_zs) < 1e-15
        assert abs(np.cos(fac.theta) - np.sqrt(0.5)) < 1e-12

    def test_tilted_value(self):
        fac = factorizing_field(0.5, 1.0, np.deg2rad(15.0))
        assert abs(fac.h_s - 1.0) < 1e-12

    def test_isotropic_boundary(self):
        fac = factorizing_field(1.0, 2.0)
        assert fac.theta == 0.0
        assert abs(fac.h_zs - 2.0) < 1e-15
        with pytest.raises(GammaTooLarge):
            factorizing_field(1.0, 2.0, 0.1)

    def test_gamma_too_large(self):
        with pytest.raises(GammaTooLarge):
            factorizing_field(0.5, 1.0, np.pi / 4)
        with pytest.raises(GammaTooLarge):
            factorizing_field(0.5, 1.0, -0.1)

    def test_outside_the_factorizing_family(self):
        # a factorizing field needs chi in (0, 1] and a ferromagnetic j_x > 0
        for chi, j_x in ((0.0, 1.0), (1.5, 1.0), (-0.5, 1.0), (0.5, 0.0), (0.5, -1.0)):
            with pytest.raises(ValueError):
                factorizing_field(chi, j_x)

    def test_small_gamma_limit(self):
        fac = factorizing_field(0.5, 1.0)
        assert abs(fac.magnitude_at(1e-9) - fac.h_zs) < 1e-8


class TestRhoTheta:
    def test_extreme_angle_is_classical_x_mixture(self):
        rho = rho_theta(np.pi / 2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        expected = 0.5 * (
            np.outer(np.kron(plus, plus), np.kron(plus, plus))
            + np.outer(np.kron(minus, minus), np.kron(minus, minus))
        )
        assert np.abs(rho.entries - expected).max() < 1e-12
        res = discord(rho, LAY22)
        assert res.value < 1e-8
        assert abs(res.k_star.k[0] - 1.0) < 1e-4

    def test_concurrence_vanishes_without_overlap(self):
        for theta in np.linspace(0.15, np.pi / 2, 6):
            assert concurrence(rho_theta(theta)) < 1e-12

    def test_side_limit_concurrences_match_formula(self):
        theta = np.arccos(np.sqrt(0.5))
        _, (rp, rm) = rho_theta(theta, 8)
        cp, cm = concurrence_side_limits(0.5, 8)
        assert abs(concurrence(rp) - cp) < 1e-9
        assert abs(concurrence(rm) - cm) < 1e-9
        assert abs(cp - 0.0588235) < 1e-6
        assert abs(cm - 0.0666667) < 1e-6

    def test_side_limit_formula_domain(self):
        assert concurrence_side_limits(0.5, 8) == (0.0625 / 1.0625, 0.0625 / 0.9375)
        for chi in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                concurrence_side_limits(chi, 8)

    def test_bloch_convention(self):
        theta = 0.7
        ket = canted_qubit(theta)
        rho = make_density(np.outer(ket, ket.conj()))
        bloch = np.array([np.trace(rho.entries @ p).real for p in PAULI])
        assert np.abs(bloch - [np.sin(theta), 0.0, -np.cos(theta)]).max() < 1e-12

    def test_invalid_theta(self):
        with pytest.raises(InvalidTheta):
            rho_theta(0.0)
        with pytest.raises(InvalidTheta):
            rho_theta(2.0)


class TestSideLimitsAgainstChain:
    def test_ed_matches_construction(self):
        # The diagonalized side limits at h_zs and the closed-form pair states of
        # the definite-parity combinations agree entry by entry, and in their pair
        # measures, at every separation.  canted_qubit cants from -z and the
        # chain's spins, in a field along +z, from +z: sigma_x on both sites, which
        # reverses the two-qubit basis and keeps the parity of an even ring, maps
        # one onto the other.
        for n in (4, 6, 8, 10, 12):
            for chi in (0.3, 0.5, 0.8):
                theta = np.arccos(np.sqrt(chi))
                _, (rp, rm) = rho_theta(theta, n)
                spec = SpinChainSpec(n_sites=n, j_x=1.0, chi=chi, field=(0.0, 0.0, np.sqrt(chi)))
                gs = ground_state(spec)
                refs = {1: rp, -1: rm}
                for side in gs.side_limits:
                    ref = refs[side.parity]
                    d_ref = discord(ref, LAY22).value
                    i2_ref = quadratic_deficit_closed(ref, LAY22).value
                    flipped = ref.entries[::-1, ::-1]
                    for sep in range(1, n // 2 + 1):
                        pair = reduced_pair(gs=side, i=0, j=sep)
                        assert np.abs(pair.entries - flipped).max() < 1e-10, (n, chi, sep)
                        assert abs(discord(pair, LAY22).value - d_ref) < 1e-8
                        assert abs(quadratic_deficit_closed(pair, LAY22).value - i2_ref) < 1e-8
                        assert abs(concurrence(pair) - concurrence(ref)) < 1e-8
        with pytest.raises(IndexOutOfRange):
            rho_theta(theta, 1)


class TestAfmMap:
    def test_energy_invariant(self):
        neg = SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.4))
        pos, signs = afm_map(neg)
        assert pos.j_x == 1.0
        e_neg = ground_state(neg).energy
        e_pos = ground_state(pos).energy
        assert abs(e_neg - e_pos) < 1e-10
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_discord_invariant(self):
        neg = SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.4))
        pos, _ = afm_map(neg)
        pair_neg = reduced_pair(ground_state(neg), 0, 1)
        pair_pos = reduced_pair(ground_state(pos), 0, 1)
        assert abs(discord(pair_neg, LAY22).value - discord(pair_pos, LAY22).value) < 1e-8

    def test_transform_alternates_product_state(self):
        # The sign map sends the uniform canted product chain to the
        # alternating one, up to a global sign.
        theta = 0.6
        n = 6
        _, signs = afm_map(SpinChainSpec(n_sites=n, j_x=-1.0, chi=0.5, field=(0.0, 0.0, 0.1)))
        up = canted_qubit(theta)
        dn = canted_qubit(-theta)
        uniform = up
        alternating = up
        for i in range(1, n):
            uniform = np.kron(uniform, up)
            alternating = np.kron(alternating, dn if i % 2 == 1 else up)
        # even sites (0-indexed) keep +theta, odd sites... the rotation acts
        # on even sites, flipping their cant sign instead:
        flipped = dn
        for i in range(1, n):
            flipped = np.kron(flipped, up if i % 2 == 1 else dn)
        mapped = signs * uniform
        overlap_alt = abs(np.vdot(mapped, alternating))
        overlap_flip = abs(np.vdot(mapped, flipped))
        assert max(overlap_alt, overlap_flip) > 1.0 - 1e-12

    def test_unsupported_geometries(self):
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=5, j_x=-1.0, chi=0.5))
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=6, j_x=1.0, chi=0.5))
        with pytest.raises(UnsupportedGeometry):
            afm_map(SpinChainSpec(n_sites=6, j_x=-1.0, chi=0.5, field=(0.1, 0.0, 0.0)))
