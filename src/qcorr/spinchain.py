"""Exact ground states of finite XY chains and their factorization points.

The Hamiltonian is

    H = - sum_i h . S_i - sum_i (J_x S_i^x S_{i+1}^x + J_y S_i^y S_{i+1}^y)

on the cyclic first-neighbor ring (site N is site 0; N = 2 has one bond)
that every formula here assumes, with S^u = sigma^u / 2, a field h in the xz
plane and J_y = chi * J_x.  H is solved in the span of the orbit sums of the
ring's rotations and reflection (the dihedral group), which holds its ground
level when H is stoquastic ((J_x = 0 or J_x > 0 and |chi| <= 1) and
h_x >= 0), and in the full basis otherwise.  For a transverse field the z spin
parity P_z = prod_i(-2 S_i^z) commutes with H and each P_z sector is a block of
its own; otherwise the whole basis is one block.  Each block is assembled
directly, by applying H to one representative state of each of its orbits
(singletons for the full basis), as a numpy array solved by ``eigh`` up to
``DENSE_MAX_DIM`` columns and as a sparse one solved by Lanczos, the only use
of scipy, above.  Each P_z sector is also a quadratic fermion problem after a
Jordan-Wigner transformation, and the crossing scan takes the two sector
energies from that solution, with no eigensolve; the block diagonalization is
the oracle it is tested against.  The last crossing sits at the transverse
factorizing field h_zs = J_x sqrt(chi), where two completely separable ground
states with per-site cant angle theta (cos theta = sqrt(chi)) become
degenerate; a field tilted by gamma < theta from the z axis instead admits a
single separable ground state at the magnitude h_zs sin(theta)/sin(theta - gamma).

Site ordering follows the package convention: site 0 is the slowest index,
so basis state r has bit (r >> (N - 1 - i)) & 1 at site i, with bit 0 the
spin-up (S^z = +1/2) state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    GammaTooLarge,
    IndexOutOfRange,
    InvalidTheta,
    TooLarge,
    UnsupportedGeometry,
)
from .statekit import DensityMatrix, make_density

if TYPE_CHECKING:
    import scipy.sparse as sp
    Matrix = np.ndarray | sp.csr_matrix  # an assembled block: numpy up to DENSE_MAX_DIM, CSR above

MAX_SITES = 14
#: Largest matrix solved densely: above it Lanczos wins (dim 128: numpy ``eigh`` 1.8 ms
#: against ``eigsh`` 2.4 ms; dim 176: 3.8 against 3.1 ms).
DENSE_MAX_DIM = 128
#: Relative energy-splitting threshold below which a crossing is declared.
DEGENERACY_RTOL = 1e-10
#: Width of the field bracket at which crossing bisection stops.
CROSSING_TOL = 1e-10

PARITY_EVEN = 1
PARITY_ODD = -1
PARITY_BROKEN = 0


@dataclass(frozen=True)
class SpinChainSpec:
    """Cyclic first-neighbor ring: N spins, J_x, J_y = chi * J_x, a field with h_y = 0."""

    n_sites: int
    j_x: float = 1.0
    chi: float = 1.0
    field: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if isinstance(self.n_sites, bool) or not isinstance(self.n_sites, (int, np.integer)):
            raise ValueError(f"n_sites must be an integer, got {self.n_sites!r}")
        if self.n_sites < 2:
            raise ValueError(f"need at least 2 sites, got {self.n_sites}")
        if not np.isfinite([self.j_x, self.chi, *self.field]).all() or self.field[1] != 0.0:
            raise ValueError(f"need finite j_x, chi and field with h_y = 0, got {self}")

    @property
    def transverse(self) -> bool:
        return self.field[0] == 0.0


@dataclass(frozen=True)
class GroundState:
    """Ground level of a chain: energy, amplitudes, and parity bookkeeping.

    ``amplitudes`` has one entry per orbit of ``orbits``, the shared orbit table
    the chain was solved on, and ``vector`` is their gather ``V @ amplitudes``.
    ``parity`` is +1 or -1 for transverse fields and 0 when the field breaks
    the symmetry.  At a parity crossing ``degenerate`` is set and
    ``side_limits`` carries the even- and odd-parity states, whose reduced
    pairs are the physical side limits.  Elsewhere, and on each side limit,
    ``degenerate`` marks a twofold level of the state's own block, which no
    one vector stands for.
    """

    energy: float
    amplitudes: np.ndarray
    orbits: _Orbits
    parity: int
    degenerate: bool = False
    side_limits: tuple["GroundState", "GroundState"] | None = None

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes[self.orbits.index] * self.orbits.weight

    @property
    def n_sites(self) -> int:
        return int(np.log2(self.orbits.index.size) + 0.5)

    @property
    def parity_label(self) -> str:
        return {PARITY_EVEN: "+1", PARITY_ODD: "-1", PARITY_BROKEN: "broken"}[self.parity]


@dataclass(frozen=True)
class FactorizationData:
    """Cant angle and factorizing-field magnitudes of a chain family."""

    theta: float
    h_zs: float
    h_s: float
    gamma: float
    chi: float
    j_x: float

    def magnitude_at(self, gamma: float) -> float:
        """Factorizing-field magnitude at a different tilt angle."""
        return _h_s_magnitude(self.theta, self.h_zs, gamma)


@dataclass(frozen=True)
class PairObservables:
    """Reduced pair state at separation L with a bag of computed measures."""

    rho_pair: DensityMatrix
    separation: int
    measures: dict


def _site_bits(states: np.ndarray, n: int) -> np.ndarray:
    """Bit of each site (columns, site 0 first) in each of the given basis states."""
    return (states[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1


@dataclass(frozen=True)
class _Orbits:
    """Dihedral orbits of the 2^N basis states, or their singletons: each orbit's
    least state (``reps``, ascending), the orbit of every state (``index``), the
    states per orbit (``size``) and each state's weight ``|O|^-1/2`` in the isometry
    V onto the normalized orbit sums (``weight``), so ``V @ x = x[index] * weight``;
    ``symmetric`` unless the orbits are singletons."""

    reps: np.ndarray
    index: np.ndarray
    size: np.ndarray
    weight: np.ndarray
    symmetric: bool


@lru_cache(maxsize=None)
def _orbits(n: int, symmetric: bool) -> _Orbits:
    """The orbits of N sites under rotations and the reflection i -> N-1-i, singletons
    unless ``symmetric``.  Cached, so states of one size share the table, and read-only,
    so that no caller can change it under them."""
    if n > MAX_SITES:
        raise TooLarge(f"exact diagonalization capped at {MAX_SITES} sites, got {n}")
    least = states = np.arange(1 << n)
    if symmetric:
        mirror = sum(((states >> i) & 1) << (n - 1 - i) for i in range(n))
        for image in (states, mirror):
            for s in range(n):
                least = np.minimum(least, ((image << s) | (image >> (n - s))) & ((1 << n) - 1))
    reps, index, size = np.unique(least, return_inverse=True, return_counts=True)
    weight = size[index] ** -0.5
    for array in (reps, index, size, weight):
        array.setflags(write=False)
    return _Orbits(reps, index, size, weight, symmetric)


def _assembled(spec: SpinChainSpec, orbits: _Orbits | None = None) -> tuple[_Orbits, list, float]:
    """The orbit table of H, its blocks ``(parity, positions, V^T H V)`` and its scale.

    Unless ``orbits`` is given, V is the isometry onto the dihedral orbit sums when no
    off-diagonal element of H is positive, the identity otherwise.  Those elements,
    ``-J_x (1 -/+ chi) / 4`` on the bonds (equal and unequal bits) and ``-h_x / 2``, keep their
    signs when rounded.  Such an H is stoquastic: it and each parity block have a nonnegative
    ground vector (Perron-Frobenius), whose average over the rotations and the reflection,
    which permute basis states, commute with H and keep the parity, lies in the span of the
    orbit sums.  H is applied once to every representative r_b, so by those symmetries
    ``<a|H|b> = sqrt(|O_b| / |O_a|) sum_{s in O_a} H_{s, r_b}``.  The columns are split into
    the blocks, the whole table (parity broken) or for a transverse field the two P_z sectors,
    each image weighted and mapped to its orbit's row in the block (H keeps each block), and
    duplicates summed: a numpy array up to ``DENSE_MAX_DIM`` columns, CSR above.  The columns
    hold all of H's elements and, H being symmetric, its largest absolute row sum: the scale.
    """
    n, j_x, chi, (h_x, _, h_z) = spec.n_sites, spec.j_x, spec.chi, spec.field
    if orbits is None:
        stoquastic = (j_x == 0.0 or (j_x > 0.0 and abs(chi) <= 1.0)) and h_x >= 0.0
        orbits = _orbits(n, stoquastic)
    states = orbits.reps
    zvals = 1.0 - 2.0 * _site_bits(states, n)  # sigma_z eigenvalue per site
    # Field along z: diagonal -h_z/2 * sum_i sigma_z.
    images, values = [states[None]], [-0.5 * h_z * zvals.sum(axis=1)[None]]
    # Field along x: single bit flips, element -h_x/2.
    if h_x != 0.0:
        images.append(states ^ (1 << (n - 1 - np.arange(n)))[:, None])
        values.append(np.full((n, states.size), -0.5 * h_x))
    # Ring bonds (i, i + 1 mod N), of which N = 2 has one: double bit flips
    # with elements -Jx/4 + Jy z_i z_j / 4.
    i = np.arange(n if n > 2 else 1)
    j = (i + 1) % n
    images.append(states ^ ((1 << (n - 1 - i)) | (1 << (n - 1 - j)))[:, None])
    values.append(-0.25 * j_x + 0.25 * (chi * j_x) * (zvals[:, i] * zvals[:, j]).T)
    parities, blocks = (PARITY_BROKEN,), [np.arange(states.size)]
    if spec.transverse:
        parities, blocks = (PARITY_EVEN, PARITY_ODD), _sectors(states, n)
    row_of = np.zeros(states.size, dtype=int)
    for block in blocks:
        row_of[block] = np.arange(block.size)  # each orbit's row in its block
    image_orbits, values = orbits.index[np.concatenate(images)], np.concatenate(values)
    weighted = values * np.sqrt(orbits.size / orbits.size[image_orbits])
    mats = []
    for block in blocks:
        rows, data = row_of[image_orbits.take(block, axis=1)], weighted.take(block, axis=1)
        cols, shape = np.broadcast_to(np.arange(block.size), rows.shape), (block.size,) * 2
        if block.size <= DENSE_MAX_DIM:
            mats.append(np.zeros(shape))
            np.add.at(mats[-1], (rows, cols), data)
        else:
            import scipy.sparse as sp

            mats.append(sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape))
    scale = max(float(np.abs(values).sum(axis=0).max()), 1e-30)
    return orbits, list(zip(parities, blocks, mats)), scale


def build_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Dense Hamiltonian matrix (real, as h lies in the xz plane) from its singleton blocks."""
    orbits, blocks, _ = _assembled(spec, _orbits(spec.n_sites, False))
    ham = np.zeros((orbits.reps.size,) * 2)
    for _, states, mat in blocks:
        ham[np.ix_(states, states)] = mat if isinstance(mat, np.ndarray) else mat.toarray()
    return ham


def _sectors(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the even and odd P_z states among the given basis states."""
    even = (n + _site_bits(states, n).sum(axis=1)) % 2 == 0
    return np.flatnonzero(even), np.flatnonzero(~even)


def parity_sectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis-state indices of the even and odd P_z sectors."""
    return _sectors(np.arange(1 << n), n)


def _ground_level(block: Matrix, scale: float, simple: bool) -> tuple[float, np.ndarray, bool]:
    """Lowest eigenvalue of a real symmetric block, its eigenvector, and whether it is
    twofold: a second level within ``DEGENERACY_RTOL * scale`` of it.

    Every eigensolve of the chain goes through here, in the form ``_assembled`` built: numpy's
    LAPACK ``eigh`` for an array, Lanczos (ARPACK) for CSR.  A Krylov space grown from one
    start vector holds one direction of a twofold level, so unless the block is known to
    have a ``simple`` ground level, Lanczos also reads the lowest level of
    ``block + scale u u^T`` (u the vector found) from an independent start: it is the
    level's other direction.
    """
    if isinstance(block, np.ndarray):
        w, v = np.linalg.eigh(block)
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh

        dim = block.shape[0]
        # A fixed start vector keeps ARPACK, and so the sweep output, deterministic.
        w, v = eigsh(block, k=2, which="SA", v0=np.random.default_rng(0).normal(size=dim))
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        if not simple:
            u = v[:, 0]
            op = LinearOperator(block.shape, lambda x: block @ x + scale * u * (u @ x), dtype=float)
            v1 = np.random.default_rng(1).normal(size=dim)
            w[1] = min(w[1], eigsh(op, k=1, which="SA", v0=v1)[0][0])
    return float(w[0]), v[:, 0], bool(w.size > 1 and w[1] - w[0] <= DEGENERACY_RTOL * scale)


def _block_states(spec: SpinChainSpec) -> tuple[list[GroundState], float]:
    """Each ``_assembled`` block's ground state, ``degenerate`` if twofold, and H's scale."""
    orbits, blocks, scale = _assembled(spec)
    # Perron-Frobenius: a stoquastic block (its orbits symmetric) whose off-diagonal graph is
    # connected has a simple ground level.  h_x > 0 flips single spins; J_x != 0 and |chi| < 1
    # make both bond flips nonzero, which connects each P_z sector.
    j_x, chi, h_x = spec.j_x, spec.chi, spec.field[0]
    simple = orbits.symmetric and (h_x > 0.0 or (j_x != 0.0 and abs(chi) < 1.0))
    states = []
    for parity, block, mat in blocks:
        energy, vector, twofold = _ground_level(mat, scale, simple)
        amplitudes = np.zeros(orbits.reps.size)
        amplitudes[block] = vector
        states.append(GroundState(energy, amplitudes, orbits, parity, twofold))
    return states, scale


def ground_state(spec: SpinChainSpec) -> GroundState:
    """Exact ground state of the chain: the lower of the block states of ``_block_states``.

    Transverse fields have one block state per parity sector.  When the two
    sector minima agree within 1e-10 of the Hamiltonian scale, the sectors
    cross: the state is flagged degenerate and carries both definite-parity
    side limits (even first), each flagged ``degenerate`` exactly when its
    own sector level is twofold.  Otherwise the state is its block's, flagged
    when that level is twofold (odd antiferromagnetic rings, momenta +-k).
    Other fields break the symmetry: parity is marked broken, and
    ``degenerate`` reads the two lowest levels in the one block (a level
    outside it could only be a lower second one, and Perron-Frobenius keeps
    every such level above the ground level).
    """
    states, scale = _block_states(spec)
    lower = min(states, key=lambda state: state.energy)  # the even sector on a tie
    if len(states) == 1 or abs(states[0].energy - states[1].energy) > DEGENERACY_RTOL * scale:
        return lower
    return replace(lower, degenerate=True, side_limits=tuple(states))


def parity_sector_energies(spec: SpinChainSpec) -> tuple[float, float]:
    """Lowest energy in the even and odd parity sectors (transverse only)."""
    if not spec.transverse:
        raise UnsupportedGeometry("parity sectors require a transverse field")
    even, odd = _block_states(spec)[0]
    return even.energy, odd.energy


def _sector_splitting(spec: SpinChainSpec, fields: np.ndarray) -> np.ndarray:
    """E_even - E_odd of the transverse ring at each field, from Jordan-Wigner fermions.

    With sigma^z = 1 - 2 c^dag c each P_z sector is a quadratic fermion
    Hamiltonian (Lieb, Schultz and Mattis 1961) on ``_assembled``'s bonds, the
    wrap bond's sign flipped when the sector's fermion number is even.  Its
    hopping A and pairing B enter through ``M = h_z I + A0 - B``, with
    ``M[i, j] = -s J_y / 2`` and ``M[j, i] = -s J_x / 2`` on bond (i, j).
    With eps the singular values of M the vacuum energy is ``-sum(eps) / 2``;
    it has the fermion parity of ``det M > 0``, and a sector of the other
    parity occupies the lowest mode.  No eigensolve: one stacked SVD a sector.
    """
    n = spec.n_sites
    energies = []
    for parity in (PARITY_EVEN, PARITY_ODD):
        even_fermions = (parity == PARITY_EVEN) == (n % 2 == 0)
        m = np.zeros((n, n))
        for i in range(n if n > 2 else 1):
            j = (i + 1) % n
            s = -1.0 if j == 0 and even_fermions else 1.0
            m[i, j], m[j, i] = -0.5 * s * spec.chi * spec.j_x, -0.5 * s * spec.j_x
        mats = fields[:, None, None] * np.eye(n) + m
        eps = np.linalg.svd(mats, compute_uv=False)
        wrong_parity = (np.linalg.det(mats) > 0.0) != even_fermions
        energies.append(-0.5 * eps.sum(axis=1) + np.where(wrong_parity, eps[:, -1], 0.0))
    return energies[0] - energies[1]


def parity_crossings(
    spec: SpinChainSpec, h_min: float, h_max: float, points: int = 2000
) -> np.ndarray:
    """Transverse fields where the parity-sector ground levels cross.

    Evaluates the energy splitting on a uniform grid from Jordan-Wigner
    fermions (``_sector_splitting``), records grid points where it is exactly
    zero, and bisects every cell whose upper end changes sign against its
    lower end, all cells together, to ``CROSSING_TOL``.  For odd N the spin
    flip maps each P_z sector onto the other and h_z onto -h_z, so the
    splitting is odd in h_z: a range holding 0 reports exactly 0.0, once, as
    a grid point where the splitting is set to 0 rather than left to the
    rounding sign.  ``spec.field`` is ignored, and ``h_min < h_max`` and
    an integer ``points >= 2`` are required (``ValueError``).  The ED sector energies are
    the oracle it is tested against.
    """
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
        raise ValueError(f"points must be an integer, got {points!r}")
    if not h_min < h_max or points < 2:
        raise ValueError(f"need h_min < h_max and points >= 2, got [{h_min}, {h_max}], {points}")
    grid = np.linspace(h_min, h_max, points)
    zero_field = spec.n_sites % 2 == 1 and h_min <= 0.0 <= h_max
    if zero_field:
        grid = np.union1d(grid, 0.0)
    split = _sector_splitting(spec, grid)
    if zero_field:
        split[grid == 0.0] = 0.0
    cells = np.flatnonzero(split[:-1] * split[1:] < 0.0)
    lo, hi, sign = grid[cells], grid[cells + 1], split[cells]
    while (open_ := hi - lo > CROSSING_TOL).any():
        mid = 0.5 * (lo + hi)
        below = sign * _sector_splitting(spec, mid) < 0.0
        hi, lo = np.where(open_ & below, mid, hi), np.where(open_ & ~below, mid, lo)
    return np.sort(np.concatenate([grid[split == 0.0], 0.5 * (lo + hi)]))


def reduced_pair(gs: GroundState, i: int, j: int) -> DensityMatrix:
    """Two-site reduced state at sites (i, j).  A crossing state reduces as its side limit of
    the same parity; a vector whose own block level is twofold (momenta +-k) averages sites
    (t, t + j - i mod N), t first, over the N translations: the level's equal mixture."""
    n = gs.n_sites
    if not (0 <= i < j < n):
        raise IndexOutOfRange(f"need 0 <= i < j < {n}, got ({i}, {j})")
    if gs.side_limits is not None:
        gs = next(side for side in gs.side_limits if side.parity == gs.parity)
    psi = gs.vector.reshape((2,) * n)
    sites = [(t, (t + j - i) % n) for t in range(n)] if gs.degenerate else [(i, j)]
    cols = np.concatenate([np.moveaxis(psi, pair, (0, 1)).reshape(4, -1) for pair in sites], axis=1)
    return make_density(cols @ cols.conj().T / len(sites))


def _h_s_magnitude(theta: float, h_zs: float, gamma: float) -> float:
    if gamma == 0.0:
        return h_zs
    if not 0.0 < gamma < theta:
        raise GammaTooLarge(
            f"tilt gamma = {gamma:.6g} must satisfy 0 <= gamma < theta = {theta:.6g}"
        )
    return h_zs * np.sin(theta) / np.sin(theta - gamma)


def factorizing_field(chi: float, j_x: float, gamma: float = 0.0) -> FactorizationData:
    """Cant angle and factorizing field for anisotropy chi and tilt gamma.

    theta = arccos(sqrt(chi)); the transverse value is h_zs = J_x sqrt(chi)
    and the tilted magnitude h_zs sin(theta)/sin(theta - gamma).  gamma = 0
    always returns the transverse limit; a positive tilt requires
    gamma < theta (at chi = 1 the cone closes and no tilted factorization
    exists).
    """
    if not 0.0 < chi <= 1.0:
        raise ValueError(f"chi must be in (0, 1], got {chi}")
    if j_x <= 0.0:
        raise ValueError(f"j_x must be positive, got {j_x}")
    if gamma < 0.0:
        raise GammaTooLarge(f"gamma must be nonnegative, got {gamma}")
    theta = float(np.arccos(np.sqrt(chi)))
    h_zs = j_x * float(np.sqrt(chi))
    h_s = _h_s_magnitude(theta, h_zs, float(gamma))
    return FactorizationData(theta=theta, h_zs=h_zs, h_s=h_s, gamma=float(gamma), chi=chi, j_x=j_x)


def canted_qubit(theta: float) -> np.ndarray:
    """Single-spin state with Bloch vector (sin theta, 0, -cos theta).

    This is the fixed rotation convention for the factorized-state algebra:
    angle theta from the -z axis in the xz plane with positive x component.
    The chain's spins, in a field along +z, cant from +z instead: they are
    these states with sigma^x applied.
    """
    return np.array([np.sin(0.5 * theta), np.cos(0.5 * theta)], dtype=complex)


def rho_theta(theta: float, n_sites: int | None = None):
    """Reduced pair state(s) of the factorized ground manifold.

    With ``n_sites`` omitted, returns the overlap-neglected equal mixture of
    the two product states at cant angles +/- theta, the common reduced pair
    state at the transverse factorizing field.  With ``n_sites`` given, returns
    ``(rho_theta, (rho_plus, rho_minus))``, adding the pair states of the exact
    definite-parity chains |theta>^N +/- |-theta>^N, with c = cos(theta):
    [|uu><uu| + |dd><dd| +/- c^(N-2) (|uu><dd| + h.c.)] / (2 (1 +/- c^N)).
    The qubits cant from -z (``canted_qubit``), so the chain's ED side limits
    at h_zs are these states with sigma^x applied on both sites, which
    changes no measure.
    """
    if not 0.0 < theta <= 0.5 * np.pi:
        raise InvalidTheta(f"theta must be in (0, pi/2], got {theta}")
    uu, dd = (np.kron(q, q) for q in (canted_qubit(theta), canted_qubit(-theta)))
    diagonal = np.outer(uu, uu.conj()) + np.outer(dd, dd.conj())
    cross = np.outer(uu, dd.conj()) + np.outer(dd, uu.conj())
    rho_mix = make_density(0.5 * diagonal)
    if n_sites is None:
        return rho_mix
    if n_sites < 2:
        raise IndexOutOfRange(f"a pair needs at least 2 sites, got {n_sites}")
    c = np.cos(theta)
    plus, minus = (
        make_density((diagonal + s * c ** (n_sites - 2) * cross) / (2.0 * (1.0 + s * c**n_sites)))
        for s in (1.0, -1.0)
    )
    return rho_mix, (plus, minus)


def concurrence_side_limits(chi: float, n_sites: int) -> tuple[float, float]:
    """Residual pair concurrences of the definite-parity states at h_zs.

    C_+- = chi^(N/2 - 1) (1 - chi) / (1 +- chi^(N/2)); the overlap between
    the two factorized chains enters through chi^(N/2) = cos(theta)^N.
    """
    if not 0.0 < chi < 1.0:
        raise ValueError(f"chi must be in (0, 1), got {chi}")
    half = chi ** (n_sites / 2.0)
    common = chi ** (n_sites / 2.0 - 1.0) * (1.0 - chi)
    return common / (1.0 + half), common / (1.0 - half)


def afm_map(spec: SpinChainSpec) -> tuple[SpinChainSpec, np.ndarray]:
    """Map an antiferromagnetic first-neighbor chain to the ferromagnetic one.

    A pi rotation about z on every even site flips the sign of both
    couplings while leaving a transverse field untouched.  Requires even N,
    J_x < 0, and a transverse field.
    Returns the rotated spec and the diagonal of the rotation in the
    computational basis (a vector of +/- 1 signs); even separations are
    untouched by the map while the factorized product states acquire
    alternating cant angles.
    """
    if spec.j_x >= 0.0:
        raise UnsupportedGeometry("sign map applies to antiferromagnetic J_x < 0")
    if spec.n_sites % 2 != 0:
        raise UnsupportedGeometry("sign map requires an even number of sites")
    if not spec.transverse:
        raise UnsupportedGeometry("sign map requires a transverse field")
    bits = _site_bits(np.arange(1 << spec.n_sites), spec.n_sites)
    even_down = bits[:, 0::2].sum(axis=1)
    signs = np.where(even_down % 2 == 0, 1.0, -1.0)
    return replace(spec, j_x=-spec.j_x), signs
