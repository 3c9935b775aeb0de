"""Independent reference evaluations used to certify benchmark outputs.

Nothing here calls the qcorr fast paths.  Conditional blocks are contracted
straight from the joint matrix with explicit qubit projectors, entropies are
taken from plain ``numpy.linalg.eigvalsh`` spectra, chain Hamiltonians are
assembled from sparse Kronecker products of spin matrices, and the
concurrence follows Wootters' eigenvalue route.  Every function works on
plain complex arrays (a qudit-qubit state has A slow and B fast).
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI3 = np.stack([SX, SY, SZ])
_YY = np.kron(SY, SY)


def hemisphere_grid(step_deg: float) -> np.ndarray:
    """Upper-hemisphere directions on a whole-degree grid, shape (M, 3)."""
    thetas = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, step_deg))
    phis = np.deg2rad(np.arange(0.0, 360.0, step_deg))
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    return np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    ).reshape(-1, 3)


def direction(theta: float, phi: float) -> np.ndarray:
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def marginals(rho: np.ndarray, d_a: int) -> tuple[np.ndarray, np.ndarray]:
    four = rho.reshape(d_a, 2, d_a, 2)
    return np.einsum("aibi->ab", four), np.einsum("aiaj->ij", four)


def _entropy_of(lams: np.ndarray, family: str, q: float | None = None) -> np.ndarray:
    """Entropy of spectra along the last axis, base 2, 1 on a mixed qubit."""
    w = np.clip(lams, 0.0, None)
    if family == "vn":
        logs = np.log2(np.where(w > 0.0, w, 1.0))
        return -(w * logs).sum(axis=-1)
    if family == "tsallis":
        return (1.0 - (w**q).sum(axis=-1)) / (1.0 - 2.0 ** (1.0 - q))
    if family == "renyi":
        return np.log2((w**q).sum(axis=-1)) / (1.0 - q)
    raise ValueError(family)


def entropy(mat: np.ndarray, family: str = "vn", q: float | None = None) -> float:
    return float(_entropy_of(np.linalg.eigvalsh(mat), family, q))


def pinched_spectra(rho: np.ndarray, d_a: int, dirs: np.ndarray):
    """Spectra of the unnormalized A blocks Tr_B[rho (I x P_{+-k})], each (M, d_a).

    The blocks are contracted straight from the joint matrix with explicit
    projectors (I +- k.sigma)/2.  Every objective below takes the state, d_a
    and these spectra, and returns one value per direction.
    """
    four = rho.reshape(d_a, 2, d_a, 2)
    projs = 0.5 * (np.eye(2) + np.einsum("mn,nij->mij", np.atleast_2d(dirs), PAULI3))
    plus = np.einsum("aibj,mji->mab", four, projs)
    minus = np.einsum("aibj,mji->mab", four, np.eye(2) - projs)
    return np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)


def discord(rho: np.ndarray, d_a: int, spectra) -> np.ndarray:
    """D(k) = sum_s p_s S(A|s) - S(AB) + S(B) for each direction."""
    _, rho_b = marginals(rho, d_a)
    cond = 0.0
    for lams in spectra:
        p = lams.sum(axis=-1)
        safe = np.where(p > 1e-14, p, 1.0)
        cond = cond + np.where(p > 1e-14, p * _entropy_of(lams / safe[:, None], "vn"), 0.0)
    return cond - (entropy(rho) - entropy(rho_b))


def deficit(rho: np.ndarray, d_a: int, spectra, family="vn", q=None) -> np.ndarray:
    """S_f(rho'(k)) - S_f(rho): the pinched state's spectrum is both blocks' together."""
    return _entropy_of(np.concatenate(spectra, axis=-1), family, q) - entropy(rho, family, q)


def quadratic_conditional(rho: np.ndarray, d_a: int, spectra) -> np.ndarray:
    """sum_s 2 (p_s - Tr M_s^2 / p_s): the S_2 conditional entropy by its definition."""
    out = 0.0
    for lams in spectra:
        p = lams.sum(axis=-1)
        out = out + np.where(p > 1e-14, 2.0 * (p - (lams**2).sum(axis=-1) / np.where(p > 1e-14, p, 1.0)), 0.0)
    return out


def _purity_after(spectra) -> np.ndarray:
    return sum((lams**2).sum(axis=-1) for lams in spectra)


def quadratic_deficit(rho: np.ndarray, d_a: int, spectra) -> np.ndarray:
    """2 (Tr rho^2 - Tr rho'^2)."""
    return 2.0 * (np.vdot(rho, rho).real - _purity_after(spectra))


def renyi2_deficit(rho: np.ndarray, d_a: int, spectra) -> np.ndarray:
    """log2(Tr rho^2 / Tr rho'^2), the Renyi-2 deficit."""
    return np.log2(np.vdot(rho, rho).real / _purity_after(spectra))


def concurrence(rho: np.ndarray) -> float:
    """Wootters: sqrt eigenvalues of rho (y x y) rho* (y x y), largest minus the rest."""
    lams = np.linalg.eigvals(rho @ _YY @ rho.conj() @ _YY)
    roots = np.sort(np.sqrt(np.clip(lams.real, 0.0, None)))[::-1]
    return float(max(0.0, roots[0] - roots[1:].sum()))


def pure_concurrence(psi: np.ndarray) -> float:
    """|<psi| y x y |psi*>| for a normalized two-qubit vector."""
    return float(abs(psi.conj() @ _YY @ psi.conj()))


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c))))


def pair_state(vector: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Two-site reduced state of a chain vector (site 0 slowest)."""
    psi = np.moveaxis(vector.reshape((2,) * n), (i, j), (0, 1)).reshape(4, -1)
    return psi @ psi.conj().T


def _site_op(op: np.ndarray, site: int, n: int) -> sp.csr_matrix:
    eye_left = sp.identity(1 << site, format="csr")
    eye_right = sp.identity(1 << (n - 1 - site), format="csr")
    return sp.kron(sp.kron(eye_left, sp.csr_matrix(op)), eye_right, format="csr")


@functools.lru_cache(maxsize=None)
def _chain_terms(n: int) -> tuple:
    """Field-independent sums: sum S^x_i, sum S^z_i, and the cyclic S^x S^x and S^y S^y bonds."""
    sx = [_site_op(SX.real / 2.0, i, n) for i in range(n)]
    sy = [_site_op(SY / 2.0, i, n) for i in range(n)]
    sz = [_site_op(SZ.real / 2.0, i, n) for i in range(n)]
    bonds = [(i, (i + 1) % n) for i in range(n if n > 2 else 1)]
    xx = sum(sx[i] @ sx[j] for i, j in bonds)
    yy = sum(sy[i] @ sy[j] for i, j in bonds).real
    return sum(sx), sum(sz), xx, yy


def xy_hamiltonian(n: int, j_x: float, chi: float, field) -> sp.csr_matrix:
    """Cyclic XY chain -h.S_i - J_x S^x_i S^x_i+1 - chi J_x S^y_i S^y_i+1, S = sigma/2."""
    h_x, _, h_z = field
    x, z, xx, yy = _chain_terms(n)
    return (-h_x * x - h_z * z - j_x * xx - chi * j_x * yy).tocsr()


def parity_diagonal(n: int) -> np.ndarray:
    """Diagonal of prod_i sigma^z_i; +1 on the even sector."""
    pops = np.array([bin(r).count("1") for r in range(1 << n)])
    return np.where(pops % 2 == 0, 1.0, -1.0)


def lowest_energy(ham: sp.csr_matrix) -> float:
    """Smallest eigenvalue by Lanczos from a fixed start vector."""
    if ham.shape[0] <= 512:
        return float(np.linalg.eigvalsh(ham.toarray())[0])
    v0 = np.linspace(1.0, 2.0, ham.shape[0])
    return float(spla.eigsh(ham, k=1, which="SA", v0=v0, tol=0.0)[0][0])


def hamiltonian_scale(ham: sp.csr_matrix) -> float:
    return float(abs(ham).sum(axis=1).max())
