"""Generalized trace-form entropies and two-qubit entanglement measures.

All entropies use base-2 logarithms and are normalized so that a maximally
mixed single qubit has entropy 1 in every family:

* von Neumann:  S(rho) = -sum_i lam_i log2 lam_i
* Tsallis-q:  S_q(rho) = (1 - Tr rho^q) / (1 - 2^(1-q)),  q > 0, q != 1;
  :data:`QUADRATIC` is q = 2, the linear entropy S_2(rho) = 2 (1 - Tr rho^2)
* Renyi-q:  S_Rq(rho) = log2(Tr rho^q) / (1 - q),  q > 0, q != 1

The first two are trace forms S_f(rho) = Tr f(rho) with f strictly concave
and f(0) = f(1) = 0; the Renyi family is a monotone function of the Tsallis
family at fixed q and is excluded from spectral-derivative operations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidQ, UnsupportedFamily, ZeroEigenvalueLog
from .statekit import DensityMatrix, PAULI

_LN2 = np.log(2.0)
_LOG_FLOOR = 1e-300

FAMILY_VON_NEUMANN = "von_neumann"
FAMILY_TSALLIS = "tsallis"
FAMILY_RENYI = "renyi"


@dataclass(frozen=True)
class EntropyFunctional:
    """Tagged entropy family; use the factories below to construct."""

    family: str
    q: float | None = None

    def label(self) -> str:
        if self.q is None:
            return self.family
        return f"{self.family}(q={self.q:g})"


def _check_q(q: float) -> float:
    q = float(q)
    if q <= 0.0 or q == 1.0:
        raise InvalidQ(f"q must be positive and different from 1, got {q}")
    return q


def tsallis(q: float) -> EntropyFunctional:
    return EntropyFunctional(FAMILY_TSALLIS, _check_q(q))


def renyi(q: float) -> EntropyFunctional:
    return EntropyFunctional(FAMILY_RENYI, _check_q(q))


VON_NEUMANN = EntropyFunctional(FAMILY_VON_NEUMANN)
QUADRATIC = tsallis(2.0)


def spectrum_entropy(weights: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
    """Entropy from a (batch of) spectra; reduces over the last axis.

    Negative weights from floating-point noise are clipped to zero.  The
    weights of one spectrum are assumed to sum to 1 except inside
    conditional averages, where callers rescale explicitly.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    fam = functional.family
    if fam == FAMILY_VON_NEUMANN:
        terms = np.where(w > 0.0, -w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
        return terms.sum(axis=-1)
    if fam == FAMILY_TSALLIS:
        q = functional.q
        return (1.0 - (w**q).sum(axis=-1)) / (1.0 - 2.0 ** (1.0 - q))
    if fam == FAMILY_RENYI:
        q = functional.q
        power = np.clip((w**q).sum(axis=-1), _LOG_FLOOR, None)
        return np.log2(power) / (1.0 - q)
    raise UnsupportedFamily(f"unknown family {fam!r}")


def entropy(rho: DensityMatrix, functional: EntropyFunctional) -> float:
    """S_f(rho), zero exactly on pure states for the trace-form families."""
    lams = np.linalg.eigvalsh(rho.entries)
    return float(spectrum_entropy(lams, functional))


def f_prime_values(lams: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
    """Derivative of the trace-form integrand f on a set of eigenvalues."""
    fam = functional.family
    if fam == FAMILY_VON_NEUMANN:
        if np.any(lams < _LOG_FLOOR):
            warnings.warn(
                "zero eigenvalue floored to 1e-300 before log", ZeroEigenvalueLog, stacklevel=3
            )
        lams = np.clip(lams, _LOG_FLOOR, None)
        return -np.log2(lams) - 1.0 / _LN2
    if fam == FAMILY_TSALLIS:
        q = functional.q
        lams = np.clip(lams, _LOG_FLOOR, None) if q < 1.0 else np.clip(lams, 0.0, None)
        return (1.0 - q * lams ** (q - 1.0)) / (1.0 - 2.0 ** (1.0 - q))
    raise UnsupportedFamily("f' is defined only for trace-form families")


def f_prime_matrix(rho: DensityMatrix, functional: EntropyFunctional) -> np.ndarray:
    """f'(rho): the integrand derivative applied in the eigenbasis of rho.

    Only trace-form families are supported.  A zero eigenvalue under the
    von Neumann family is floored to 1e-300 and a :class:`ZeroEigenvalueLog`
    warning is emitted.
    """
    lams, vecs = np.linalg.eigh(rho.entries)
    g = f_prime_values(lams, functional)
    return (vecs * g) @ vecs.conj().T


@dataclass(frozen=True)
class PairEntanglement:
    """Concurrence and entanglement of formation of a two-qubit state."""

    concurrence: float
    eof: float


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x) with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


_SIGMA_YY = np.kron(PAULI[1], PAULI[1])


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    lams, vecs = np.linalg.eigh(mat)
    lams = np.sqrt(np.clip(lams, 0.0, None))
    return (vecs * lams) @ vecs.conj().T


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flipped spectrum.

    Returns max(0, sqrt(m1) - sqrt(m2) - sqrt(m3) - sqrt(m4)) with m_i the
    descending eigenvalues of rho (y x y) rho* (y x y).  The square roots
    are evaluated as singular values of sqrt(flipped) sqrt(rho), which is
    exact for the same spectrum but keeps full precision when eigenvalues
    sit at zero.
    """
    if rho.dim != 4:
        raise DimensionMismatch(f"concurrence requires a two-qubit state, got dim {rho.dim}")
    flipped = _SIGMA_YY @ rho.entries.conj() @ _SIGMA_YY
    roots = np.linalg.svd(_psd_sqrt(flipped) @ _psd_sqrt(rho.entries), compute_uv=False)
    c = 2.0 * roots[0] - roots.sum()
    return float(min(1.0, max(0.0, c)))


def entanglement_of_formation(rho: DensityMatrix) -> PairEntanglement:
    """Concurrence and the entanglement of formation it determines."""
    c = concurrence(rho)
    eof = binary_entropy(0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c))))
    return PairEntanglement(concurrence=c, eof=eof)
