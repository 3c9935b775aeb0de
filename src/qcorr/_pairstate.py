"""Vectorized measurement surfaces for a fixed qudit-qubit state.

For a projective measurement along k the joint post-measurement state is
block diagonal in the measured basis with A-side blocks
``M_s(k) = Tr_B[rho (I x P_sk)] = (rho_a + s * sum_n k_n T_n) / 2`` where
``T_n = Tr_B[rho (I x sigma_n)]``.  Everything the optimizers need, the
conditional entropy ``sum_s p_s S_f(M_s / p_s)`` and the measured joint
entropy ``S_f(M_+ (+) M_-)``, follows from batched eigenvalues of these
blocks, which keeps full-grid scans cheap.
"""

from __future__ import annotations

import numpy as np

from .entropy import (
    FAMILY_RENYI,
    FAMILY_VON_NEUMANN,
    EntropyFunctional,
    f_prime_values,
    spectrum_entropy,
)
from .errors import UnsupportedFamily
from .measurement import PROB_FLOOR, projector
from .statekit import PAULI, BipartiteLayout, DensityMatrix

_2D = np.newaxis
_LOG_FLOOR = 1e-300


def block_spectra(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian blocks.

    2x2 blocks [[a, b], [b*, d]] use the closed form
    ``(a + d)/2 -/+ hypot((a - d)/2, |b|)``; larger ones go to ``eigvalsh``.
    """
    if blocks.shape[-1] != 2:
        return np.linalg.eigvalsh(blocks)
    a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
    mean = 0.5 * (a + d)
    radius = np.hypot(0.5 * (a - d), np.abs(blocks[..., 0, 1]))
    return np.stack([mean - radius, mean + radius], axis=-1)


class PairContext:
    """Precomputed tensors of one state, reused across many directions."""

    def __init__(self, rho: DensityMatrix, layout: BipartiteLayout):
        layout.check(rho)
        layout.require_qubit_b()
        self.layout = layout
        self.d_a = layout.d_a
        self.rho = rho
        four = rho.entries.reshape(layout.d_a, 2, layout.d_a, 2)
        self.rho_a = np.einsum("aibi->ab", four)
        self.rho_b = np.einsum("aiaj->ij", four)
        self.t_ops = np.einsum("aibj,nji->nab", four, PAULI)
        self.r_b = np.einsum("ij,nji->n", self.rho_b, PAULI).real
        self.joint_spectrum = np.linalg.eigvalsh(rho.entries)

    def measured_blocks(self, dirs: np.ndarray):
        """Branch probabilities (M, 2) and raw blocks (M, 2, d_a, d_a)."""
        dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
        m, d_a = len(dirs), self.d_a
        delta = (dirs @ self.t_ops.reshape(3, -1)).reshape(m, d_a, d_a)
        blocks = np.empty((m, 2, d_a, d_a), dtype=complex)
        np.add(self.rho_a, delta, out=blocks[:, 0])
        np.subtract(self.rho_a, delta, out=blocks[:, 1])
        blocks *= 0.5
        overlap = dirs @ self.r_b
        probs = np.empty((m, 2))
        np.add(1.0, overlap, out=probs[:, 0])
        np.subtract(1.0, overlap, out=probs[:, 1])
        probs *= 0.5
        return probs, blocks

    def conditional_entropy(self, dirs: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
        """sum_s p_s S_f(rho_A|s) for each direction; shape (M,)."""
        probs, blocks = self.measured_blocks(dirs)
        lams = block_spectra(blocks)
        safe = np.where(probs > PROB_FLOOR, probs, 1.0)
        cond = lams / safe[..., _2D]
        s_branch = spectrum_entropy(cond, functional)
        return (np.where(probs > PROB_FLOOR, probs, 0.0) * s_branch).sum(axis=1)

    def measured_joint_entropy(self, dirs: np.ndarray, functional: EntropyFunctional) -> np.ndarray:
        """S_f of the pinched joint state, from the combined block spectra."""
        _, blocks = self.measured_blocks(dirs)
        lams = block_spectra(blocks).reshape(len(blocks), 2 * self.d_a)
        return spectrum_entropy(lams, functional)


def stationarity_residual(
    rho: DensityMatrix,
    layout: BipartiteLayout,
    k,
    functional: EntropyFunctional,
    mode: str = "deficit",
) -> float:
    """Frobenius norm of the optimality commutator at direction k.

    Deficit mode evaluates ``Tr_A [f'(rho'(k)), rho]``; discord mode, defined
    for the von Neumann family only, adds ``[log2 rho'_B, rho_B]``.  Both
    follow from the two blocks M_s: ``f'(rho') = sum_s f'(M_s) (x) P_sk`` and
    ``rho'_B = sum_s (Tr M_s) P_sk``.  The residual vanishes at minimizing
    directions, so it doubles as a convergence diagnostic.
    """
    if functional.family == FAMILY_RENYI:
        raise UnsupportedFamily("stationarity residual is defined for trace forms only")
    if mode not in ("deficit", "discord"):
        raise ValueError(f"mode must be 'deficit' or 'discord', got {mode!r}")
    if mode == "discord" and functional.family != FAMILY_VON_NEUMANN:
        raise UnsupportedFamily("discord-mode residual is defined for the von Neumann family")
    layout.check(rho)
    layout.require_qubit_b()
    d_a = layout.d_a
    four = rho.entries.reshape(d_a, 2, d_a, 2)
    plus = projector(k)
    projs = np.stack([plus, np.eye(2) - plus])
    lams, vecs = np.linalg.eigh(np.einsum("aibj,sji->sab", four, projs))
    f_blocks = (vecs * f_prime_values(lams, functional)[:, _2D]) @ vecs.conj().swapaxes(1, 2)
    fp = np.einsum("sab,sij->aibj", f_blocks, projs).reshape(rho.dim, rho.dim)
    comm = fp @ rho.entries - rho.entries @ fp
    reduced = np.einsum("aiaj->ij", comm.reshape(d_a, 2, d_a, 2))
    if mode == "discord":
        rho_b = np.einsum("aiaj->ij", four)
        log_b = np.einsum("s,sij->ij", np.log2(np.clip(lams.sum(1), _LOG_FLOOR, None)), projs)
        reduced = reduced + (log_b @ rho_b - rho_b @ log_b)
    return float(np.linalg.norm(reduced))
