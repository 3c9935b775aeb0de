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

from .entropy import EntropyFunctional, spectrum_entropy
from .measurement import PROB_FLOOR
from .statekit import PAULI, BipartiteLayout, DensityMatrix

_2D = np.newaxis


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
