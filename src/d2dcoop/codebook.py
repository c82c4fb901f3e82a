"""Random decoding codebooks and average-SNR codeword selection.

A codebook is a pre-stored stack of ``2**bits`` unitary matrices shared
by the base station and the users. Each codeword comes from the
eigenvector matrix of a complex Wishart sample (G @ G^H with i.i.d.
standard complex Gaussian G), which is guaranteed unitary and is
Haar-like in distribution. The base station evaluates every codeword
against the current effective channel and signals the index maximizing
the average post-decoding SNR.

Codewords are drawn sequentially from the generator, so for a fixed seed
the codebook of size ``2**b`` is exactly the prefix of the codebook of
size ``2**(b+1)``. Paired-seed experiments rely on this nesting.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import phase_canonicalize
from .precoding import snr_denominators

DEFAULT_BUDGET_BYTES = 1 << 30
SCORE_BLOCK = 4096


class CodebookBudgetError(RuntimeError):
    """Requested codebook would exceed the configured memory budget."""


@dataclass(frozen=True, eq=False)
class DecodingCodebook:
    """Ordered stack of unitary decoding matrices.

    ``codewords`` has shape (2**bits, users, users); column ``p`` of a
    codeword is the decoding vector user ``p`` applies to the pooled
    received samples.
    """

    codewords: np.ndarray
    bits: int

    def __post_init__(self):
        cw = np.asarray(self.codewords)
        if self.bits < 0:
            raise ValueError("bits must be nonnegative")
        if cw.ndim != 3 or cw.shape[1] != cw.shape[2]:
            raise ValueError("codewords must be a stack of square matrices")
        if cw.shape[0] != 1 << self.bits:
            raise ValueError(
                f"codebook must hold exactly 2**{self.bits} codewords, got {cw.shape[0]}"
            )
        object.__setattr__(self, "codewords", cw)

    @property
    def num_users(self) -> int:
        return int(self.codewords.shape[1])

    def __len__(self) -> int:
        return int(self.codewords.shape[0])

    def __getitem__(self, index: int) -> np.ndarray:
        return self.codewords[index]

    def prefix(self, bits: int) -> "DecodingCodebook":
        """View of the first ``2**bits`` codewords as a smaller codebook."""
        if not 0 <= bits <= self.bits:
            raise ValueError(f"prefix bits must be in [0, {self.bits}]")
        return DecodingCodebook(self.codewords[: 1 << bits], bits)


def codebook_bytes(num_users: int, bits: int) -> int:
    """Memory held by a codebook of ``2**bits`` complex128 user x user matrices."""
    return (1 << bits) * num_users * num_users * 16


def generate_codebook(num_users: int, bits: int, rng: np.random.Generator) -> DecodingCodebook:
    """Draw a fresh random codebook of ``2**bits`` unitary matrices.

    Deterministic given the generator state; identical (users, bits,
    seed) produce bitwise-identical codebooks. Raises
    :class:`CodebookBudgetError` before any draw when the codebook would
    exceed ``DEFAULT_BUDGET_BYTES``.
    """
    if num_users < 1:
        raise ValueError("num_users must be a positive integer")
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    size = 1 << bits
    need = codebook_bytes(num_users, bits)
    if need > DEFAULT_BUDGET_BYTES:
        raise CodebookBudgetError(
            f"codebook of 2**{bits} matrices needs {need} bytes, budget is {DEFAULT_BUDGET_BYTES}"
        )
    # one contiguous block per codeword keeps prefixes seed-stable; each
    # intermediate is released once the next exists to bound the peak
    z = rng.standard_normal((size, num_users, num_users, 2))
    g = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    del z
    wishart = g @ np.conj(np.swapaxes(g, -1, -2))
    del g
    _, vecs = np.linalg.eigh(wishart)
    del wishart
    vecs = phase_canonicalize(vecs[..., ::-1])
    # stored column by column, so the decoding vectors of any block of
    # codewords are contiguous rows for snr_denominators' GEMM
    columns = np.ascontiguousarray(np.swapaxes(vecs, -1, -2)).swapaxes(-1, -2)
    return DecodingCodebook(columns, bits)


def codeword_scores(codewords: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Noise-free selection score ``sum_p 1 / (q_p^H A^{-1} q_p)`` of each codeword.

    A codeword's average post-decoding SNR is its score over
    ``noise_power * users``, so the codeword maximizing the score does so
    at every noise power. Codewords are scored in blocks of
    ``SCORE_BLOCK`` so the temporaries stay small at ``2**16`` codewords.
    Each block is one :func:`snr_denominators` call: one complex GEMM of
    the block's ``SCORE_BLOCK * users`` decoding vectors against the
    Gram inverse plus one real dot per vector. On a codebook from
    :func:`generate_codebook`, stored column by column, those vectors
    are read in place.
    """
    cw = np.asarray(codewords)
    scores = np.empty(cw.shape[0])
    for start in range(0, cw.shape[0], SCORE_BLOCK):
        block = cw[start : start + SCORE_BLOCK]
        scores[start : start + len(block)] = (1.0 / snr_denominators(block, gram_inv)).sum(axis=1)
    return scores


def select_codeword(codebook: DecodingCodebook, gram_inv: np.ndarray, noise_power: float):
    """Reference selector: the codeword maximizing the average post-decoding SNR.

    ``gram_inv`` is the effective-channel Gram inverse, reused across all
    codewords and columns. Ties break to the lowest index. Returns
    ``(index, codeword, average_snr)``. Like the other oracles it is the
    per-point reference, here for :func:`select_prefix_codewords`, which
    is what the sweep and the cell-distortion audit call.
    """
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    scores = codeword_scores(codebook.codewords, gram_inv)
    index = int(np.argmax(scores))
    return index, codebook[index], float(scores[index] / (noise_power * codebook.num_users))


def select_prefix_codewords(codebook: DecodingCodebook, gram_inv: np.ndarray, bit_counts) -> dict:
    """The index :func:`select_codeword` picks from each ``2**b`` prefix.

    Scores the first ``2**max(bit_counts)`` codewords once and takes the
    first-occurrence argmax of each nested prefix, which serves every
    ``b`` and every noise power. Returns ``{b: index}``.
    """
    bit_counts = set(bit_counts)
    scores = codeword_scores(codebook.prefix(max(bit_counts)).codewords, gram_inv)
    return {bits: int(np.argmax(scores[: 1 << bits])) for bits in bit_counts}

