"""Random decoding codebooks and average-SNR codeword selection.

A codebook is a pre-stored stack of ``2**bits`` unitary matrices shared
by the base station and the users, held as one ``(2**bits, P, P)``
array: ``codebook[k]`` is codeword ``k`` and its column ``p`` the
decoding vector user ``p`` applies to the pooled received samples. The
array is stored column by column, so each decoding vector is contiguous.
Each codeword is the Q factor of a standard complex Gaussian matrix G
(i.i.d. entries of unit variance), with canonical column phases (each
column's largest-magnitude entry real positive). The Q factor of G is
Haar-distributed on the unitary group up to those column phases
(Mezzadri 2007, "How to generate random matrices from the classical
compact groups", Notices AMS 54(5)). It is computed by classical
Gram-Schmidt applied twice (CGS2), which is orthogonal to working
precision (Giraud, Langou, Rozloznik & van den Eshof 2005, Numer.
Math. 101) and runs over a whole block of codewords at once, one column
step at a time. The base station evaluates every codeword against the
current effective channel and signals the index maximizing the average
post-decoding SNR.

Codewords are drawn sequentially from the generator, so for a fixed seed
the codebook of size ``2**b`` is exactly the prefix of the codebook of
size ``2**(b+1)``. Paired-seed experiments rely on this nesting.
Generation and scoring both walk the codebook in blocks of ``BLOCK``
codewords. The blocks are consecutive draws from one stream, so the
nesting holds across block boundaries: ``BLOCK``-sized
:func:`generate_codebook` calls on one generator yield, bitwise, the
blocks of one call for the whole codebook. Selection reads such a stream
block by block, so a sweep never needs the whole codebook at once.
"""

import numpy as np

from .precoding import snr_denominators

DEFAULT_BUDGET_BYTES = 1 << 30
BLOCK = 1024


class CodebookBudgetError(RuntimeError):
    """Requested codebook would exceed the configured memory budget."""


def codebook_bytes(num_users: int, bits: int) -> int:
    """Memory held by a codebook of ``2**bits`` complex128 user x user matrices."""
    return (1 << bits) * num_users * num_users * 16


def generate_codebook(num_users: int, bits: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh random codebook of ``2**bits`` unitary matrices.

    Deterministic given the generator state; identical (users, bits,
    seed) produce bitwise-identical codebooks. The codebook is allocated
    once and filled one block of ``BLOCK`` codewords at a time, each
    block the next draws of ``rng``, so the result equals one draw of
    all ``2**bits`` codewords and generation peaks at the codebook plus
    one block. Raises :class:`CodebookBudgetError` before any draw when
    the codebook would exceed ``DEFAULT_BUDGET_BYTES``, so the budget
    bounds the generation peak up to that one block.
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
    # stored column by column, so the decoding vectors of any block of
    # codewords are contiguous rows for snr_denominators' GEMM
    store = np.empty((size, num_users, num_users), dtype=complex)
    for start in range(0, size, BLOCK):
        # the (real, imaginary) pairs of the draws, read in place as complex
        shape = (min(BLOCK, size - start), num_users, num_users, 2)
        g = rng.standard_normal(shape).view(complex)[..., 0]
        g /= np.sqrt(2.0)
        _orthonormalize(g, store[start : start + len(g)])
    return store.swapaxes(-1, -2)


def _orthonormalize(g: np.ndarray, out: np.ndarray) -> None:
    """Write the phase-canonical Q factor of each matrix of ``g`` into ``out``.

    ``out[k, j]`` becomes column ``j`` of the Q factor of ``g[k]``, so
    ``out`` holds each Q column by column, as the codebook store does.
    Each column is projected off the ones before it twice (CGS2), one
    column step for the whole stack, and so depends only on its own
    matrix. It is then rotated by the conjugate phase of its
    largest-magnitude (anchor) entry, the anchor is set to its magnitude
    and the column is divided by its norm as real pairs, so a 1 x 1
    codeword is exactly 1.
    """
    columns = np.swapaxes(g, -1, -2)
    rows = np.arange(len(g))
    for j in range(g.shape[-1]):
        v = columns[:, j].copy()
        if j:
            previous = out[:, :j]
            conj_previous = np.conj(previous)
            for _ in range(2):
                coef = np.einsum("nkp,np->nk", conj_previous, v)
                v -= np.einsum("nkp,nk->np", previous, coef)
        anchor_at = np.argmax(np.abs(v), axis=1)
        anchor = v[rows, anchor_at]
        magnitude = np.abs(anchor)
        v *= np.conj(anchor / magnitude)[:, None]
        v[rows, anchor_at] = magnitude
        pairs = v.view(float)
        norm = np.sqrt(np.einsum("ij,ij->i", pairs, pairs))
        np.divide(pairs, norm[:, None], out=out[:, j].view(float))


def codeword_scores(codewords: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Noise-free selection score ``sum_p 1 / (q_p^H A^{-1} q_p)`` of each codeword.

    A codeword's average post-decoding SNR is its score over
    ``noise_power * users``, so the codeword maximizing the score does so
    at every noise power. Codewords are scored in blocks of
    ``BLOCK`` so the temporaries stay small at ``2**16`` codewords.
    Each block is one :func:`snr_denominators` call: one complex GEMM of
    the block's ``BLOCK * users`` decoding vectors against the
    Gram inverse plus one real dot per vector. On a codebook from
    :func:`generate_codebook`, stored column by column, those vectors
    are read in place.
    """
    cw = np.asarray(codewords)
    scores = np.empty(cw.shape[0])
    for start in range(0, cw.shape[0], BLOCK):
        block = cw[start : start + BLOCK]
        scores[start : start + len(block)] = (1.0 / snr_denominators(block, gram_inv)).sum(axis=1)
    return scores


def select_codeword(codebook: np.ndarray, gram_inv: np.ndarray, noise_power: float):
    """Reference selector: the codeword maximizing the average post-decoding SNR.

    ``gram_inv`` is the effective-channel Gram inverse, reused across all
    codewords and columns. Ties break to the lowest index. Returns
    ``(index, codeword, average_snr)``. Like the other oracles it is the
    per-point reference, here for :func:`select_prefix_codewords`, which
    is what the sweep and the cell-distortion audit call.
    """
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    scores = codeword_scores(codebook, gram_inv)
    index = int(np.argmax(scores))
    return index, codebook[index], float(scores[index] / (noise_power * codebook.shape[1]))


def select_prefix_codewords(blocks, gram_invs, bit_counts) -> list:
    """The codeword :func:`select_codeword` picks from each ``2**b`` prefix, per Gram inverse.

    ``blocks`` yields the codebook as consecutive blocks from codeword 0
    on, such as the ``generate_codebook`` calls of one stream or slices
    of a stored codebook; it is read once, up to codeword
    ``2**max(bit_counts)``, so only one block need exist at a time. Each
    block is scored against every Gram inverse while it is at hand, and
    a running first-occurrence argmax records each ``b``'s choice as the
    stream passes ``2**b``: the choice serves every noise power. Returns
    one ``{b: (index, codeword)}`` per Gram inverse, each codeword a copy
    that outlives its block. Raises ValueError when the blocks hold fewer
    than ``2**max(bit_counts)`` codewords.
    """
    edge_bits = {1 << bits: bits for bits in bit_counts}
    size = max(edge_bits)
    best_scores = [-np.inf] * len(gram_invs)
    best = [None] * len(gram_invs)
    choices = [{} for _ in gram_invs]
    start = 0
    for block in blocks:
        block = block[: size - start]
        stop = start + len(block)
        # the block's segments between the prefix edges inside it
        cuts = [start, *sorted(edge for edge in edge_bits if start < edge < stop), stop]
        for t, gram_inv in enumerate(gram_invs):
            scores = codeword_scores(block, gram_inv)
            for low, high in zip(cuts, cuts[1:]):
                k = low - start + int(np.argmax(scores[low - start : high - start]))
                if scores[k] > best_scores[t]:
                    # a copy in the store's column layout outlives the block
                    best_scores[t], best[t] = scores[k], (start + k, block[k].copy(order="K"))
                if high in edge_bits:
                    choices[t][edge_bits[high]] = best[t]
        start = stop
        if start == size:
            break
    if start < size:
        raise ValueError(f"codebook holds {start} codewords, fewer than {size}")
    return choices
