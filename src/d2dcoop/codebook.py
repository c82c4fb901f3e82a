"""Random decoding codebooks and average-SNR codeword selection.

A codebook is a pre-stored ``(2**bits, P, P)`` array of unitary matrices
shared by the base station and the users, stored column by column:
column ``p`` of ``codebook[k]`` is user ``p``'s decoding vector for the
pooled received samples under codeword ``k``. Each codeword is the Q
factor of a standard complex Gaussian matrix G (i.i.d. entries of unit
variance), with canonical column phases (each column's largest-magnitude
entry real positive): Haar-distributed on the unitary group up to those
phases (Mezzadri 2007, Notices AMS 54(5)). It is computed by classical
Gram-Schmidt applied twice (CGS2), orthogonal to working precision
(Giraud, Langou, Rozloznik & van den Eshof 2005, Numer. Math. 101). The
base station signals the index of the codeword maximizing the average
post-decoding SNR on the current channel.

Codewords are drawn sequentially, so for a fixed seed the ``2**b``
codebook is exactly the prefix of the ``2**(b+1)`` one, which paired-seed
experiments rely on. :func:`codebook_stream` draws the codebook one
``BLOCK`` at a time into one draw buffer and one block store that it
reuses for every block, so a block is valid only until the next is drawn;
selection reads the stream block by block, and :func:`generate_codebook`
copies it into a fresh array.
"""

import numpy as np

from .precoding import check_noise_power, snr_denominators

DEFAULT_BUDGET_BYTES = 1 << 30
BLOCK = 1024
ELEMENT_BOUND = 1 << 14  # bounds each temporary: of a scoring piece or GEMM, of a draw chunk


class CodebookBudgetError(RuntimeError):
    """Requested codebook would exceed the configured memory budget."""


def codebook_bytes(num_users: int, bits: int) -> int:
    """Memory held by a codebook of ``2**bits`` complex128 user x user matrices."""
    return (1 << bits) * num_users * num_users * 16


def over_budget(num_users: int, bits: int) -> str | None:
    """Why a codebook of ``2**bits`` matrices for ``num_users`` users exceeds
    ``DEFAULT_BUDGET_BYTES``, or None when it fits.

    ``2**bits`` codewords exceed it for any user count from its bit length on, so
    the check stops there, before a huge ``bits`` overflows the shift or exhausts memory.
    """
    limit = DEFAULT_BUDGET_BYTES.bit_length()
    if bits >= limit or codebook_bytes(num_users, bits) > DEFAULT_BUDGET_BYTES:
        return (
            f"a codebook of 2**{bits} matrices for {num_users} users exceeds the "
            f"budget of {DEFAULT_BUDGET_BYTES} bytes"
        )
    return None


def generate_codebook(num_users: int, bits: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a fresh random codebook of ``2**bits`` unitary matrices.

    The blocks of :func:`codebook_stream` on ``rng``, each copied into a new
    store as it is drawn, so generation peaks at the codebook plus the
    stream's draw buffer and block store. Raises :class:`CodebookBudgetError`,
    before any draw, above ``DEFAULT_BUDGET_BYTES``.
    """
    _check_codebook(num_users, bits)
    # stored column by column: each decoding vector is contiguous
    book = np.empty((1 << bits, num_users, num_users), dtype=complex).swapaxes(-1, -2)
    start = 0
    for block in codebook_stream(num_users, bits, rng):
        book[start : start + len(block)] = block
        start += len(block)
    return book


def codebook_stream(num_users: int, bits: int, rng: np.random.Generator):
    """The ``2**bits`` codebook of :func:`generate_codebook`, one block of ``BLOCK``
    (or fewer) codewords at a time, each the next draws of ``rng``.

    The stream owns two buffers, allocated at the first block: the Gaussian
    draws and one block store. Every block is drawn into them, so a yielded
    block is valid only until the next one is drawn; a consumer copies what
    it keeps. Raises as :func:`generate_codebook` does, before any draw.
    """
    _check_codebook(num_users, bits)
    rows = min(1 << bits, BLOCK)
    draws = np.empty((rows, num_users, num_users, 2))
    # the (real, imaginary) pairs of the draws, read in place as complex
    g = draws.view(complex)[..., 0]
    store = np.empty((rows, num_users, num_users), dtype=complex)
    for _ in range((1 << bits) // rows):
        rng.standard_normal(out=draws)
        g /= np.sqrt(2.0)
        _orthonormalize(g, store)
        yield store.swapaxes(-1, -2)


def _check_codebook(num_users: int, bits: int) -> None:
    """Raise on a codebook that cannot be drawn or that exceeds ``DEFAULT_BUDGET_BYTES``."""
    if num_users < 1:
        raise ValueError("num_users must be a positive integer")
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    reason = over_budget(num_users, bits)
    if reason:
        raise CodebookBudgetError(reason)


def _orthonormalize(g: np.ndarray, out: np.ndarray) -> None:
    """Write the phase-canonical Q factor of each matrix of ``g`` into ``out``.

    ``out[k, j]`` becomes column ``j`` of the Q factor of ``g[k]``, as the
    codebook store holds it. Each column is projected off the ones before
    it twice (CGS2), one column step for the whole stack, then rotated by
    the conjugate phase of its largest-magnitude (anchor) entry, the
    anchor set to its magnitude, and divided by its norm as real pairs,
    so a 1 x 1 codeword is exactly 1.
    """
    columns = np.swapaxes(g, -1, -2)
    rows = np.arange(len(g))
    for j in range(g.shape[-1]):
        v = columns[:, j].copy()
        if j:
            previous = out[:, :j]
            for _ in range(2):
                # conj(sum_p q_p conj(v_p)) is, bitwise, sum_p conj(q_p) v_p:
                # conjugation flips signs, which rounding commutes with
                coef = np.conj(np.einsum("nkp,np->nk", previous, np.conj(v)))
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
    """Oracle: noise-free selection score ``sum_p 1 / (q_p^H A^{-1} q_p)`` of each codeword.

    The average post-decoding SNR is the score over ``noise_power * users``.
    The independent reference for :func:`select_prefix_codewords`' lifted
    scores: one :func:`snr_denominators` call per ``BLOCK`` codewords.
    """
    blocks = (codewords[start : start + BLOCK] for start in range(0, len(codewords), BLOCK))
    return np.concatenate([(1.0 / snr_denominators(q, gram_inv)).sum(axis=1) for q in blocks])


def select_codeword(codebook: np.ndarray, gram_inv: np.ndarray, noise_power: float):
    """Oracle: the codeword maximizing the average post-decoding SNR, ties to the lowest index.

    Returns ``(index, codeword, average_snr)``: the independent reference
    for :func:`select_prefix_codewords`, the selector the sweep calls.
    """
    check_noise_power(noise_power)
    scores = codeword_scores(codebook, gram_inv)
    index = int(np.argmax(scores))
    return index, codebook[index], float(scores[index] / (noise_power * codebook.shape[1]))


def part_elements(num_users: int) -> int:
    """Elements one codeword adds to a scoring piece of :func:`select_prefix_codewords`:
    the ``P**2`` lifted features of each of its ``P`` columns."""
    return num_users**3


def prefix_parts(blocks, bit_counts):
    """The codebook stream ``blocks`` up to codeword ``2**max(bit_counts)``, each block
    cut at every ``2**b`` inside it: ``(low, part, b)`` in order, ``part`` a view of its
    block from codeword ``low`` on, ``b`` the bit count whose ``2**b`` prefix the part
    closes, else None. Raises ValueError, when the stream ends, on fewer codewords."""
    edge_bits = {1 << bits: bits for bits in bit_counts}
    size = max(edge_bits)
    start = 0
    for block in blocks:
        stop = min(start + len(block), size)
        cuts = [cut for cut in sorted({stop, *edge_bits}) if start < cut <= stop]
        for low, high in zip([start, *cuts], cuts):
            yield low, block[low - start : high - start], edge_bits.get(high)
        start = stop
        if start == size:
            return
    raise ValueError(f"codebook holds {start} codewords, fewer than {size}")


def select_prefix_codewords(parts, gram_invs):
    """The best codeword of each ``2**b`` prefix, per Gram inverse, ties to the lowest index.

    ``parts`` are the :func:`prefix_parts` of a codebook stream; a part need stay
    valid only until the next is asked for, as :func:`codebook_stream`'s blocks do,
    since each choice is copied out of it.
    ``q^H B q`` is a real linear form in the features of ``q`` (:func:`_lifted_features`),
    weights ``2 Re B_ij``, ``-2 Im B_ij`` and ``B_ii``, so one real GEMM scores a
    piece of a part for a chunk of Gram inverses, sized so that its features
    and its denominators each stay within ``ELEMENT_BOUND``. A running
    first-occurrence argmax records each ``b``'s choice, for every noise power:
    :func:`select_codeword`'s, unless two scores are equal within the rounding of
    the two forms (relative 1e-15; 2e-10 at ``COND_LIMIT``), as when the Gram is
    a multiple of the identity. Yields ``(b, (indices, codewords))`` by increasing b as
    the part closing ``2**b`` is scored: the running choices, a row per Gram inverse,
    codewords in the store's layout, valid until the next is asked for.
    """
    gram_invs = np.asarray(gram_invs)
    num, users = gram_invs.shape[:2]
    part_rows = max(1, min(BLOCK, ELEMENT_BOUND // part_elements(users)))
    chunk = max(1, ELEMENT_BOUND // (users * part_rows))
    upper_i, upper_j = np.triu_indices(users, 1)
    upper = 2.0 * gram_invs[:, upper_i, upper_j]
    weights = np.concatenate([upper.real, -upper.imag, np.diagonal(gram_invs, 0, 1, 2).real], 1)
    best_scores, best_index = np.full(num, -np.inf), np.zeros(num, dtype=int)
    best = np.empty((num, users, users), dtype=complex).swapaxes(-1, -2)
    for low, part, bits in parts:
        for offset in range(0, len(part), part_rows):
            piece = part[offset : offset + part_rows]
            features = _lifted_features(piece, upper_i, upper_j)
            for first in range(0, num, chunk):
                rows = slice(first, first + chunk)
                denominators = weights[rows] @ features
                np.reciprocal(denominators, out=denominators)
                scores = denominators.reshape(len(denominators), users, -1).sum(axis=1)
                k = scores.argmax(axis=1)
                score = scores[np.arange(len(k)), k]
                hit = np.flatnonzero(score > best_scores[rows])
                best_scores[first + hit], best_index[first + hit] = score[hit], low + offset + k[hit]
                best[first + hit] = piece[k[hit]]
        if bits is not None:
            yield bits, (best_index, best)


def _lifted_features(codewords: np.ndarray, upper_i, upper_j) -> np.ndarray:
    """Features ``Re(conj(q_i) q_j)``, then ``Im(conj(q_i) q_j)`` (``i < j``: ``upper_i``,
    ``upper_j``), then ``|q_i|^2`` of each decoding vector ``q``: one column per
    vector, user by user."""
    # entries[i, p * count + k]: entry i of column p of codeword k
    entries = np.transpose(codewords, (1, 2, 0)).reshape(codewords.shape[-1], -1)
    products = np.conj(entries[upper_i]) * entries[upper_j]
    squares = np.square(entries.real) + np.square(entries.imag)
    return np.concatenate([products.real, products.imag, squares])
