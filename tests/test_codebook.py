import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import (
    average_snr,
    collect_choices,
    gaussian_effective_channel,
    haar_unitary,
    inverse_of,
    pipeline_channel,
)
from d2dcoop import (
    CodebookBudgetError,
    ExperimentConfig,
    generate_codebook,
    gram_inverse,
    noncooperative_baseline_snr,
    per_user_snr_gram,
    select_codeword,
)
import d2dcoop.codebook as codebook_module
from d2dcoop.codebook import (
    BLOCK,
    ELEMENT_BOUND,
    _orthonormalize,
    codebook_stream,
    codeword_scores,
    part_elements,
    prefix_parts,
    select_prefix_codewords,
)
from d2dcoop.precoding import eigen_spectrum, gram, phase_canonicalize, snr_denominators


def gaussian_draws(users, bits, seed):
    """The standard complex Gaussian matrices ``generate_codebook`` draws from ``seed``."""
    z = np.random.default_rng(seed).standard_normal((1 << bits, users, users, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def block_slices(codebook):
    """A stored codebook as the consecutive blocks selection reads."""
    return [codebook[start : start + BLOCK] for start in range(0, len(codebook), BLOCK)]


def wishart_codebook(users, bits, seed):
    """The former construction: phase-canonical eigenvectors of G G^H, descending."""
    g = gaussian_draws(users, bits, seed)
    _, vecs = np.linalg.eigh(g @ np.conj(np.swapaxes(g, -1, -2)))
    return phase_canonicalize(vecs[..., ::-1])


def test_codebook_size_is_power_of_two():
    rng = np.random.default_rng(0)
    assert len(generate_codebook(4, 0, rng)) == 1
    assert len(generate_codebook(4, 6, np.random.default_rng(0))) == 64
    # no codebook has no users or a negative bit count, on either entry point
    with pytest.raises(ValueError, match="num_users must be a positive integer"):
        generate_codebook(0, 3, rng)
    with pytest.raises(ValueError, match="num_users must be a positive integer"):
        next(codebook_stream(0, 3, rng))
    with pytest.raises(ValueError, match="bits must be nonnegative"):
        generate_codebook(3, -1, rng)


def test_all_codewords_unitary():
    cb = generate_codebook(4, 6, np.random.default_rng(1))
    eye = np.eye(4)
    for q in cb:
        assert np.linalg.norm(q.conj().T @ q - eye) < 1e-10


def test_single_user_codewords_are_exactly_one():
    cb = generate_codebook(1, 3, np.random.default_rng(2))
    assert np.array_equal(cb, np.ones((8, 1, 1), dtype=complex))


def test_bitwise_reproducible():
    a = generate_codebook(3, 7, np.random.default_rng(42))
    b = generate_codebook(3, 7, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_smaller_codebook_is_prefix_of_larger():
    small = generate_codebook(4, 5, np.random.default_rng(9))
    large = generate_codebook(4, 8, np.random.default_rng(9))
    assert np.array_equal(small, large[:32])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_streamed_generation_equals_one_shot_draw(users, bits, seed):
    # generation fills the store block by block; from b = 11 on it spans
    # several blocks and must still equal one draw of every codeword
    store = np.empty((1 << bits, users, users), dtype=complex)
    _orthonormalize(gaussian_draws(users, bits, seed), store)
    reference = store.swapaxes(-1, -2)
    streamed = generate_codebook(users, bits, np.random.default_rng(seed))
    assert streamed.strides == reference.strides
    assert streamed.tobytes("A") == reference.tobytes("A")


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(0, 13), st.integers(0, 2**32 - 1))
def test_block_sized_calls_equal_one_shot_codebook(users, bits, seed):
    # the sweep streams the codebook block by block from the one generator;
    # each block, taken as it arrives (the next draw overwrites it), must
    # be, bitwise and in layout, that block of the whole codebook
    stream = codebook_stream(users, bits, np.random.default_rng(seed))
    blocks = [(len(block), block.strides, block.tobytes("A")) for block in stream]
    book = generate_codebook(users, bits, np.random.default_rng(seed))
    assert sum(rows for rows, _, _ in blocks) == len(book)
    for start, (_, strides, data) in zip(range(0, len(book), BLOCK), blocks):
        reference = book[start : start + BLOCK]
        assert strides == reference.strides
        assert data == reference.tobytes("A")


@pytest.mark.parametrize("block, bits", [(1, 9), (64, 13), (4096, 13)])
def test_codebook_is_the_same_at_any_block_size(block, bits):
    # each codeword is orthonormalised from its own next draws, so the block
    # size moves no bit: 2**13 codewords span 128 blocks of 64 and two of
    # 4096; one-codeword blocks take a Python step each, so they run 2**9
    for users in range(1, 9):
        reference = generate_codebook(users, bits, np.random.default_rng(users))
        with patch.object(codebook_module, "BLOCK", block):
            stream = codebook_stream(users, bits, np.random.default_rng(users))
            blocks = [codewords.copy() for codewords in stream]
        assert len(blocks) == len(reference) // block
        assert np.concatenate(blocks).tobytes() == reference.tobytes()


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 6), st.sampled_from([0, 3, 8, 11]), st.integers(0, 2**32 - 1))
def test_codewords_are_canonical_qr_factors_of_their_draws(users, bits, seed):
    # LAPACK's QR of the same draws is the reference; a column may differ
    # by a phase where two magnitudes nearly tie for the anchor
    g = gaussian_draws(users, bits, seed)
    reference = phase_canonicalize(np.linalg.qr(g)[0])
    codewords = generate_codebook(users, bits, np.random.default_rng(seed))
    overlap = np.abs(np.einsum("kpa,kpa->ka", np.conj(reference), codewords))
    cond = np.linalg.cond(g)[:, None]
    assert np.all(np.abs(overlap - 1.0) <= 1e-12 * cond)


@pytest.mark.parametrize("users", [2, 3, 4, 5])
def test_first_entry_power_follows_beta_law(users):
    # the first column of a Haar unitary is uniform on the complex sphere,
    # so |q_00|^2 ~ Beta(1, P - 1); raw moments E[X^k] = k! (P-1)! / (P+k-1)!
    samples = np.abs(generate_codebook(users, 15, np.random.default_rng(2024))[:, 0, 0]) ** 2
    raw = [1.0]
    for k in range(1, 5):
        raw.append(raw[-1] * k / (users + k - 1))
    mean = raw[1]
    var = raw[2] - mean**2
    mu4 = raw[4] - 4 * mean * raw[3] + 6 * mean**2 * raw[2] - 3 * mean**4
    n = len(samples)
    # both statistics within 4 standard errors (two-sided 6e-5 per check)
    assert abs(samples.mean() - mean) <= 4.0 * np.sqrt(var / n)
    assert abs(samples.var() - var) <= 4.0 * np.sqrt((mu4 - var**2) / n)


def test_selection_scores_follow_the_wishart_eigenvector_law():
    # the eigenvectors of G G^H and the Q factor of G have one law (Haar
    # up to column phases, which the score ignores): at a fixed A^-1 the
    # two constructions' score samples must pass a two-sample KS test at
    # level 1e-3, on independent draws
    a_inv = inverse_of(gaussian_effective_channel(np.random.default_rng(21), 6, 4))
    scores = codeword_scores(generate_codebook(4, 14, np.random.default_rng(22)), a_inv)
    reference = codeword_scores(wishart_codebook(4, 14, 23), a_inv)
    assert ks_2samp(scores, reference).pvalue > 1e-3


@pytest.mark.parametrize("users", [1, 3, 5])
def test_prefix_nesting_across_blocks(users):
    small = generate_codebook(users, 10, np.random.default_rng(31))
    large = generate_codebook(users, 12, np.random.default_rng(31))
    assert len(small) == BLOCK
    assert np.array_equal(small, large[: len(small)])


@pytest.mark.parametrize("users", [3, 5])
def test_generation_peak_is_codebook_plus_a_few_blocks(users):
    # a one-shot draw holds about three codebooks at once; streaming
    # holds the codebook and one block's temporaries
    tracemalloc.start()
    try:
        generate_codebook(users, 14, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    book = (1 << 14) * users * users * 16  # bytes of the complex128 codebook
    assert peak <= book + 8 * (book >> 4)


@pytest.mark.parametrize("users", [1, 2, 3, 5, 6, 12])
def test_stream_peak_within_its_sweep_bytes_term(users):
    # sweep_bytes counts the stream per codeword of a full block; two configs at
    # b = 10 and b = 0 differ in nothing else, so they differ by 1023 codewords'
    # worth. The stream's own peak, after a warm-up stream, stays within it
    def config(bits):
        return ExperimentConfig(D=max(6, users), user_count_grid=[users], b_grid=[bits])

    per_codeword = (config(10).sweep_bytes() - config(0).sweep_bytes()) / (BLOCK - 1)
    for bits in (10, 11):
        for _ in codebook_stream(users, bits, np.random.default_rng(1)):
            pass
        tracemalloc.start()
        try:
            for _ in codebook_stream(users, bits, np.random.default_rng(2)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= per_codeword * BLOCK


def test_generated_codebooks_are_independent_arrays():
    # the stream draws every block into one store; each whole codebook
    # is a fresh copy of it, so neither call's array aliases the other's
    a = generate_codebook(3, 11, np.random.default_rng(5))
    b = generate_codebook(3, 11, np.random.default_rng(5))
    assert not np.shares_memory(a, b)
    assert np.array_equal(a, b)
    a[:] = 0.0
    assert np.array_equal(b, generate_codebook(3, 11, np.random.default_rng(5)))


def test_memory_budget_enforced():
    with pytest.raises(CodebookBudgetError):
        # 2**23 codewords of 4 x 4 complex128 need 2 GiB against the 1 GiB budget
        generate_codebook(4, 23, np.random.default_rng(0))


@pytest.mark.parametrize("bits", [10**30, 2**63])
def test_oversized_bits_rejected_before_any_shift(bits):
    # 2**bits itself would overflow or exhaust memory: both entry points
    # reject the count from its size alone
    with pytest.raises(CodebookBudgetError):
        generate_codebook(3, bits, np.random.default_rng(0))
    with pytest.raises(CodebookBudgetError):
        next(codebook_stream(3, bits, np.random.default_rng(0)))


class TestAverageSnr:
    """The score ``select_codeword`` returns for a one-codeword codebook."""

    def test_matches_mean_of_per_user(self):
        rng = np.random.default_rng(3)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = generate_codebook(4, 0, rng)[0]
        mean = np.mean([per_user_snr_gram(h_e, q, 2.0, p) for p in range(4)])
        assert average_snr(q, inverse_of(h_e), 2.0) == pytest.approx(mean, rel=1e-10)

    def test_eigenbasis_attains_mean_eigenvalue(self):
        rng = np.random.default_rng(4)
        h_e = gaussian_effective_channel(rng, 6, 4)
        lam, u = eigen_spectrum(h_e)
        expected = lam.sum() / (2.0 * 4)
        assert average_snr(u, gram_inverse(lam, u), 2.0) == pytest.approx(expected, rel=1e-9)

    def test_identity_matches_baseline_mean(self):
        rng = np.random.default_rng(5)
        h_e = gaussian_effective_channel(rng, 6, 4)
        a_inv = inverse_of(h_e)
        assert average_snr(np.eye(4), a_inv, 1.0) == pytest.approx(
            noncooperative_baseline_snr(a_inv, 1.0).mean()
        )

    def test_single_user(self):
        rng = np.random.default_rng(6)
        h_e = gaussian_effective_channel(rng, 6, 1)
        q = np.eye(1, dtype=complex)
        assert average_snr(q, inverse_of(h_e), 1.0) == pytest.approx(
            per_user_snr_gram(h_e, q, 1.0, 0)
        )


class TestSelection:
    def test_singleton_codebook_always_selected(self):
        rng = np.random.default_rng(7)
        cb = generate_codebook(4, 0, rng)
        h_e = gaussian_effective_channel(rng, 6, 4)
        index, q, _ = select_codeword(cb, inverse_of(h_e), 1.0)
        assert index == 0
        assert np.array_equal(q, cb[0])

    def test_planted_eigenmatrix_wins(self):
        # the eigenbasis attains the global cap, so it must be selected
        rng = np.random.default_rng(8)
        h_e = gaussian_effective_channel(rng, 6, 4)
        lam, u = eigen_spectrum(h_e)
        cb = generate_codebook(4, 2, rng).copy()
        cb[2] = u
        index, _, best = select_codeword(cb, gram_inverse(lam, u), 1.0)
        assert index == 2
        cap = lam.sum() / 4.0
        assert best == pytest.approx(cap, rel=1e-9)

    def test_selected_value_dominates_exhaustive_evaluation(self):
        rng = np.random.default_rng(9)
        cb = generate_codebook(4, 5, rng)
        h_e = gaussian_effective_channel(rng, 6, 4)
        a_inv = inverse_of(h_e)
        index, q, best = select_codeword(cb, a_inv, 0.7)
        values = [average_snr(cb[k], a_inv, 0.7) for k in range(len(cb))]
        assert best == pytest.approx(max(values), rel=1e-12)
        assert index == int(np.argmax(values))
        assert best == pytest.approx(average_snr(q, a_inv, 0.7), rel=1e-12)

    def test_ties_break_to_lowest_index(self):
        rng = np.random.default_rng(10)
        cb = generate_codebook(4, 1, rng).copy()
        cb[1] = cb[0]
        h_e = gaussian_effective_channel(rng, 6, 4)
        index, _, _ = select_codeword(cb, inverse_of(h_e), 1.0)
        assert index == 0
        # the lifted selector, on every trial of a stack of Gram inverses
        a_invs = [inverse_of(gaussian_effective_channel(rng, 6, 4)) for _ in range(3)]
        indices, _ = collect_choices(select_prefix_codewords(prefix_parts([cb], [1]), a_invs))[1]
        for index in indices:
            assert index == 0

    def test_argmax_invariant_to_noise_rescaling(self):
        rng = np.random.default_rng(11)
        cb = generate_codebook(4, 6, rng)
        h_e = gaussian_effective_channel(rng, 6, 4)
        a_inv = inverse_of(h_e)
        idx_a, _, _ = select_codeword(cb, a_inv, 1.0)
        idx_b, _, _ = select_codeword(cb, a_inv, 7.3)
        assert idx_a == idx_b

    def test_prefix_choices_across_score_blocks(self):
        # the scoring pass runs block by block; every prefix choice must
        # match the selector run on that prefix alone
        cb = generate_codebook(3, 13, np.random.default_rng(98))
        assert len(cb) > BLOCK
        a_inv = inverse_of(gaussian_effective_channel(np.random.default_rng(16), 6, 3))
        scores = codeword_scores(cb, a_inv)
        unblocked = (1.0 / snr_denominators(cb, a_inv)).sum(axis=1)
        assert np.array_equal(scores, unblocked)
        blocks = block_slices(cb)
        parts = prefix_parts(blocks, [0, 5, 12, 13])
        choices = collect_choices(select_prefix_codewords(parts, [a_inv]))
        for bits, ((index,), (q,)) in choices.items():
            assert index == select_codeword(cb[: 1 << bits], a_inv, 0.3)[0]
            assert index == int(np.argmax(unblocked[: 1 << bits]))
            assert np.array_equal(q, cb[index])

    @pytest.mark.parametrize("users", [1, 2, 3, 4, 5])
    def test_streamed_choices_equal_reference_selector(self, users):
        # prefix edges inside the first block (2**0 .. 2**9) and on block
        # boundaries (2**10, 2**11, 2**12), for several Gram inverses at once.
        # Scoring pieces and chunks are cut short at their ends: a block past
        # the first ends in a short piece (1024 = 7 * 131 + 107 codewords at
        # P = 5, 606 + 418 at P = 3), and the Gram inverses fill fewer than one
        # chunk, or one and a short one. The piece and chunk sizes are
        # select_prefix_codewords' own, from part_elements, so these cases
        # track its rule
        bit_counts = [0, 1, 4, 9, 10, 11, 12]
        part_rows = max(1, min(BLOCK, ELEMENT_BOUND // part_elements(users)))
        chunk = max(1, ELEMENT_BOUND // (users * part_rows))
        if users in (3, 5):  # the short last parts named above
            assert (part_rows, BLOCK % part_rows) == {3: (606, 418), 5: (131, 107)}[users]
        book = generate_codebook(users, 12, np.random.default_rng(51))
        rng = np.random.default_rng(52)
        for num in (3, chunk + 3):
            a_invs = [inverse_of(gaussian_effective_channel(rng, 6, users)) for _ in range(num)]
            stream = codebook_stream(users, 12, np.random.default_rng(51))
            parts = prefix_parts(stream, bit_counts)
            choices = collect_choices(select_prefix_codewords(parts, a_invs))
            assert sorted(choices) == bit_counts
            for bits, (indices, codewords) in choices.items():
                for a_inv, index, q in zip(a_invs, indices, codewords, strict=True):
                    assert index == select_codeword(book[: 1 << bits], a_inv, 1.0)[0]
                    assert q.strides == book[index].strides
                    assert np.array_equal(q, book[index])

    def test_tie_across_block_boundary_resolves_to_lower_index(self):
        # the eigenbasis attains the score cap; planted on both sides of
        # the first block boundary it ties, and the earlier copy wins
        rng = np.random.default_rng(53)
        lam, u = eigen_spectrum(gaussian_effective_channel(rng, 6, 3))
        a_inv = gram_inverse(lam, u)
        book = generate_codebook(3, 11, rng).copy()
        book[BLOCK - 1] = book[BLOCK] = u
        blocks = block_slices(book)
        assert codeword_scores(blocks[0], a_inv)[-1] == codeword_scores(blocks[1], a_inv)[0]
        choices = collect_choices(select_prefix_codewords(prefix_parts(blocks, [10, 11]), [a_inv]))
        assert choices[10][0][0] == choices[11][0][0] == BLOCK - 1
        # the same among other trials, in the first and in a later chunk of them
        others = [inverse_of(gaussian_effective_channel(rng, 6, 3)) for _ in range(32)]
        a_invs = [a_inv, *others, a_inv]
        parts = prefix_parts(blocks, [10, 11])
        indices = collect_choices(select_prefix_codewords(parts, a_invs))[11][0]
        assert indices[0] == indices[-1] == BLOCK - 1
        for a_inv_t, index in zip(a_invs, indices, strict=True):
            assert index == select_codeword(book, a_inv_t, 1.0)[0]
        # and for two copies inside one block, in different scoring pieces
        assert 5 + ELEMENT_BOUND // 3**3 < BLOCK - 2
        book[5] = book[BLOCK - 2] = u
        parts = prefix_parts(block_slices(book), [10, 11])
        choices = collect_choices(select_prefix_codewords(parts, a_invs))
        assert choices[10][0][0] == choices[11][0][-1] == 5

    def test_prefix_choices_need_the_largest_prefix(self):
        # the sweep reads 2**max(b) codewords; a shorter codebook is
        # rejected rather than scored on the codewords it has
        cb = generate_codebook(3, 4, np.random.default_rng(17))
        a_inv = inverse_of(gaussian_effective_channel(np.random.default_rng(18), 6, 3))
        parts = prefix_parts([cb], [2, 4])
        assert set(collect_choices(select_prefix_codewords(parts, [a_inv]))) == {2, 4}
        with pytest.raises(ValueError, match="fewer than 32"):
            collect_choices(select_prefix_codewords(prefix_parts([cb], [2, 5]), [a_inv]))
        with pytest.raises(ValueError, match="holds 8 codewords"):
            collect_choices(select_prefix_codewords(prefix_parts([cb[:8]], [4]), [a_inv]))

    def test_pairs_are_the_running_choices_by_increasing_b(self):
        # each b is yielded once its prefix is scored, smallest first, as the one
        # pair of running arrays; a short stream raises only when it ends
        cb = generate_codebook(3, 4, np.random.default_rng(17))
        a_inv = inverse_of(gaussian_effective_channel(np.random.default_rng(18), 6, 3))
        pairs = select_prefix_codewords(prefix_parts([cb[:8]], [4, 0, 2]), [a_inv])
        bits, (index, best) = next(pairs)
        assert (bits, index[0]) == (0, 0) and np.array_equal(best[0], cb[0])
        bits, (later_index, later) = next(pairs)
        assert bits == 2 and later_index is index and later is best
        assert index[0] == select_codeword(cb[:4], a_inv, 1.0)[0]
        with pytest.raises(ValueError, match="holds 8 codewords, fewer than 16"):
            next(pairs)

    def test_selected_snr_monotone_in_bits_per_trial(self):
        # nested prefixes: a bigger codebook can never select a worse value
        rng = np.random.default_rng(12)
        cb = generate_codebook(4, 4, np.random.default_rng(99))
        for trial in range(200):
            a_inv = inverse_of(gaussian_effective_channel(rng, 6, 4))
            previous = -np.inf
            for bits in range(5):
                _, _, value = select_codeword(cb[: 1 << bits], a_inv, 1.0)
                assert value >= previous
                previous = value

    def test_identity_in_codebook_guarantees_baseline(self):
        # without the identity codeword there is no relation to plain ZF;
        # with it, the selected value can never fall below it
        rng = np.random.default_rng(15)
        cb = generate_codebook(4, 3, rng).copy()
        cb[5] = np.eye(4)
        for _ in range(20):
            a_inv = inverse_of(gaussian_effective_channel(rng, 6, 4))
            _, _, best = select_codeword(cb, a_inv, 1.0)
            assert best >= average_snr(np.eye(4), a_inv, 1.0) - 1e-12

    def test_cap_bounds_selection_on_pipeline_channels(self):
        rng = np.random.default_rng(13)
        cb = generate_codebook(4, 6, rng)
        for _ in range(20):
            _, _, _, h_e = pipeline_channel(rng)
            _, _, best = select_codeword(cb, inverse_of(h_e), 1.0)
            cap = np.linalg.eigvalsh(gram(h_e)).sum() / 4.0
            assert best <= cap * (1 + 1e-9)



@st.composite
def prefix_cases(draw):
    """Bit counts, 0 among the choices, and a stream of ``arange`` codewords cut into
    random blocks, some of one codeword and some cut on a ``2**b``; it may hold more
    codewords than ``2**max(b)`` or fewer, none at all included."""
    bit_counts = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    size = 1 << max(bit_counts)
    total = draw(st.integers(0, 2 * size))
    edges = st.sampled_from([1 << bits for bits in bit_counts])
    cuts = draw(st.sets(st.one_of(edges, st.integers(1, size), st.integers(1, 2 * size))))
    bounds = [0, *sorted(cut for cut in cuts if cut < total), total] if total else [0]
    book = np.arange(total)
    return bit_counts, book, [book[low:high] for low, high in zip(bounds, bounds[1:])]


@settings(deadline=None, max_examples=200)
@given(prefix_cases())
def test_prefix_parts_cut_blocks_at_every_edge(case):
    # the parts concatenate to the first 2**max(b) codewords, each a view of
    # one block; each b closes once, at 2**b, in increasing order; the stream
    # is read no further than the block that reaches 2**max(b), and a short
    # one raises once it ends, after the parts it holds
    bit_counts, book, blocks = case
    size = 1 << max(bit_counts)
    stream = iter(blocks)
    parts = []
    if len(book) < size:
        message = f"^codebook holds {len(book)} codewords, fewer than {size}$"
        with pytest.raises(ValueError, match=message):
            parts.extend(prefix_parts(stream, bit_counts))
    else:
        parts = list(prefix_parts(stream, bit_counts))
    end = min(len(book), size)
    assert np.array_equal(np.concatenate([book[:0]] + [part for _, part, _ in parts]), book[:end])
    block_ends = np.cumsum([len(block) for block in blocks])
    for low, part, _ in parts:
        assert len(part) and part[0] == low and part.base is book
        assert not np.any((low < block_ends) & (block_ends < low + len(part)))
    closed = [(low + len(part), bits) for low, part, bits in parts if bits is not None]
    assert closed == [(1 << bits, bits) for bits in sorted(bit_counts) if 1 << bits <= end]
    read = min(len(blocks), np.searchsorted(block_ends, size) + 1)
    assert len(list(stream)) == len(blocks) - read


@st.composite
def selection_cases(draw):
    """A random codebook cut into random consecutive blocks, prefix sizes and Gram inverses."""
    users = draw(st.integers(1, 6))
    num = draw(st.sampled_from([1, 2, 35]))
    # the default scoring temporaries, or parts of one codeword or of three,
    # which make many small GEMMs and so get smaller codebooks
    elements = draw(st.sampled_from([ELEMENT_BOUND, 1, 3 * users**3]))
    top = 11 if elements == ELEMENT_BOUND else 8
    bit_counts = draw(st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True))
    size = 1 << max(bit_counts)
    cuts = draw(st.lists(st.integers(1, size - 1), max_size=4, unique=True)) if size > 1 else []
    return users, bit_counts, sorted(cuts), num, elements, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=40)
@given(selection_cases())
def test_lifted_choices_equal_reference_selector(case):
    # the lifted real GEMM scores every trial of a block at once; its
    # choice on every 2**b prefix must be the reference selector's
    users, bit_counts, cuts, num, elements, seed = case
    rng = np.random.default_rng(seed)
    book = generate_codebook(users, max(bit_counts), rng)
    a_invs = [inverse_of(gaussian_effective_channel(rng, users + 2, users)) for _ in range(num)]
    edges = [0, *cuts, len(book)]
    blocks = [book[low:high] for low, high in zip(edges, edges[1:])]
    with patch.object(codebook_module, "ELEMENT_BOUND", elements):
        parts = prefix_parts(iter(blocks), bit_counts)
        choices = collect_choices(select_prefix_codewords(parts, a_invs))
    assert sorted(choices) == sorted(bit_counts)
    for bits, (indices, codewords) in choices.items():
        for a_inv, index, q in zip(a_invs, indices, codewords, strict=True):
            assert index == select_codeword(book[: 1 << bits], a_inv, 1.0)[0]
            assert q.strides == book[index].strides
            assert np.array_equal(q, book[index])


def conditioned_inverse(users, cond, rng):
    """The inverse of a Gram with condition number ``cond``: eigenvalues 1 and
    ``1 / cond`` with log-uniform ones between, Haar eigenvectors."""
    inner = np.sort(rng.uniform(-np.log10(cond), 0.0, users - 2))[::-1]
    lam = 10.0 ** np.concatenate([[0.0], inner, [-np.log10(cond)]])
    return gram_inverse(lam, haar_unitary(users, rng))


@pytest.mark.parametrize("cond", [1e10, 1e11, 1e12])
def test_lifted_choices_equal_reference_near_condition_limit(cond):
    # both score forms round with an error that grows with the condition
    # number (relative 2e-10 at COND_LIMIT); it stays far below the score
    # gaps of distinct random codewords, so every prefix choice is equal
    bit_counts = list(range(11))
    for users in range(2, 7):
        rng = np.random.default_rng([users, int(np.log10(cond))])
        book = generate_codebook(users, 10, rng)
        a_invs = [conditioned_inverse(users, cond, rng) for _ in range(4)]
        for a_inv in a_invs:
            assert np.linalg.cond(a_inv) > cond / 10
        choices = collect_choices(select_prefix_codewords(prefix_parts([book], bit_counts), a_invs))
        for bits, (indices, _) in choices.items():
            for a_inv, index in zip(a_invs, indices, strict=True):
                assert index == select_codeword(book[: 1 << bits], a_inv, 1.0)[0]


def test_near_ties_resolve_within_rounding():
    # under a Gram that is a multiple of the identity every unitary
    # codeword scores the same; the two score forms then break the tie by
    # rounding, so the lifted choice may differ from the reference's (it
    # did for 37 of 50 such Grams, P = 2 to 6, 2**10 codewords), but it
    # scores the reference maximum to within rounding
    users = 4
    rng = np.random.default_rng(61)
    book = generate_codebook(users, 8, rng)
    a_invs = [gram_inverse(np.full(users, 2.0), haar_unitary(users, rng)) for _ in range(8)]
    indices, _ = collect_choices(select_prefix_codewords(prefix_parts([book], [8]), a_invs))[8]
    for a_inv, index in zip(a_invs, indices, strict=True):
        scores = codeword_scores(book, a_inv)
        assert np.ptp(scores) <= 1e-14 * scores.max()
        assert scores[index] == pytest.approx(scores.max(), rel=1e-14, abs=0)
