import numpy as np
import pytest

from conftest import average_snr, gaussian_effective_channel, inverse_of, pipeline_channel
from d2dcoop import (
    CodebookBudgetError,
    DecodingCodebook,
    generate_codebook,
    gram_inverse,
    noncooperative_baseline_snr,
    per_user_snr_gram,
    select_codeword,
)
from d2dcoop.codebook import SCORE_BLOCK, codeword_scores, select_prefix_codewords
from d2dcoop.precoding import eigen_spectrum, gram, snr_denominators


def test_codebook_size_is_power_of_two():
    rng = np.random.default_rng(0)
    assert len(generate_codebook(4, 0, rng)) == 1
    assert len(generate_codebook(4, 6, np.random.default_rng(0))) == 64


def test_all_codewords_unitary():
    cb = generate_codebook(4, 6, np.random.default_rng(1))
    eye = np.eye(4)
    for q in cb.codewords:
        assert np.linalg.norm(q.conj().T @ q - eye) < 1e-10


def test_single_user_codewords_are_exactly_one():
    cb = generate_codebook(1, 3, np.random.default_rng(2))
    assert np.array_equal(cb.codewords, np.ones((8, 1, 1), dtype=complex))


def test_bitwise_reproducible():
    a = generate_codebook(3, 7, np.random.default_rng(42))
    b = generate_codebook(3, 7, np.random.default_rng(42))
    assert np.array_equal(a.codewords, b.codewords)


def test_smaller_codebook_is_prefix_of_larger():
    small = generate_codebook(4, 5, np.random.default_rng(9))
    large = generate_codebook(4, 8, np.random.default_rng(9))
    assert np.array_equal(small.codewords, large.codewords[:32])
    assert np.array_equal(large.prefix(5).codewords, small.codewords)


def test_memory_budget_enforced():
    with pytest.raises(CodebookBudgetError):
        # 2**23 codewords of 4 x 4 complex128 need 2 GiB against the 1 GiB budget
        generate_codebook(4, 23, np.random.default_rng(0))


def test_codebook_shape_validation():
    with pytest.raises(ValueError):
        DecodingCodebook(np.zeros((3, 2, 2), dtype=complex), 2)


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
        spectrum = eigen_spectrum(h_e)
        expected = spectrum.eigenvalues.sum() / (2.0 * 4)
        assert average_snr(
            spectrum.eigenmatrix, gram_inverse(spectrum), 2.0
        ) == pytest.approx(expected, rel=1e-9)

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
        spectrum = eigen_spectrum(h_e)
        random_words = generate_codebook(4, 2, rng).codewords.copy()
        random_words[2] = spectrum.eigenmatrix
        cb = DecodingCodebook(random_words, 2)
        index, _, best = select_codeword(cb, gram_inverse(spectrum), 1.0)
        assert index == 2
        cap = spectrum.eigenvalues.sum() / 4.0
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
        base = generate_codebook(4, 1, rng).codewords.copy()
        base[1] = base[0]
        cb = DecodingCodebook(base, 1)
        h_e = gaussian_effective_channel(rng, 6, 4)
        index, _, _ = select_codeword(cb, inverse_of(h_e), 1.0)
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
        assert len(cb) > SCORE_BLOCK
        a_inv = inverse_of(gaussian_effective_channel(np.random.default_rng(16), 6, 3))
        scores = codeword_scores(cb.codewords, a_inv)
        unblocked = (1.0 / snr_denominators(cb.codewords, a_inv)).sum(axis=1)
        assert np.array_equal(scores, unblocked)
        for bits, index in select_prefix_codewords(cb, a_inv, [0, 5, 12, 13]).items():
            assert index == select_codeword(cb.prefix(bits), a_inv, 0.3)[0]
            assert index == int(np.argmax(unblocked[: 1 << bits]))

    def test_selected_snr_monotone_in_bits_per_trial(self):
        # nested prefixes: a bigger codebook can never select a worse value
        rng = np.random.default_rng(12)
        cb = generate_codebook(4, 4, np.random.default_rng(99))
        for trial in range(200):
            a_inv = inverse_of(gaussian_effective_channel(rng, 6, 4))
            previous = -np.inf
            for bits in range(5):
                _, _, value = select_codeword(cb.prefix(bits), a_inv, 1.0)
                assert value >= previous
                previous = value

    def test_identity_in_codebook_guarantees_baseline(self):
        # without the identity codeword there is no relation to plain ZF;
        # with it, the selected value can never fall below it
        rng = np.random.default_rng(15)
        words = generate_codebook(4, 3, rng).codewords.copy()
        words[5] = np.eye(4)
        cb = DecodingCodebook(words, 3)
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

