import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_broadcasts_like_scalar_calls,
    assert_stacks_like_row_calls,
    average_snr,
    gaussian_effective_channel,
    haar_unitary,
    inverse_of,
)
from d2dcoop import (
    IllConditionedChannelError,
    effective_channel,
    eigen_spectrum,
    empirical_snr,
    generate_codebook,
    gram_inverse,
    ideal_cooperation_snr,
    noncooperative_baseline_snr,
    per_user_snr_gram,
    select_codeword,
    snr_lower_bound_terms,
    zf_outer_precoder,
)
from d2dcoop.precoding import condition_number, gram, snr_denominators, well_conditioned
from d2dcoop.quantization import cooperative_snr, expected_overload


def orthonormal_columns(dim, users, rng):
    q, _ = np.linalg.qr(gaussian_effective_channel(rng, dim, users))
    return q


def zf_snrs(h_e, decoding, noise_power):
    """Production per-user SNRs: the quadratic form on the Gram inverse."""
    return 1.0 / (noise_power * snr_denominators(decoding, inverse_of(h_e)))


class TestEffectiveChannel:
    def test_identity_inner_precoder(self):
        rng = np.random.default_rng(0)
        h = gaussian_effective_channel(rng, 5, 3)
        assert np.allclose(effective_channel(np.eye(5), h), h)

    def test_range_space_channel_recovers_coefficients(self):
        rng = np.random.default_rng(1)
        w = orthonormal_columns(8, 4, rng)
        g = gaussian_effective_channel(rng, 4, 3)
        assert np.allclose(effective_channel(w, w @ g), g, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            effective_channel(np.eye(4), np.zeros((5, 2)))

    def test_paper_scale_shape(self):
        rng = np.random.default_rng(2)
        w = orthonormal_columns(64, 6, rng)
        h = gaussian_effective_channel(rng, 64, 4)
        assert effective_channel(w, h).shape == (6, 4)


class TestZFOuterPrecoder:
    def test_orthonormal_channel_identity_decoding(self):
        rng = np.random.default_rng(3)
        h_e = orthonormal_columns(6, 4, rng)
        v = zf_outer_precoder(h_e, np.eye(4))
        assert np.allclose(v, h_e, atol=1e-10)
        assert np.allclose(np.diagonal(h_e.conj().T @ v).real, 1.0)

    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(4)
        h_e = gaussian_effective_channel(rng, 6, 1)
        v = zf_outer_precoder(h_e, np.eye(1))
        assert np.allclose(v, h_e / np.linalg.norm(h_e))

    def test_diagonalizes_overall_channel(self):
        rng = np.random.default_rng(5)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        v = zf_outer_precoder(h_e, q)
        eff = q.conj().T @ h_e.conj().T @ v
        off = eff - np.diag(np.diagonal(eff))
        assert np.abs(off).max() < 1e-8
        assert np.all(np.diagonal(eff).real > 0)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-10)

    def test_diagonal_matches_inverse_gram(self):
        rng = np.random.default_rng(6)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        v = zf_outer_precoder(h_e, q)
        eff = q.conj().T @ h_e.conj().T @ v
        overall_gram_inv = np.linalg.inv(gram(h_e @ q))
        expected = 1.0 / np.sqrt(np.diagonal(overall_gram_inv).real)
        assert np.allclose(np.diagonal(eff).real, expected, rtol=1e-10)


class TestPerUserSnr:
    def test_single_user_matched_filter_snr(self):
        rng = np.random.default_rng(7)
        h_e = gaussian_effective_channel(rng, 6, 1)
        expected = np.linalg.norm(h_e) ** 2 / 0.5
        assert zf_snrs(h_e, np.eye(1), 0.5)[0] == pytest.approx(expected, rel=1e-10)
        assert per_user_snr_gram(h_e, np.eye(1), 0.5, 0) == pytest.approx(expected, rel=1e-10)

    def test_eigenbasis_decoding_reaches_eigenvalues(self):
        rng = np.random.default_rng(8)
        h_e = gaussian_effective_channel(rng, 6, 4)
        vals, vecs = np.linalg.eigh(gram(h_e))
        vals, vecs = vals[::-1], vecs[:, ::-1]
        assert np.allclose(zf_snrs(h_e, vecs, 2.0), vals / 2.0, rtol=1e-9)

    def test_orthogonal_columns_identity_decoding(self):
        rng = np.random.default_rng(9)
        q = orthonormal_columns(6, 3, rng)
        norms = np.array([2.0, 1.0, 0.5])
        h_e = q * norms
        assert np.allclose(zf_snrs(h_e, np.eye(3), 1.0), norms**2, rtol=1e-9)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_quadratic_form_matches_matrix_form(self, seed):
        # production quadratic form against the Gram-diagonal oracle
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        production = zf_snrs(h_e, q, 1.0)
        for p in range(4):
            oracle = per_user_snr_gram(h_e, q, 1.0, p)
            assert production[p] == pytest.approx(oracle, rel=1e-8)

    def test_input_validation(self):
        rng = np.random.default_rng(10)
        h_e = gaussian_effective_channel(rng, 6, 4)
        a_inv = inverse_of(h_e)
        with pytest.raises(ValueError):
            per_user_snr_gram(h_e, np.eye(4), 0.0, 0)
        with pytest.raises(ValueError):
            per_user_snr_gram(h_e, np.eye(4), 1.0, 4)
        with pytest.raises(ValueError):
            noncooperative_baseline_snr(a_inv, 0.0)
        with pytest.raises(ValueError):
            select_codeword(np.eye(4)[None], a_inv, 0.0)


def noise_checked_calls():
    """``{name: f(noise_power)}`` for every function that checks its noise power."""
    rng = np.random.default_rng(12)
    h_e = gaussian_effective_channel(rng, 6, 4)
    a_inv, q = inverse_of(h_e), haar_unitary(4, rng)
    d, lam = snr_denominators(q, a_inv), eigen_spectrum(h_e)[0]
    return {
        "select_codeword": lambda n: select_codeword(q[None], a_inv, n),
        "per_user_snr_gram": lambda n: per_user_snr_gram(h_e, q, n, 0),
        "noncooperative_baseline_snr": lambda n: noncooperative_baseline_snr(a_inv, n),
        "snr_lower_bound_terms": lambda n: snr_lower_bound_terms(lam, 4, n),
        "ideal_cooperation_snr": lambda n: ideal_cooperation_snr(lam, n),
        "cooperative_snr": lambda n: cooperative_snr(q, d, n, 0.1),
        "expected_overload": lambda n: expected_overload(q, d, n, 3.0),
        "empirical_snr": lambda n: empirical_snr(np.eye(6), h_e, q, n, rng, 10),
    }


@pytest.mark.parametrize("name", list(noise_checked_calls()))
def test_noise_power_check_rejects_nan(name):
    # one check, in the array form: nan > 0 is False, so nan is not positive
    call = noise_checked_calls()[name]
    call(1.0)
    for bad in (float("nan"), 0.0, -1.0, np.array([[1.0], [np.nan]])):
        with pytest.raises(ValueError, match="noise_power must be positive"):
            call(bad)


class TestSnrDenominators:
    """The one vectorised quadratic form, on every memory layout it meets."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 4))
    def test_layouts_agree_bitwise_and_match_oracle(self, seed, users, bits):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, users)
        a_inv = inverse_of(h_e)
        columns = generate_codebook(users, bits, rng)
        c_order = np.ascontiguousarray(columns)
        padded = np.zeros((2 * len(columns), users + 1, users + 2), dtype=complex)
        padded[::2, 1:, :users] = columns
        strided = padded[::2, 1:, :users]
        reference = snr_denominators(c_order, a_inv)
        assert reference.shape == (len(columns), users)
        for layout in (columns, strided):
            assert np.array_equal(snr_denominators(layout, a_inv), reference)
        nested = snr_denominators(columns.reshape(2, -1, users, users), a_inv)
        assert np.array_equal(nested, reference.reshape(2, -1, users))
        assert snr_denominators(columns[0], a_inv).shape == (users,)

        real = np.linalg.qr(rng.standard_normal((len(columns), users, users)))[0]
        real_denoms = snr_denominators(real, a_inv)
        assert np.array_equal(real_denoms, snr_denominators(real.astype(complex), a_inv))
        assert np.array_equal(real_denoms, snr_denominators(np.asfortranarray(real), a_inv))

        # the oracle inverts the overall Gram of each unitary codeword
        tol = 1e-9 * np.linalg.cond(gram(h_e))
        for stack, denoms in ((columns, reference), (real, real_denoms)):
            for k, q in enumerate(stack):
                for p in range(users):
                    oracle = 1.0 / per_user_snr_gram(h_e, q, 1.0, p)
                    assert abs(denoms[k, p] - oracle) <= tol * oracle

    @pytest.mark.parametrize("users", [1, 4, 9])
    def test_stack_of_inverses_equals_row_calls(self, users):
        # the sweep forms every usable trial's denominators in one call,
        # each chosen codeword against its own trial's Gram inverse
        rng = np.random.default_rng(users)
        channels = [gaussian_effective_channel(rng, users + 2, users) for _ in range(5)]
        a_invs = np.stack([inverse_of(h_e) for h_e in channels])
        chosen = generate_codebook(users, 3, rng)[:5]
        for layout in (chosen, np.ascontiguousarray(chosen)):
            assert_stacks_like_row_calls(snr_denominators, layout, a_invs)

    def test_codebook_layout_moves_no_value(self):
        # the codewords are stored column by column; the SHA-256 of their
        # values in C order pins the draw itself, which no layout may move
        codewords = generate_codebook(3, 10, np.random.default_rng(5))
        assert np.swapaxes(codewords, -1, -2).flags.c_contiguous
        digest = hashlib.sha256(np.ascontiguousarray(codewords).tobytes()).hexdigest()
        assert digest == "f562fef4dd17638ff25ccd815b2924e38c37f3a9e81065f078b19c62cc23343d"
        prefix = generate_codebook(3, 4, np.random.default_rng(5))
        assert np.array_equal(prefix, codewords[:16])


class TestBaseline:
    def test_orthonormal_channel(self):
        rng = np.random.default_rng(11)
        h_e = orthonormal_columns(6, 4, rng)
        assert np.allclose(noncooperative_baseline_snr(inverse_of(h_e), 0.25), 4.0)

    def test_equals_identity_decoding(self):
        rng = np.random.default_rng(12)
        h_e = gaussian_effective_channel(rng, 6, 4)
        base = noncooperative_baseline_snr(inverse_of(h_e), 1.5)
        assert np.allclose(base, zf_snrs(h_e, np.eye(4), 1.5), rtol=1e-12)
        for p in range(4):
            assert base[p] == pytest.approx(per_user_snr_gram(h_e, np.eye(4), 1.5, p))
        assert_broadcasts_like_scalar_calls(
            lambda noise: noncooperative_baseline_snr(inverse_of(h_e), noise)
        )

    def test_stack_of_inverses_equals_row_calls(self):
        # the diagonal of each inverse, not the diagonal across the stack
        rng = np.random.default_rng(13)
        a_invs = np.stack([inverse_of(gaussian_effective_channel(rng, 6, 4)) for _ in range(3)])
        assert_stacks_like_row_calls(lambda a_inv: noncooperative_baseline_snr(a_inv, 1.5), a_invs)

    def test_correlation_kills_zero_forcing(self):
        # closed-form 2x2 Gram inverse: both users get (1 - rho^2) / N0
        previous = np.inf
        for rho in (0.0, 0.5, 0.9, 0.99):
            h_e = np.array([[1.0, rho], [0.0, np.sqrt(1 - rho**2)]], dtype=complex)
            snrs = noncooperative_baseline_snr(inverse_of(h_e), 1.0)
            assert np.allclose(snrs, 1.0 - rho**2, rtol=1e-9)
            assert snrs[0] < previous or rho == 0.0
            previous = snrs[0]


class TestAlgebraicInvariants:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_gram_inverse_identity(self, seed):
        # the bridge between the matrix-diagonal and quadratic SNR forms
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        a = gram(h_e)
        lhs = np.diagonal(np.linalg.inv(q.conj().T @ a @ q)).real
        rhs = snr_denominators(q, np.linalg.inv(a))
        assert np.allclose(lhs, rhs, rtol=1e-8)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_eigenvalues_invariant_under_unitary_conjugation(self, seed):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        a = gram(h_e)
        before = np.linalg.eigvalsh(a)
        after = np.linalg.eigvalsh(q.conj().T @ a @ q)
        assert np.allclose(before, after, rtol=1e-9, atol=1e-12 * before.max())

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1))
    def test_average_snr_capped_by_mean_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        cap = np.linalg.eigvalsh(gram(h_e)).sum() / 4.0
        assert average_snr(q, inverse_of(h_e), 1.0) <= cap * (1 + 1e-9)


class TestIllConditioning:
    def test_near_singular_gram_raises_with_condition_number(self):
        h_e = np.zeros((6, 2), dtype=complex)
        h_e[0, 0] = 1.0
        h_e[:, 1] = h_e[:, 0]
        h_e[1, 1] = 1e-13
        with pytest.raises(IllConditionedChannelError) as info:
            inverse_of(h_e)
        assert info.value.condition_number > 1e12

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    def test_dependent_column_raises(self, seed, users):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, users)
        weights = gaussian_effective_channel(rng, users - 1, 1)
        h_e[:, -1:] = h_e[:, :-1] @ weights
        with pytest.raises(IllConditionedChannelError):
            inverse_of(h_e)
        # the oracles gate their own route on the same limit
        with pytest.raises(IllConditionedChannelError, match="exceeds limit"):
            per_user_snr_gram(h_e, np.eye(users), 1.0, 0)
        with pytest.raises(IllConditionedChannelError, match="exceeds limit"):
            zf_outer_precoder(h_e, np.eye(users))


class TestStackedConditioning:
    def test_nonpositive_smallest_eigenvalue_is_infinite_without_a_division(self):
        eigenvalues = np.array([[2.0, 1.0], [1.0, 0.0], [1.0, -1e-18], [1.0, 1e-13]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cond = condition_number(eigenvalues)
        assert cond.tolist() == [2.0, np.inf, np.inf, 1e13]
        assert well_conditioned(eigenvalues).tolist() == [True, False, False, False]

    def test_stack_raises_with_its_worst_condition_number(self):
        rng = np.random.default_rng(31)
        spectra = [eigen_spectrum(gaussian_effective_channel(rng, 6, 3)) for _ in range(3)]
        eigenvalues = np.stack([lam for lam, _ in spectra])
        eigenvectors = np.stack([v for _, v in spectra])
        inverses = gram_inverse(eigenvalues, eigenvectors)
        for inverse, (lam, v) in zip(inverses, spectra):
            assert inverse.tobytes() == gram_inverse(lam, v).tobytes()
        eigenvalues[1, -1] = 0.0
        eigenvalues[2, -1] = eigenvalues[2, 0] * 1e-14
        with pytest.raises(IllConditionedChannelError) as info:
            gram_inverse(eigenvalues, eigenvectors)
        assert info.value.condition_number == np.inf


class TestGramInverse:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    def test_inverts_full_rank_gram(self, seed, users):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, users)
        a = gram(h_e)
        a_inv = inverse_of(h_e)
        assert np.abs(a @ a_inv - np.eye(users)).max() < 1e-10
        # the LU inverse is the independent reference
        reference = np.linalg.inv(a)
        error = np.linalg.norm(a_inv - reference) / np.linalg.norm(reference)
        assert error <= 1e-12 * np.linalg.cond(a)
