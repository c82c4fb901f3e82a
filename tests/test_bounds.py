import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_broadcasts_like_scalar_calls,
    average_snr,
    gaussian_effective_channel,
    haar_unitary,
)
from d2dcoop import (
    EigenSpectrum,
    ExperimentConfig,
    aligned_cell_distortion,
    cell_distortion,
    cell_distortion_audit,
    eigen_spectrum,
    expected_cell_distortion,
    gram_inverse,
    ideal_cooperation_snr,
    snr_lower_bound,
    snr_lower_bound_terms,
)
from d2dcoop.precoding import gram


class TestEigenSpectrum:
    def test_reconstruction_and_trace_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h_e = gaussian_effective_channel(rng, 6, 4)
            a = gram(h_e)
            spectrum = eigen_spectrum(h_e)
            rebuilt = spectrum.eigenmatrix @ np.diag(spectrum.eigenvalues) @ spectrum.eigenmatrix.conj().T
            assert np.linalg.norm(rebuilt - a) < 1e-9 * np.linalg.norm(a)
            lhs = (1.0 / spectrum.eigenvalues).sum()
            rhs = np.trace(np.linalg.inv(a)).real
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_orthonormal_channel_unit_spectrum(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(gaussian_effective_channel(rng, 6, 4))
        spectrum = eigen_spectrum(q)
        assert np.allclose(spectrum.eigenvalues, 1.0, atol=1e-12)

    def test_diagonal_gram_sorted(self):
        h_e = np.diag([1.0, 3.0, 2.0]).astype(complex)
        spectrum = eigen_spectrum(h_e)
        assert np.allclose(spectrum.eigenvalues, [9.0, 4.0, 1.0])


class TestExpectedCellDistortion:
    def test_zero_bits(self):
        assert expected_cell_distortion(0, 4) == 1.0

    def test_one_bit_per_dimension(self):
        assert expected_cell_distortion(3, 4) == 0.5

    def test_two_users_eight_bits(self):
        assert expected_cell_distortion(8, 2) == pytest.approx(0.00390625)

    def test_single_user_rejected(self):
        with pytest.raises(ValueError):
            expected_cell_distortion(4, 1)
        with pytest.raises(ValueError):
            expected_cell_distortion(-1, 3)

    def test_monte_carlo_cross_check_factor_two(self):
        # quantization-cell statistic of a sweep's own codebook and trials
        config = ExperimentConfig(M=16, L=8, P=2, b_grid=[6], num_trials=150, master_seed=2)
        measured, _ = cell_distortion_audit(config, 2)[6]
        expected = expected_cell_distortion(6, 2)
        assert expected / 2 <= measured <= expected * 2


class TestSnrLowerBound:
    def test_hand_worked_flat_spectrum(self):
        spectrum = EigenSpectrum(np.array([1.0, 1.0]), np.eye(2, dtype=complex))
        assert snr_lower_bound(spectrum, 1, 1.0) == pytest.approx(1.0)

    def test_large_codebook_limit_is_ideal_cooperation(self):
        rng = np.random.default_rng(3)
        h_e = gaussian_effective_channel(rng, 6, 4)
        spectrum = eigen_spectrum(h_e)
        assert snr_lower_bound(spectrum, 2000, 2.0) == pytest.approx(
            ideal_cooperation_snr(spectrum, 2.0), rel=1e-9
        )

    def test_never_exceeds_ideal_cooperation(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            spectrum = eigen_spectrum(gaussian_effective_channel(rng, 6, 4))
            for bits in (6, 12):
                bound = snr_lower_bound(spectrum, bits, 1.0)
                assert bound <= ideal_cooperation_snr(spectrum, 1.0) * (1 + 1e-9)

    def test_denominators_positive_even_at_zero_bits(self):
        # distortion never exceeds one, so the guarded denominator cannot
        # go nonpositive for any valid spectrum
        rng = np.random.default_rng(5)
        for _ in range(100):
            spectrum = eigen_spectrum(gaussian_effective_channel(rng, 6, 4))
            terms = snr_lower_bound_terms(spectrum, 0, 1.0)
            assert np.all(terms > 0)
        assert_broadcasts_like_scalar_calls(lambda noise: snr_lower_bound_terms(spectrum, 0, noise))

    def test_rejects_nonpositive_eigenvalues(self):
        spectrum = EigenSpectrum(np.array([1.0, 0.0]), np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            snr_lower_bound(spectrum, 4, 1.0)


class TestIdealCooperation:
    def test_arithmetic(self):
        spectrum = EigenSpectrum(np.array([4.0, 2.0, 1.0, 1.0]), np.eye(4, dtype=complex))
        assert ideal_cooperation_snr(spectrum, 1.0) == pytest.approx(2.0)

    def test_flat_spectrum(self):
        spectrum = EigenSpectrum(np.ones(3), np.eye(3, dtype=complex))
        assert ideal_cooperation_snr(spectrum, 0.5) == pytest.approx(2.0)

    def test_attained_by_eigenbasis_decoding(self):
        rng = np.random.default_rng(6)
        h_e = gaussian_effective_channel(rng, 6, 4)
        spectrum = eigen_spectrum(h_e)
        assert ideal_cooperation_snr(spectrum, 1.7) == pytest.approx(
            average_snr(spectrum.eigenmatrix, gram_inverse(spectrum), 1.7), rel=1e-9
        )


class TestAngleGeometry:
    def test_squared_cosines_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            u = haar_unitary(4, rng)
            q = haar_unitary(4, rng)
            overlap = np.abs(u.conj().T @ q) ** 2
            assert np.allclose(overlap.sum(axis=0), 1.0, atol=1e-10)

    def test_cross_terms_bounded_by_own_cell(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            u = haar_unitary(4, rng)
            q = haar_unitary(4, rng)
            overlap = np.abs(u.conj().T @ q) ** 2
            own_sin2 = 1.0 - np.diagonal(overlap)
            for p in range(4):
                for i in range(4):
                    if i != p:
                        assert overlap[i, p] <= own_sin2[p] + 1e-10


class TestDistortionMeasures:
    def test_identity_pairing_of_eigenbasis_is_zero(self):
        rng = np.random.default_rng(9)
        u = haar_unitary(4, rng)
        assert np.allclose(cell_distortion(u, u), 0.0, atol=1e-12)

    def test_alignment_resolves_column_permutation(self):
        rng = np.random.default_rng(10)
        u = haar_unitary(4, rng)
        permuted = u[:, [2, 0, 3, 1]]
        # raw pairing sees a huge angle, aligned pairing sees none
        assert cell_distortion(permuted, u).max() > 0.5
        assert np.allclose(aligned_cell_distortion(permuted, u), 0.0, atol=1e-12)

    def test_aligned_never_exceeds_raw(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = haar_unitary(4, rng)
            q = haar_unitary(4, rng)
            assert aligned_cell_distortion(q, u).sum() <= cell_distortion(q, u).sum() + 1e-12


@pytest.mark.parametrize(
    "users, bits, trials, code",
    [("2", "2", "2", 0), ("1", "2", "2", 2), ("2", "2", "0", 2), ("2", "-1", "2", 2)],
    ids=["ok", "one-user", "no-trials", "negative-bits"],
)
def test_distortion_gap_script_runs(users, bits, trials, code):
    # the script imports from the package root, so an export change must fail here
    script = Path(__file__).resolve().parents[1] / "scripts" / "distortion_gap.py"
    result = subprocess.run(
        [sys.executable, str(script), "--users", users, "--bits", bits, "--trials", trials],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == code, result.stderr
    if code:
        # an argparse usage error, not a traceback
        assert "error:" in result.stderr and "Traceback" not in result.stderr
        return
    header, *rows = result.stdout.splitlines()
    assert header.split()[:2] == ["P", "b"]
    assert [row.split()[:2] for row in rows] == [["2", "2"]]
