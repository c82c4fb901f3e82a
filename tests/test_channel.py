import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcoop import (
    ScatteringEnvironment,
    analytic_covariance,
    draw_environment,
    inner_precoder,
    sample_channel,
)
from d2dcoop.channel import path_effective_channel


def one_path_covariance(theta, num_antennas):
    """Covariance of a single path: the outer product s s^H of its steering vector."""
    return analytic_covariance(ScatteringEnvironment(num_antennas, np.array([theta])))


class TestSteeringVector:
    """The ULA response, read from the rank-one covariance of one path."""

    def test_broadside_is_all_ones(self):
        assert np.allclose(one_path_covariance(0.0, 4), np.ones((4, 4)))

    def test_endfire_two_elements(self):
        s = np.array([1, -1])
        r = one_path_covariance(-np.pi / 2, 2)
        assert np.allclose(r, np.outer(s, s.conj()), atol=1e-12)

    def test_thirty_degrees(self):
        # sin(pi/6) = 1/2, so the phase advances by pi/2 per element
        s = np.array([1, 1j, -1])
        r = one_path_covariance(np.pi / 6, 3)
        assert np.allclose(r, np.outer(s, s.conj()), atol=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(-np.pi / 2, np.pi / 2, allow_nan=False, exclude_max=True),
        st.integers(1, 128),
    )
    def test_squared_norm_is_antenna_count(self, theta, m):
        r = one_path_covariance(theta, m)
        assert np.trace(r).real == pytest.approx(m, rel=1e-12)
        # rank one with unit-modulus entries: every entry has modulus one
        assert np.allclose(np.abs(r), 1.0, rtol=1e-12)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            one_path_covariance(np.nan, 4)
        with pytest.raises(ValueError):
            one_path_covariance(np.inf, 4)

    def test_rejects_zero_antennas(self):
        with pytest.raises(ValueError):
            one_path_covariance(0.0, 0)


class TestEnvironment:
    def test_default_sector_covers_half_space(self):
        rng = np.random.default_rng(0)
        env = draw_environment(64, 20, rng)
        assert env.num_paths == 20
        assert np.all(env.path_angles >= -np.pi / 2)
        assert np.all(env.path_angles < np.pi / 2)
        assert env.path_gain_variance * env.num_paths == pytest.approx(1.0)

    def test_same_seed_same_angles(self):
        a = draw_environment(8, 5, np.random.default_rng(7))
        b = draw_environment(8, 5, np.random.default_rng(7))
        assert np.array_equal(a.path_angles, b.path_angles)

    def test_narrow_sector_respected(self):
        rng = np.random.default_rng(1)
        env = draw_environment(8, 50, rng, sector_center=0.3, sector_spread=0.2)
        assert np.all(env.path_angles >= 0.2)
        assert np.all(env.path_angles < 0.4)

    def test_degenerate_spread_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            draw_environment(4, 1, rng, sector_spread=0.0)
        with pytest.raises(ValueError):
            draw_environment(4, 1, rng, sector_spread=-1.0)
        with pytest.raises(ValueError, match="num_paths must be a positive integer"):
            draw_environment(4, 0, rng)
        with pytest.raises(ValueError, match="sector_center must be finite"):
            draw_environment(4, 1, rng, sector_center=np.inf)

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ValueError):
            ScatteringEnvironment(4, np.array([np.pi / 2]))
        with pytest.raises(ValueError):
            ScatteringEnvironment(4, np.array([np.nan]))
        with pytest.raises(ValueError):
            ScatteringEnvironment(0, np.array([0.0]))
        with pytest.raises(ValueError, match="path_angles must be nonempty"):
            ScatteringEnvironment(4, np.array([]))


class TestSampleChannel:
    def test_single_path_is_rank_one(self):
        env = ScatteringEnvironment(4, np.array([0.0]))
        h = sample_channel(env, 1, np.random.default_rng(3))
        # one broadside path: the column is a single Gaussian times all-ones
        assert np.allclose(h, h[0, 0] * np.ones((4, 1)))

    def test_average_column_energy(self):
        env = ScatteringEnvironment(8, np.linspace(-1.0, 1.0, 6))
        h = sample_channel(env, 10_000, np.random.default_rng(4))
        mean_energy = np.mean(np.linalg.norm(h, axis=0) ** 2) / env.num_antennas
        assert mean_energy == pytest.approx(1.0, rel=0.05)

    def test_sample_covariance_matches_analytic(self):
        # law-of-large-numbers oracle for the closed-form covariance
        env = ScatteringEnvironment(8, np.array([-0.7, 0.1, 0.9]))
        h = sample_channel(env, 100_000, np.random.default_rng(5))
        sample_cov = (h @ h.conj().T) / h.shape[1]
        analytic = analytic_covariance(env)
        rel = np.linalg.norm(sample_cov - analytic) / np.linalg.norm(analytic)
        assert rel < 0.02

    def test_deterministic_given_seed(self):
        env = ScatteringEnvironment(4, np.array([0.2, -0.4]))
        a = sample_channel(env, 3, np.random.default_rng(6))
        b = sample_channel(env, 3, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_rejects_bad_user_count(self):
        env = ScatteringEnvironment(4, np.array([0.0]))
        with pytest.raises(ValueError):
            sample_channel(env, 0, np.random.default_rng(0))

    def test_stack_of_environments_rejected(self):
        # a stack would share one gain draw among its members and the
        # covariance is defined per environment, so an environment is one
        # list of angles; the sweep stacks trials in path_effective_channel
        with pytest.raises(ValueError, match="stack"):
            ScatteringEnvironment(4, np.array([[0.2, -0.4], [0.1, 0.3]]))


class TestAnalyticCovariance:
    def test_single_broadside_path(self):
        env = ScatteringEnvironment(2, np.array([0.0]))
        assert np.allclose(analytic_covariance(env), np.ones((2, 2)))

    def test_two_orthogonal_paths_give_identity(self):
        # broadside plus endfire: the steering outer products cancel off-diagonal
        env = ScatteringEnvironment(2, np.array([0.0, -np.pi / 2]))
        assert np.allclose(analytic_covariance(env), np.eye(2), atol=1e-12)

    def test_trace_equals_antenna_count(self):
        env = draw_environment(64, 20, np.random.default_rng(8))
        r = analytic_covariance(env)
        assert np.trace(r).real == pytest.approx(64.0, rel=1e-9)

    def test_exactly_hermitian_and_psd(self):
        env = draw_environment(16, 7, np.random.default_rng(9))
        r = analytic_covariance(env)
        assert np.array_equal(r, r.conj().T)
        eigs = np.linalg.eigvalsh(r)
        assert eigs.min() >= -1e-10 * np.trace(r).real

    def test_permutation_invariance_is_exact(self):
        angles = np.array([0.3, -0.2, 0.9, -1.1])
        a = analytic_covariance(ScatteringEnvironment(6, angles))
        b = analytic_covariance(ScatteringEnvironment(6, angles[::-1]))
        assert np.array_equal(a, b)


def captured_energy(w, covariance):
    """Covariance energy the inner precoder keeps: trace(W^H R W)."""
    return float(np.trace(w.conj().T @ covariance @ w).real)


def dft_environment(num_antennas):
    """One path per DFT beam: sin(theta_k) = 2k/M, so the steering columns are orthogonal."""
    k = np.arange(num_antennas) - num_antennas // 2
    return ScatteringEnvironment(num_antennas, np.arcsin(2.0 * k / num_antennas))


def projector(w):
    return w @ w.conj().T


class TestInnerPrecoder:
    """The precoder against the eigenbasis of the ``analytic_covariance`` oracle."""

    def test_identity_covariance_full_dim(self):
        env = dft_environment(5)
        r = analytic_covariance(env)
        assert np.allclose(r, np.eye(5), atol=1e-12)
        w = inner_precoder(env, 5)
        assert captured_energy(w, r) == pytest.approx(5.0, rel=1e-12)
        assert np.allclose(w.conj().T @ w, np.eye(5), atol=1e-12)
        assert np.allclose(projector(w), np.eye(5), atol=1e-12)

    def test_rank_one_covariance(self):
        env = ScatteringEnvironment(4, np.array([0.0]))
        w = inner_precoder(env, 1)
        assert np.allclose(w, np.ones((4, 1)) / 2.0, atol=1e-12)
        assert captured_energy(w, analytic_covariance(env)) == pytest.approx(4.0, rel=1e-12)

    def test_paper_scale_orthonormality(self):
        env = draw_environment(64, 20, np.random.default_rng(10))
        w = inner_precoder(env, 6)
        assert w.shape == (64, 6)
        assert np.linalg.norm(w.conj().T @ w - np.eye(6)) < 1e-12

    def test_captures_largest_eigenvalues(self):
        env = draw_environment(16, 6, np.random.default_rng(11))
        r = analytic_covariance(env)
        energy = captured_energy(inner_precoder(env, 3), r)
        eigs = np.sort(np.linalg.eigvalsh(r))[::-1]
        assert energy == pytest.approx(eigs[:3].sum(), rel=1e-9)
        # swapping any kept eigenvalue for an excluded one cannot gain energy
        assert energy >= eigs[1:4].sum() - 1e-12

    def test_permutation_invariance_is_exact(self):
        angles = np.array([0.3, -0.2, 0.9, -1.1])
        a = inner_precoder(ScatteringEnvironment(6, angles), 3)
        b = inner_precoder(ScatteringEnvironment(6, angles[::-1]), 3)
        assert np.array_equal(a, b)

    def test_rejects_bad_inputs(self):
        env = ScatteringEnvironment(4, np.array([-0.5, 0.0, 0.5]))
        gains = np.ones((3, 1), dtype=complex)
        for dim in (0, 4):
            with pytest.raises(ValueError):
                inner_precoder(env, dim)
            # the sweep's route takes the same subspace dimensions
            with pytest.raises(ValueError):
                path_effective_channel(4, env.path_angles, gains, dim)
        # more paths than antennas: the antenna count bounds the rank
        with pytest.raises(ValueError):
            inner_precoder(ScatteringEnvironment(2, np.array([-0.5, 0.0, 0.5])), 3)

    @settings(deadline=None, max_examples=80)
    @given(
        m=st.integers(1, 64),
        num_paths=st.integers(1, 24),
        data=st.data(),
        log_spread=st.floats(-9.0, float(np.log10(np.pi))),
        center=st.floats(-1.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_covariance_eigenbasis(self, m, num_paths, data, log_spread, center, seed):
        dim = data.draw(st.integers(1, min(m, num_paths)), label="dim")
        env = draw_environment(
            m, num_paths, np.random.default_rng(seed),
            sector_center=center, sector_spread=10.0**log_spread,
        )
        w = inner_precoder(env, dim)
        assert w.shape == (m, dim)
        assert np.allclose(w.conj().T @ w, np.eye(dim), rtol=0.0, atol=1e-12)

        r = analytic_covariance(env)
        vals, vecs = np.linalg.eigh(r)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        assert captured_energy(w, r) == pytest.approx(vals[:dim].sum(), rel=1e-9)
        gap = vals[dim - 1] - (vals[dim] if dim < m else 0.0)
        if gap > 1e-4 * vals[0]:
            oracle = projector(vecs[:, :dim])
            assert np.abs(projector(w) - oracle).max() < 1e-9
