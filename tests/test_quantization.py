import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_broadcasts_like_scalar_calls,
    assert_stacks_like_row_calls,
    gaussian_effective_channel,
    haar_unitary,
    inverse_of,
    pipeline_channel,
)
from d2dcoop import (
    CooperationLink,
    QuantizerConfig,
    bits_from_bandwidth,
    empirical_snr,
    expected_overload,
    noncooperative_baseline_snr,
    overload_count,
    overload_fraction,
    quantization_noise_variance,
    quantized_snr,
    rate_budget_bits,
    uniform_quantize,
    zf_outer_precoder,
)
from d2dcoop.precoding import snr_denominators
from d2dcoop.quantization import ERFC_ZERO, TOTAL_BITS_CAP, _erfc, cooperative_snr


class TestQuantizerConfig:
    def test_rejects_odd_or_tiny_bit_counts(self):
        for bad in (0, 1, 3, -2, TOTAL_BITS_CAP):
            with pytest.raises(ValueError):
                QuantizerConfig(bad, 30.0)

    def test_rejects_bad_clip_level(self):
        with pytest.raises(ValueError):
            QuantizerConfig(8, 0.0)
        with pytest.raises(ValueError):
            QuantizerConfig(8, np.inf)

    def test_step_size(self):
        assert QuantizerConfig(4, 30.0).step == pytest.approx(15.0)


class TestUniformQuantize:
    def test_zero_maps_within_half_step_per_component(self):
        cfg = QuantizerConfig(8, 30.0)
        out = uniform_quantize(0.0 + 0.0j, cfg)
        half_step = cfg.clip_level / 2 ** (cfg.total_bits // 2)
        assert abs(out.real) <= half_step + 1e-12
        assert abs(out.imag) <= half_step + 1e-12

    def test_many_bits_is_near_transparent(self):
        cfg = QuantizerConfig(64, 30.0)
        rng = np.random.default_rng(0)
        y = 25 * (rng.random(100) - 0.5) + 1j * 25 * (rng.random(100) - 0.5)
        assert np.abs(uniform_quantize(y, cfg) - y).max() < 1e-6

    @settings(deadline=None, max_examples=80)
    @given(
        st.floats(-30.0, 30.0, allow_nan=False),
        st.floats(-30.0, 30.0, allow_nan=False),
        st.integers(1, 8),
    )
    def test_in_range_error_bounded_by_half_step(self, re, im, half_bits):
        cfg = QuantizerConfig(2 * half_bits, 30.0)
        out = uniform_quantize(re + 1j * im, cfg)
        assert abs(out.real - re) <= cfg.step / 2 + 1e-9
        assert abs(out.imag - im) <= cfg.step / 2 + 1e-9

    def test_saturation_and_overload_counting(self):
        cfg = QuantizerConfig(4, 1.0)
        y = np.array([5.0 + 0.0j, -5.0 - 5.0j, 0.2 + 0.1j])
        out = uniform_quantize(y, cfg)
        top = cfg.clip_level - cfg.step / 2
        assert out[0].real == pytest.approx(top)
        assert out[1] == pytest.approx(-top - 1j * top)
        assert np.abs(out.real).max() <= top and np.abs(out.imag).max() <= top
        assert overload_count(y, cfg) == 3
        assert overload_fraction(y, cfg) == pytest.approx(0.5)
        assert overload_fraction(np.array([], dtype=complex), cfg) == 0.0

    def test_empirical_error_variance_matches_model(self):
        # uniform in-range inputs: per-component error variance tau^2/(3 2^c)
        cfg = QuantizerConfig(8, 30.0)
        rng = np.random.default_rng(1)
        y = rng.uniform(-30, 30, 200_000) + 1j * rng.uniform(-30, 30, 200_000)
        err = uniform_quantize(y, cfg) - y
        target = 30.0**2 / (3.0 * 2.0**8)
        assert np.mean(err.real**2) == pytest.approx(target, rel=0.05)
        assert np.mean(err.imag**2) == pytest.approx(target, rel=0.05)


class TestNoiseVariance:
    def test_reference_value(self):
        assert quantization_noise_variance(QuantizerConfig(8, 30.0)) == pytest.approx(
            2.34375
        )

    def test_two_extra_bits_quarter_the_variance(self):
        for c in (2, 6, 12):
            ratio = quantization_noise_variance(
                QuantizerConfig(c + 2, 30.0)
            ) / quantization_noise_variance(QuantizerConfig(c, 30.0))
            assert ratio == pytest.approx(0.25)

    def test_vanishes_for_many_bits(self):
        assert quantization_noise_variance(QuantizerConfig(64, 30.0)) < 1e-15
        # the largest count below the cap still gives a finite, positive model
        largest = QuantizerConfig(TOTAL_BITS_CAP - 2, 30.0)
        assert 0.0 < quantization_noise_variance(largest) < 1e-300
        assert largest.step > 0.0


class TestRateBudget:
    def test_reference_points(self):
        assert bits_from_bandwidth(CooperationLink(1.0, 3.0)) == 2
        assert bits_from_bandwidth(CooperationLink(2.0, 15.0)) == 8

    def test_tiny_link_snr_gives_zero(self):
        assert bits_from_bandwidth(CooperationLink(1.0, 1e-9)) == 0

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(0.01, 20.0, allow_nan=False),
        st.floats(0.01, 100.0, allow_nan=False),
    )
    def test_even_and_within_budget(self, ratio, snr):
        link = CooperationLink(ratio, snr)
        c = bits_from_bandwidth(link)
        assert c % 2 == 0 and c >= 0
        assert c <= rate_budget_bits(link) + 1e-9
        assert c + 2 > rate_budget_bits(link) - 1e-9

    def test_monotone_in_bandwidth_and_link_snr(self):
        grid = [0.2, 0.5, 1.0, 2.0, 4.0]
        bits = [bits_from_bandwidth(CooperationLink(r, 7.0)) for r in grid]
        assert bits == sorted(bits)
        bits = [bits_from_bandwidth(CooperationLink(2.0, g)) for g in (0.5, 2, 8, 32)]
        assert bits == sorted(bits)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            CooperationLink(0.0, 1.0)
        with pytest.raises(ValueError):
            CooperationLink(1.0, -1.0)


class TestEffectiveNoise:
    """Effective noise N0 + (1 - |q_p[p]|^2) sigma_q^2 inside ``quantized_snr``."""

    def _noise(self, decoding, noise_power, link):
        # effective noise of each user, read back through the quantized SNR
        rng = np.random.default_rng(17)
        a_inv = inverse_of(gaussian_effective_channel(rng, 6, decoding.shape[1]))
        snrs = quantized_snr(decoding, a_inv, noise_power, link, 30.0)
        return 1.0 / (snrs * snr_denominators(decoding, a_inv))

    def test_no_quantization_noise(self):
        # a 64-bit link leaves a quantization variance far below N0 * eps
        q = haar_unitary(4, np.random.default_rng(18))
        link = CooperationLink(64.0, 3.0)
        assert np.allclose(self._noise(q, 2.0, link), 2.0, rtol=1e-12)

    def test_own_sample_only_decoding(self):
        link = CooperationLink(1.0, 3.0)
        assert bits_from_bandwidth(link) == 2
        noise = self._noise(np.eye(4, dtype=complex), 2.0, link)
        assert np.allclose(noise, 2.0, rtol=1e-12)

    def test_constant_amplitude_case_matches_companion(self):
        # |q_p[p]|^2 = 1/P for a DFT decoding matrix, so the exact per-user
        # noise equals the companion form N0 + sigma_q^2 (P - 1) / P
        p = 4
        q = np.fft.fft(np.eye(p)) / np.sqrt(p)
        link = CooperationLink(2.0, 15.0)
        sigma = quantization_noise_variance(QuantizerConfig(bits_from_bandwidth(link), 30.0))
        companion = 1.0 + sigma * (p - 1) / p
        assert np.allclose(self._noise(q, 1.0, link), companion, rtol=1e-12)


class TestCooperativeSnr:
    """The one cooperative-SNR formula of both sharing modes."""

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.floats(-300.0, 300.0),
        st.floats(0.0, 100.0),
    )
    def test_noiseless_link_is_ideal_sharing(self, seed, users, snr_db, variance):
        rng = np.random.default_rng(seed)
        q = haar_unitary(users, rng)
        d = snr_denominators(q, inverse_of(gaussian_effective_channel(rng, 8, users)))
        noise_power = 10.0 ** (-snr_db / 10.0)
        # N0 + x * 0.0 is exactly N0, so ideal sharing needs no formula of its own
        ideal = cooperative_snr(q, d, noise_power, 0.0)
        assert ideal.tobytes() == (1.0 / (noise_power * d)).tobytes()
        assert_broadcasts_like_scalar_calls(lambda noise: cooperative_snr(q, d, noise, variance))
        for bad in (0.0, -noise_power):
            with pytest.raises(ValueError, match="noise_power must be positive"):
                cooperative_snr(q, d, bad, variance)

    def test_stack_of_codewords_equals_row_calls(self):
        # four trials of four users: a stack read along the wrong axes
        # still broadcasts, so only the values tell it apart
        rng = np.random.default_rng(21)
        q = np.stack([haar_unitary(4, rng) for _ in range(4)])
        a_invs = [inverse_of(gaussian_effective_channel(rng, 8, 4)) for _ in range(4)]
        d = np.stack([snr_denominators(q_t, a_inv) for q_t, a_inv in zip(q, a_invs)])
        assert_stacks_like_row_calls(lambda qs, ds: cooperative_snr(qs, ds, 0.5, 0.3), q, d)


class TestQuantizedSnr:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, 4)
        q = haar_unitary(4, rng)
        return h_e, q

    def test_infeasible_budget_falls_back_to_baseline(self):
        h_e, q = self._setup(0)
        link = CooperationLink(0.1, 1.0)
        assert bits_from_bandwidth(link) == 0
        a_inv = inverse_of(h_e)
        out = quantized_snr(q, a_inv, 2.0, link, 30.0)
        assert np.array_equal(out, noncooperative_baseline_snr(a_inv, 2.0))
        assert_broadcasts_like_scalar_calls(lambda noise: quantized_snr(q, a_inv, noise, link, 30.0))

    @pytest.mark.parametrize(
        "link, budget",
        [
            # an infinite budget used to overflow converting it to an integer,
            # a finite one past the cap to fail later on the quantizer's bit count
            (CooperationLink(1e308, 10.0), "inf"),
            (CooperationLink(1000.0, 10.0), repr(1000.0 * math.log2(11.0))),
        ],
    )
    def test_link_over_the_bit_cap_names_its_budget(self, link, budget):
        message = f"a link budget of {budget} bits per sample is at or over the 1024-bit cap"
        with pytest.raises(ValueError, match=re.escape(message)):
            quantized_snr(np.eye(2), np.eye(2), 1.0, link, 30.0)

    def test_huge_bandwidth_converges_to_ideal_sharing(self):
        h_e, q = self._setup(1)
        link = CooperationLink(50.0, 15.0)
        a_inv = inverse_of(h_e)
        out = quantized_snr(q, a_inv, 2.0, link, 30.0)
        perfect = 1.0 / (2.0 * snr_denominators(q, a_inv))
        assert np.allclose(out, perfect, rtol=1e-6)

    def test_monotone_over_feasible_bandwidth_grid(self):
        h_e, q = self._setup(2)
        grid = [0.7, 1.0, 1.6, 2.5, 4.0, 8.0]
        a_inv = inverse_of(h_e)
        previous = None
        for ratio in grid:
            link = CooperationLink(ratio, 10.0)
            assert bits_from_bandwidth(link) >= 2
            snrs = quantized_snr(q, a_inv, 2.0, link, 30.0)
            if previous is not None:
                assert np.all(snrs >= previous - 1e-12)
            previous = snrs

    def test_matches_effective_noise_composition(self):
        h_e, q = self._setup(3)
        link = CooperationLink(2.0, 15.0)
        c = bits_from_bandwidth(link)
        sigma = quantization_noise_variance(QuantizerConfig(c, 30.0))
        a_inv = inverse_of(h_e)
        out = quantized_snr(q, a_inv, 2.0, link, 30.0)
        for p in range(4):
            na = 2.0 + (1.0 - abs(q[p, p]) ** 2) * sigma
            denom = float(np.real(q[:, p].conj() @ a_inv @ q[:, p]))
            assert out[p] == pytest.approx(1.0 / (na * denom), rel=1e-12)
        assert_broadcasts_like_scalar_calls(lambda noise: quantized_snr(q, a_inv, noise, link, 30.0))


class TestBandwidthExponent:
    def test_continuous_relaxation_is_exact_exponential(self):
        # unrounded bit budget: variance proportional to (1+gamma)^(-ratio)
        tau, gamma = 30.0, 9.0
        base = 2.0 * tau**2 / 3.0
        for ratio in (0.3, 1.0, 2.7, 5.0):
            c_cont = rate_budget_bits(CooperationLink(ratio, gamma))
            sigma = base / 2.0**c_cont
            assert sigma == pytest.approx(base * (1 + gamma) ** (-ratio), rel=1e-12)

    def test_rounded_variance_within_one_even_step(self):
        tau, gamma = 30.0, 9.0
        base = 2.0 * tau**2 / 3.0
        for ratio in (0.7, 1.3, 2.9, 4.4):
            link = CooperationLink(ratio, gamma)
            c = bits_from_bandwidth(link)
            if c == 0:
                continue
            sigma = quantization_noise_variance(QuantizerConfig(c, tau))
            continuous = base * (1 + gamma) ** (-ratio)
            assert continuous <= sigma * (1 + 1e-12)
            assert sigma < 4.0 * continuous


class TestExpectedOverload:
    """The closed-form overload audit against the link-level oracle."""

    @settings(deadline=None, max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.floats(0.3, 3.0),
        st.floats(-10.0, 10.0),
    )
    def test_matches_link_level_oracle(self, seed, users, tau, snr_db):
        # The oracle's overload is a mean over N symbol vectors of a
        # per-vector saturated fraction in [0, 1] with mean p, so its
        # variance is at most p(1 - p)/N. The bound allows five of those
        # standard deviations plus one component of the 2PN counted.
        num_symbols = 50_000
        rng = np.random.default_rng(seed)
        h_e = gaussian_effective_channel(rng, 6, users)
        q = haar_unitary(users, rng)
        noise_power = 10.0 ** (-snr_db / 10.0)
        d = snr_denominators(q, inverse_of(h_e))
        p = expected_overload(q, d, noise_power, tau)
        assert 0.0 <= p <= 1.0
        assert_broadcasts_like_scalar_calls(lambda noise: expected_overload(q, d, noise, tau))
        _, measured = empirical_snr(
            np.eye(6), h_e, q, noise_power, rng,
            num_symbols=num_symbols, quantizer=QuantizerConfig(8, tau),
        )
        bound = 5.0 * np.sqrt(p * (1.0 - p) / num_symbols) + 1.0 / (2 * users * num_symbols)
        assert abs(measured - p) <= bound

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(1e-6, 1e-3))
    def test_zero_at_default_clip_level(self, seed, users, noise_power):
        rng = np.random.default_rng(seed)
        a_inv = inverse_of(gaussian_effective_channel(rng, 6, users))
        q = haar_unitary(users, rng)
        assert expected_overload(q, snr_denominators(q, a_inv), noise_power, 30.0) == 0.0

    def test_erfc_is_bitwise_math_erfc(self):
        # _erfc skips math.erfc at and above ERFC_ZERO, where it is exactly 0.0
        assert math.erfc(ERFC_ZERO) == 0.0
        edge = [np.nextafter(ERFC_ZERO, -np.inf), ERFC_ZERO, np.nextafter(ERFC_ZERO, np.inf)]
        x = np.array(
            edge + [-np.inf, -30.0, -1.5, -0.0, 0.0, 1e-300, 3.0, 27.2264, 1e10, np.inf, np.nan]
            + list(np.linspace(-40.0, 40.0, 161))
        )
        reference = np.frompyfunc(math.erfc, 1, 1)
        for grid in (x, x.reshape(1, -1), np.stack([x, -x])):
            got = _erfc(grid)
            assert got.dtype == float and got.shape == grid.shape
            assert got.tobytes() == reference(grid).astype(float).tobytes()


def test_overload_rate_negligible_at_default_clip_level():
    # received-sample amplitudes at typical operating points stay well
    # inside [-30, 30]; the recorded overload rate must be below 0.1%
    rng = np.random.default_rng(4)
    total = 0
    count = 0
    cfg = QuantizerConfig(8, 30.0)
    for _ in range(5):
        _, h, w, h_e = pipeline_channel(rng)
        v = zf_outer_precoder(h_e, np.eye(4))
        x = np.exp(1j * np.pi / 2 * rng.integers(0, 4, (4, 20_000)))
        noise = np.sqrt(10**0.5 / 2) * (
            rng.standard_normal((4, 20_000)) + 1j * rng.standard_normal((4, 20_000))
        )
        y = (h_e.conj().T @ v) @ x + noise
        count += overload_count(y, cfg)
        total += 2 * y.size
    assert count / total < 1e-3
