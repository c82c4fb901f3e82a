import numpy as np
import pytest

from conftest import haar_unitary, pipeline_channel
from d2dcoop import QuantizerConfig, empirical_snr
from d2dcoop.precoding import eigen_spectrum, gram_inverse, snr_denominators
from d2dcoop.quantization import quantization_noise_variance


def closed_form_snrs(h_e, q, noise_power):
    return 1.0 / (noise_power * snr_denominators(q, gram_inverse(*eigen_spectrum(h_e))))


def test_full_chain_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(3):
        _, h, w, h_e = pipeline_channel(rng)
        q = haar_unitary(4, rng)
        measured, overload = empirical_snr(w, h, q, 1.0, rng, num_symbols=100_000)
        expected = closed_form_snrs(h_e, q, 1.0)
        assert overload == 0.0
        assert np.allclose(measured, expected, rtol=0.03)


def test_identity_decoding_baseline_chain():
    rng = np.random.default_rng(1)
    _, h, w, h_e = pipeline_channel(rng)
    measured, _ = empirical_snr(w, h, np.eye(4), 2.0, rng, num_symbols=100_000)
    expected = closed_form_snrs(h_e, np.eye(4), 2.0)
    assert np.allclose(measured, expected, rtol=0.03)


def test_quantized_chain_matches_effective_noise_model():
    # true-quantizer oracle for the additive quantization-noise model
    rng = np.random.default_rng(2)
    _, h, w, h_e = pipeline_channel(rng)
    q = haar_unitary(4, rng)
    noise_power = 10**0.5
    quantizer = QuantizerConfig(10, 30.0)
    sigma = quantization_noise_variance(quantizer)
    denoms = snr_denominators(q, gram_inverse(*eigen_spectrum(h_e)))
    own = np.abs(np.diagonal(q)) ** 2
    expected = 1.0 / ((noise_power + (1 - own) * sigma) * denoms)
    measured, overload = empirical_snr(
        w, h, q, noise_power, rng, num_symbols=200_000, quantizer=quantizer
    )
    assert overload < 1e-3
    assert np.allclose(measured, expected, rtol=0.10)


def test_coarse_quantizer_hurts():
    rng = np.random.default_rng(3)
    _, h, w, h_e = pipeline_channel(rng)
    q = haar_unitary(4, rng)
    clean, _ = empirical_snr(w, h, q, 1.0, rng, num_symbols=50_000)
    coarse, _ = empirical_snr(
        w, h, q, 1.0, rng, num_symbols=50_000, quantizer=QuantizerConfig(4, 30.0)
    )
    assert coarse.mean() < clean.mean()


def test_input_validation():
    rng = np.random.default_rng(4)
    _, h, w, _ = pipeline_channel(rng)
    with pytest.raises(ValueError):
        empirical_snr(w, h, np.eye(4), 0.0, rng)
    with pytest.raises(ValueError):
        empirical_snr(w, h, np.eye(4), 1.0, rng, num_symbols=0)
