"""Brute-force transceiver simulation used to validate the closed forms.

Sends unit-power QPSK symbols through the full two-stage precoder,
optionally quantizes the pooled received samples the way a real sharing
link would, decodes with the given unitary matrix, and measures the
per-user SINR data-aided. No closed-form SNR expression is reused here;
this path is the independent oracle for the analytic ones.
"""

import numpy as np

from .precoding import check_noise_power, effective_channel, zf_outer_precoder
from .quantization import QPSK, QuantizerConfig, overload_fraction, uniform_quantize


def empirical_snr(
    inner,
    channel: np.ndarray,
    decoding: np.ndarray,
    noise_power: float,
    rng: np.random.Generator,
    num_symbols: int = 100_000,
    quantizer: QuantizerConfig | None = None,
):
    """Oracle: measure per-user SINR by actually running the link.

    Independent of the closed forms in :mod:`d2dcoop.precoding` and
    :mod:`d2dcoop.quantization`; ``inner`` is the antennas x dims inner
    precoder. Returns ``(snrs, overload)`` where ``snrs`` is one linear
    SINR estimate per user and ``overload`` is the fraction of shared
    signal components that saturated the quantizer (0.0 when
    ``quantizer`` is None, i.e. ideal sample sharing).
    """
    check_noise_power(noise_power)
    if num_symbols < 1:
        raise ValueError("num_symbols must be positive")
    h_e = effective_channel(inner, channel)
    q = np.asarray(decoding)
    num_users = q.shape[1]
    v = zf_outer_precoder(h_e, q)

    x = QPSK[rng.integers(0, 4, (num_users, num_symbols))]
    z = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal((num_users, num_symbols))
        + 1j * rng.standard_normal((num_users, num_symbols))
    )
    y = (h_e.conj().T @ v) @ x + z

    overload = 0.0
    if quantizer is None:
        decoded = q.conj().T @ y
    else:
        overload = overload_fraction(y, quantizer)
        error = uniform_quantize(y, quantizer) - y
        # every user sees quantized copies of the others' samples but its own raw one
        decoded = q.conj().T @ (y + error)
        decoded -= np.conj(np.diagonal(q))[:, None] * error

    snrs = np.empty(num_users)
    for p in range(num_users):
        gain = np.vdot(x[p], decoded[p]) / np.vdot(x[p], x[p])
        residual = decoded[p] - gain * x[p]
        signal_power = np.abs(gain) ** 2 * np.mean(np.abs(x[p]) ** 2)
        snrs[p] = signal_power / np.mean(np.abs(residual) ** 2)
    return snrs, float(overload)
