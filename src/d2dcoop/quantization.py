"""Quantized sharing of received samples over a rate-limited link.

Users exchange their raw received samples so the group can decode
jointly. On a real device-to-device link the samples are uniformly
quantized first: ``c/2`` bits for the real part and ``c/2`` for the
imaginary part, both midrise on [-tau, tau]. The quantization error acts
as extra additive noise at every user except on its own sample, and the
sharing link's bandwidth and SNR budget how many bits ``c`` each sample
can carry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .precoding import noncooperative_baseline_snr, snr_denominators

# 2.0**1024 overflows a float, so total_bits stays below this
TOTAL_BITS_CAP = 1024
# expected_overload enumerates 4**(users - 1) symbol vectors; 6 is the
# largest user count the default effective dimension D = 6 admits
OVERLOAD_MAX_USERS = 6

_erfc = np.frompyfunc(math.erfc, 1, 1)
# unit-power QPSK, the constellation the link-level oracle sends
_QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform midrise quantizer for one complex sample.

    ``total_bits`` is split evenly between the real and imaginary parts,
    so it must be even, at least 2 and below ``TOTAL_BITS_CAP``.
    ``clip_level`` is the assumed amplitude range of either part; inputs
    beyond it saturate.
    """

    total_bits: int
    clip_level: float

    def __post_init__(self):
        if not 2 <= self.total_bits < TOTAL_BITS_CAP or self.total_bits % 2 != 0:
            raise ValueError(f"total_bits must be an even integer in [2, {TOTAL_BITS_CAP})")
        if not (self.clip_level > 0) or not math.isfinite(self.clip_level):
            raise ValueError("clip_level must be positive and finite")

    @property
    def step(self) -> float:
        """Cell width of the per-component quantizer."""
        return 2.0 * self.clip_level / (1 << (self.total_bits // 2))


@dataclass(frozen=True)
class CooperationLink:
    """Rate budget of the sample-sharing link.

    ``bandwidth_ratio`` is the cooperation bandwidth over the downlink
    bandwidth; ``link_snr`` is the linear SNR of the sharing link.
    """

    bandwidth_ratio: float
    link_snr: float

    def __post_init__(self):
        for name in ("bandwidth_ratio", "link_snr"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite")


def uniform_quantize(samples, config: QuantizerConfig):
    """Midrise uniform quantization of real and imaginary parts.

    Out-of-range components saturate at the extreme reconstruction level;
    use :func:`overload_count` to audit how often that happens.
    """
    y = np.asarray(samples)
    step = config.step
    top = config.clip_level - step / 2.0

    def _component(x):
        levels = (np.floor(x / step) + 0.5) * step
        return np.clip(levels, -top, top)

    return _component(y.real) + 1j * _component(y.imag)


def overload_count(samples, config: QuantizerConfig) -> int:
    """Number of real components falling outside [-tau, tau]."""
    y = np.asarray(samples)
    tau = config.clip_level
    return int(
        np.count_nonzero(np.abs(y.real) > tau) + np.count_nonzero(np.abs(y.imag) > tau)
    )


def overload_fraction(samples, config: QuantizerConfig) -> float:
    """Overloaded fraction of the 2 * samples.size real components."""
    y = np.asarray(samples)
    if y.size == 0:
        return 0.0
    return overload_count(y, config) / (2.0 * y.size)


def quantization_noise_variance(config: QuantizerConfig) -> float:
    """Variance of the complex quantization error, 2 tau^2 / (3 * 2^c).

    Standard uniform-error model: each component error is uniform over a
    cell of width ``2 tau / 2^(c/2)``, real and imaginary independent.
    """
    return 2.0 * config.clip_level**2 / (3.0 * 2.0**config.total_bits)


def rate_budget_bits(link: CooperationLink) -> float:
    """Unrounded bits per shared sample the link can carry."""
    return link.bandwidth_ratio * math.log2(1.0 + link.link_snr)


def bits_from_bandwidth(link: CooperationLink) -> int:
    """Largest even bit count the sharing link supports per sample.

    Zero means the budget cannot carry even one bit per component and
    cooperation is infeasible at this operating point.
    """
    return 2 * int(math.floor(rate_budget_bits(link) / 2.0))


def quantized_snr(
    decoding: np.ndarray,
    gram_inv: np.ndarray,
    noise_power: float,
    link: CooperationLink,
    clip_level: float,
) -> np.ndarray:
    """Per-user SNRs with quantized sample sharing over ``link``.

    The analytic production path: the closed-form SNR with the noise
    power replaced by each user's effective noise. The user's own sample
    is never quantized, so user ``p`` sees
    ``N0 + (1 - |q_p[p]|^2) * sigma_q^2``. When the link budget rounds
    down to zero bits the users fall back to plain zero-forcing (identity
    decoding) instead of consuming garbage samples.
    """
    bits = bits_from_bandwidth(link)
    if bits == 0:
        return noncooperative_baseline_snr(gram_inv, noise_power)
    sigma_q2 = quantization_noise_variance(QuantizerConfig(bits, clip_level))
    q = np.asarray(decoding)
    denoms = snr_denominators(q, gram_inv)
    own = np.abs(np.diagonal(q)) ** 2
    effective = noise_power + (1.0 - own) * sigma_q2
    return 1.0 / (effective * denoms)


def expected_overload(
    decoding: np.ndarray,
    gram_inv: np.ndarray,
    noise_power: float,
    clip_level: float,
) -> float:
    """Expected fraction of shared real components outside [-tau, tau].

    Zero-forcing against ``H_e Q`` delivers the samples
    ``y = Q diag(g) x + z`` with ``g_p = 1 / sqrt(q_p^H A^{-1} q_p)``,
    unit-power QPSK ``x`` and ``CN(0, N0)`` noise ``z``. A real component
    with mean ``m`` saturates with probability
    ``(erfc((tau - m) / sqrt(N0)) + erfc((tau + m) / sqrt(N0))) / 2``
    (uniform-quantizer overload, Gray & Neuhoff 1998), averaged here over
    both parts of every sample and all symbol vectors. Rotating every
    symbol by ``j`` keeps the tails, so user 0's symbol is fixed and
    ``4**(users - 1)`` vectors remain; ``ExperimentConfig.validate`` caps
    quantized sweeps at ``OVERLOAD_MAX_USERS``.
    """
    q = np.asarray(decoding)
    users = q.shape[1]
    # one column per symbol vector; user 0's index axis has length 1
    symbols = _QPSK[np.indices((1,) + (4,) * (users - 1)).reshape(users, -1)]
    means = (q / np.sqrt(snr_denominators(q, gram_inv))) @ symbols
    m = np.concatenate([means.real.ravel(), means.imag.ravel()])
    scale = math.sqrt(noise_power)
    tails = _erfc((clip_level - m) / scale) + _erfc((clip_level + m) / scale)
    return float(tails.astype(float).mean() / 2.0)
