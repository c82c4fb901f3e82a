"""Quantized sharing of received samples over a rate-limited link.

Users exchange their raw received samples so the group can decode
jointly. On a real device-to-device link the samples are uniformly
quantized first: ``c/2`` bits for the real part and ``c/2`` for the
imaginary part, both midrise on [-tau, tau]. The quantization error acts
as extra additive noise at every user except on its own sample, and the
sharing link's bandwidth and SNR budget how many bits ``c`` each sample
can carry. Ideal sharing is the noiseless link: quantization variance 0.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .precoding import check_noise_power, noncooperative_baseline_snr, snr_denominators

# 2.0**1024 overflows a float, so total_bits stays below this
TOTAL_BITS_CAP = 1024

# math.erfc is exactly 0.0 from 27.2264 on, so larger arguments skip it
ERFC_ZERO = 27.3
# unit-power QPSK, the constellation the link-level oracle sends
QPSK = np.exp(1j * (np.pi / 4 + np.pi / 2 * np.arange(4)))


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
    use :func:`overload_fraction` to audit how often that happens.
    """
    y = np.asarray(samples)
    step = config.step
    top = config.clip_level - step / 2.0

    def _component(x):
        levels = (np.floor(x / step) + 0.5) * step
        return np.clip(levels, -top, top)

    return _component(y.real) + 1j * _component(y.imag)


def overload_fraction(samples, config: QuantizerConfig) -> float:
    """Fraction of the 2 * samples.size real components outside [-tau, tau]."""
    y = np.asarray(samples)
    if y.size == 0:
        return 0.0
    tau = config.clip_level
    overloaded = np.count_nonzero(np.abs(y.real) > tau) + np.count_nonzero(np.abs(y.imag) > tau)
    return overloaded / (2.0 * y.size)


def quantization_noise_variance(config: QuantizerConfig) -> float:
    """Variance of the complex quantization error, 2 tau^2 / (3 * 2^c).

    Standard uniform-error model: each component error is uniform over a
    cell of width ``2 tau / 2^(c/2)``, real and imaginary independent.
    """
    return 2.0 * config.clip_level**2 / (3.0 * 2.0**config.total_bits)


def bits_from_bandwidth(link: CooperationLink) -> int:
    """Largest even bit count the sharing link supports per sample.

    The budget is the unrounded ``Wc/W * log2(1 + gamma)`` bits. Zero means it
    cannot carry even one bit per component and cooperation is infeasible at
    this operating point. Raises ValueError, naming the budget, when it reaches
    ``TOTAL_BITS_CAP`` bits.
    """
    budget = link.bandwidth_ratio * math.log2(1.0 + link.link_snr)
    if not budget < TOTAL_BITS_CAP:
        raise ValueError(
            f"a link budget of {budget!r} bits per sample is at or over the "
            f"{TOTAL_BITS_CAP}-bit cap"
        )
    return 2 * int(math.floor(budget / 2.0))


def link_variances(gamma_db_grid, bandwidth_ratio_grid, tau: float):
    """Each link's quantization variance in sweep order, and whether it carries bits.

    A zero-bit link gets variance 0.0. Raises ValueError for a link the sweep cannot
    use: the one of :func:`bits_from_bandwidth`, naming the link's ``(gamma_db,
    bandwidth_ratio)``, when a budget reaches ``TOTAL_BITS_CAP`` bits, and one naming
    ``tau`` when ``tau**2`` or a variance overflows.
    """
    bits = []
    for g, r in itertools.product(gamma_db_grid, bandwidth_ratio_grid):
        try:
            bits.append(bits_from_bandwidth(CooperationLink(r, 10.0 ** (g / 10.0))))
        except ValueError as exc:
            where = f"the link at (gamma_db, bandwidth_ratio) = ({g!r}, {r!r})"
            raise ValueError(f"{where}: {exc}") from exc
    try:
        variances = [quantization_noise_variance(QuantizerConfig(c, tau)) if c else 0.0 for c in bits]
    except OverflowError:  # tau**2
        variances = [math.inf]
    if not all(map(math.isfinite, variances)):
        raise ValueError(f"tau={tau!r} overflows the quantization noise variance")
    return np.array(variances), np.array(bits) > 0


def cooperative_snr(
    decoding: np.ndarray,
    denominators: np.ndarray,
    noise_power: float,
    noise_variance: float,
) -> np.ndarray:
    """Per-user SNRs of pooled decoding over a link of quantization variance sigma_q^2.

    ``denominators`` are the quadratic forms ``d_p = q_p^H A^{-1} q_p`` of
    ``decoding``. User ``p``'s own sample is never quantized, so its noise
    is ``N0 + (1 - |q_p[p]|^2) * noise_variance``; ideal sharing, the
    noiseless link, gives bitwise ``1 / (N0 * d)``. Noise powers (S, 1, 1)
    and variances (K, 1) broadcast to (S, K, users), or with (S, 1, 1, 1)
    and (K, 1, 1) a stack of T decoding matrices to (S, K, T, users).
    """
    check_noise_power(noise_power)
    own = np.abs(np.diagonal(np.asarray(decoding), 0, -2, -1)) ** 2
    return 1.0 / ((noise_power + (1.0 - own) * noise_variance) * denominators)


def quantized_snr(
    decoding: np.ndarray,
    gram_inv: np.ndarray,
    noise_power: float,
    link: CooperationLink,
    clip_level: float,
) -> np.ndarray:
    """Per-user SNRs with quantized sample sharing over one ``link``.

    The per-link reference for the sweep, which takes every link at once
    through :func:`cooperative_snr`. A zero-bit link falls back to plain
    zero-forcing (identity decoding). A column of noise powers gives a row each.
    """
    bits = bits_from_bandwidth(link)
    if bits == 0:
        return noncooperative_baseline_snr(gram_inv, noise_power)
    sigma_q2 = quantization_noise_variance(QuantizerConfig(bits, clip_level))
    return cooperative_snr(decoding, snr_denominators(decoding, gram_inv), noise_power, sigma_q2)


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` of each entry, bitwise; entries at or above ``ERFC_ZERO`` are 0.0."""
    out = np.zeros(x.shape)
    live = ~(x >= ERFC_ZERO)
    # a memoryview yields each argument as a Python float only for its own call
    args = x[live]
    out[live] = np.fromiter(map(math.erfc, memoryview(args)), float, len(args))
    return out


def expected_overload(
    decoding: np.ndarray,
    denominators: np.ndarray,
    noise_power: float,
    clip_level: float,
) -> float:
    """Expected fraction of shared real components outside [-tau, tau].

    Zero-forcing against ``H_e Q`` delivers ``y = Q diag(g) x + z`` with
    ``g_p = 1 / sqrt(d_p)`` for the ``denominators`` ``d_p = q_p^H A^{-1} q_p``
    of ``decoding``, unit-power QPSK ``x`` and ``CN(0, N0)`` noise ``z``.
    A real component with mean ``m`` saturates with probability
    ``(erfc((tau - m) / sqrt(N0)) + erfc((tau + m) / sqrt(N0))) / 2``
    (uniform-quantizer overload, Gray & Neuhoff 1998), averaged here over
    both parts of every sample and all symbol vectors. Rotating every
    symbol by ``j`` keeps the tails, so user 0's symbol is fixed and
    ``4**(users - 1)`` vectors remain: ``2 * users * 4**(users - 1)`` tails per noise
    power, whose working set ``ExperimentConfig.sweep_bytes`` counts. An array of noise
    powers shares the means and gives an array of fractions of the same shape.
    """
    check_noise_power(noise_power)
    q = np.asarray(decoding)
    users = q.shape[1]
    # one column per symbol vector; user 0's index axis has length 1
    symbols = QPSK[np.indices((1,) + (4,) * (users - 1)).reshape(users, -1)]
    means = (q / np.sqrt(denominators)) @ symbols
    m = np.concatenate([means.real.ravel(), means.imag.ravel()])
    scale = np.sqrt(noise_power)[..., None]
    tails = _erfc((clip_level - m) / scale) + _erfc((clip_level + m) / scale)
    fraction = tails.mean(axis=-1) / 2.0
    return float(fraction) if fraction.ndim == 0 else fraction
