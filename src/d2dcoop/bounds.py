"""Closed-form analysis of codebook-based cooperation.

Everything here is conditioned on one channel realization through the
eigen-spectrum of its effective-channel Gram matrix: the expected
quantization-cell distortion of a random unitary codebook, the resulting
lower bound on the expected average SNR, and the perfect-cooperation
limit that both converge to as the codebook grows.
"""

import numpy as np

from .channel import draw_environment, inner_precoder, sample_channel
from .codebook import DecodingCodebook, generate_codebook, select_codeword
from .precoding import EigenSpectrum, effective_channel, eigen_spectrum, gram_inverse


class BoundInvalidError(RuntimeError):
    """A bound denominator went nonpositive; carries the offending user."""

    def __init__(self, user: int, value: float):
        super().__init__(
            f"lower-bound denominator for user {user} is {value:.3e} (must be positive)"
        )
        self.user = int(user)
        self.value = float(value)


def expected_cell_distortion(bits: int, num_users: int) -> float:
    """Expected squared sine of the quantization-cell angle, 2**(-b/(P-1)).

    Standard random-vector-quantization cell approximation for a
    ``num_users``-dimensional unit vector quantized with ``bits`` bits.
    Undefined for a single user (the angle is then always zero).
    """
    if num_users < 2:
        raise ValueError("expected_cell_distortion requires at least 2 users")
    if bits < 0:
        raise ValueError("bits must be nonnegative")
    return float(2.0 ** (-bits / (num_users - 1)))


def snr_lower_bound_terms(
    spectrum: EigenSpectrum, bits: int, noise_power: float
) -> np.ndarray:
    """Per-user terms of the average-SNR lower bound.

    Term ``p`` is ``1 / (N0 * (1/lam_p + (tr - 2/lam_p) * delta))`` with
    ``tr`` the trace of the inverse Gram and ``delta`` the expected cell
    distortion: their mean is the bound. A column of noise powers gives a row each.
    """
    if not np.all(np.asarray(noise_power) > 0):
        raise ValueError("noise_power must be positive")
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("all eigenvalues must be positive")
    delta = expected_cell_distortion(bits, lam.size)
    inv = 1.0 / lam
    trace_inv = inv.sum()
    denom = inv + (trace_inv - 2.0 * inv) * delta
    bad = np.nonzero(denom <= 0)[0]
    if bad.size:
        raise BoundInvalidError(int(bad[0]), float(denom[bad[0]]))
    return 1.0 / (noise_power * denom)


def snr_lower_bound(spectrum: EigenSpectrum, bits: int, noise_power: float) -> float:
    """Jensen lower bound on the expected average post-decoding SNR."""
    return float(snr_lower_bound_terms(spectrum, bits, noise_power).mean())


def ideal_cooperation_snr(spectrum: EigenSpectrum, noise_power: float) -> float:
    """Average SNR when users pool their samples perfectly.

    Attained by decoding with the Gram eigenmatrix: the mean eigenvalue
    divided by the noise power. This is also the infinite-codebook limit
    of :func:`snr_lower_bound`.
    """
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    return float(lam.sum() / (noise_power * lam.size))


def cell_distortion(decoding: np.ndarray, eigenmatrix: np.ndarray) -> np.ndarray:
    """Per-user squared sine between column p and eigenvector p (raw pairing)."""
    overlap = np.abs(np.asarray(eigenmatrix).conj().T @ np.asarray(decoding)) ** 2
    return 1.0 - np.diagonal(overlap)


def aligned_cell_distortion(decoding: np.ndarray, eigenmatrix: np.ndarray) -> np.ndarray:
    """Pairing-resolved per-user squared sine against the eigenbasis.

    The selection objective is invariant to column permutations of the
    decoding matrix, so the raw index pairing between columns and
    eigenvectors is arbitrary. Columns are first assigned to eigenvectors
    by maximizing total squared overlap, then the residual distortion is
    measured. Entry p belongs to eigenvector p.
    """
    # imported here so that importing the package, and with it the CLI, skips scipy
    from scipy.optimize import linear_sum_assignment

    overlap = np.abs(np.asarray(eigenmatrix).conj().T @ np.asarray(decoding)) ** 2
    rows, cols = linear_sum_assignment(-overlap)
    return 1.0 - overlap[rows, cols]


def _random_spectra(num_trials, num_users, rng, num_antennas, num_paths, effective_dim):
    for _ in range(num_trials):
        env = draw_environment(num_antennas, num_paths, rng)
        h = sample_channel(env, num_users, rng)
        w = inner_precoder(env, effective_dim)
        yield eigen_spectrum(effective_channel(w, h))


def empirical_cell_distortion(
    num_users: int,
    bits: int,
    num_trials: int,
    rng: np.random.Generator,
    *,
    num_antennas: int = 64,
    num_paths: int = 20,
    effective_dim: int = 6,
    noise_power: float = 1.0,
    codebook: DecodingCodebook | None = None,
) -> float:
    """Measured mean cell distortion of the SNR-selected codeword.

    Draws ``num_trials`` channels, selects a codeword for each by average
    SNR, and averages :func:`aligned_cell_distortion` over users and
    trials. The average-SNR selector is not a minimum-distortion
    quantizer, so this sits above
    :func:`empirical_quantization_cell_distortion`; the gap is the audit
    of how far selection strays from the cell approximation.
    """
    if codebook is None:
        codebook = generate_codebook(num_users, bits, rng)
    elif codebook.bits != bits or codebook.num_users != num_users:
        raise ValueError("codebook does not match (num_users, bits)")
    total = 0.0
    spectra = _random_spectra(
        num_trials, num_users, rng, num_antennas, num_paths, effective_dim
    )
    for spectrum in spectra:
        _, chosen, _ = select_codeword(codebook, gram_inverse(spectrum), noise_power)
        total += float(aligned_cell_distortion(chosen, spectrum.eigenmatrix).mean())
    return total / num_trials


def empirical_quantization_cell_distortion(
    num_users: int,
    bits: int,
    num_trials: int,
    rng: np.random.Generator,
    *,
    num_antennas: int = 64,
    num_paths: int = 20,
    effective_dim: int = 6,
    codebook: DecodingCodebook | None = None,
) -> float:
    """Measured quantization-cell distortion of a random codebook.

    For each drawn channel, eigenvector p is quantized by the closest
    p-th codeword column over the whole codebook; the mean squared sine
    of that nearest match, over users and trials, is the quantity that
    :func:`expected_cell_distortion` approximates.
    """
    if codebook is None:
        codebook = generate_codebook(num_users, bits, rng)
    elif codebook.bits != bits or codebook.num_users != num_users:
        raise ValueError("codebook does not match (num_users, bits)")
    total = 0.0
    spectra = _random_spectra(
        num_trials, num_users, rng, num_antennas, num_paths, effective_dim
    )
    for spectrum in spectra:
        u = spectrum.eigenmatrix
        # [k, p] = |u_p^H q_p(k)|^2 over codewords k
        overlap = np.abs(np.einsum("ip,kip->kp", u.conj(), codebook.codewords)) ** 2
        total += float((1.0 - overlap.max(axis=0)).mean())
    return total / num_trials
