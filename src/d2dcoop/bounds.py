"""Closed-form analysis of codebook-based cooperation.

Everything here is conditioned on one channel realization through the
eigen-spectrum of its effective-channel Gram matrix: the expected
quantization-cell distortion of a random unitary codebook, the resulting
lower bound on the expected average SNR, and the perfect-cooperation
limit that both converge to as the codebook grows. The distortion
measures score one decoding matrix against one eigenbasis;
:func:`d2dcoop.harness.cell_distortion_audit` averages them over a
sweep's trials.
"""

import numpy as np

from .precoding import EigenSpectrum


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
