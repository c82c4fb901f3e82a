"""Effective channel, Gram factorisation, zero-forcing outer precoder, SNR.

The outer precoder is zero-forcing with per-stream (unit column norm)
power normalization against the overall channel "effective channel times
decoding matrix". With that normalization the post-decoding SNR of user
``p`` has the closed form ``1 / (N0 * [(Q^H A Q)^{-1}]_{pp})`` with
``A`` the effective-channel Gram matrix; the equivalent quadratic form
``1 / (N0 * q_p^H A^{-1} q_p)`` (:func:`snr_denominators`) is the
production path because one Gram inverse is reused across users and
codewords.

The Gram is factorised once per channel, by :func:`eigen_spectrum`. That
one eigendecomposition yields the condition number and the inverse
(:func:`gram_inverse`) as well as the spectrum the bounds are built on.
:func:`per_user_snr_gram` and :func:`zf_outer_precoder` are oracles: they
factorise the overall-channel Gram on their own route (SVD condition
number, LU inverse), independent of the production path.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import sorted_eigh

COND_LIMIT = 1e12


class IllConditionedChannelError(RuntimeError):
    """Effective-channel Gram matrix is too ill conditioned to invert."""

    def __init__(self, condition_number: float):
        super().__init__(
            "effective-channel Gram condition number "
            f"{condition_number:.3e} exceeds limit {COND_LIMIT:.1e}"
        )
        self.condition_number = float(condition_number)


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Eigenvalues (descending) and eigenmatrix of the effective Gram."""

    eigenvalues: np.ndarray
    eigenmatrix: np.ndarray


def effective_channel(inner: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Project the physical channel through the inner precoder.

    ``inner`` has orthonormal columns (antennas x dims). Result is
    dims x users.
    """
    w = np.asarray(inner)
    h = np.asarray(channel)
    if w.ndim != 2 or h.ndim != 2 or w.shape[0] != h.shape[0]:
        raise ValueError(
            f"incompatible shapes: inner {w.shape} vs channel {h.shape}"
        )
    return w.conj().T @ h


def gram(h_e: np.ndarray) -> np.ndarray:
    """Gram matrix of the effective channel (users x users)."""
    h_e = np.asarray(h_e)
    return h_e.conj().T @ h_e


def eigen_spectrum(h_e: np.ndarray) -> EigenSpectrum:
    """Deterministic eigendecomposition of the effective-channel Gram."""
    vals, vecs = sorted_eigh(gram(h_e))
    return EigenSpectrum(vals, vecs)


def gram_inverse(spectrum: EigenSpectrum) -> np.ndarray:
    """Inverse of the effective-channel Gram from its eigendecomposition.

    The condition number is ``lambda_max / lambda_min``; a nonpositive
    smallest eigenvalue counts as infinitely ill conditioned. Raises
    :class:`IllConditionedChannelError` above ``COND_LIMIT``; callers
    record such channels as failed trials rather than silently producing
    garbage SNRs.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    v = np.asarray(spectrum.eigenmatrix)
    smallest = float(lam.min())
    cond = float(lam.max()) / smallest if smallest > 0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedChannelError(cond)
    return (v / lam) @ v.conj().T


def snr_denominators(decoding: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Per-user quadratic forms ``q_p^H A^{-1} q_p`` for every column.

    ``decoding`` is one users x users matrix or a stack of them (leading
    axes); the result drops the row axis, so a stack of codewords gives
    one row of denominators per codeword.

    Kernel: the decoding vectors of the whole stack become the rows of
    one 2-D array, one complex GEMM gives ``y = rows @ A^{-T}`` (row
    ``i`` is ``(A^{-1} q_i)^T``), and each denominator is the real dot
    ``Re(conj(q_i) . y_i)`` over the interleaved real and imaginary
    parts. A stack stored column by column (as
    :func:`~d2dcoop.codebook.generate_codebook` stores its codewords)
    yields the rows as a view, without a copy; any other layout is
    copied once and gives bitwise the same result.
    """
    q = np.asarray(decoding)
    rows = np.ascontiguousarray(np.swapaxes(q, -1, -2), dtype=complex).reshape(-1, q.shape[-2])
    y = rows @ np.asarray(gram_inv).T
    denoms = np.einsum("ij,ij->i", rows.view(float), y.view(float))
    return denoms.reshape(q.shape[:-2] + q.shape[-1:])


def per_user_snr_gram(
    h_e: np.ndarray, decoding: np.ndarray, noise_power: float, user: int
) -> float:
    """Oracle: one user's SNR from the diagonal of the inverted overall Gram.

    Independent evaluation route for the quadratic form of
    :func:`snr_denominators`: it inverts the Gram of ``h_e @ decoding``
    directly (SVD condition number, LU inverse) instead of reusing the
    effective-channel Gram inverse. ``user`` is a 0-based column index.
    """
    if noise_power <= 0:
        raise ValueError("noise_power must be positive")
    overall = np.asarray(h_e) @ np.asarray(decoding)
    if not 0 <= user < overall.shape[1]:
        raise ValueError(f"user index {user} out of range")
    g = gram(overall)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedChannelError(cond)
    m = np.linalg.inv(g)
    return 1.0 / (noise_power * float(m[user, user].real))


def noncooperative_baseline_snr(gram_inv: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-user SNRs of plain zero-forcing without any receiver pooling.

    That is the identity decoding matrix: each user demodulates from its
    own received sample only. A column of noise powers gives a row each.
    """
    if not np.all(np.asarray(noise_power) > 0):
        raise ValueError("noise_power must be positive")
    return 1.0 / (noise_power * np.diagonal(gram_inv).real)


def zf_outer_precoder(h_e: np.ndarray, decoding: np.ndarray) -> np.ndarray:
    """Oracle: zero-forcing outer precoder against the overall channel.

    Used by the brute-force transceiver, so it factorises the overall
    Gram on its own route (SVD condition number, LU inverse). Returns a
    dims x users matrix with unit-norm columns such that
    ``decoding^H @ h_e^H @ V`` is diagonal with positive real entries;
    the p-th diagonal entry equals ``1 / sqrt([(Q^H A Q)^{-1}]_{pp})``.
    """
    overall = np.asarray(h_e) @ np.asarray(decoding)
    g = gram(overall)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedChannelError(cond)
    v = overall @ np.linalg.inv(g)
    return v / np.linalg.norm(v, axis=0, keepdims=True)
