"""Effective channel, Gram factorisation, zero-forcing outer precoder, SNR.

The outer precoder is zero-forcing with per-stream (unit column norm)
power normalization against the overall channel "effective channel times
decoding matrix". With that normalization the post-decoding SNR of user
``p`` has the closed form ``1 / (N0 * [(Q^H A Q)^{-1}]_{pp})`` with
``A`` the effective-channel Gram matrix; the equivalent quadratic form
``1 / (N0 * q_p^H A^{-1} q_p)`` (:func:`snr_denominators`) is what the
SNRs of a chosen codeword are computed from, because one Gram inverse
is reused across its users.

The Gram is factorised once per channel, by :func:`eigen_spectrum`, into
plain arrays: its eigenvalues (descending) and eigenvectors. That one
eigendecomposition yields the condition number and the inverse
(:func:`gram_inverse`) as well as the eigenvalues the bounds are built
on. The chain from the effective channel to the inverse accepts a stack
of channels (leading trial axes); each member equals, bitwise, the
result of its own call. :func:`per_user_snr_gram` and :func:`zf_outer_precoder` are oracles:
they factorise the overall-channel Gram on their own route (SVD
condition number, LU inverse), independent of the production path.
"""

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


def check_noise_power(noise_power) -> None:
    """Raise ValueError unless every noise power is positive; NaN is not."""
    if not np.all(np.asarray(noise_power) > 0):
        raise ValueError("noise_power must be positive")


def effective_channel(inner: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Oracle chain: project the physical channel through the inner precoder.

    ``inner`` has orthonormal columns (antennas x dims). Result is
    dims x users.
    """
    w = np.asarray(inner)
    h = np.asarray(channel)
    if w.ndim < 2 or h.ndim < 2 or w.shape[-2] != h.shape[-2]:
        raise ValueError(
            f"incompatible shapes: inner {w.shape} vs channel {h.shape}"
        )
    return _adjoint(w) @ h


def _adjoint(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(np.conj(matrix), -1, -2)


def gram(h_e: np.ndarray) -> np.ndarray:
    """Gram matrix of the effective channel (users x users)."""
    h_e = np.asarray(h_e)
    return _adjoint(h_e) @ h_e


def eigen_spectrum(h_e: np.ndarray):
    """Deterministic ``(eigenvalues, eigenvectors)`` of the effective Gram, eigenvalues descending."""
    return sorted_eigh(gram(h_e))


def condition_number(eigenvalues: np.ndarray) -> np.ndarray:
    """``lambda_max / lambda_min`` of each spectrum (eigenvalues on the last axis).

    A nonpositive smallest eigenvalue counts as infinitely ill
    conditioned; nothing is divided by it.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    smallest = lam.min(axis=-1)
    infinite = np.full(smallest.shape, np.inf)
    return np.divide(lam.max(axis=-1), smallest, out=infinite, where=smallest > 0)


def well_conditioned(eigenvalues: np.ndarray) -> np.ndarray:
    """Whether each spectrum's condition number is finite and at most ``COND_LIMIT``."""
    return condition_number(eigenvalues) <= COND_LIMIT


def gram_inverse(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Inverse of the effective-channel Gram from its eigendecomposition.

    Raises :class:`IllConditionedChannelError`, with the largest
    condition number, unless every spectrum is :func:`well_conditioned`;
    callers record such channels as failed trials rather than silently
    producing garbage SNRs.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    v = np.asarray(eigenvectors)
    usable = well_conditioned(lam)
    if not np.all(usable):
        raise IllConditionedChannelError(np.max(condition_number(lam)[~usable]))
    return (v / lam[..., None, :]) @ _adjoint(v)


def snr_denominators(decoding: np.ndarray, gram_inv: np.ndarray) -> np.ndarray:
    """Per-user quadratic forms ``q_p^H A^{-1} q_p`` for every column.

    ``decoding`` is one users x users matrix or a stack of them (leading
    axes); the result drops the row axis, so a stack of codewords gives
    one row of denominators per codeword. ``gram_inv`` is one inverse for
    the whole stack or a stack of the same shape, one per matrix. The
    sweep forms them for each trial's chosen codewords; codeword selection
    scores the same forms as one real GEMM
    (:func:`~d2dcoop.codebook.select_prefix_codewords`).

    Computed as: the decoding vectors become rows, a complex GEMM gives
    ``y = rows @ A^{-T}`` (row ``i`` is ``(A^{-1} q_i)^T``), one for the
    whole stack against one inverse and one per matrix against a stack,
    and each denominator is the real dot ``Re(conj(q_i) . y_i)`` over the
    interleaved real and imaginary parts. A stack stored column by column (as
    :func:`~d2dcoop.codebook.generate_codebook` stores its codewords)
    yields the rows as a view, without a copy; any other layout is
    copied once and gives bitwise the same result.
    """
    q = np.asarray(decoding)
    a = np.asarray(gram_inv)
    rows = np.ascontiguousarray(np.swapaxes(q, -1, -2), dtype=complex)
    pairs = rows.reshape(-1, q.shape[-2])
    y = (pairs if a.ndim == 2 else rows) @ np.swapaxes(a, -1, -2)
    denoms = np.einsum("ij,ij->i", pairs.view(float), y.reshape(pairs.shape).view(float))
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
    check_noise_power(noise_power)
    if not 0 <= user < np.shape(decoding)[1]:
        raise ValueError(f"user index {user} out of range")
    _, m = _overall_gram_inverse(h_e, decoding)
    return 1.0 / (noise_power * float(m[user, user].real))


def noncooperative_baseline_snr(gram_inv: np.ndarray, noise_power: float) -> np.ndarray:
    """Per-user SNRs of plain zero-forcing without any receiver pooling.

    That is the identity decoding matrix: each user demodulates from its
    own received sample only. A column of noise powers gives a row each;
    a stack of inverses (leading axes) gives a row per inverse.
    """
    check_noise_power(noise_power)
    return 1.0 / (noise_power * np.diagonal(gram_inv, 0, -2, -1).real)


def zf_outer_precoder(h_e: np.ndarray, decoding: np.ndarray) -> np.ndarray:
    """Oracle: zero-forcing outer precoder against the overall channel.

    Used by the brute-force transceiver, so it factorises the overall
    Gram on its own route (SVD condition number, LU inverse). Returns a
    dims x users matrix with unit-norm columns such that
    ``decoding^H @ h_e^H @ V`` is diagonal with positive real entries;
    the p-th diagonal entry equals ``1 / sqrt([(Q^H A Q)^{-1}]_{pp})``.
    """
    overall, g_inv = _overall_gram_inverse(h_e, decoding)
    v = overall @ g_inv
    return v / np.linalg.norm(v, axis=0, keepdims=True)


def _overall_gram_inverse(h_e: np.ndarray, decoding: np.ndarray):
    """The oracles' route: the overall channel ``h_e @ decoding`` and the
    inverse of its Gram, gated on the SVD condition number, by LU."""
    overall = np.asarray(h_e) @ np.asarray(decoding)
    g = gram(overall)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedChannelError(cond)
    return overall, np.linalg.inv(g)
