"""Deterministic wrappers around numpy's Hermitian eigensolver.

Eigenvectors of a Hermitian matrix are only defined up to a unit-modulus
phase (and up to mixing inside degenerate eigenspaces), so raw LAPACK
output is not reproducible enough to use as a precoder or a codeword.
The helpers here pin both ambiguities down.
"""

import numpy as np

TIE_RTOL = 1e-9


def phase_canonicalize(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Accepts a single matrix or a stack of matrices (columns live on the
    last axis). Zero columns are returned unchanged.
    """
    v = np.asarray(vectors)
    idx = np.argmax(np.abs(v), axis=-2)
    anchors = np.take_along_axis(v, idx[..., None, :], axis=-2)[..., 0, :]
    mags = np.abs(anchors)
    phases = np.where(mags > 0, anchors / np.where(mags == 0, 1.0, mags), 1.0)
    return v * np.conj(phases)[..., None, :]


def sorted_eigh(matrix: np.ndarray):
    """Eigendecomposition of a Hermitian matrix with reproducible output.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues in descending
    order and phase-canonicalized eigenvectors. Runs of eigenvalues that
    agree within ``TIE_RTOL`` (relative to the largest magnitude) are
    ordered by the lexicographic order of their canonicalized vectors, so
    degenerate spectra cannot reshuffle results between calls.
    """
    vals, vecs = np.linalg.eigh(matrix)
    vals = vals[::-1].copy()
    vecs = phase_canonicalize(vecs[:, ::-1])

    n = vals.size
    tol = TIE_RTOL * max(abs(float(vals[0])), abs(float(vals[-1])), np.finfo(float).tiny)
    start = 0
    for stop in range(1, n + 1):
        if stop < n and vals[start] - vals[stop] <= tol:
            continue
        if stop - start > 1:
            block = sorted(range(start, stop), key=lambda j: _lex_key(vecs[:, j]))
            vals[start:stop] = vals[block]
            vecs[:, start:stop] = vecs[:, block]
        start = stop
    return vals, vecs


def _lex_key(column: np.ndarray) -> tuple:
    return tuple(np.column_stack([column.real, column.imag]).ravel())
