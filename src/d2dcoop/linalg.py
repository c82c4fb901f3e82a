"""Deterministic wrappers around numpy's Hermitian eigensolver.

Eigenvectors of a Hermitian matrix are only defined up to a unit-modulus
phase, so raw LAPACK output is not reproducible enough to use as a
precoder or as a Gram's eigenbasis. The helpers here pin that phase
down. Inside a degenerate eigenspace any rotation is an equally valid
basis; no column order makes it canonical, and the package leaves
LAPACK's choice, which is the same on identical input.
"""

import numpy as np


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

    Accepts a single matrix or a stack of matrices (leading axes); each
    matrix of a stack gets bitwise the result of its own call. Returns
    ``(eigenvalues, eigenvectors)`` with eigenvalues in descending order
    and phase-canonicalized eigenvectors.
    """
    vals, vecs = np.linalg.eigh(matrix)
    return vals[..., ::-1].copy(), phase_canonicalize(vecs[..., ::-1])
