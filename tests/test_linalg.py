import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_unitary
from d2dcoop.linalg import phase_canonicalize, sorted_eigh


def test_anchor_entry_real_positive():
    rng = np.random.default_rng(0)
    u = haar_unitary(5, rng)
    v = phase_canonicalize(u)
    for col in v.T:
        anchor = col[np.argmax(np.abs(col))]
        assert anchor.real > 0
        assert abs(anchor.imag) < 1e-12


def test_canonicalize_preserves_unitarity_and_is_idempotent():
    rng = np.random.default_rng(1)
    u = haar_unitary(4, rng)
    v = phase_canonicalize(u)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)
    assert np.allclose(phase_canonicalize(v), v)


def test_canonicalize_batched_matches_single():
    rng = np.random.default_rng(2)
    stack = np.stack([haar_unitary(3, rng) for _ in range(6)])
    batched = phase_canonicalize(stack)
    for k in range(6):
        assert np.allclose(batched[k], phase_canonicalize(stack[k]))


def test_zero_column_untouched():
    m = np.zeros((3, 2), dtype=complex)
    m[:, 1] = [1j, 0, 0]
    out = phase_canonicalize(m)
    assert np.all(out[:, 0] == 0)
    assert np.allclose(out[:, 1], [1, 0, 0])


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_sorted_eigh_reconstructs(seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = b @ b.conj().T
    vals, vecs = sorted_eigh(a)
    assert np.all(np.diff(vals) <= 1e-12 * max(1.0, vals[0]))
    assert np.allclose(vecs @ np.diag(vals) @ vecs.conj().T, a, atol=1e-9 * vals[0])
    assert np.allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-10)


def test_sorted_eigh_deterministic_on_degenerate_spectrum():
    # identity has a fully degenerate spectrum; output must still be stable
    a = np.eye(4, dtype=complex)
    vals1, vecs1 = sorted_eigh(a)
    vals2, vecs2 = sorted_eigh(a)
    assert np.array_equal(vals1, vals2)
    assert np.array_equal(vecs1, vecs2)
    assert np.allclose(vecs1.conj().T @ vecs1, np.eye(4), atol=1e-12)



@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_sorted_eigh_stack_equals_per_matrix_calls(users, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count, users, users)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = g @ np.conj(np.swapaxes(g, -1, -2))
    vals, vecs = sorted_eigh(stack)
    for k in range(count):
        one_vals, one_vecs = sorted_eigh(stack[k])
        assert np.array_equal(vals[k], one_vals)
        assert np.array_equal(vecs[k], one_vecs)
