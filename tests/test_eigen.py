"""Contract of `myctheta.eigen.eigh`, which `theta_bar` and the certificates rely on.

Eigenvalues come back in ascending order, the eigenvectors are orthonormal
and reconstruct the input, also for integer, rank-deficient, repeated and
badly scaled input.  The size cases 1-64 and 65-100 are those at which the
package once switched between a Jacobi and a Householder/QL solver; every
size now goes through LAPACK, and the cases keep their names.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from myctheta import eigen


def _check_against_numpy(a, tol=1e-11):
    w, v = eigen.eigh(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.all(np.diff(w) >= -1e-12 * scale)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(a), atol=tol * scale)
    np.testing.assert_allclose(v @ np.diag(w) @ v.T, a, atol=tol * scale)
    np.testing.assert_allclose(v.T @ v, np.eye(a.shape[0]), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 11, 25, 40, 64])
def test_jacobi_matches_numpy(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.standard_normal((n, n))
        _check_against_numpy(a + a.T)


@pytest.mark.parametrize("n", [65, 80, 100])
def test_ql_matches_numpy(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    _check_against_numpy(a + a.T)


def test_structured_matrices():
    _check_against_numpy(np.zeros((6, 6)))
    _check_against_numpy(np.eye(9))
    _check_against_numpy(np.diag([3.0, 3.0, 3.0, -1.0, -1.0, 0.0]))
    _check_against_numpy(np.ones((12, 12)))
    c5 = np.zeros((5, 5))
    for i in range(5):
        c5[i, (i + 1) % 5] = c5[(i + 1) % 5, i] = 1.0
    w, _ = eigen.eigh(c5)
    expected = sorted(2 * np.cos(2 * np.pi * k / 5) for k in range(5))
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_scaling_invariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    for s in (1e-8, 1e8):
        _check_against_numpy(a * s)


def test_integer_input_and_non_square_rejection():
    _check_against_numpy(np.array([[2, 1], [1, 2]]))
    with pytest.raises(ValueError):
        eigen.eigh(np.ones((2, 3)))


@settings(max_examples=40)
@given(
    arrays(
        np.float64,
        (7, 7),
        elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
)
def test_random_symmetric_reconstruction(a):
    _check_against_numpy(a + a.T, tol=1e-10)
