import re

import numpy as np
import pytest

from spin_transfer.model import heisenberg_pair
from spin_transfer.qla import DEFAULT_ALGEBRAIC_TOL, Operator, hermitian_eigh, propagator

from conftest import max_abs, random_density, random_hermitian

def identity(dims) -> Operator:
    return Operator(np.eye(int(np.prod(dims))))


def taylor_exp(m: np.ndarray, terms: int = 40) -> np.ndarray:
    """exp(m) by its power series, independent of any eigendecomposition."""
    total = term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        total = total + term
    return total


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3)))

    def test_matrix_is_immutable(self):
        op = identity((2, 2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


def test_environment_does_not_loosen_checks(monkeypatch):
    monkeypatch.setenv("SPIN_TRANSFER_TOL", "1e-3")
    skewed = np.diag([1.0, 2.0]) + 1e-6 * np.array([[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        propagator(skewed, 1.0)


def phases(u: np.ndarray, t: float) -> np.ndarray:
    """Sorted eigenphases of ``u`` divided by -t: the spectrum of the
    Hamiltonian that generated ``u = exp(-i h t)``, for |h t| < pi."""
    return np.sort(-np.angle(np.linalg.eigvals(u)) / t)


class TestHermitianEig:
    """The Hermitian eigendecomposition inside ``propagator``."""

    def test_message_reports_the_measured_asymmetry(self, rng):
        h = random_hermitian(rng, (3,))
        assert float(np.abs(h - h.conj().T).max()) <= 1e-12
        hermitian_eigh(h)
        skewed = h + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        message = f"max|M - M^dagger| = 1.000e-06 exceeds tol {DEFAULT_ALGEBRAIC_TOL:.1e}"
        with pytest.raises(ValueError, match=re.escape(message)):
            hermitian_eigh(skewed)

    def test_diagonal_input_sorted(self):
        u = propagator(np.diag([3.0, 1.0, 2.0]), 0.5)
        assert max_abs(u, np.diag(np.exp(-0.5j * np.array([3.0, 1.0, 2.0])))) < 1e-15

    def test_qubit_pair_spectrum(self):
        w = phases(propagator(heisenberg_pair(2), 0.1), 0.1)
        assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_qubit_qutrit_spectrum(self):
        w = phases(propagator(heisenberg_pair(3), 0.1), 0.1)
        assert np.allclose(w, [-1, -1, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        h = random_hermitian(rng, (2, 3))
        u = propagator(h, 0.3)
        assert max_abs(u, taylor_exp(-0.3j * h)) < 1e-12
        assert max_abs(u.conj().T @ u, np.eye(6)) < 1e-12

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian.*1"):
            propagator(m, 1.0)
        nan_entry = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(ValueError, match="not Hermitian.*nan"):
            propagator(nan_entry, 1.0)


class TestPropagator:
    def test_zero_time_is_identity(self):
        u = propagator(heisenberg_pair(3), 0.0)
        assert max_abs(u, np.eye(6)) < 1e-14

    def test_unitarity(self, rng):
        for _ in range(5):
            h = random_hermitian(rng, (2, 2))
            u = propagator(h, rng.uniform(0, 10))
            assert max_abs(u.conj().T @ u, np.eye(4)) < 1e-10

    def test_trace_and_positivity_preserved(self, rng):
        h = random_hermitian(rng, (2, 2))
        u = propagator(h, 1.7)
        for _ in range(5):
            rho = random_density(rng, (2, 2))
            evolved = u @ rho.matrix @ u.conj().T
            assert abs(np.trace(evolved) - 1) < 1e-10
            assert np.linalg.eigvalsh(evolved)[0] > -1e-9

