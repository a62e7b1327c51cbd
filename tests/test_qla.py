import numpy as np
import pytest

from spin_transfer.model import heisenberg_pair, spin_operators
from spin_transfer.qla import DEFAULT_ALGEBRAIC_TOL, Operator, kron, propagator

from conftest import max_abs, random_density, random_hermitian

def identity(dims) -> Operator:
    return Operator(np.eye(int(np.prod(dims))), tuple(dims))


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
            Operator(np.zeros((2, 3)), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            Operator(np.eye(4), (2, 3))

    def test_matrix_is_immutable(self):
        op = identity((2, 2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_hermiticity_predicate(self, rng):
        h = random_hermitian(rng, (3,))
        assert h.hermiticity_defect() <= 1e-12
        skewed = Operator(h.matrix + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), (3,))
        assert skewed.hermiticity_defect() > DEFAULT_ALGEBRAIC_TOL
        assert skewed.hermiticity_defect() == pytest.approx(1e-6)


def test_environment_does_not_loosen_checks(monkeypatch):
    monkeypatch.setenv("SPIN_TRANSFER_TOL", "1e-3")
    skewed = Operator(np.diag([1.0, 2.0]) + 1e-6 * np.array([[0, 1], [0, 0]]), (2,))
    with pytest.raises(ValueError, match="not Hermitian"):
        propagator(skewed, 1.0)


class TestKron:
    def test_identity(self):
        out = kron(identity((2,)), identity((2,)))
        assert max_abs(out.matrix, np.eye(4)) == 0
        assert out.dims == (2, 2)

    def test_projector_product(self):
        p = Operator(np.diag([1.0, 0.0]), (2,))
        out = kron(p, p)
        assert max_abs(out.matrix, np.diag([1, 0, 0, 0])) == 0

    def test_sz_qubit_times_sz_qutrit_diagonal(self):
        sz_half = spin_operators(2)[2]
        sz_one = spin_operators(3)[2]
        out = kron(sz_half, sz_one)
        expected = np.diag([0.5, 0.0, -0.5, -0.5, 0.0, 0.5])
        assert max_abs(out.matrix, expected) < 1e-15

    @pytest.mark.parametrize(
        "da,db", [((4,), (9,)), ((2, 2), (3, 3)), ((2,), (3,)), ((3,), (2,)), ((1,), (6,))]
    )
    def test_bit_for_bit_np_kron(self, rng, da, db):
        """kron is np.kron entry for entry, bits included, with the dims of
        ``b`` after those of ``a``."""
        for _ in range(20):
            a, b = random_hermitian(rng, da), random_density(rng, db)
            out = kron(a, b)
            assert out.dims == a.dims + b.dims
            assert out.matrix.tobytes() == np.kron(a.matrix, b.matrix).tobytes()


def phases(u: Operator, t: float) -> np.ndarray:
    """Sorted eigenphases of ``u`` divided by -t: the spectrum of the
    Hamiltonian that generated ``u = exp(-i h t)``, for |h t| < pi."""
    return np.sort(-np.angle(np.linalg.eigvals(u.matrix)) / t)


class TestHermitianEig:
    """The Hermitian eigendecomposition inside ``propagator``."""

    def test_diagonal_input_sorted(self):
        u = propagator(Operator(np.diag([3.0, 1.0, 2.0]), (3,)), 0.5)
        assert max_abs(u.matrix, np.diag(np.exp(-0.5j * np.array([3.0, 1.0, 2.0])))) < 1e-15

    def test_qubit_pair_spectrum(self):
        w = phases(propagator(heisenberg_pair(2), 0.1), 0.1)
        assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_qubit_qutrit_spectrum(self):
        w = phases(propagator(heisenberg_pair(3), 0.1), 0.1)
        assert np.allclose(w, [-1, -1, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        h = random_hermitian(rng, (2, 3))
        u = propagator(h, 0.3).matrix
        assert max_abs(u, taylor_exp(-0.3j * h.matrix)) < 1e-12
        assert max_abs(u.conj().T @ u, np.eye(6)) < 1e-12

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        with pytest.raises(ValueError, match="not Hermitian.*1"):
            propagator(m, 1.0)
        nan_entry = Operator(np.array([[1.0, 0.0], [0.0, np.nan]]), (2,))
        with pytest.raises(ValueError, match="not Hermitian.*nan"):
            propagator(nan_entry, 1.0)


class TestPropagator:
    def test_zero_time_is_identity(self):
        u = propagator(heisenberg_pair(3), 0.0)
        assert max_abs(u.matrix, np.eye(6)) < 1e-14

    def test_unitarity(self, rng):
        for _ in range(5):
            h = random_hermitian(rng, (2, 2))
            u = propagator(h, rng.uniform(0, 10)).matrix
            assert max_abs(u.conj().T @ u, np.eye(4)) < 1e-10

    def test_trace_and_positivity_preserved(self, rng):
        h = random_hermitian(rng, (2, 2))
        u = propagator(h, 1.7).matrix
        for _ in range(5):
            rho = random_density(rng, (2, 2))
            evolved = u @ rho.matrix @ u.conj().T
            assert abs(np.trace(evolved) - 1) < 1e-10
            assert np.linalg.eigvalsh(evolved)[0] > -1e-9

