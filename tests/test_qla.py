import numpy as np
import pytest

from spin_transfer.model import heisenberg_pair, spin_operators
from spin_transfer.qla import (
    Operator,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    propagator,
)

from conftest import max_abs, random_density, random_hermitian

BELL = Operator(0.5 * np.outer([1, 0, 0, 1], [1, 0, 0, 1]), (2, 2))


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Operator(np.zeros((2, 3)), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            Operator(np.eye(4), (2, 3))

    def test_matrix_is_immutable(self):
        op = Operator.identity((2, 2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_hermiticity_predicate(self, rng):
        h = random_hermitian(rng, (3,))
        assert h.hermiticity_defect() <= 1e-12
        skewed = Operator(h.matrix + 1e-6 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), (3,))
        assert not skewed.is_hermitian()
        assert skewed.hermiticity_defect() == pytest.approx(1e-6)

    def test_density_predicate(self, rng):
        rho = random_density(rng, (2, 2))
        assert rho.is_density()
        assert not Operator(2 * rho.matrix, rho.dims).is_density()


def test_environment_does_not_loosen_checks(monkeypatch):
    monkeypatch.setenv("SPIN_TRANSFER_TOL", "1e-3")
    skewed = Operator(np.diag([1.0, 2.0]) + 1e-6 * np.array([[0, 1], [0, 0]]), (2,))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(skewed)


class TestKron:
    def test_identity(self):
        out = kron(Operator.identity((2,)), Operator.identity((2,)))
        assert max_abs(out.matrix, np.eye(4)) == 0
        assert out.dims == (2, 2)

    def test_projector_product(self):
        p = Operator(np.diag([1.0, 0.0]), (2,))
        out = kron(p, p)
        assert max_abs(out.matrix, np.diag([1, 0, 0, 0])) == 0

    def test_sz_qubit_times_sz_qutrit_diagonal(self):
        sz_half = spin_operators(2).sz
        sz_one = spin_operators(3).sz
        out = kron(sz_half, sz_one)
        expected = np.diag([0.5, 0.0, -0.5, -0.5, 0.0, 0.5])
        assert max_abs(out.matrix, expected) < 1e-15


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        w, _ = hermitian_eig(Operator(np.diag([3.0, 1.0, 2.0]), (3,)))
        assert np.allclose(w, [1, 2, 3])

    def test_qubit_pair_spectrum(self):
        w, _ = hermitian_eig(heisenberg_pair(2, 2))
        assert np.allclose(w, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_qubit_qutrit_spectrum(self):
        w, _ = hermitian_eig(heisenberg_pair(2, 3))
        assert np.allclose(w, [-1, -1, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_reconstruction_and_unitarity(self, rng):
        h = random_hermitian(rng, (2, 3))
        w, v = hermitian_eig(h)
        assert max_abs((v * w) @ v.conj().T, h.matrix) < 1e-12
        assert max_abs(v.conj().T @ v, np.eye(6)) < 1e-12

    def test_rejects_non_hermitian_with_diagnostic(self):
        m = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), (2,))
        with pytest.raises(ValueError, match="not Hermitian.*1"):
            hermitian_eig(m)


class TestPropagator:
    def test_zero_time_is_identity(self):
        u = propagator(heisenberg_pair(2, 3), 0.0)
        assert max_abs(u.matrix, np.eye(6)) < 1e-14

    def test_unitarity(self, rng):
        for _ in range(5):
            h = random_hermitian(rng, (2, 2))
            assert propagator(h, rng.uniform(0, 10)).is_unitary()

    def test_trace_and_positivity_preserved(self, rng):
        h = random_hermitian(rng, (2, 2))
        u = propagator(h, 1.7).matrix
        for _ in range(5):
            rho = random_density(rng, (2, 2))
            evolved = u @ rho.matrix @ u.conj().T
            assert abs(np.trace(evolved) - 1) < 1e-10
            assert np.linalg.eigvalsh(evolved)[0] > -1e-9


class TestPartialTrace:
    def test_product_state_marginal(self, rng):
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        joint = kron(a, b)
        assert max_abs(partial_trace(joint, [0]).matrix, a.matrix) < 1e-12
        assert max_abs(partial_trace(joint, [1]).matrix, b.matrix) < 1e-12

    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(BELL, [0])
        assert max_abs(reduced.matrix, np.eye(2) / 2) < 1e-14

    def test_linearity_and_trace(self, rng):
        x = random_density(rng, (2, 2, 2))
        y = random_density(rng, (2, 2, 2))
        mix = Operator(0.3 * x.matrix + 0.7 * y.matrix, x.dims)
        lhs = partial_trace(mix, [0, 2]).matrix
        rhs = 0.3 * partial_trace(x, [0, 2]).matrix + 0.7 * partial_trace(y, [0, 2]).matrix
        assert max_abs(lhs, rhs) < 1e-12
        assert abs(np.trace(lhs) - 1) < 1e-12

    def test_keep_order_preserved(self, rng):
        rho = random_density(rng, (2, 3, 2))
        out = partial_trace(rho, [2, 0])
        assert out.dims == (2, 2)

    def test_invalid_keep_set(self):
        rho = Operator.identity((2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        with pytest.raises(ValueError):
            partial_trace(rho, [5])


class TestPartialTranspose:
    def test_product_state_stays_positive(self, rng):
        joint = kron(random_density(rng, (2,)), random_density(rng, (2,)))
        for k in (0, 1):
            eigs = np.linalg.eigvalsh(partial_transpose(joint, k).matrix)
            assert eigs[0] > -1e-12

    def test_bell_minimum_eigenvalue(self):
        eigs = np.linalg.eigvalsh(partial_transpose(BELL, 1).matrix)
        assert eigs[0] == pytest.approx(-0.5, abs=1e-12)

    def test_involution(self, rng):
        rho = random_hermitian(rng, (2, 2))
        back = partial_transpose(partial_transpose(rho, 1), 1)
        assert max_abs(back.matrix, rho.matrix) == 0

    def test_hermiticity_preserved(self, rng):
        rho = random_hermitian(rng, (2, 3))
        assert partial_transpose(rho, 1).hermiticity_defect() <= 1e-12

    def test_invalid_subsystem(self):
        with pytest.raises(ValueError):
            partial_transpose(Operator.identity((2, 2)), 3)

