import numpy as np
import pytest

from spin_transfer.entanglement import negativity
from spin_transfer.model import (
    TransferModel,
    closed_form_propagator,
    equal_up_to_phase,
    full_evolution,
    heisenberg_pair,
    pair_propagator,
    spin_operators,
)
from spin_transfer.qla import Operator, embed_on_subsystems, partial_trace
from spin_transfer.transfer import QubitPairState, initial_full_state

from conftest import max_abs

H22_EXPECTED = 0.25 * np.array(
    [
        [1, 0, 0, 0],
        [0, -1, 2, 0],
        [0, 2, -1, 0],
        [0, 0, 0, 1],
    ],
    dtype=float,
)

_R = 1 / np.sqrt(2)
H23_EXPECTED = np.array(
    [
        [0.5, 0, 0, 0, 0, 0],
        [0, 0, 0, _R, 0, 0],
        [0, 0, -0.5, 0, _R, 0],
        [0, _R, 0, -0.5, 0, 0],
        [0, 0, _R, 0, 0, 0],
        [0, 0, 0, 0, 0, 0.5],
    ],
    dtype=float,
)


class TestSpinOperators:
    @pytest.mark.parametrize("d", [2, 3])
    def test_commutation_relations(self, d):
        ops = spin_operators(d)
        sx, sy, sz = (o.matrix for o in ops.components)
        assert max_abs(sx @ sy - sy @ sx, 1j * sz) < 1e-12
        assert max_abs(sy @ sz - sz @ sy, 1j * sx) < 1e-12
        assert max_abs(sz @ sx - sx @ sz, 1j * sy) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_casimir(self, d):
        ops = spin_operators(d)
        s = (d - 1) / 2
        total = sum(o.matrix @ o.matrix for o in ops.components)
        assert max_abs(total, s * (s + 1) * np.eye(d)) < 1e-12

    def test_sz_conventions(self):
        assert max_abs(spin_operators(2).sz.matrix, np.diag([0.5, -0.5])) == 0
        assert max_abs(spin_operators(3).sz.matrix, np.diag([1.0, 0.0, -1.0])) == 0

    def test_qutrit_sx_off_diagonals(self):
        sx = spin_operators(3).sx.matrix
        assert sx[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert sx[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported"):
            spin_operators(4)


class TestHeisenbergPair:
    def test_qubit_pair_matrix(self):
        assert max_abs(heisenberg_pair(2, 2).matrix, H22_EXPECTED) < 1e-12

    def test_qubit_qutrit_matrix(self):
        assert max_abs(heisenberg_pair(2, 3).matrix, H23_EXPECTED) < 1e-12

    @pytest.mark.parametrize("db", [2, 3])
    def test_traceless(self, db):
        assert abs(heisenberg_pair(2, db).trace()) < 1e-14

    def test_unsupported_dims(self):
        with pytest.raises(ValueError):
            heisenberg_pair(3, 3)
        with pytest.raises(ValueError):
            heisenberg_pair(2, 4)

    @pytest.mark.parametrize("source_dim,expected", [(2, [-0.75, 0.25]), (3, [-1.0, 0.5])])
    def test_model_spectrum(self, source_dim, expected):
        model = TransferModel.for_source_dim(source_dim)
        eigs = np.linalg.eigvalsh(model.pair_hamiltonian.matrix)
        assert np.allclose(np.unique(np.round(eigs, 12)), expected)


class TestClosedFormPropagator:
    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_matches_eigendecomposition_on_random_times(self, source_dim, rng):
        model = TransferModel.for_source_dim(source_dim)
        worst = 0.0
        for t in rng.uniform(0.0, 4 * np.pi, 50):
            dev = max_abs(
                closed_form_propagator(model, t).matrix, pair_propagator(model, t).matrix
            )
            worst = max(worst, dev)
        assert worst < 1e-10

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_zero_time_identity(self, source_dim):
        model = TransferModel.for_source_dim(source_dim)
        u = closed_form_propagator(model, 0.0)
        assert max_abs(u.matrix, np.eye(u.dim)) < 1e-14

    def test_qubit_pair_full_period_is_global_phase(self):
        model = TransferModel.for_source_dim(2)
        u = closed_form_propagator(model, 2 * np.pi)
        assert equal_up_to_phase(u, Operator.identity((2, 2)))
        assert u.matrix[0, 0] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)

    def test_qutrit_pair_full_period_is_global_phase(self):
        model = TransferModel.for_source_dim(3)
        u = closed_form_propagator(model, 4 * np.pi / 3)
        assert equal_up_to_phase(u, Operator.identity((2, 3)))


class TestFullEvolution:
    def test_zero_time_identity(self):
        model = TransferModel.for_source_dim(3)
        u = full_evolution(model, 0.0)
        assert max_abs(u.matrix, np.eye(36)) < 1e-13

    def test_equals_embedded_pair_product(self):
        model = TransferModel.for_source_dim(3)
        t = 1.3
        u = pair_propagator(model, t)
        expected = embed_on_subsystems(u, (0, 2), model.full_dims) @ embed_on_subsystems(
            u, (1, 3), model.full_dims
        )
        assert max_abs(full_evolution(model, t).matrix, expected.matrix) < 1e-12

    def test_closed_form_route_agrees(self):
        model = TransferModel.for_source_dim(3)
        u = closed_form_propagator(model, 2.1)
        b = embed_on_subsystems(u, (0, 2), model.full_dims) @ embed_on_subsystems(
            u, (1, 3), model.full_dims
        )
        assert max_abs(full_evolution(model, 2.1).matrix, b.matrix) < 1e-10

    def test_one_parameter_group(self, rng):
        model = TransferModel.for_source_dim(2)
        for _ in range(5):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            combined = full_evolution(model, t1) @ full_evolution(model, t2)
            assert max_abs(combined.matrix, full_evolution(model, t1 + t2).matrix) < 1e-9

    def test_half_period_swaps_entanglement(self):
        tp = QubitPairState(np.pi / 6)
        sp = QubitPairState(np.pi / 4)
        model = TransferModel.for_source_dim(2)
        u = full_evolution(model, np.pi)
        rho0 = initial_full_state(tp, sp)
        rho_t = Operator(u.matrix @ rho0.matrix @ u.matrix.conj().T, rho0.dims)
        reduced = partial_trace(rho_t, (0, 1))
        assert negativity(reduced).value == pytest.approx(sp.initial_negativity(), abs=1e-9)

    def test_exchange_symmetry_of_leg_assignment(self, rng):
        # swapping both target labels and both source labels together
        # reassigns the legs to (0,3) and (1,2); TP negativity is unchanged
        model = TransferModel.for_source_dim(3)
        tp = QubitPairState(0.4)
        sp_vec = np.sqrt(rng.dirichlet((1, 1, 1)))
        from spin_transfer.transfer import QutritPairState

        sp = QutritPairState(*sp_vec)
        rho0 = initial_full_state(tp, sp)
        for t in (0.7, 2.0):
            u = pair_propagator(model, t)
            standard = embed_on_subsystems(u, (0, 2), model.full_dims) @ embed_on_subsystems(
                u, (1, 3), model.full_dims
            )
            swapped = embed_on_subsystems(u, (1, 2), model.full_dims) @ embed_on_subsystems(
                u, (0, 3), model.full_dims
            )
            values = []
            for evo in (standard, swapped):
                rho_t = Operator(evo.matrix @ rho0.matrix @ evo.matrix.conj().T, rho0.dims)
                values.append(negativity(partial_trace(rho_t, (0, 1))).value)
            assert values[0] == pytest.approx(values[1], abs=1e-10)


def test_equal_up_to_phase_detects_mismatch():
    a = Operator.identity((2,))
    b = Operator(np.diag([1.0, -1.0]).astype(complex), (2,))
    assert equal_up_to_phase(a, a)
    assert not equal_up_to_phase(a, b)
