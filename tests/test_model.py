import dataclasses
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_transfer import model as model_module
from spin_transfer.entanglement import negativity
from spin_transfer.model import (
    TransferModel,
    closed_form_propagator,
    full_evolution,
    heisenberg_pair,
    pair_propagator,
    spectral_projectors,
    spin_operators,
)
from spin_transfer.qla import Operator, propagator
from spin_transfer.transfer import QubitPairState, QutritPairState, initial_full_state

from conftest import max_abs, trace_out_sources

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


def four_particle_hamiltonian(source_dim, legs=((0, 2), (1, 3))):
    """Sum of s_target . s_source over the (target, source) legs, built term
    by term on the (2, 2, source, source) space from the spin matrices."""
    dims = (2, 2, source_dim, source_dim)
    pairs = zip(spin_operators(2), spin_operators(source_dim))
    total = np.zeros((4 * source_dim**2,) * 2, dtype=complex)
    for s_target, s_source in pairs:
        for target, source in legs:
            factors = [np.eye(d) for d in dims]
            factors[target], factors[source] = s_target, s_source
            total += reduce(np.kron, factors)
    return total


def embed_pair(u, targets, full_dims):
    """The full-space matrix acting as the pair operator ``u`` on ``targets``
    (in that order) and as the identity on the other two particles."""
    rest = [i for i in range(len(full_dims)) if i not in targets]
    order = list(targets) + rest
    big = np.kron(u.matrix, np.eye(full_dims[rest[0]] * full_dims[rest[1]]))
    inv = list(np.argsort(order))
    t = big.reshape([full_dims[i] for i in order] * 2)
    n, d = len(full_dims), big.shape[0]
    return t.transpose(inv + [n + i for i in inv]).reshape(d, d)


class TestSpinOperators:
    @pytest.mark.parametrize("d", [2, 3])
    def test_commutation_relations(self, d):
        sx, sy, sz = spin_operators(d)
        assert max_abs(sx @ sy - sy @ sx, 1j * sz) < 1e-12
        assert max_abs(sy @ sz - sz @ sy, 1j * sx) < 1e-12
        assert max_abs(sz @ sx - sx @ sz, 1j * sy) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_casimir(self, d):
        s = (d - 1) / 2
        total = sum(o @ o for o in spin_operators(d))
        assert max_abs(total, s * (s + 1) * np.eye(d)) < 1e-12

    def test_sz_conventions(self):
        assert max_abs(spin_operators(2)[2], np.diag([0.5, -0.5])) == 0
        assert max_abs(spin_operators(3)[2], np.diag([1.0, 0.0, -1.0])) == 0

    def test_sz_qubit_times_sz_qutrit_diagonal(self):
        expected = np.diag([0.5, 0.0, -0.5, -0.5, 0.0, 0.5])
        assert max_abs(np.kron(spin_operators(2)[2], spin_operators(3)[2]), expected) < 1e-15

    def test_qutrit_sx_off_diagonals(self):
        sx = spin_operators(3)[0]
        assert sx[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert sx[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported"):
            spin_operators(4)


class TestHeisenbergPair:
    def test_qubit_pair_matrix(self):
        assert max_abs(heisenberg_pair(2), H22_EXPECTED) < 1e-12

    def test_qubit_qutrit_matrix(self):
        assert max_abs(heisenberg_pair(3), H23_EXPECTED) < 1e-12

    @pytest.mark.parametrize("db", [2, 3])
    def test_traceless(self, db):
        assert abs(np.trace(heisenberg_pair(db))) < 1e-14

    def test_unsupported_dims(self):
        with pytest.raises(ValueError, match="unsupported"):
            heisenberg_pair(4)

    @pytest.mark.parametrize("source_dim,expected", [(2, [-0.75, 0.25]), (3, [-1.0, 0.5])])
    def test_model_spectrum(self, source_dim, expected):
        model = TransferModel.for_source_dim(source_dim)
        eigs = np.linalg.eigvalsh(model.pair_hamiltonian)
        assert np.allclose(np.unique(np.round(eigs, 12)), expected)

    def test_model_is_built_once_per_source_dim(self):
        for source_dim in (2, 3):
            model = TransferModel.for_source_dim(source_dim)
            assert TransferModel.for_source_dim(source_dim) is model
            assert not model.pair_hamiltonian.flags.writeable
        for _ in range(2):
            with pytest.raises(ValueError, match="unsupported source dimension 4"):
                TransferModel.for_source_dim(4)


class TestSpectralProjectors:
    @pytest.mark.parametrize("source_dim,eigenvalues", [(2, (-0.75, 0.25)), (3, (-1.0, 0.5))])
    def test_projectors_split_the_pair_hamiltonian(self, source_dim, eigenvalues):
        model = TransferModel.for_source_dim(source_dim)
        assert model.pair_eigenvalues == eigenvalues
        (lo, hi), (p_minus, p_plus) = model.pair_eigenvalues, model.pair_projectors
        eye = np.eye(2 * source_dim)
        assert max_abs(p_minus @ p_minus, p_minus) < 1e-14
        assert max_abs(p_plus @ p_plus, p_plus) < 1e-14
        assert max_abs(p_minus @ p_plus, 0 * eye) < 1e-14
        assert max_abs(p_minus + p_plus, eye) < 1e-14
        h = lo * p_minus + hi * p_plus
        assert max_abs(h, model.pair_hamiltonian) < 1e-14
        # J = S + 1/2 has 2S + 2 states, J = S - 1/2 has 2S
        assert round(np.trace(p_plus).real) == source_dim + 1
        assert round(np.trace(p_minus).real) == source_dim - 1

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_projectors_are_one_read_only_stack(self, source_dim):
        projectors = TransferModel.for_source_dim(source_dim).pair_projectors
        assert projectors.shape == (2, 2 * source_dim, 2 * source_dim)
        assert projectors.dtype == complex and not projectors.flags.writeable

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_spectral_propagator_matches_eigendecomposition(self, source_dim, rng):
        model = TransferModel.for_source_dim(source_dim)
        (lo, hi), (p_minus, p_plus) = model.pair_eigenvalues, model.pair_projectors
        for t in rng.uniform(-20.0, 20.0, 20):
            u = np.exp(-1j * lo * t) * p_minus + np.exp(-1j * hi * t) * p_plus
            assert max_abs(u, pair_propagator(model, t).matrix) < 1e-13

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_projectors_match_the_hamiltonian_algebra(self, source_dim):
        # P_plus = (H - lambda_minus) / Delta and P_minus = (lambda_plus - H) / Delta
        model = TransferModel.for_source_dim(source_dim)
        (lo, hi), (p_minus, p_plus) = model.pair_eigenvalues, model.pair_projectors
        h, eye = model.pair_hamiltonian, np.eye(2 * source_dim)
        assert max_abs(p_plus, (h - lo * eye) / (hi - lo)) < 1e-15
        assert max_abs(p_minus, (hi * eye - h) / (hi - lo)) < 1e-15

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_wrong_eigenvalues_are_refused(self, source_dim):
        model = TransferModel.for_source_dim(source_dim)
        other = TransferModel.for_source_dim(5 - source_dim).pair_eigenvalues
        with pytest.raises(ValueError, match="do not split the Hamiltonian"):
            spectral_projectors(model.pair_eigh, other)

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_eigenvalue_between_the_two_is_refused(self, source_dim):
        model = TransferModel.for_source_dim(source_dim)
        lo, hi = model.pair_eigenvalues
        w, v = model.pair_eigh
        perturbed = w.copy()
        perturbed[source_dim] = (lo + hi) / 2
        with pytest.raises(ValueError, match=f"eigenvalue {(lo + hi) / 2!r} is farther than tol"):
            spectral_projectors((perturbed, v), model.pair_eigenvalues)

    @pytest.mark.parametrize("source_dim", [2, 3])
    @pytest.mark.parametrize("offset, refused", [(2e-10, True), (5e-11, False)])
    def test_grouping_tolerance_sits_at_its_edge(self, source_dim, offset, refused):
        # an eigenvalue 2 tol from lambda_minus is refused, one tol/2 from it is grouped with it
        model = TransferModel.for_source_dim(source_dim)
        lo = model.pair_eigenvalues[0]
        w, v = model.pair_eigh
        perturbed = w.copy()
        perturbed[0] = lo + offset
        if refused:
            with pytest.raises(ValueError, match=f"eigenvalue {lo + offset!r} is farther than tol"):
                spectral_projectors((perturbed, v), model.pair_eigenvalues)
        else:
            got = spectral_projectors((perturbed, v), model.pair_eigenvalues)
            assert np.array_equal(got, model.pair_projectors)


class TestCachedEigendecomposition:
    """``pair_propagator`` evaluates the model's cached eigendecomposition;
    ``qla.propagator`` recomputes it on every call and is the oracle."""

    TIMES = [0.0, 1.0, -1.0, 2 * np.pi / 3, np.pi, 1e3, -1e3, 1e6, -1e6]

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_bit_for_bit_the_oracle(self, source_dim):
        model = TransferModel.for_source_dim(source_dim)
        for t in [*self.TIMES, *np.linspace(-4 * np.pi, 4 * np.pi, 601)]:
            fast = pair_propagator(model, t)
            oracle = propagator(model.pair_hamiltonian, t)
            assert fast.matrix.shape == (2 * source_dim, 2 * source_dim)
            assert fast.matrix.tobytes() == oracle.tobytes(), t

    @pytest.mark.parametrize("source_dim", [2, 3])
    def test_cached_arrays_are_read_only(self, source_dim):
        w, v = TransferModel.for_source_dim(source_dim).pair_eigh
        assert w.shape == (2 * source_dim,) and v.shape == (2 * source_dim, 2 * source_dim)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            v[0, 0] = 0.0


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
        assert max_abs(u.matrix, np.eye(len(u.matrix))) < 1e-14

    def test_qubit_pair_full_period_is_global_phase(self):
        model = TransferModel.for_source_dim(2)
        u = closed_form_propagator(model, 2 * np.pi).matrix
        assert abs(abs(u[0, 0]) - 1) < 1e-10
        assert max_abs(u, u[0, 0] * np.eye(4)) < 1e-10
        assert u[0, 0] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)

    def test_qutrit_pair_full_period_is_global_phase(self):
        model = TransferModel.for_source_dim(3)
        u = closed_form_propagator(model, 4 * np.pi / 3).matrix
        assert abs(abs(u[0, 0]) - 1) < 1e-10
        assert max_abs(u, u[0, 0] * np.eye(6)) < 1e-10


class TestFullEvolution:
    def test_zero_time_identity(self):
        model = TransferModel.for_source_dim(3)
        u = full_evolution(model, 0.0)
        assert max_abs(u, np.eye(36)) < 1e-13
        assert u.shape == (36, 36)

    def test_equals_embedded_pair_product(self):
        model = TransferModel.for_source_dim(3)
        t = 1.3
        u = pair_propagator(model, t)
        dims = (2, 2, 3, 3)
        expected = embed_pair(u, (0, 2), dims) @ embed_pair(u, (1, 3), dims)
        assert max_abs(full_evolution(model, t), expected) < 1e-12

    def test_closed_form_route_agrees(self):
        model = TransferModel.for_source_dim(3)
        u = closed_form_propagator(model, 2.1)
        dims = (2, 2, 3, 3)
        b = embed_pair(u, (0, 2), dims) @ embed_pair(u, (1, 3), dims)
        assert max_abs(full_evolution(model, 2.1), b) < 1e-10

    @given(st.sampled_from([2, 3]), st.floats(-50.0, 50.0))
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    def test_matches_four_particle_hamiltonian_propagator(self, source_dim, t):
        model = TransferModel.for_source_dim(source_dim)
        expected = propagator(four_particle_hamiltonian(source_dim), t)
        assert max_abs(full_evolution(model, t), expected) < 1e-10

    def test_one_parameter_group(self, rng):
        model = TransferModel.for_source_dim(2)
        for _ in range(5):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            combined = full_evolution(model, t1) @ full_evolution(model, t2)
            assert max_abs(combined, full_evolution(model, t1 + t2)) < 1e-9

    def test_half_period_swaps_entanglement(self):
        tp = QubitPairState(np.pi / 6)
        sp = QubitPairState(np.pi / 4)
        model = TransferModel.for_source_dim(2)
        u = full_evolution(model, np.pi)
        rho0 = initial_full_state(tp, sp)
        reduced = Operator(trace_out_sources(u @ rho0 @ u.conj().T))
        assert negativity(reduced).value == pytest.approx(sp.initial_negativity(), abs=1e-9)

    def test_exchange_symmetry_of_leg_assignment(self, rng):
        # swapping both target labels and both source labels together
        # reassigns the legs to (0,3) and (1,2); TP negativity is unchanged
        model = TransferModel.for_source_dim(3)
        tp = QubitPairState(0.4)
        sp = QutritPairState(*np.sqrt(rng.dirichlet((1, 1, 1))))
        rho0 = initial_full_state(tp, sp)
        h_swapped = four_particle_hamiltonian(3, legs=((0, 3), (1, 2)))
        for t in (0.7, 2.0):
            values = []
            for evo in (full_evolution(model, t), propagator(h_swapped, t)):
                reduced = trace_out_sources(evo @ rho0 @ evo.conj().T)
                values.append(negativity(Operator(reduced)).value)
            assert values[0] == pytest.approx(values[1], abs=1e-10)


def fresh_evolution(source_dim: int, t: float) -> bytes:
    """The bytes of ``full_evolution`` built with no array kept."""
    model_module._LAST_EVOLUTION.clear()
    return full_evolution(TransferModel.for_source_dim(source_dim), t).tobytes()


class TestLastEvolution:
    """``full_evolution`` keeps the last array it built per source dimension."""

    def test_a_repeated_time_returns_the_same_read_only_array(self):
        model = TransferModel.for_source_dim(3)
        first = full_evolution(model, 1.25)
        assert full_evolution(model, 1.25) is first
        assert full_evolution(model, np.float64(1.25)) is first  # the same bits
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0

    def test_interleaved_dimensions_and_signed_zeros_give_fresh_bytes(self):
        calls = [
            (2, 1.0), (3, 1.0), (2, 1.0), (3, 2.5), (3, 1.0), (2, 2.5),
            (2, 0.0), (2, -0.0), (2, 0.0), (3, -0.0), (3, 0.0), (3, 2.5),
        ]  # fmt: skip
        fresh = {(d, struct.pack("d", t)): fresh_evolution(d, t) for d, t in calls}
        model_module._LAST_EVOLUTION.clear()
        for d, t in calls:
            got = full_evolution(TransferModel.for_source_dim(d), t)
            assert got.tobytes() == fresh[d, struct.pack("d", t)], (d, t)
        model = TransferModel.for_source_dim(2)
        assert full_evolution(model, -0.0) is not full_evolution(model, 0.0)

    def test_another_model_of_the_same_dimension_is_built_afresh(self):
        model = TransferModel.for_source_dim(3)
        kept = full_evolution(model, 0.75)
        other = dataclasses.replace(model)
        built = full_evolution(other, 0.75)
        assert built is not kept and built.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("bad", ["1.25", None, np.nan, -np.inf, 1.25 + 1j])
    def test_a_bad_time_after_a_hit_keeps_its_message(self, bad):
        model = TransferModel.for_source_dim(3)
        assert full_evolution(model, 1.25) is full_evolution(model, 1.25)
        with pytest.raises(ValueError) as caught:
            full_evolution(model, bad)
        assert str(caught.value) == f"t must be finite and real, got {bad!r}"
