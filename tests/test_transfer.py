import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_transfer.entanglement import XStateCoeffs, clamp_negativity, negativities, negativity
from spin_transfer.model import (
    TransferModel,
    closed_form_propagator,
    full_evolution,
    pair_propagator,
)
from spin_transfer.qla import POSITIVITY_TOL
from spin_transfer.qla import Operator
from spin_transfer.transfer import (
    QUBIT_SOURCE_PERIOD,
    QUTRIT_HALF_PERIOD,
    QUTRIT_SOURCE_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    TransferTrace,
    _fourier_tensor,
    _spectral_components,
    closed_form_rho12_qubit,
    closed_form_rho12_qutrit,
    default_time_grid,
    entanglement_curve,
    evolve_and_reduce,
    evolve_reduced,
    initial_full_state,
    model_for_source,
    qutrit_closed_form_discrepancy,
)

from conftest import max_abs, random_density, random_unitary, trace_out_sources


QUBIT_MODEL, QUTRIT_MODEL = TransferModel.for_source_dim(2), TransferModel.for_source_dim(3)
QUBIT_SOURCE = QubitPairState(0.5)

#: Two entry points of the rule of qla._real_angle, by the name it reports:
#: a target angle and an evolution time.
REAL_RULE_ENTRIES = {
    "theta": QubitPairState,
    "t": lambda t: evolve_reduced(QubitPairState(0.3), STATE_A, t),
}


def random_qutrit_state(rng) -> QutritPairState:
    return QutritPairState(*np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))


class TestStates:
    def test_qubit_pair_amplitudes(self):
        tp = QubitPairState(0.3)
        vec = tp.state_vector()
        assert vec[0] == pytest.approx(np.cos(0.3))
        assert vec[3] == pytest.approx(np.sin(0.3))
        assert tp.initial_negativity() == pytest.approx(abs(np.sin(0.6)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf, 1j, 0.3 + 0.5j])
    def test_qubit_pair_rejects_a_complex_or_non_finite_angle(self, theta):
        with pytest.raises(ValueError, match="theta must be finite and real"):
            QubitPairState(theta)

    @pytest.mark.parametrize("theta", [0.3 + 0j, np.complex128(0.3), np.float64(0.3), -0.0])
    def test_qubit_pair_angle_is_a_float(self, theta):
        tp = QubitPairState(theta)
        assert type(tp.theta) is float
        assert tp.theta == theta.real
        assert np.signbit(tp.theta) == np.signbit(theta.real)
        assert tp == QubitPairState(float(np.real(theta)))

    def test_qutrit_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            QutritPairState(1.0, 1.0, 0.0)

    def test_qutrit_normalized_constructor(self):
        sp = QutritPairState.normalized(1.0, 1.0, 0.0)
        assert sp.k0 == pytest.approx(np.sqrt(0.5))
        assert sp.k2 == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "amps,message",
        [
            ((-np.sqrt(0.5), np.sqrt(0.5), 0.0), r"amplitude k0 = np\.float64\(-0\.70"),
            ((np.sqrt(0.5), 0.0, np.sqrt(0.5) * 1j), r"k2 must be finite and real, got np\."),
        ],
        ids=["signed-k0", "complex-k2"],
    )
    def test_signed_or_complex_amplitudes_rejected(self, amps, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            QutritPairState(*amps)

    @pytest.mark.parametrize(
        "amps,message",
        [
            ((1, -1, 1), "amplitude k1 = -1 is not a non-negative real number"),
            ((1, 1j, 1), "k1 must be finite and real, got 1j"),
        ],
        ids=["signed-k1", "complex-k1"],
    )
    def test_normalized_rejects_signed_or_complex_amplitudes(self, amps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QutritPairState.normalized(*amps)

    def test_negative_zero_amplitude_is_zero(self):
        sp = QutritPairState.normalized(-0.0, 1.0, 1.0)
        assert np.copysign(1.0, sp.k0) == 1.0

    def test_named_states(self):
        assert QutritPairState.from_label("a") == STATE_A
        assert QutritPairState.from_label("B") == STATE_B
        assert QutritPairState.from_label("C") == STATE_C
        for label in ["D", 1, None]:
            message = f"^unknown named state {label!r}; expected A, B or C$"
            with pytest.raises(ValueError, match=message):
                QutritPairState.from_label(label)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalized_rescales_extreme_amplitudes(self, scale):
        sp = QutritPairState.normalized(scale, scale, scale)
        assert max_abs(sp.amplitudes(), STATE_A.amplitudes()) <= 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            QutritPairState.normalized(0.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_normalized_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QutritPairState.normalized(bad, 1.0, 1.0)

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="^k0 must be finite and real, got nan$"):
            QutritPairState(float("nan"), 0.0, 0.0)


class TestInitialFullState:
    def test_all_zero_angles_is_ground_projector(self):
        rho = initial_full_state(QubitPairState(0.0), QubitPairState(0.0))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert max_abs(rho, expected) < 1e-15

    def test_rank_one_trace_one(self, rng):
        rho = initial_full_state(QubitPairState(rng.uniform(0, np.pi / 2)), random_qutrit_state(rng))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_bit_for_bit_np_kron_construction(self, rng):
        sources = [random_qutrit_state(rng) for _ in range(10)]
        sources += [QubitPairState(t) for t in rng.uniform(-np.pi, np.pi, 10)]
        sources += [STATE_A, STATE_B, STATE_C]
        for sp in sources:
            tp = QubitPairState(rng.uniform(-np.pi, np.pi))
            vec = np.kron(tp.state_vector(), sp.state_vector())
            expected = np.outer(vec, vec.conj())
            assert initial_full_state(tp, sp).tobytes() == expected.tobytes()

    def test_tp_marginal_negativity(self):
        rho = initial_full_state(QubitPairState(np.pi / 4), STATE_A)
        reduced = Operator(trace_out_sources(rho))
        assert negativity(reduced).value == pytest.approx(1.0, abs=1e-12)


class TestEvolveAndReduce:
    """The target|source cut against the test-local nested-trace oracle."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_matches_nested_trace_oracle(self, d, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 2, d, d)
        u = random_unitary(rng, 4 * d * d)
        rho0 = random_density(rng, dims).matrix
        evolved = u @ rho0 @ u.conj().T
        reduced = evolve_and_reduce(u, rho0)
        assert reduced.shape == (4, 4)
        assert max_abs(reduced, trace_out_sources(evolved)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_product_state_marginal(self, rng, d):
        a = random_density(rng, (2, 2)).matrix
        rho0 = np.kron(a, random_density(rng, (d, d)).matrix)
        identity = np.eye(4 * d * d)
        assert max_abs(evolve_and_reduce(identity, rho0), a) < 1e-12

    def test_target_marginal_of_maximal_entanglement(self):
        vec = np.eye(4).reshape(16) / 2  # sum over (a, b) of |ab>|ab> / 2
        rho0 = np.outer(vec, vec)
        identity = np.eye(16)
        assert max_abs(evolve_and_reduce(identity, rho0), np.eye(4) / 4) < 1e-15

    def test_linearity_and_unit_trace(self, rng):
        dims = (2, 2, 3, 3)
        u = random_unitary(rng, 36)
        x, y = random_density(rng, dims).matrix, random_density(rng, dims).matrix
        mix = 0.3 * x + 0.7 * y
        lhs = evolve_and_reduce(u, mix)
        rhs = 0.3 * evolve_and_reduce(u, x) + 0.7 * evolve_and_reduce(u, y)
        assert max_abs(lhs, rhs) < 1e-12
        assert abs(np.trace(lhs) - 1) < 1e-12

    # non-square, then 4d^2 x 4d^2 for no supported d: d = 1, no d, no d, d = 4
    @pytest.mark.parametrize("shape", [(16, 36), (4, 4), (12, 12), (24, 24), (64, 64)])
    def test_rejects_other_state_shapes(self, shape):
        eye = np.eye(*shape)
        with pytest.raises(ValueError, match=re.escape(f"got shapes {shape} and {shape}")):
            evolve_and_reduce(eye, eye)

    # the qubit-source propagator, then two non-square ones
    @pytest.mark.parametrize("shape", [(16, 16), (36, 16), (36, 35)])
    def test_rejects_propagator_of_another_shape(self, shape):
        rho0 = initial_full_state(QubitPairState(0.3), STATE_A)
        with pytest.raises(ValueError, match=re.escape(f"got shapes (36, 36) and {shape}")):
            evolve_and_reduce(np.eye(*shape), rho0)


class TestEvolveReduced:
    def test_zero_time_returns_initial_tp_state(self):
        tp = QubitPairState(0.37)
        rho = evolve_reduced(tp, STATE_A, 0.0)
        assert max_abs(rho.matrix, tp.density().matrix) < 1e-13

    def test_qubit_source_full_swap(self):
        rho = evolve_reduced(QubitPairState(np.pi / 6), QubitPairState(np.pi / 4), np.pi)
        assert negativity(rho).value == pytest.approx(1.0, abs=1e-9)

    def test_qutrit_source_maximal_at_half_period(self):
        rho = evolve_reduced(QubitPairState(np.pi / 4), STATE_A, QUTRIT_HALF_PERIOD)
        assert negativity(rho).value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("source", ["qubit", "qutrit"])
    def test_x_sparsity_at_all_times(self, source, rng):
        tp = QubitPairState(rng.uniform(0, np.pi / 2))
        sp = QubitPairState(rng.uniform(0, np.pi / 2)) if source == "qubit" else random_qutrit_state(rng)
        for t in rng.uniform(0, 2 * np.pi, 8):
            coeffs = XStateCoeffs.from_operator(evolve_reduced(tp, sp, t))  # raises off the X pattern
            assert coeffs.a + coeffs.b + coeffs.c + coeffs.d == pytest.approx(1.0, abs=1e-9)
            assert abs(coeffs.b - coeffs.c) < 1e-12

    def test_qubit_periodicity(self, rng):
        tp = QubitPairState(0.4)
        sp = QubitPairState(0.9)
        for t in rng.uniform(0, 2 * np.pi, 5):
            e1 = negativity(evolve_reduced(tp, sp, t)).value
            e2 = negativity(evolve_reduced(tp, sp, t + QUBIT_SOURCE_PERIOD)).value
            assert abs(e1 - e2) < 1e-9

    def test_qutrit_periodicity(self, rng):
        tp = QubitPairState(0.3)
        sp = random_qutrit_state(rng)
        for t in rng.uniform(0, 2 * np.pi, 5):
            e1 = negativity(evolve_reduced(tp, sp, t)).value
            e2 = negativity(evolve_reduced(tp, sp, t + QUTRIT_SOURCE_PERIOD)).value
            assert abs(e1 - e2) < 1e-9

    @pytest.mark.parametrize("sp", [QUBIT_SOURCE, STATE_A], ids=["qubit", "qutrit"])
    def test_builds_one_operator_and_full_evolution_none(self, sp, monkeypatch):
        # the four-particle layers pass arrays; the reduced state handed back
        # is the one Operator of the call
        built = []
        original = Operator.__post_init__

        def counted(op):
            built.append(op)
            original(op)

        monkeypatch.setattr(Operator, "__post_init__", counted)
        full_evolution(model_for_source(sp), 1.0)
        assert built == []
        rho = evolve_reduced(QubitPairState(0.3), sp, 1.0)
        assert len(built) == 1 and built[0] is rho

    @pytest.mark.parametrize("sp", ["A", None, STATE_A.amplitudes()], ids=["str", "None", "array"])
    def test_source_of_another_type_is_refused_by_name(self, sp):
        message = f"source must be a QubitPairState or a QutritPairState, got {type(sp).__name__}$"
        with pytest.raises(ValueError, match=message):
            evolve_reduced(QubitPairState(0.3), sp, 1.0)
        with pytest.raises(ValueError, match=message):
            entanglement_curve(QubitPairState(0.3), sp, [0.0, 1.0])

    def test_half_period_identity_small_grid(self):
        for t1 in np.linspace(0, np.pi / 2, 5):
            for t2 in np.linspace(0, np.pi / 2, 5):
                rho = evolve_reduced(QubitPairState(t1), QubitPairState(t2), np.pi)
                assert negativity(rho).value == pytest.approx(abs(np.sin(2 * t2)), abs=1e-9)


class TestClosedFormQubit:
    def test_zero_time_values(self):
        theta1, theta2 = 0.3, 0.8
        coeffs = closed_form_rho12_qubit(theta1, theta2, 0.0)
        assert coeffs.a == pytest.approx(np.cos(theta1) ** 2, abs=1e-12)
        assert coeffs.d == pytest.approx(np.sin(theta1) ** 2, abs=1e-12)
        assert coeffs.b == 0.0 and coeffs.c == 0.0
        assert coeffs.f == pytest.approx(np.cos(theta1) * np.sin(theta1), abs=1e-12)

    def test_inner_diagonal_entries_equal(self, rng):
        for _ in range(10):
            coeffs = closed_form_rho12_qubit(*rng.uniform(0, np.pi / 2, 2), rng.uniform(0, 7))
            assert coeffs.b == coeffs.c

    def test_matches_numeric_pipeline_on_grid(self):
        worst = 0.0
        for t1 in np.linspace(0, np.pi / 2, 5):
            for t2 in np.linspace(0, np.pi / 2, 5):
                for t in np.linspace(0, 2 * np.pi, 5):
                    analytic = closed_form_rho12_qubit(t1, t2, t).to_operator().matrix
                    numeric = evolve_reduced(QubitPairState(t1), QubitPairState(t2), t).matrix
                    worst = max(worst, max_abs(analytic, numeric))
        assert worst < 1e-10


class TestClosedFormAngles:
    """Both transcriptions take the target-angle rule of QubitPairState."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.3 + 0.5j])
    @pytest.mark.parametrize(
        "form,name",
        [
            (lambda x: closed_form_rho12_qubit(x, 0.4, 1.0), "theta1"),
            (lambda x: closed_form_rho12_qubit(0.4, x, 1.0), "theta2"),
            (lambda x: closed_form_rho12_qutrit(x, STATE_B, 1.0), "theta1"),
        ],
        ids=["qubit-theta1", "qubit-theta2", "qutrit-theta1"],
    )
    def test_complex_or_non_finite_angle_is_named(self, form, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite and real"):
            form(bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [0.0, 1.0, QUTRIT_HALF_PERIOD])
    def test_zero_imaginary_part_is_dropped_bit_for_bit(self, t):
        qubit = closed_form_rho12_qubit(0.3, 0.5, t)
        assert closed_form_rho12_qubit(0.3 + 0j, np.complex128(0.5), t) == qubit
        assert closed_form_rho12_qutrit(0.3 + 0j, STATE_A, t) == closed_form_rho12_qutrit(
            0.3, STATE_A, t
        )



#: Every function of an evolution time ``t``, as a function of ``t`` alone
#: whose result is an array.
TIME_FORMS = {
    "pair-propagator-qubit": lambda t: pair_propagator(QUBIT_MODEL, t).matrix,
    "pair-propagator-qutrit": lambda t: pair_propagator(QUTRIT_MODEL, t).matrix,
    "closed-form-propagator-qubit": lambda t: closed_form_propagator(QUBIT_MODEL, t).matrix,
    "closed-form-propagator-qutrit": lambda t: closed_form_propagator(QUTRIT_MODEL, t).matrix,
    "evolve-reduced-qubit": lambda t: evolve_reduced(QubitPairState(0.3), QUBIT_SOURCE, t).matrix,
    "evolve-reduced-qutrit": lambda t: evolve_reduced(QubitPairState(0.3), STATE_A, t).matrix,
    "closed-form-qubit": lambda t: np.array(astuple(closed_form_rho12_qubit(0.3, 0.5, t))),
    "closed-form-qutrit": lambda t: np.array(astuple(closed_form_rho12_qutrit(0.3, STATE_A, t))),
}


class TestTimeRule:
    """Every propagator time and both transcriptions take the one rule of
    qla._real_angle; ``full_evolution`` and ``evolve_reduced`` take it
    through the helper behind ``pair_propagator``."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1 + 1j])
    @pytest.mark.parametrize("form", TIME_FORMS.values(), ids=TIME_FORMS.keys())
    def test_complex_or_non_finite_time_is_named(self, form, bad):
        with pytest.raises(ValueError, match="t must be finite and real"):
            form(bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", TIME_FORMS.values(), ids=TIME_FORMS.keys())
    def test_zero_imaginary_part_is_dropped_bit_for_bit(self, form):
        assert form(1 + 0j).tobytes() == form(1.0).tobytes()
        assert form(np.complex128(1.0)).tobytes() == form(1.0).tobytes()


@pytest.mark.parametrize("name", REAL_RULE_ENTRIES)
class TestRealRuleNamesTheField:
    """Whatever the rule of qla._real_angle refuses, it refuses with one
    ValueError naming the field."""

    def refused(self, name, value):
        message = f"{name} must be finite and real, got {value!r}"
        with pytest.raises(ValueError) as error:
            REAL_RULE_ENTRIES[name](value)
        assert str(error.value) == message

    @pytest.mark.parametrize("value", ["pi/4", "x", ""])
    def test_malformed_string(self, name, value):
        self.refused(name, value)

    @pytest.mark.parametrize("value", ["0.3", "1", "1+0j"])
    def test_numeric_string(self, name, value):
        self.refused(name, value)

    @pytest.mark.parametrize(
        "value", [None, [0.3], object(), 10**400], ids=["None", "list", "object", "big-int"]
    )
    def test_value_complex_refuses(self, name, value):
        self.refused(name, value)


class TestClosedFormQutrit:
    def test_zero_time_values(self, rng):
        sp = random_qutrit_state(rng)
        theta1 = 0.5
        coeffs = closed_form_rho12_qutrit(theta1, sp, 0.0)
        assert coeffs.a == pytest.approx(np.cos(theta1) ** 2, abs=1e-12)
        assert coeffs.d == pytest.approx(np.sin(theta1) ** 2, abs=1e-12)
        assert coeffs.b == pytest.approx(0.0, abs=1e-12)
        assert abs(coeffs.f) == pytest.approx(np.cos(theta1) * np.sin(theta1), abs=1e-12)

    @pytest.mark.parametrize("t", [0.0, QUTRIT_SOURCE_PERIOD])
    def test_revival_endpoints_match_pipeline(self, t, rng):
        for _ in range(5):
            sp = random_qutrit_state(rng)
            theta1 = rng.uniform(0, np.pi / 4)
            analytic = closed_form_rho12_qutrit(theta1, sp, t).to_operator().matrix
            numeric = evolve_reduced(QubitPairState(theta1), sp, t).matrix
            assert max_abs(analytic, numeric) < 1e-9

    def test_midtime_disagreement_is_real_and_reported(self):
        # the transcription genuinely departs from the pipeline between revivals
        rows = qutrit_closed_form_discrepancy(n_samples=24, seed=1)
        endpoint = [r for r in rows if min(r["t"], abs(r["t"] - QUTRIT_SOURCE_PERIOD)) < 1e-12]
        midtime = [r for r in rows if min(r["t"], abs(r["t"] - QUTRIT_SOURCE_PERIOD)) > 0.1]
        assert max(r["max_deviation"] for r in endpoint) < 1e-9
        assert max(r["max_deviation"] for r in midtime) > 1e-2

    def test_only_the_inner_diagonal_entry_is_wrong(self):
        # a, d and f of the transcription match the pipeline between the
        # revivals; b (= c) does not, and the pipeline's b is (1 - a - d)/2
        rng = np.random.default_rng(7)
        worst = dict.fromkeys("adfb", 0.0)
        for _ in range(200):
            theta1 = rng.uniform(0, np.pi / 4)
            sp = random_qutrit_state(rng)
            t = rng.uniform(0.05, QUTRIT_SOURCE_PERIOD - 0.05)
            analytic = closed_form_rho12_qutrit(theta1, sp, t)
            numeric = XStateCoeffs.from_operator(evolve_reduced(QubitPairState(theta1), sp, t))
            assert numeric.b == pytest.approx((1 - numeric.a - numeric.d) / 2, abs=1e-12)
            for name in "adfb":
                dev = abs(getattr(analytic, name) - getattr(numeric, name))
                worst[name] = max(worst[name], dev)
        assert max(worst["a"], worst["d"], worst["f"]) < 1e-12
        assert worst["b"] > 0.1

    def test_discrepancy_sample_count_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^n_samples must be an integer, got 2\.5$"):
            qutrit_closed_form_discrepancy(2.5)
        assert qutrit_closed_form_discrepancy(np.int64(4)) == qutrit_closed_form_discrepancy(4)

    def test_discrepancy_seed_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            qutrit_closed_form_discrepancy(4, seed=2.5)
        want = qutrit_closed_form_discrepancy(4, seed=5)
        assert qutrit_closed_form_discrepancy(4, seed=np.int64(5)) == want

    def test_discrepancy_rows_are_deterministic(self):
        a = qutrit_closed_form_discrepancy(n_samples=10, seed=3)
        b = qutrit_closed_form_discrepancy(n_samples=10, seed=3)
        assert a == b


def longest_zero_run_length(trace: TransferTrace, tol: float = 1e-9) -> float:
    step = trace.times[1] - trace.times[0]
    longest = current = 0
    for value in trace.negativities:
        current = current + 1 if value < tol else 0
        longest = max(longest, current)
    return longest * step


class TestEntanglementCurve:
    def test_maximally_entangled_pair_revivals(self):
        grid = default_time_grid(QUBIT_SOURCE_PERIOD)
        trace = entanglement_curve(QubitPairState(np.pi / 4), QubitPairState(np.pi / 4), grid)
        for t_probe in (0.0, np.pi, 2 * np.pi):
            idx = int(np.argmin(np.abs(trace.times - t_probe)))
            assert trace.negativities[idx] == pytest.approx(1.0, abs=1e-9)

    def test_five_sections_zero_plateau(self):
        grid = default_time_grid(QUBIT_SOURCE_PERIOD)
        trace = entanglement_curve(QubitPairState(np.pi / 6), QubitPairState(np.pi / 4), grid)
        assert longest_zero_run_length(trace) > 0.05

    def test_values_in_unit_interval(self, rng):
        grid = np.linspace(0, QUTRIT_SOURCE_PERIOD, 60)
        trace = entanglement_curve(QubitPairState(0.6), random_qutrit_state(rng), grid)
        assert np.all(trace.negativities >= 0.0)
        assert np.all(trace.negativities <= 1.0)

    @pytest.mark.parametrize("sp", [QubitPairState(np.pi / 4), STATE_A], ids=["qubit", "qutrit"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_named(self, sp, bad):
        grid = [0.0, 1.0, bad, np.nan]
        message = f"t_grid at index 2 must be finite and real, got {bad!r}"
        with pytest.raises(ValueError, match=message):
            entanglement_curve(QubitPairState(0.3), sp, grid)

    @pytest.mark.parametrize("sp", [QubitPairState(np.pi / 4), STATE_A], ids=["qubit", "qutrit"])
    def test_complex_time_is_named(self, sp):
        # the cast to float would score t = 1.0
        message = r"t_grid at index 1 must be finite and real, got \(1\+2j\)"
        with pytest.raises(ValueError, match=message):
            entanglement_curve(QubitPairState(0.3), sp, np.array([0, 1 + 2j]))

    def test_complex_dtype_with_zero_imaginary_part_is_scored(self):
        grid = np.linspace(0.0, 2.0, 5)
        tp = QubitPairState(0.3)
        trace = entanglement_curve(tp, STATE_A, grid.astype(complex))
        assert trace.times.dtype == float
        want = entanglement_curve(tp, STATE_A, grid).negativities
        assert np.array_equal(trace.negativities, want)

    def test_phase_overflow_is_named(self):
        # 2 * (3/2) * 1e308 overflows for a qutrit source
        with pytest.raises(ValueError, match="time 1e[+]308 at index 0 has a non-finite phase"):
            entanglement_curve(QubitPairState(0.3), STATE_A, [1e308])

    def test_phase_overflow_covers_the_second_order(self):
        # for a qubit source (Delta = 1) only the phase 2 * 1e308 of the
        # orders m = +-2 overflows
        with pytest.raises(ValueError, match="time 1e[+]308 at index 1 has a non-finite phase"):
            entanglement_curve(QubitPairState(0.3), QubitPairState(0.2), [0.0, 1e308])

    def test_empty_grid(self):
        trace = entanglement_curve(QubitPairState(0.3), STATE_B, [])
        assert trace.times.size == 0 and trace.negativities.size == 0

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TransferTrace(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="equal length"):
            TransferTrace(np.array([0.0, 1.0]), np.array([0.0]))

    @pytest.mark.parametrize(
        "times",
        [[0.0, 0.0], [1.0, 0.5], [0.0, 1.0, 1.0]],
        ids=["equal", "decreasing", "equal-last"],
    )
    def test_trace_refuses_times_not_strictly_increasing(self, times):
        with pytest.raises(ValueError, match="times must be strictly increasing"):
            TransferTrace(times, np.zeros(len(times)))

    @pytest.mark.parametrize(
        "times, index",
        [([0.0, np.nan], 1), ([np.nan, 1.0], 0), ([np.nan], 0)],
        ids=["nan-last", "nan-first", "nan-alone"],
    )
    def test_trace_refuses_a_nan_time_before_its_order(self, times, index):
        message = f"^times at index {index} must be finite and real, got nan$"
        with pytest.raises(ValueError, match=message):
            TransferTrace(times, np.zeros(len(times)))

    # one time has no order to break
    @pytest.mark.parametrize("times", [[], [0.0], [0.0, 1e-300, 1.0]])
    def test_trace_accepts_strictly_increasing_times(self, times):
        trace = TransferTrace(times, np.zeros(len(times)))
        assert np.array_equal(trace.times, times)

    def test_curve_leaves_the_grid_writable(self):
        grid = np.linspace(0.0, 2.0, 5)
        trace = entanglement_curve(QubitPairState(0.3), STATE_A, grid)
        assert grid.flags.writeable
        assert not np.shares_memory(trace.times, grid)

    def test_curve_times_do_not_follow_the_grid_they_view(self):
        full = np.linspace(0.0, 4.0, 9)
        trace = entanglement_curve(QubitPairState(0.3), STATE_A, full[::2])
        full[0] = -1.0
        assert trace.times[0] == 0.0

    def test_trace_copies_its_arrays(self):
        times, values = np.array([0.0, 1.0]), np.array([0.5, 0.25])
        trace = TransferTrace(times, values)
        assert times.flags.writeable and values.flags.writeable
        times[0], values[0] = -1.0, 0.0
        assert trace.times[0] == 0.0 and trace.negativities[0] == 0.5
        assert not trace.times.flags.writeable and not trace.negativities.flags.writeable

    def test_default_grid(self):
        grid = default_time_grid(QUBIT_SOURCE_PERIOD)
        assert grid.size == 601
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(QUBIT_SOURCE_PERIOD)


def pure_state_curve(tp: QubitPairState, sp, times: np.ndarray) -> np.ndarray:
    """The former batched route, kept as an oracle: the (N, 4, d*d) stack of
    evolved pure states psi(t) = sum_j exp(-i j Delta t) chi_j, its source
    trace by one einsum, and the generic ``negativities``."""
    model = model_for_source(sp)
    d = model.source_dim
    p = model.pair_projectors.reshape(2, 2, d, 2, d)
    psi0 = tp.state_vector().reshape(2, 2)
    source0 = sp.state_vector().reshape(d, d)
    parts = np.einsum("xaiAI,ybjBJ,AB,IJ->xyabij", p, p, psi0, source0).reshape(2, 2, 4, d * d)
    chi = np.stack([parts[0, 0], parts[0, 1] + parts[1, 0], parts[1, 1]])
    lo, hi = model.pair_eigenvalues
    phases = np.multiply.outer(times, -(hi - lo) * np.arange(3))
    psi = np.tensordot(np.exp(1j * phases), chi, axes=1)
    rho = np.einsum("nas,nbs->nab", psi, psi.conj())
    return clamp_negativity(negativities(rho))


def spectral_components_oracle(tp: QubitPairState, sp) -> np.ndarray:
    """The former build of ``transfer._spectral_components``, kept as its
    oracle: the five 4x4 Fourier components R_m, m = -2..2, from the 2d x 2d
    sandwiches P_x W P_y^T of the two-leg initial matrix
    W = kron(psi0, source0), rows (a, i) and columns (b, j), and
    R_m = sum_{j - k = m} Tr_S chi_j chi_k^dagger."""
    model = model_for_source(sp)
    d = model.source_dim
    p = model.pair_projectors
    psi0 = tp.state_vector().reshape(2, 2)
    source0 = sp.state_vector().reshape(d, d)
    w = (psi0[:, None, :, None] * source0[None, :, None, :]).reshape(2 * d, 2 * d)
    legs = (p @ w)[:, None] @ p.swapaxes(1, 2)[None]  # (x, y, (a, i), (b, j))
    chi = np.stack([legs[0, 0], legs[0, 1] + legs[1, 0], legs[1, 1]])
    chi = chi.reshape(3, 2, d, 2, d).transpose(0, 1, 3, 2, 4).reshape(3, 4, d * d)
    gram = chi[:, None] @ chi.conj().swapaxes(1, 2)[None]  # (j, k): chi_j chi_k^dagger
    return np.stack(
        [
            gram[0, 2],
            gram[0, 1] + gram[1, 2],
            gram[0, 0] + gram[1, 1] + gram[2, 2],
            gram[1, 0] + gram[2, 1],
            gram[2, 0],
        ]
    )


COMPONENT_SOURCES = st.one_of(
    st.sampled_from([STATE_A, STATE_B, STATE_C]),
    st.integers(0, 2**32 - 1).map(lambda seed: random_qutrit_state(np.random.default_rng(seed))),
    st.floats(-3.0, 3.0).map(QubitPairState),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.floats(-3.0, 3.0), COMPONENT_SOURCES)
def test_fourier_tensor_components_match_the_oracle(theta1, sp):
    tp = QubitPairState(theta1)
    assert max_abs(_spectral_components(tp, sp), spectral_components_oracle(tp, sp)) <= 1e-15


def test_fourier_tensor_is_read_only_and_built_once_per_source_dim():
    _fourier_tensor.cache_clear()
    grid = np.linspace(0.0, QUTRIT_SOURCE_PERIOD, 61)
    for theta1 in (-0.4, 0.3, 1.2):
        for sp in (STATE_A, STATE_B, QubitPairState(0.2), QubitPairState(np.pi / 4)):
            entanglement_curve(QubitPairState(theta1), sp, grid)
    info = _fourier_tensor.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for d in (2, 3):
        tensor = _fourier_tensor(d)
        assert tensor.shape == (4 * d * d, 5 * 16) and not tensor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tensor[0, 0] = 1.0
    assert _fourier_tensor.cache_info().misses == 2


@pytest.mark.parametrize(
    "sp",
    [
        STATE_A,
        STATE_B,
        STATE_C,
        QutritPairState(*np.sqrt(np.random.default_rng(16).dirichlet((1.0, 1.0, 1.0)))),
        QubitPairState(np.pi / 4),
        QubitPairState(0.3),
    ],
    ids=["A", "B", "C", "dirichlet", "qubit-bell", "qubit-0.3"],
)
def test_curve_matches_the_pure_state_route(sp):
    """The Fourier sum scored in X form against the former route, on the
    601-point grid over one source period."""
    period = QUBIT_SOURCE_PERIOD if isinstance(sp, QubitPairState) else QUTRIT_SOURCE_PERIOD
    grid = default_time_grid(period)
    for theta1 in np.linspace(-3.0, 3.0, 13):
        tp = QubitPairState(theta1)
        curve = entanglement_curve(tp, sp, grid).negativities
        assert np.abs(curve - pure_state_curve(tp, sp, grid)).max() <= 1e-14


SOURCES = st.one_of(
    st.floats(-4.0, 4.0).map(QubitPairState),
    st.tuples(*[st.floats(0.0, 1.0)] * 3)
    .filter(lambda k: sum(k) > 1e-3)
    .map(lambda k: QutritPairState.normalized(*k)),
)
TIMES = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e6, 1e6))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    st.floats(-4.0, 4.0),
    SOURCES,
    st.lists(TIMES, min_size=1, max_size=12, unique=True).map(sorted),
)
def test_curve_matches_the_density_pipeline(theta1, sp, times):
    """The batched spectral route against the oracle, point by point.  Both
    round the phase to about |t| * eps, so beyond |t| = 1e3 the bound is the
    positivity tolerance."""
    tp = QubitPairState(theta1)
    curve = entanglement_curve(tp, sp, times).negativities
    for t, value in zip(times, curve):
        oracle = negativity(evolve_reduced(tp, sp, t)).value
        assert abs(value - oracle) <= (1e-12 if abs(t) <= 1e3 else POSITIVITY_TOL)
