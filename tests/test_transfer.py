import numpy as np
import pytest

from spin_transfer.entanglement import XStateCoeffs, negativity
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
    closed_form_rho12_qubit,
    closed_form_rho12_qutrit,
    default_time_grid,
    entanglement_curve,
    evolve_reduced,
    initial_full_state,
    qutrit_closed_form_discrepancy,
)

from conftest import max_abs


def random_qutrit_state(rng) -> QutritPairState:
    return QutritPairState(*np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))


class TestStates:
    def test_qubit_pair_amplitudes(self):
        tp = QubitPairState(0.3)
        vec = tp.state_vector()
        assert vec[0] == pytest.approx(np.cos(0.3))
        assert vec[3] == pytest.approx(np.sin(0.3))
        assert tp.initial_negativity() == pytest.approx(abs(np.sin(0.6)))

    def test_qutrit_normalization_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            QutritPairState(1.0, 1.0, 0.0)

    def test_qutrit_normalized_constructor(self):
        sp = QutritPairState.normalized(1.0, 1.0, 0.0)
        assert sp.k0 == pytest.approx(np.sqrt(0.5))
        assert sp.k2 == 0.0

    def test_complex_amplitudes_canonicalized_with_warning(self):
        with pytest.warns(UserWarning, match="canonicalized"):
            sp = QutritPairState(-np.sqrt(0.5), np.sqrt(0.5), 0.0)
        assert sp.k0 == pytest.approx(np.sqrt(0.5))

    def test_named_states(self):
        assert QutritPairState.from_label("a") == STATE_A
        assert QutritPairState.from_label("B") == STATE_B
        assert QutritPairState.from_label("C") == STATE_C
        with pytest.raises(ValueError, match="unknown"):
            QutritPairState.from_label("D")

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
        with pytest.raises(ValueError, match="normalized"):
            QutritPairState(float("nan"), 0.0, 0.0)


class TestInitialFullState:
    def test_all_zero_angles_is_ground_projector(self):
        rho = initial_full_state(QubitPairState(0.0), QubitPairState(0.0))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert max_abs(rho.matrix, expected) < 1e-15

    def test_rank_one_trace_one(self, rng):
        rho = initial_full_state(QubitPairState(rng.uniform(0, np.pi / 2)), random_qutrit_state(rng))
        assert abs(rho.trace() - 1.0) < 1e-12
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_tp_marginal_negativity(self):
        rho = initial_full_state(QubitPairState(np.pi / 4), STATE_A)
        from spin_transfer.qla import partial_trace

        reduced = partial_trace(rho, (0, 1))
        assert negativity(reduced).value == pytest.approx(1.0, abs=1e-12)


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

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            TransferTrace(np.array([0.0, 0.0]), np.array([0.0, 0.0]), 0.1, "x")
        with pytest.raises(ValueError, match="equal length"):
            TransferTrace(np.array([0.0, 1.0]), np.array([0.0]), 0.1, "x")

    def test_default_grid(self):
        grid = default_time_grid(QUBIT_SOURCE_PERIOD)
        assert grid.size == 601
        assert grid[0] == 0.0 and grid[-1] == pytest.approx(QUBIT_SOURCE_PERIOD)
        with pytest.raises(ValueError):
            default_time_grid(1.0, points=1)
