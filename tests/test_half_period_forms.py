"""The half-period quadratic forms: the search that ranks with them against a
copy of the search that scored every grid point with the 36x36 kernel, the
forms against the kernel and the density pipeline, and the exact maximum
they certify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_transfer.entanglement import XStateCoeffs
from spin_transfer.qutritmax import (
    _SEED_ANGLES,
    FIG3_THETA_GRID,
    InvariantPoint,
    SearchBudget,
    _amplitudes_from_angles,
    _form_negativity,
    _half_period_forms,
    maximize_E12_half_period,
    negativity_at_half_period,
)
from spin_transfer.transfer import (
    QUTRIT_HALF_PERIOD,
    QubitPairState,
    QutritPairState,
    evolve_reduced,
)

SMALL_BUDGET = SearchBudget(coarse=30, refinements=2, shrink=5.0)
FIG4_GRID = tuple(float(t) for t in np.linspace(0.0, np.pi / 4, 65))
OFF_RANGE = (-3.0, -np.pi / 8, -0.05, 1.3, np.pi / 2, 3.0, 100.0)
SWEEP = tuple(dict.fromkeys(FIG3_THETA_GRID + FIG4_GRID + OFF_RANGE))


def full_batch_maximize(theta1: float, budget: SearchBudget):
    """The search as it was before the forms: every grid point scored with
    ``negativity_at_half_period`` in one batch, same selection rule."""
    lo = np.array([0.0, 0.0])
    hi = np.array([np.pi / 2, np.pi / 2])
    best_value, best_key, best_amps, best_angles = -1.0, None, None, None
    evaluations = 0
    for round_index in range(budget.refinements + 1):
        alpha_axis = np.linspace(lo[0], hi[0], budget.coarse)
        beta_axis = np.linspace(lo[1], hi[1], budget.coarse)
        alpha, beta = (g.ravel() for g in np.meshgrid(alpha_axis, beta_axis, indexing="ij"))
        if round_index == 0:
            seeds = np.array(_SEED_ANGLES)
            alpha = np.concatenate([alpha, seeds[:, 0]])
            beta = np.concatenate([beta, seeds[:, 1]])
        amps = _amplitudes_from_angles(alpha, beta)
        values = negativity_at_half_period(theta1, amps)
        evaluations += values.size
        top = values.max()
        candidates = np.flatnonzero(values == top)
        keys = [(amps[0, i] ** 2, amps[1, i] ** 2) for i in candidates]
        pick = candidates[min(range(len(candidates)), key=keys.__getitem__)]
        key = (amps[0, pick] ** 2, amps[1, pick] ** 2)
        if top > best_value or (top == best_value and (best_key is None or key < best_key)):
            best_value = float(top)
            best_key = key
            best_amps = amps[:, pick].copy()
            best_angles = np.array([alpha[pick], beta[pick]])
        window = (hi - lo) / budget.shrink
        lo = np.clip(best_angles - window / 2, 0.0, np.pi / 2)
        hi = np.clip(best_angles + window / 2, 0.0, np.pi / 2)
    return best_value, best_amps, evaluations


def assert_same_search(theta1: float, budget: SearchBudget) -> None:
    e_max, amps, evaluations = full_batch_maximize(theta1, budget)
    result = maximize_E12_half_period(theta1, budget)
    assert result.e_max == e_max
    assert np.array_equal(result.argmax_state.amplitudes(), QutritPairState(*amps).amplitudes())
    assert result.evaluations == evaluations
    assert result.argmax_invariants == InvariantPoint.from_probabilities(
        QutritPairState(*amps).amplitudes() ** 2
    )


class TestFormRankingIsExact:
    @pytest.mark.parametrize("theta1", SWEEP)
    def test_small_budget(self, theta1):
        assert_same_search(theta1, SMALL_BUDGET)

    @pytest.mark.parametrize("theta1", [0.0, np.pi / 8, FIG4_GRID[37]])
    def test_default_budget(self, theta1):
        assert_same_search(theta1, SearchBudget())


class TestForms:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        st.floats(-20.0, 20.0),
        st.lists(
            st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda k: sum(k) > 1e-3),
            min_size=1,
            max_size=8,
        ),
    )
    def test_forms_match_the_kernel(self, theta1, columns):
        amps = np.array(columns).T
        amps = amps / np.linalg.norm(amps, axis=0)
        b, c, f = _half_period_forms(theta1)
        assert np.abs(b - c).max() <= 1e-14
        assert max(np.abs(q - q.T).max() for q in (b, c, f)) <= 1e-15
        kernel = negativity_at_half_period(theta1, amps)
        assert np.abs(_form_negativity((b, c, f), amps) - kernel).max() <= 1e-14

    @pytest.mark.parametrize("theta1", [0.0, 0.3, np.pi / 4, -1.1])
    def test_forms_match_the_density_pipeline_by_polarization(self, theta1):
        def coeffs(k):
            k = np.asarray(k, dtype=float)
            state = QutritPairState(*(k / np.linalg.norm(k)))
            rho = evolve_reduced(QubitPairState(theta1), state, QUTRIT_HALF_PERIOD)
            x = XStateCoeffs.from_operator(rho)
            return np.array([x.b, x.c, x.f]) * (k @ k)

        eye = np.eye(3)
        diag = [coeffs(eye[i]) for i in range(3)]
        want = np.zeros((3, 3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                cross = diag[i] if i == j else (coeffs(eye[i] + eye[j]) - diag[i] - diag[j]) / 2
                want[:, i, j] = cross
        assert np.abs(np.array(_half_period_forms(theta1)) - want).max() <= 1e-12


def certificate(theta1: float) -> tuple[float, np.ndarray]:
    """Exact half-period maximum and its argmax amplitudes.

    With b = c, E = 2|f| - 2b, and for real k, 2|k^T F k| is the maximum
    over phi of k^T 2 Re(e^{i phi} F) k.  So E_max <= max over phi of the top
    eigenvalue of 2 Re(e^{i phi} F) - 2B, and the bound is attained when the
    top eigenvector lies in the positive orthant (up to sign).  The phase is
    found on a dense grid, then refined by zooming in six times.
    """
    b, _, f = _half_period_forms(theta1)

    def top_eigenvalue(phi: np.ndarray) -> np.ndarray:
        matrices = 2.0 * (np.exp(1j * phi)[:, None, None] * f).real - 2.0 * b
        return np.linalg.eigvalsh(matrices)[:, -1]

    phi = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    for _ in range(6):
        best = int(np.argmax(top_eigenvalue(phi)))
        step = phi[1] - phi[0]
        phi = np.linspace(phi[best] - step, phi[best] + step, 41)
    best = phi[int(np.argmax(top_eigenvalue(phi)))]
    values, vectors = np.linalg.eigh(2.0 * (np.exp(1j * best) * f).real - 2.0 * b)
    top = vectors[:, -1]
    top = top * np.sign(top[np.argmax(np.abs(top))])
    return float(values[-1]), top


class TestCertificate:
    @pytest.mark.parametrize("theta1", FIG3_THETA_GRID)
    def test_grid_maximum_attains_the_certificate(self, theta1):
        bound, argmax = certificate(theta1)
        assert argmax.min() >= 0.0  # attained by a physical source state
        assert float(negativity_at_half_period(theta1, argmax)) == pytest.approx(bound, abs=1e-12)
        e_max = maximize_E12_half_period(theta1).e_max
        assert e_max <= bound + 1e-12
        assert bound - e_max <= 1e-6

    @pytest.mark.parametrize("theta1", [0.0, np.pi / 8])
    def test_exact_maximum_stays_below_unity(self, theta1):
        assert certificate(theta1)[0] < 1.0 - 1e-3

    def test_exact_maximum_is_monotone_in_the_target_angle(self):
        thetas = np.linspace(0.0, np.pi / 4, 129)
        bounds = np.array([certificate(t)[0] for t in thetas])
        assert np.all(np.diff(bounds) > 0.0)
        assert bounds[-1] == pytest.approx(1.0, abs=1e-12)
