"""The half-period quadratic forms: the public kernel and the search that
score with them against a test-local copy of the 36x36 kernel they replaced
(and of the search that took cosines and sines at every grid point), the
forms against the density pipeline, and the exact maximum they certify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_transfer.entanglement import XStateCoeffs, xstate_negativity_raw
from spin_transfer.model import TransferModel, full_evolution, pair_propagator
from spin_transfer.qutritmax import (
    _SEED_ANGLES,
    FIG3_THETA_GRID,
    InvariantPoint,
    SearchBudget,
    _grid_amplitudes,
    _SEED_AMPLITUDES,
    _half_period_columns,
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
OFF_RANGE = (-3.0, -np.pi / 4, -np.pi / 8, -0.05, 1.25, 1.3, np.pi / 2, 3.0, 100.0)
#: Angles where round 0 of a 7:4:3 search ties a grid point with seed B on
#: the top value and on (k0^2, k1^2).
TIE_ANGLES = tuple(float(t) for t in np.linspace(-0.55, -0.1, 10))
SWEEP = tuple(dict.fromkeys(FIG3_THETA_GRID + FIG4_GRID + OFF_RANGE + TIE_ANGLES))
#: The default budget, SMALL_BUDGET, fig4's reference budget and a deep one.
ORACLE_BUDGETS = (
    SearchBudget(),
    SMALL_BUDGET,
    SearchBudget(coarse=24, refinements=2, shrink=5.0),
    SearchBudget(coarse=7, refinements=4, shrink=3.0),
)
#: Budgets on which the rank order's tie rules fire: the deep 7:4:3 (a
#: round-0 tie on TIE_ANGLES), equal tops across rounds (61:3:5, 3:1:1.5,
#: 151:2:5; at coarse 151 the grid midpoint lies 1 ulp from seed B's angle
#: with the same (k0^2, k1^2)), the smallest grid, and two budgets whose
#: result turns on the (k0^2, k1^2) order (151:2:5 at theta1 = 1.25, 4:3:2
#: at -pi/4).
RANK_BUDGETS = (
    SearchBudget(coarse=7, refinements=4, shrink=3.0),
    SearchBudget(coarse=61, refinements=3, shrink=5.0),
    SearchBudget(coarse=2, refinements=3, shrink=2.0),
    SearchBudget(coarse=3, refinements=1, shrink=1.5),
    SearchBudget(coarse=151, refinements=2, shrink=5.0),
    SearchBudget(coarse=4, refinements=3, shrink=2.0),
)
HALF_PERIOD_EVOLUTION = full_evolution(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD).matrix


def oracle_negativity(theta1: float, amplitudes: np.ndarray) -> np.ndarray:
    """The 36x36 kernel that the forms replaced, for (3, N) amplitude
    columns: the four-particle ``full_evolution`` applied to the batch of
    product states, then the X-state coefficients read off the evolved
    blocks."""
    amps = np.asarray(amplitudes, dtype=float)
    tp = np.array([np.cos(theta1), 0.0, 0.0, np.sin(theta1)], dtype=complex)
    n = amps.shape[1]
    source = np.zeros((9, n), dtype=complex)
    source[0], source[4], source[8] = amps[0], amps[1], amps[2]
    psi0 = (tp[:, None, None] * source[None, :, :]).reshape(36, n)
    psi = HALF_PERIOD_EVOLUTION @ psi0
    blocks = psi.reshape(4, 9, n)
    b = np.einsum("sn,sn->n", blocks[1], blocks[1].conj()).real
    c = np.einsum("sn,sn->n", blocks[2], blocks[2].conj()).real
    f = np.einsum("sn,sn->n", blocks[0], blocks[3].conj())
    return xstate_negativity_raw(b, c, np.abs(f))


def meshgrid_amplitudes(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Amplitude columns as the search built them before it took cosines and
    sines on the grid axes: trigonometry on every (alpha, beta) point."""
    return np.vstack(
        [np.cos(alpha), np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta)]
    )


def full_batch_maximize(theta1: float, budget: SearchBudget, score=negativity_at_half_period):
    """The search as it was before the forms ranked it: every grid point
    scored with ``score`` in one batch, same selection rule."""
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
        amps = meshgrid_amplitudes(alpha, beta)
        values = score(theta1, amps)
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGridAmplitudes:
    def test_match_the_meshgrid_amplitudes_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            lo, hi = np.sort(rng.uniform(0.0, np.pi / 2, (2, 2)), axis=0)
            n = int(rng.integers(2, 80))
            alpha_axis, beta_axis = np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n)
            alpha, beta = (g.ravel() for g in np.meshgrid(alpha_axis, beta_axis, indexing="ij"))
            new = _grid_amplitudes(alpha_axis, beta_axis)
            assert same_bits(new, meshgrid_amplitudes(alpha, beta))

    def test_first_round_with_seeds_and_the_boundary_grid(self):
        axis = np.linspace(0.0, np.pi / 2, SearchBudget().coarse)
        alpha, beta = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        seeds = np.array(_SEED_ANGLES)
        old = meshgrid_amplitudes(
            np.concatenate([alpha, seeds[:, 0]]), np.concatenate([beta, seeds[:, 1]])
        )
        assert same_bits(np.hstack([_grid_amplitudes(axis, axis), _SEED_AMPLITUDES]), old)
        axis = np.linspace(0.0, np.pi / 2, 1201)  # extract_lower_boundary's default grid
        alpha, beta = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
        assert same_bits(_grid_amplitudes(axis, axis), meshgrid_amplitudes(alpha, beta))


class TestFormRankingIsExact:
    @pytest.mark.parametrize("theta1", SWEEP)
    def test_small_budget(self, theta1):
        for budget in (SMALL_BUDGET,) + RANK_BUDGETS:
            assert_same_search(theta1, budget)

    @pytest.mark.parametrize("theta1", [0.0, np.pi / 8, FIG4_GRID[37]])
    def test_default_budget(self, theta1):
        assert_same_search(theta1, SearchBudget())


class TestOracleSearch:
    @pytest.mark.parametrize("theta1", FIG4_GRID)
    def test_search_matches_the_oracle_search(self, theta1):
        for budget in ORACLE_BUDGETS:
            e_max, amps, evaluations = full_batch_maximize(theta1, budget, oracle_negativity)
            result = maximize_E12_half_period(theta1, budget)
            assert abs(result.e_max - e_max) <= 1e-14
            assert f"{result.e_max:.12g}" == f"{e_max:.12g}"
            assert np.abs(result.argmax_state.amplitudes() - amps).max() <= 1e-14
            assert result.evaluations == evaluations


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
        assert np.abs(kernel - oracle_negativity(theta1, amps)).max() <= 1e-14

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

    With b = c, E = 2|f| - 2b.  At the half period F is real, and for
    theta1 in [0, pi/2] it has no negative entry, so f = k^T F k >= 0 on the
    non-negative amplitudes and E = k^T (2F - 2B) k there.  Hence E_max is
    at most the top eigenvalue of 2F - 2B, and equals it when the top
    eigenvector lies in the positive orthant (up to sign).
    """
    b, _, f = _half_period_forms(theta1)
    assert np.abs(f.imag).max() <= 1e-15
    values, vectors = np.linalg.eigh(2.0 * f.real - 2.0 * b)
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


def f1_literals(theta1: float) -> tuple[np.ndarray, np.ndarray]:
    """The rational half-period forms (B, F) that the exact expansion of the
    reduced state gives, with c = cos(theta1) and s = sin(theta1):
    b = (8/81)[(c k1 - s k0)^2 + (c k2 - s k1)^2] and
    f = (1/81)[72c^2 k0k1 + 8c^2 k1k2 + 9cs(k0^2 + k2^2) + cs k1^2
    + 64cs k0k2 + 8s^2 k0k1 + 72s^2 k1k2]."""
    c, s = np.cos(theta1), np.sin(theta1)
    v, w = np.array([-s, c, 0.0]), np.array([0.0, -s, c])
    b = 8.0 / 81.0 * (np.outer(v, v) + np.outer(w, w))
    f = np.array(
        [
            [9 * c * s, 36 * c**2 + 4 * s**2, 32 * c * s],
            [36 * c**2 + 4 * s**2, c * s, 4 * c**2 + 36 * s**2],
            [32 * c * s, 4 * c**2 + 36 * s**2, 9 * c * s],
        ]
    ) / 81.0
    return b, f


class TestRationalForms:
    @pytest.mark.parametrize("theta1", np.linspace(-3.0, 3.0, 121))
    def test_forms_are_the_f1_rationals(self, theta1):
        b, c, f = _half_period_forms(theta1)
        want_b, want_f = f1_literals(theta1)
        assert np.array_equal(c, b)
        assert np.abs(f.imag).max() <= 1e-15
        assert np.abs(b - want_b).max() <= 1e-15
        assert np.abs(f - want_f).max() <= 1e-15


def test_cached_columns_are_read_only():
    columns = _half_period_columns()
    assert columns is _half_period_columns()
    with pytest.raises(ValueError, match="read-only"):
        columns[0, 0, 0] = 0.0


def test_cached_columns_are_the_pair_leg_contraction():
    """The columns read off ``full_evolution`` are, bit for bit, the direct
    contraction of the pair propagator on both legs from target |AA> and
    source |ii>."""
    u = pair_propagator(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD).matrix
    u = u.reshape(2, 3, 2, 3)
    contraction = np.einsum("asAi,brAi->Aabsri", u, u).reshape(2, 36, 3)
    assert np.array_equal(_half_period_columns(), contraction)
