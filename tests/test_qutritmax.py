import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spin_transfer.entanglement import negativity
from spin_transfer.qutritmax import (
    _BOUNDARY_BLOCK_ROWS,
    FIG3_THETA_GRID,
    I1_MIN,
    InvariantPoint,
    SearchBudget,
    _form_negativity,
    _grid_amplitudes,
    _half_period_forms,
    emax_is_nondecreasing,
    extract_lower_boundary,
    fit_I1_of_theta,
    frontier_line,
    invariants,
    maximize_E12_half_period,
    negativity_at_half_period,
    sample_physical_region,
)
from spin_transfer.transfer import (
    QUTRIT_HALF_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    evolve_reduced,
)

SMALL_BUDGET = SearchBudget(coarse=30, refinements=2, shrink=5.0)
#: The invariant band's slack and the dip ``emax_is_nondecreasing`` allows, as
#: stated: a literal, so that a test at either edge fails if either changes.
EDGE_TOL = 1e-9


@st.composite
def amplitude_columns(draw) -> tuple:
    """Three Python scalars of one type, as ``tolist`` gives a column back:
    a non-negative direction, with zeros of either sign, scaled to within
    2e-12 of unit norm, some entries then negated or made NaN or infinite, and
    the whole column cast to complex with zero or non-zero imaginary parts;
    or three bools."""
    kind = draw(st.sampled_from(["float", "complex", "bool"]))
    if kind == "bool":
        return draw(st.tuples(*[st.booleans()] * 3))
    direction = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
    for i in draw(st.sets(st.integers(0, 2), max_size=2)):
        direction[i] = draw(st.sampled_from([0.0, -0.0]))
    assume(direction.sum() > 1e-3)
    scale = np.sqrt(1.0 + draw(st.floats(-2e-12, 2e-12)))
    k = (direction / np.linalg.norm(direction) * scale).tolist()
    for i in draw(st.sets(st.integers(0, 2), max_size=2)):
        k[i] = draw(st.sampled_from([-k[i], np.nan, np.inf, -np.inf]))
    if kind == "complex":
        imag = st.sampled_from([0.0, -0.0, 1e-300, -0.25])
        k = [complex(v, draw(imag)) for v in k]
    return tuple(k)


class TestInvariants:
    def test_distinguished_states_table(self):
        assert invariants(STATE_A).i1 == pytest.approx(1 / 3, abs=1e-12)
        assert invariants(STATE_A).i2 == pytest.approx(1 / 9, abs=1e-12)
        assert invariants(STATE_B).i1 == pytest.approx(1 / 2, abs=1e-12)
        assert invariants(STATE_B).i2 == pytest.approx(1 / 4, abs=1e-12)
        assert invariants(STATE_C).i1 == pytest.approx(1.0, abs=1e-12)
        assert invariants(STATE_C).i2 == pytest.approx(1.0, abs=1e-12)

    def test_transformed_values(self):
        point = invariants(STATE_A)
        assert point.i1p == point.i1
        assert point.i2p == pytest.approx(point.i2 - 1.5 * point.i1, abs=1e-15)
        assert point.i2p == pytest.approx(-7 / 18, abs=1e-12)

    def test_permutation_invariance(self, rng):
        amps = np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))
        base = invariants(QutritPairState(*amps))
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            permuted = invariants(QutritPairState(*amps[list(perm)]))
            assert permuted.i1 == pytest.approx(base.i1, abs=1e-14)
            assert permuted.i2 == pytest.approx(base.i2, abs=1e-14)

    def test_validation_rejects_out_of_band(self):
        with pytest.raises(ValueError, match="I1"):
            InvariantPoint(0.2, 0.1)
        with pytest.raises(ValueError, match="I2"):
            InvariantPoint(0.5, 0.6)

    @pytest.mark.parametrize(
        "i1, i2, refused",
        [
            (I1_MIN - 2 * EDGE_TOL, I1_MIN**2, "I1"),
            (1.0 + 2 * EDGE_TOL, 1.0, "I1"),
            (0.5, 0.25 - 2 * EDGE_TOL, "I2"),
            (0.5, 0.5 + 2 * EDGE_TOL, "I2"),
        ],
        ids=["i1-low", "i1-high", "i2-low", "i2-high"],
    )
    def test_refused_just_outside_the_band(self, i1, i2, refused):
        with pytest.raises(ValueError, match=f"^{refused} = "):
            InvariantPoint(i1, i2)

    @pytest.mark.parametrize(
        "i1, i2",
        [
            (I1_MIN - EDGE_TOL / 2, (I1_MIN - EDGE_TOL / 2) ** 2),
            (1.0 + EDGE_TOL / 2, 1.0),
            (0.5, 0.25 - EDGE_TOL / 2),
            (0.5, 0.5 + EDGE_TOL / 2),
        ],
        ids=["i1-low", "i1-high", "i2-low", "i2-high"],
    )
    def test_accepted_just_inside_the_band(self, i1, i2):
        point = InvariantPoint(i1, i2)
        assert (point.i1, point.i2) == (i1, i2)


class TestSampleRegion:
    def test_vertices_come_first(self):
        samples = sample_physical_region(10)
        states = [s for s, _ in samples]
        assert states[0] == STATE_A and states[1] == STATE_B and states[2] == STATE_C

    def test_invariant_bounds_hold(self):
        for _, point in sample_physical_region(500, seed=5):
            assert 1 / 3 - 1e-12 <= point.i1 <= 1.0 + 1e-12
            assert point.i1**2 - 1e-9 <= point.i2 <= point.i1 + 1e-12

    def test_extremes(self):
        points = [p for _, p in sample_physical_region(500)]
        i2p = np.array([p.i2p for p in points])
        assert i2p.min() == pytest.approx(-0.5, abs=1e-12)  # states B and C
        assert i2p.max() <= -7 / 18 + 1e-9  # state A is the top corner

    def test_deterministic_given_seed(self):
        a = sample_physical_region(50, seed=9)
        b = sample_physical_region(50, seed=9)
        assert a == b

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sample_physical_region(0)

    def test_count_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^n must be an integer, got 2\.5$"):
            sample_physical_region(2.5)
        assert sample_physical_region(np.int64(5)) == sample_physical_region(5)

    def test_seed_is_an_integer(self):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            sample_physical_region(5, seed=2.5)
        assert sample_physical_region(5, seed=np.int64(7)) == sample_physical_region(5, seed=7)


class TestHalfPeriodEvaluator:
    def test_matches_generic_pipeline(self, rng):
        for _ in range(6):
            theta1 = rng.uniform(0, np.pi / 4)
            amps = np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))
            fast = float(negativity_at_half_period(theta1, amps))
            rho = evolve_reduced(QubitPairState(theta1), QutritPairState(*amps), QUTRIT_HALF_PERIOD)
            assert fast == pytest.approx(negativity(rho).value, abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 2), (3, 1), (1, 3), (2,), (4,), (), (2, 4)])
    def test_refuses_any_shape_but_one_column(self, shape):
        # each column of a (3, N) batch here is a valid source state
        message = rf"^amplitudes must have shape \(3,\), got {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=message):
            negativity_at_half_period(0.3, np.full(shape, 1 / np.sqrt(3)))

    @pytest.mark.parametrize(
        "column, message",
        [
            ((1.0, 1.0, 1.0), r"not normalized: sum of squares is 3\.0 \(tol 1e-12\)"),
            ((1.0, -1.0, 0.0), r"amplitude k1 = -1\.0 is not a non-negative real number"),
        ],
    )
    def test_rejects_unnormalized_or_signed_column(self, column, message):
        with pytest.raises(ValueError, match=message):
            negativity_at_half_period(0.3, np.array(column))
        with pytest.raises(ValueError, match=message):
            negativity_at_half_period(0.3, column)

    def test_rejects_complex_column(self):
        # sum |k|^2 = 1.25; the cast to float would score (0.6, 0.8, 0)
        column = np.array([0.6, 0.8, 0.5j])
        with pytest.raises(ValueError, match=r"^k2 must be finite and real, got 0\.5j$"):
            negativity_at_half_period(0.3, column)

    @pytest.mark.parametrize("state", [STATE_A, STATE_B, STATE_C])
    def test_complex_dtype_with_zero_imaginary_part_is_scored(self, state):
        want = negativity_at_half_period(0.3, state.amplitudes())
        assert type(want) is np.float64
        column = state.amplitudes()
        for column, theta1 in ((column.astype(complex), 0.3), (column, 0.3 + 0j)):
            assert negativity_at_half_period(theta1, column).tobytes() == want.tobytes()

    def test_pinned_columns_get_the_verdict_of_the_state(self):
        # the sum of squares is 1 - 1e-12 to within an ulp, and its rounding
        # depends on the order of the sum: QutritPairState accepts the first
        # column and refuses the second
        accepted = (0.2848737660748837, 0.5395209147238005, 0.7923156694000858)
        refused = (0.5230339381273594, 0.7563272615147972, 0.39294347310460964)
        state = QutritPairState(*accepted)
        value = negativity_at_half_period(0.3, np.array(accepted))
        rho = evolve_reduced(QubitPairState(0.3), state, QUTRIT_HALF_PERIOD)
        assert float(value) == pytest.approx(negativity(rho).value, abs=1e-12)
        message = r"^amplitudes not normalized: sum of squares is 0\.9999999999989999 "
        with pytest.raises(ValueError, match=message):
            QutritPairState(*refused)
        with pytest.raises(ValueError, match=message):
            negativity_at_half_period(0.3, np.array(refused))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.floats(-3.0, 3.0), amplitude_columns())
    def test_kernel_applies_the_state_rule(self, theta1, k):
        try:
            QutritPairState(*k)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                negativity_at_half_period(theta1, np.array(k))
            assert str(refused.value) == str(exc)
            return
        column = np.array([complex(v).real for v in k])
        want = _form_negativity(_half_period_forms(theta1), column[:, None])[0]
        got = negativity_at_half_period(theta1, np.array(k))
        assert type(got) is np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "theta1", [np.nan, np.inf, -np.inf, 0.3 + 0.5j, 1j, np.complex128(0.2 - 1e-300j)]
    )
    def test_rejects_non_finite_angle(self, theta1):
        with pytest.raises(ValueError, match="theta1 must be finite"):
            negativity_at_half_period(theta1, STATE_A.amplitudes())
        # the angle is reported before a bad column
        with pytest.raises(ValueError, match="theta1 must be finite"):
            negativity_at_half_period(theta1, np.array([-1.0, 0.0, 0.0]))


class TestMaximize:
    def test_maximally_entangled_target_reaches_unity_at_state_a(self):
        result = maximize_E12_half_period(np.pi / 4)
        assert result.e_max == pytest.approx(1.0, abs=1e-6)
        assert result.argmax_invariants.i1 == pytest.approx(1 / 3, abs=1e-3)
        assert result.argmax_invariants.i2 == pytest.approx(1 / 9, abs=1e-3)

    def test_product_target_stays_below_unity(self):
        result = maximize_E12_half_period(0.0, SMALL_BUDGET)
        assert result.e_max < 1.0 - 1e-3
        for probe in (STATE_A, STATE_B):
            assert result.e_max >= float(
                negativity_at_half_period(0.0, probe.amplitudes())
            ) - 1e-12

    def test_dominates_single_states_along_curve(self):
        thetas = np.linspace(0, np.pi / 4, 4)
        results = [maximize_E12_half_period(t, SMALL_BUDGET) for t in thetas]
        for theta1, result in zip(thetas, results):
            e_a = float(negativity_at_half_period(theta1, STATE_A.amplitudes()))
            assert result.e_max >= e_a - 1e-12
        assert results[-1].e_max == pytest.approx(1.0, abs=1e-6)
        assert isinstance(emax_is_nondecreasing(results), bool)

    @pytest.mark.parametrize("dip, monotone", [(2 * EDGE_TOL, False), (EDGE_TOL / 2, True)])
    def test_nondecreasing_allows_a_dip_of_the_negativity_resolution(self, dip, monotone):
        result = maximize_E12_half_period(0.3, SearchBudget(coarse=4, refinements=0))
        results = [dataclasses.replace(result, e_max=e) for e in (0.5, 0.5 - dip, 0.6)]
        assert emax_is_nondecreasing(results) is monotone

    def test_low_entanglement_target_reaches_state_a_level(self):
        theta1 = 0.5 * np.arcsin(0.2)
        result = maximize_E12_half_period(theta1, SMALL_BUDGET)
        assert result.e_max >= 0.62

    def test_reproducible_argmax(self):
        a = maximize_E12_half_period(0.3, SMALL_BUDGET)
        b = maximize_E12_half_period(0.3, SMALL_BUDGET)
        assert a.e_max == b.e_max
        assert a.argmax_state.amplitudes() == pytest.approx(
            b.argmax_state.amplitudes(), abs=1e-12
        )

    def test_diagnostics(self):
        result = maximize_E12_half_period(0.1, SMALL_BUDGET)
        grid = (SMALL_BUDGET.refinements + 1) * SMALL_BUDGET.coarse**2
        assert result.evaluations == grid + 3  # plus A, B, C seeds
        assert result.refinement_depth == SMALL_BUDGET.refinements

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(coarse=1)
        with pytest.raises(ValueError):
            SearchBudget(shrink=1.0)
        with pytest.raises(ValueError):
            SearchBudget(refinements=-1)

    @pytest.mark.parametrize("field, value", [("coarse", 2.5), ("refinements", 1.5)])
    def test_budget_counts_are_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
            SearchBudget(**{field: value})

    def test_budget_stores_numpy_counts_as_ints(self):
        budget = SearchBudget(np.int64(4), np.int32(1))
        assert budget == SearchBudget(4, 1)
        assert type(budget.coarse) is int and type(budget.refinements) is int

    @pytest.mark.parametrize("shrink", [float("nan"), float("inf")])
    def test_budget_rejects_non_finite_shrink(self, shrink):
        with pytest.raises(ValueError):
            SearchBudget(20, 2, shrink)

    @pytest.mark.parametrize("theta1", [float("nan"), float("inf"), 0.3 + 0.5j])
    def test_non_finite_angle_rejected(self, theta1):
        with pytest.raises(ValueError, match="finite"):
            maximize_E12_half_period(theta1, SMALL_BUDGET)

    def test_complex_angle_with_zero_imaginary_part_is_its_real_part(self):
        result = maximize_E12_half_period(0.3 + 0j, SMALL_BUDGET)
        assert result == maximize_E12_half_period(0.3, SMALL_BUDGET)
        assert type(result.theta1) is float


class TestFrontier:
    def test_line_matches_corner_states_exactly(self):
        assert frontier_line(1 / 3) == pytest.approx(-7 / 18, abs=1e-15)
        assert frontier_line(1 / 2) == pytest.approx(-1 / 2, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(ValueError, match="domain"):
            frontier_line(0.2)
        with pytest.raises(ValueError, match="domain"):
            frontier_line(0.7)

    def test_fit_endpoints(self):
        assert fit_I1_of_theta(0.0) == pytest.approx(0.5, abs=1e-15)
        assert fit_I1_of_theta(np.pi / 4) == pytest.approx(1 / 3, abs=1e-5)

    def test_fit_applies_the_target_angle_rule(self):
        for theta1 in (1j, 0.3 + 0.5j, np.nan, np.inf):
            with pytest.raises(ValueError, match="theta1 must be finite"):
                fit_I1_of_theta(theta1)
        assert fit_I1_of_theta(0.3 + 0j) == fit_I1_of_theta(0.3)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"grid_points": 1}, "grid_points"),
            ({"grid_points": 0}, "grid_points"),
            ({"bins": 0}, "bins"),
            ({"bins": -3}, "bins"),
        ],
    )
    def test_degenerate_sweep_is_named(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be at least"):
            extract_lower_boundary(**kwargs)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((2.5, 3), "grid_points"),
            ((3, 2.5), "bins"),
            ((np.float64(3), 2), "grid_points"),
            ((np.nan, 2), "grid_points"),
        ],
    )
    def test_sweep_counts_are_integers(self, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            extract_lower_boundary(*args)

    def test_sweep_takes_numpy_counts(self):
        got = extract_lower_boundary(np.int64(5), np.int32(3))
        want = extract_lower_boundary(5, 3)
        assert np.array_equal(got.i1p, want.i1p) and np.array_equal(got.i2p, want.i2p)

    def test_smallest_sweep(self):
        boundary = extract_lower_boundary(grid_points=2, bins=1)
        assert len(boundary.i1p) == 1

    def test_extracted_boundary_brackets_line(self):
        boundary = extract_lower_boundary(grid_points=601, bins=300)
        # exact at the endpoints, within 1% (of the value) in between
        assert boundary.i2p_at(1 / 3) == pytest.approx(-7 / 18, abs=2e-3)
        assert boundary.i2p_at(1 / 2) == pytest.approx(-1 / 2, abs=2e-3)
        mid = (1 / 3 + 1 / 2) / 2
        gap = abs(frontier_line(mid) - boundary.i2p_at(mid))
        assert gap / abs(boundary.i2p_at(mid)) <= 0.01

    @pytest.mark.parametrize("rows_past_blocks", [(0, 1), (1, 5), (1, 300), (2, 7), (9, 600)])
    def test_block_sweep_is_the_one_shot_sweep(self, rows_past_blocks):
        # grids of whole blocks plus a few rows, against the sweep that filled the whole grid
        blocks, bins = rows_past_blocks
        grid_points = blocks * _BOUNDARY_BLOCK_ROWS + 2
        axis = np.linspace(0.0, np.pi / 2, grid_points)
        p = _grid_amplitudes(axis, axis) ** 2
        i1 = (p**2).sum(axis=0)
        i2p = (p**3).sum(axis=0) - 1.5 * i1
        edges = np.linspace(I1_MIN, 1.0, bins + 1)
        bin_idx = np.clip(np.digitize(i1, edges) - 1, 0, bins - 1)
        order = np.lexsort((i2p, bin_idx))
        _, first = np.unique(bin_idx[order], return_index=True)
        chosen = order[first]
        sort = np.argsort(i1[chosen])
        got = extract_lower_boundary(grid_points, bins)
        assert got.i1p.tobytes() == i1[chosen][sort].tobytes()
        assert got.i2p.tobytes() == i2p[chosen][sort].tobytes()

    def test_boundary_is_a_lower_envelope(self):
        # no region sample may undercut the extracted boundary by more than
        # the extraction resolution
        boundary = extract_lower_boundary(grid_points=601, bins=300)
        for _, point in sample_physical_region(200, seed=11):
            assert point.i2p >= boundary.i2p_at(point.i1p) - 1e-4

    def test_boundary_resolution_stability(self):
        coarse = extract_lower_boundary(grid_points=601, bins=200)
        fine = extract_lower_boundary(grid_points=1201, bins=400)
        query = np.linspace(0.35, 0.95, 50)
        assert np.abs(coarse.i2p_at(query) - fine.i2p_at(query)).max() < 5e-4

    def test_nine_maxima_lie_near_the_boundary(self):
        # the marked per-angle maxima hug the lower frontier arc
        boundary = extract_lower_boundary(grid_points=801, bins=300)
        for theta1 in FIG3_THETA_GRID[::4]:
            result = maximize_E12_half_period(theta1, SMALL_BUDGET)
            point = result.argmax_invariants
            gap = abs(point.i2p - boundary.i2p_at(point.i1p))
            assert gap / abs(point.i2p) <= 0.012
