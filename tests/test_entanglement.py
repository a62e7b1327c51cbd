import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spin_transfer.entanglement import (
    NegativityValue,
    XStateCoeffs,
    clamp_negativity,
    negativities,
    negativity,
    negativity_xstate,
    schmidt_angle_from_negativity,
)
from spin_transfer.qla import Operator, kron
from spin_transfer.transfer import QubitPairState, QutritPairState, closed_form_rho12_qubit
from spin_transfer.verify import random_xstate

from conftest import random_density, random_unitary


def schmidt_density(theta: float) -> Operator:
    return QubitPairState(theta).density()


class TestNegativity:
    def test_product_state_is_zero(self, rng):
        rho = kron(random_density(rng, (2,)), random_density(rng, (2,)))
        assert negativity(rho).value == 0.0

    def test_bell_state_is_one(self):
        assert negativity(schmidt_density(np.pi / 4)).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.7, np.pi / 4])
    def test_schmidt_state_value(self, theta):
        expected = abs(np.sin(2 * theta))
        assert negativity(schmidt_density(theta)).value == pytest.approx(expected, abs=1e-12)

    def test_qutrit_pair_reporting_range(self):
        # for a d x d bipartition the raw value may exceed 1 (up to d - 1)
        vec = QutritPairState(*(np.ones(3) / np.sqrt(3))).state_vector()
        rho = Operator(np.outer(vec, vec.conj()), (3, 3))
        value = negativity(rho)
        assert value.raw == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_unequal_subsystems(self, dims):
        # cos(0.3)|00> + sin(0.3)|11>; cut as (3, 2) instead of (2, 3), or the
        # reverse, the same vector is a product state
        vec = np.zeros(6)
        vec[0], vec[np.ravel_multi_index((1, 1), dims)] = np.cos(0.3), np.sin(0.3)
        value = negativity(Operator(np.outer(vec, vec), dims)).value
        assert value == pytest.approx(np.sin(0.6), abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        rho = schmidt_density(0.5)
        base = negativity(rho).value
        for _ in range(5):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = Operator(u @ rho.matrix @ u.conj().T, (2, 2))
            assert negativity(rotated).value == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_separable_mixtures_have_zero_negativity(self, dims, rng):
        d = dims[0] * dims[1]
        mix = np.zeros((d, d), dtype=complex)
        weights = rng.dirichlet(np.ones(6))
        for w in weights:
            a = random_density(rng, (dims[0],))
            b = random_density(rng, (dims[1],))
            mix += w * np.kron(a.matrix, b.matrix)
        assert negativity(Operator(mix, dims)).value <= 1e-9

    def test_rejects_non_density(self):
        bad = Operator(np.eye(4), (2, 2))  # trace 4
        with pytest.raises(ValueError, match="density"):
            negativity(bad)

    def test_rejects_states_without_two_subsystems(self):
        for dims in [(4,), (2, 2, 2)]:
            rho = random_density(np.random.default_rng(0), dims)
            with pytest.raises(ValueError, match="two subsystems"):
                negativity(rho)


def density_stack(rng, dims, n: int) -> np.ndarray:
    return np.array([random_density(rng, dims).matrix for _ in range(n)])


class TestNegativityStack:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_one_state_case_is_bit_identical(self, dims, rng):
        states = density_stack(rng, dims, 100)
        if dims == (2, 2):  # pure entangled states among the mixed ones
            states[::3] = [schmidt_density(t).matrix for t in rng.uniform(-2.0, 2.0, 34)]
        raws = negativities(states, dims)
        singles = [negativity(Operator(m, dims)).raw for m in states]
        assert raws.tobytes() == np.array(singles).tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 3)]), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_invariance(self, dims, n, seed):
        # each state scores the same bits in a stack as alone, whatever the
        # stack's length, the state's rank and its position
        rng = np.random.default_rng(seed)
        d = dims[0] * dims[1]
        states = []
        for _ in range(n):
            rank = rng.integers(1, d + 1)
            g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
            m = g @ g.conj().T
            states.append(m / np.trace(m))
        stacked = negativities(np.array(states), dims)
        alone = [negativities(m[None], dims)[0] for m in states]
        assert stacked.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize(
        "index,defect,message",
        [
            (2, lambda m: m + 1e-8 * np.triu(np.ones_like(m), 1), "state 2: Hermiticity defect"),
            (1, lambda m: 1.01 * m, "state 1: trace defect 1.000e-02"),
            (3, lambda m: np.diag([1.5, -0.5, 0.0, 0.0]), "state 3: eigenvalue -5.000e-01"),
            (0, lambda m: np.where(np.eye(4) == 1, np.nan, m), "state 0: Hermiticity defect nan"),
        ],
    )
    def test_each_density_check_names_the_first_bad_state(self, index, defect, message, rng):
        states = density_stack(rng, (2, 2), 5)
        states[index] = defect(states[index])
        states[4] = defect(states[4])  # a later state with the same defect is not named
        with pytest.raises(ValueError, match=f"not a density operator: {message}"):
            negativities(states, (2, 2))

    def test_range_check_names_the_first_value_outside(self):
        cases = [([0.2, 1.1, -1.0], "1.1"), ([-2e-9, 0.5], "-2e-09"), ([0.0, np.nan], "nan")]
        for raw, bad in cases:
            with pytest.raises(ValueError, match=f"negativity {bad} outside"):
                clamp_negativity(np.array(raw))

    def test_clamp_keeps_the_scalar_rule(self):
        raw = np.array([-0.0, -5e-10, 0.3, 1.0 + 5e-10])
        clamped = clamp_negativity(raw)
        assert list(clamped) == [0.0, 0.0, 0.3, 1.0]
        assert np.signbit(clamped[0]) and not np.signbit(clamped[1])
        assert [min(max(r, 0.0), 1.0) for r in raw] == list(clamped)

    @pytest.mark.parametrize("upper", [1.0, 2.0])
    def test_clamp_and_from_raw_are_one_rule(self, upper):
        # from_raw is the scalar form: the same clamp, sign of zero and message
        for raw in [-0.0, 0.0, -5e-10, 0.3, upper, upper + 5e-10]:
            clamped = clamp_negativity(np.array([raw]), upper)[0]
            value = NegativityValue.from_raw(raw, upper).value
            assert value == clamped and np.signbit(value) == np.signbit(clamped)
        for raw in [-2e-9, upper + 2e-9, np.inf, -np.inf, np.nan]:
            with pytest.raises(ValueError) as array_error:
                clamp_negativity(np.array([raw]), upper)
            with pytest.raises(ValueError) as scalar_error:
                NegativityValue.from_raw(raw, upper)
            assert str(scalar_error.value) == str(array_error.value)


class TestNegativityValue:
    def test_small_negative_raw_is_clamped(self):
        v = NegativityValue.from_raw(-5e-10)
        assert v.value == 0.0 and v.raw == -5e-10

    def test_large_violation_raises(self):
        with pytest.raises(ValueError, match="outside"):
            NegativityValue.from_raw(-2e-9)
        with pytest.raises(ValueError, match="outside"):
            NegativityValue.from_raw(1.1)
        with pytest.raises(ValueError, match="outside"):
            NegativityValue.from_raw(float("nan"))

    def test_float_conversion(self):
        assert float(NegativityValue.from_raw(0.25)) == 0.25


class TestXStateFormula:
    def test_bell_in_x_form(self):
        coeffs = XStateCoeffs(0.5, 0.0, 0.0, 0.5, 0.5)
        assert negativity_xstate(coeffs).value == pytest.approx(1.0, abs=1e-12)

    def test_no_coherence_gives_zero(self):
        coeffs = XStateCoeffs(0.3, 0.2, 0.2, 0.3, 0.0)
        assert negativity_xstate(coeffs).value == 0.0

    def test_full_swap_peak(self):
        coeffs = closed_form_rho12_qubit(0.0, np.pi / 4, np.pi)
        assert coeffs.b == pytest.approx(0.0, abs=1e-15)
        assert abs(coeffs.f) == pytest.approx(0.5, abs=1e-12)
        assert negativity_xstate(coeffs).value == pytest.approx(1.0, abs=1e-9)

    def test_matches_generic_negativity(self, rng):
        worst = 0.0
        for _ in range(300):
            coeffs = random_xstate(rng)
            fast = negativity_xstate(coeffs).value
            generic = negativity(coeffs.to_operator()).value
            worst = max(worst, abs(fast - generic))
        assert worst < 1e-10

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            negativity_xstate(XStateCoeffs(0.5, 0.5, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="exceeds"):
            negativity_xstate(XStateCoeffs(0.25, 0.25, 0.25, 0.25, 0.4))
        with pytest.raises(ValueError, match="sums"):
            negativity_xstate(XStateCoeffs(np.nan, 0.25, 0.25, 0.5, 0.1))
        with pytest.raises(ValueError, match="exceeds"):
            negativity_xstate(XStateCoeffs(0.25, 0.25, 0.25, 0.25, complex(np.nan, 0.0)))

    def test_from_operator_roundtrip(self, rng):
        coeffs = random_xstate(rng)
        back = XStateCoeffs.from_operator(coeffs.to_operator())
        assert back == coeffs

    def test_from_operator_rejects_non_x(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError, match="X-shaped"):
            XStateCoeffs.from_operator(rho)
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match="X-shaped"):
            XStateCoeffs.from_operator(Operator(m, (2, 2)))
        m[0, 1], m[1, 1] = 0.0, complex(0.25, np.nan)
        with pytest.raises(ValueError, match="not real"):
            XStateCoeffs.from_operator(Operator(m, (2, 2)))


class TestSchmidtAngle:
    def test_endpoints(self):
        assert schmidt_angle_from_negativity(0.0) == 0.0
        assert schmidt_angle_from_negativity(1.0) == pytest.approx(np.pi / 4, abs=1e-15)

    def test_frozen_value(self):
        assert schmidt_angle_from_negativity(0.2) == pytest.approx(0.1006789603951654, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            schmidt_angle_from_negativity(1.2)
        with pytest.raises(ValueError):
            schmidt_angle_from_negativity(-0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_inverts_schmidt_negativity(self, value):
        theta = schmidt_angle_from_negativity(value)
        assert 0.0 <= theta <= np.pi / 4
        assert abs(np.sin(2 * theta)) == pytest.approx(value, abs=1e-12)
