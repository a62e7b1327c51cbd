import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spin_transfer.entanglement import (
    NegativityValue,
    XStateCoeffs,
    _check_x_form,
    _xstate_negativities,
    clamp_negativity,
    negativities,
    negativity,
    negativity_xstate,
    schmidt_angle_from_negativity,
    xstate_negativity_raw,
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


def xstate_stack(rng, n: int) -> np.ndarray:
    """X states with a Dirichlet diagonal (a, b, c, d) and a coherence f of
    any phase with |f| <= sqrt(ad); about a fifth sit on |f| = sqrt(ad)."""
    a, b, c, d = rng.dirichlet(np.ones(4), size=n).T
    reach = np.where(rng.random(n) < 0.2, 1.0, rng.uniform(0.0, 1.0, n))
    f = reach * np.sqrt(a * d) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    states = np.zeros((n, 4, 4), dtype=complex)
    for i, entry in enumerate((a, b, c, d)):
        states[:, i, i] = entry
    states[:, 0, 3], states[:, 3, 0] = f, f.conj()
    return states


X_DEFECT = "Hermiticity or X-pattern defect"
#: Hermitian, but every entry outside the X pattern it touches is non-zero.
OFF_PATTERN = np.eye(4, k=1) + np.eye(4, k=-1)


def with_coherence(m: np.ndarray, f: complex) -> np.ndarray:
    m = m.astype(complex)
    m[0, 3], m[3, 0] = f, np.conj(f)
    return m


class TestXStateStack:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_agrees_with_the_generic_stack(self, n, seed):
        states = xstate_stack(np.random.default_rng(seed), n)
        closed = _xstate_negativities(states)
        generic = negativities(states, (2, 2))
        assert closed.shape == (n,)
        assert np.abs(closed - generic).max() <= 1e-14

    def test_empty_stack(self):
        raws = _xstate_negativities(np.zeros((0, 4, 4), dtype=complex))
        assert raws.shape == (0,)

    @pytest.mark.parametrize(
        "index,defect,message",
        [
            (1, lambda m: m + 1e-6 * OFF_PATTERN, f"{X_DEFECT} 1.000e-06"),
            (2, lambda m: m + np.diag([0.0, 1e-6j, 0.0, 0.0]), f"{X_DEFECT} 2.000e-06"),
            (1, lambda m: 1.01 * m, "trace defect 1.000e-02"),
            (3, lambda m: np.diag([1.5, -0.5, 0.0, 0.0]), "eigenvalue -5.000e-01"),
            (2, lambda m: with_coherence(np.diag([0.5, 0, 0, 0.5]), 0.6j), "eigenvalue -1.000e-01"),
            (0, lambda m: np.where(np.eye(4) == 1, np.nan, m), f"{X_DEFECT} nan"),
            (2, lambda m: with_coherence(m, np.nan), f"{X_DEFECT} nan"),
        ],
        ids=["off-pattern", "complex-diagonal", "trace", "eigenvalue", "coherence", "nan", "nan-f"],
    )
    def test_each_check_names_the_first_bad_state(self, index, defect, message, rng):
        states = xstate_stack(rng, 5)
        states[index] = defect(states[index])
        states[4] = defect(states[4])  # a later state with the same defect is not named
        with pytest.raises(ValueError, match=f"not a density operator: state {index}: {message}"):
            _xstate_negativities(states)

    def test_checks_run_in_the_generic_order(self, rng):
        # the X-pattern defect of state 3 is found before the trace defect of
        # state 0, as negativities finds a Hermiticity defect first
        states = xstate_stack(rng, 4)
        states[0] *= 1.01
        states[3, 1, 2] = 1e-3
        with pytest.raises(ValueError, match=f"state 3: {X_DEFECT}"):
            _xstate_negativities(states)


#: What ``perturbed_xstate`` varies around a valid X state.
XSTATE_KINDS = ["valid", "boundary", "small-ad", "complex-diagonal", "trace", "nan"]


def perturbed_xstate(rng, kind: str) -> XStateCoeffs:
    """An X state with a Dirichlet diagonal and a coherence of any phase
    with |f| <= sqrt(ad), perturbed by ``kind``: |f| within 1e-12..1e-2
    (relative) of sqrt(ad) on either side, a and d within 1e-12..1e-4, an
    imaginary part within 1e-14..1e-8 on one diagonal entry, a diagonal
    off unit trace by 1e-11..1e-7, or a NaN in one entry."""
    a, b, c, d = rng.dirichlet(np.ones(4))
    reach = rng.uniform(0.0, 1.0)
    if kind == "small-ad":
        a, d = 10.0 ** rng.uniform(-12.0, -4.0, 2)
        b = rng.uniform(0.0, 1.0 - a - d)
        c = 1.0 - a - d - b
        reach = rng.uniform(0.0, 2.0)
    if kind == "boundary":
        reach = 1.0 + rng.choice([-1.0, 0.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -2.0)
    diag = [complex(x) for x in (a, b, c, d)]
    f = reach * np.sqrt(a * d) * np.exp(1j * rng.uniform(-np.pi, np.pi))
    if kind == "complex-diagonal":
        diag[rng.integers(4)] += 1j * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -8.0)
    if kind == "trace":
        diag[rng.integers(4)] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.0, -7.0)
    if kind == "nan":
        entries = diag + [f]
        entries[rng.integers(5)] = complex(np.nan, 0.0) if rng.random() < 0.5 else np.nan
        diag, f = entries[:4], entries[4]
    if kind in ("valid", "boundary", "small-ad"):
        diag = [x.real for x in diag]
    return XStateCoeffs(*diag, f)


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
        with pytest.raises(ValueError, match=r"state 0: trace defect 1\.000e\+00"):
            negativity_xstate(XStateCoeffs(0.5, 0.5, 0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="state 0: eigenvalue -1.500e-01"):
            negativity_xstate(XStateCoeffs(0.25, 0.25, 0.25, 0.25, 0.4))
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} nan"):
            negativity_xstate(XStateCoeffs(np.nan, 0.25, 0.25, 0.5, 0.1))
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} nan"):
            negativity_xstate(XStateCoeffs(0.25, 0.25, 0.25, 0.25, complex(np.nan, 0.0)))

    def test_small_corner_coherence_beyond_ad_is_refused(self):
        # |f|^2 = 9e-10 passes |f|^2 <= ad + 1e-9, but the least eigenvalue
        # (a + d)/2 - hypot((a - d)/2, |f|) is -2.9e-5: refused, as by the
        # curve scorer and by the generic negativity
        coeffs = XStateCoeffs(1e-6, 0.5 - 1e-6, 0.5 - 1e-6, 1e-6, 3e-5)
        message = "input is not a density operator: state 0: eigenvalue -2.900e-05"
        for score in (negativity_xstate, lambda x: negativity(x.to_operator())):
            with pytest.raises(ValueError) as error:
                score(coeffs)
            assert str(error.value) == message

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.sampled_from(XSTATE_KINDS), st.integers(0, 2**32 - 1))
    def test_one_state_follows_the_stack_rule(self, kind, seed):
        # refused exactly when the one-state stack is, with its message;
        # otherwise the scalar closed form, bit for bit
        coeffs = perturbed_xstate(np.random.default_rng(seed), kind)
        try:
            _xstate_negativities(coeffs.to_operator().matrix[None])
        except ValueError as stack_error:
            with pytest.raises(ValueError) as error:
                negativity_xstate(coeffs)
            assert str(error.value) == str(stack_error)
        else:
            raw = float(xstate_negativity_raw(coeffs.b.real, coeffs.c.real, abs(coeffs.f)))
            value = negativity_xstate(coeffs)
            assert np.float64(value.raw).tobytes() == np.float64(raw).tobytes()
            assert value == NegativityValue.from_raw(raw)

    def test_from_operator_roundtrip(self, rng):
        coeffs = random_xstate(rng)
        back = XStateCoeffs.from_operator(coeffs.to_operator())
        assert back == coeffs

    def test_from_operator_rejects_non_x(self, rng):
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT}"):
            XStateCoeffs.from_operator(rho)
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = np.nan
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} nan"):
            XStateCoeffs.from_operator(Operator(m, (2, 2)))
        m[0, 1], m[1, 1] = 0.0, complex(0.25, np.nan)
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} nan"):
            XStateCoeffs.from_operator(Operator(m, (2, 2)))

    def test_from_operator_rejects_a_non_hermitian_corner(self):
        # rho_30 must be conj(rho_03), within DEFAULT_ALGEBRAIC_TOL
        m = with_coherence(np.diag([0.25, 0.25, 0.25, 0.25]), 0.2j)
        m[3, 0] = 0.2j
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} 4.000e-01"):
            XStateCoeffs.from_operator(Operator(m, (2, 2)))
        m[3, 0] = -0.2j + 1e-11
        assert XStateCoeffs.from_operator(Operator(m, (2, 2))).f == 0.2j

    def test_from_operator_runs_the_stack_check(self, rng):
        # refused exactly when the first check of the stack scorer refuses
        states = xstate_stack(rng, 40)
        states[::4] += 1e-6 * OFF_PATTERN
        states[1::4, 3, 0] += 1e-6j
        states[2::4] *= 1.5  # trace and eigenvalue defects are not checked
        for m in states:
            try:
                _check_x_form(m[None])
            except ValueError as stack_error:
                with pytest.raises(ValueError) as error:
                    XStateCoeffs.from_operator(Operator(m, (2, 2)))
                assert str(error.value) == str(stack_error)
            else:
                coeffs = XStateCoeffs.from_operator(Operator(m, (2, 2)))
                assert coeffs.to_operator().matrix.tobytes() == m.tobytes()


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
