import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spin_transfer.entanglement import (
    _BLOCK,
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
from spin_transfer.qla import POSITIVITY_TOL, Operator
from spin_transfer.transfer import QubitPairState, closed_form_rho12_qubit
from spin_transfer.verify import random_xstate

from conftest import random_density, random_unitary


def schmidt_density(theta: float) -> Operator:
    return QubitPairState(theta).density()


class TestNegativity:
    def test_product_state_is_zero(self, rng):
        a, b = random_density(rng, (2,)), random_density(rng, (2,))
        rho = Operator(np.kron(a.matrix, b.matrix))
        assert negativity(rho).value == 0.0

    def test_bell_state_is_one(self):
        assert negativity(schmidt_density(np.pi / 4)).value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.7, np.pi / 4])
    def test_schmidt_state_value(self, theta):
        expected = abs(np.sin(2 * theta))
        assert negativity(schmidt_density(theta)).value == pytest.approx(expected, abs=1e-12)

    def test_local_unitary_invariance(self, rng):
        rho = schmidt_density(0.5)
        base = negativity(rho).value
        for _ in range(5):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = Operator(u @ rho.matrix @ u.conj().T)
            assert negativity(rotated).value == pytest.approx(base, abs=1e-9)

    def test_separable_mixtures_have_zero_negativity(self, rng):
        mix = np.zeros((4, 4), dtype=complex)
        weights = rng.dirichlet(np.ones(6))
        for w in weights:
            a = random_density(rng, (2,))
            b = random_density(rng, (2,))
            mix += w * np.kron(a.matrix, b.matrix)
        assert negativity(Operator(mix)).value <= 1e-9

    def test_rejects_non_density(self):
        bad = Operator(np.eye(4))  # trace 4
        with pytest.raises(ValueError, match="density"):
            negativity(bad)

    @pytest.mark.parametrize("d", [2, 6, 8])
    def test_refuses_a_matrix_that_is_not_4x4(self, d):
        # the cut is always the target pair's two qubits; a density operator
        # of any other size is refused by name before it is scored
        rho = random_density(np.random.default_rng(0), (d,))
        for score in (negativity, XStateCoeffs.from_operator):
            with pytest.raises(ValueError, match=rf"4x4 two-qubit state, got shape \({d}, {d}\)"):
                score(rho)


def density_stack(rng, n: int) -> np.ndarray:
    return np.array([random_density(rng, (2, 2)).matrix for _ in range(n)])


#: A stack of three blocks of ``negativities``, the last one short.
LONG = 2 * _BLOCK + 5


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    return m + 1e-8 * np.triu(np.ones_like(m), 1)


def trace_defect(m: np.ndarray) -> np.ndarray:
    return 1.01 * m


def eigenvalue_defect(m: np.ndarray) -> np.ndarray:
    return np.diag([1.5, -0.5, 0.0, 0.0])


def nan_diagonal(m: np.ndarray) -> np.ndarray:
    return np.where(np.eye(4) == 1, np.nan, m)


def long_density_stack(rng, n: int = LONG) -> np.ndarray:
    """Mixed states of every rank: G G^dagger / Tr, G complex Gaussian with
    one to four columns."""
    g = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    g *= (np.arange(4) < rng.integers(1, 5, n)[:, None])[:, None, :]
    m = g @ g.conj().swapaxes(1, 2)
    return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]


class TestNegativityStack:
    def test_one_state_case_is_bit_identical(self, rng):
        states = density_stack(rng, 100)
        # pure entangled states among the mixed ones
        states[::3] = [schmidt_density(t).matrix for t in rng.uniform(-2.0, 2.0, 34)]
        raws = negativities(states)
        singles = [negativity(Operator(m)).raw for m in states]
        assert raws.tobytes() == np.array(singles).tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_invariance(self, n, seed):
        # each state scores the same bits in a stack as alone, whatever the
        # stack's length, the state's rank and its position
        rng = np.random.default_rng(seed)
        states = []
        for _ in range(n):
            rank = rng.integers(1, 5)
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            m = g @ g.conj().T
            states.append(m / np.trace(m))
        stacked = negativities(np.array(states))
        alone = [negativities(m[None])[0] for m in states]
        assert stacked.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize(
        "index,defect,message",
        [
            (2, hermiticity_defect, "state 2: Hermiticity defect"),
            (1, trace_defect, "state 1: trace defect 1.000e-02"),
            (3, eigenvalue_defect, "state 3: eigenvalue -5.000e-01"),
            (0, nan_diagonal, "state 0: Hermiticity defect nan"),
        ],
    )
    def test_each_density_check_names_the_first_bad_state(self, index, defect, message, rng):
        states = density_stack(rng, 5)
        states[index] = defect(states[index])
        states[4] = defect(states[4])  # a later state with the same defect is not named
        with pytest.raises(ValueError, match=f"not a density operator: {message}"):
            negativities(states)

    @pytest.mark.parametrize(
        "diagonal,message",
        [
            ([0.25, 0.25, 0.25, 0.25 + 2 * POSITIVITY_TOL], "trace defect 2.000e-09"),
            ([0.25, 0.25, 0.25, 0.25 + POSITIVITY_TOL / 2], None),
            ([0.5, 0.5 + 2 * POSITIVITY_TOL, 0.0, -2 * POSITIVITY_TOL], "eigenvalue -2.000e-09"),
            ([0.5, 0.5 + POSITIVITY_TOL / 2, 0.0, -POSITIVITY_TOL / 2], None),
        ],
        ids=["trace-outside", "trace-inside", "eigenvalue-outside", "eigenvalue-inside"],
    )
    def test_trace_and_eigenvalue_bounds_sit_at_the_tolerance(self, diagonal, message):
        # the partial transpose of a diagonal state is the state itself
        states = np.diag(diagonal).astype(complex)[None]
        if message is None:
            assert negativities(states)[0] == -2.0 * min(min(diagonal), 0.0)
        else:
            with pytest.raises(ValueError, match=f"not a density operator: state 0: {message}$"):
                negativities(states)

    def test_a_long_stack_scores_each_state_as_alone(self, rng):
        states = long_density_stack(rng)
        alone = [negativities(m[None])[0] for m in states]
        assert negativities(states).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize(
        "defects,message",
        [
            (
                {1: eigenvalue_defect, 2: trace_defect, LONG - 1: hermiticity_defect},
                f"state {LONG - 1}: Hermiticity",
            ),
            (
                {_BLOCK: nan_diagonal, LONG - 1: hermiticity_defect},
                f"state {_BLOCK}: Hermiticity defect nan",
            ),
            (
                {1: eigenvalue_defect, _BLOCK + 3: trace_defect, LONG - 1: trace_defect},
                f"state {_BLOCK + 3}: trace",
            ),
            (
                {2 * _BLOCK: eigenvalue_defect, LONG - 1: eigenvalue_defect},
                f"state {2 * _BLOCK}: eigenvalue",
            ),
        ],
        ids=["hermiticity", "nan", "trace", "eigenvalue"],
    )
    def test_a_long_stack_checks_in_order_over_every_block(self, defects, message, rng):
        # a check of the whole stack runs before the next check of any block,
        # and the state is named by its index in the stack
        states = long_density_stack(rng)
        for index, defect in defects.items():
            states[index] = defect(states[index])
        with pytest.raises(ValueError, match=f"not a density operator: {message}"):
            negativities(states)

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

    def test_clamp_and_from_raw_are_one_rule(self):
        # from_raw is the scalar form: the same clamp, sign of zero and message
        for raw in [-0.0, 0.0, -5e-10, 0.3, 1.0, 1.0 + 5e-10]:
            clamped = clamp_negativity(np.array([raw]))[0]
            value = NegativityValue.from_raw(raw).value
            assert value == clamped and np.signbit(value) == np.signbit(clamped)
        for raw in [-2e-9, 1.0 + 2e-9, np.inf, -np.inf, np.nan]:
            with pytest.raises(ValueError) as array_error:
                clamp_negativity(np.array([raw]))
            with pytest.raises(ValueError) as scalar_error:
                NegativityValue.from_raw(raw)
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
        generic = negativities(states)
        assert closed.shape == (n,)
        assert np.abs(closed - generic).max() <= 1e-14

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_each_state_scores_as_negativity_xstate(self, n, seed):
        # negativity_xstate is the one-state case: the same raw bits as the
        # state gets in a stack of any length
        states = xstate_stack(np.random.default_rng(seed), n)
        stacked = _xstate_negativities(states)
        coeffs = [XStateCoeffs.from_operator(Operator(m)) for m in states]
        alone = [negativity_xstate(c).raw for c in coeffs]
        assert stacked.tobytes() == np.array(alone).tobytes()

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

    @pytest.mark.parametrize("imag", [1e-14, 1e-12, 4e-11])
    def test_a_diagonal_imaginary_part_within_tol_is_scored_from_the_real_parts(
        self, imag, rng
    ):
        states = xstate_stack(rng, 5)
        skewed = states + np.diag([0.0, imag * 1j, -imag * 1j, imag * 1j])
        assert np.array_equal(_xstate_negativities(skewed), _xstate_negativities(states))

    def test_a_long_stack_names_a_late_state_by_its_index(self, rng):
        states = xstate_stack(rng, LONG)
        states[0] *= 1.01
        states[_BLOCK + 7] += 1e-6 * OFF_PATTERN
        states[LONG - 1] += 1e-6 * OFF_PATTERN
        message = f"not a density operator: state {_BLOCK + 7}: {X_DEFECT} 1.000e-06"
        for check in (_check_x_form, _xstate_negativities):
            with pytest.raises(ValueError, match=message):
                check(states)

    def test_checks_run_in_the_generic_order(self, rng):
        # the X-pattern defect of state 3 is found before the trace defect of
        # state 0, as negativities finds a Hermiticity defect first
        states = xstate_stack(rng, 4)
        states[0] *= 1.01
        states[3, 1, 2] = 1e-3
        with pytest.raises(ValueError, match=f"state 3: {X_DEFECT}"):
            _xstate_negativities(states)


#: What ``perturbed_xstate`` varies around a valid X state.
XSTATE_KINDS = ["valid", "boundary", "small-ad", "trace", "nan"]


def perturbed_xstate(rng, kind: str) -> list:
    """The entries (a, b, c, d, f) of an X state with a Dirichlet diagonal
    and a coherence of any phase with |f| <= sqrt(ad), perturbed by
    ``kind``: |f| within 1e-12..1e-2 (relative) of sqrt(ad) on either side,
    a and d within 1e-12..1e-4, a diagonal off unit trace by 1e-11..1e-7, or
    a NaN in one entry."""
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
    if kind == "trace":
        diag[rng.integers(4)] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-11.0, -7.0)
    if kind == "nan":
        entries = diag + [f]
        entries[rng.integers(5)] = complex(np.nan, 0.0) if rng.random() < 0.5 else np.nan
        diag, f = entries[:4], entries[4]
    if kind in ("valid", "boundary", "small-ad"):
        diag = [x.real for x in diag]
    return [*diag, f]


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
        # a NaN never reaches the X-state checks: it is refused where it enters
        with pytest.raises(ValueError, match="^a must be finite and real, got nan$"):
            XStateCoeffs(np.nan, 0.25, 0.25, 0.5, 0.1)
        with pytest.raises(ValueError, match=r"^f must be a finite number, got \(nan\+0j\)$"):
            XStateCoeffs(0.25, 0.25, 0.25, 0.25, complex(np.nan, 0.0))

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
        # otherwise the scalar closed form, bit for bit.  A NaN entry is
        # refused where it enters, naming its field.
        entries = perturbed_xstate(np.random.default_rng(seed), kind)
        if kind == "nan":
            field = "abcdf"[next(i for i, x in enumerate(entries) if np.isnan(x))]
            rule = "a finite number" if field == "f" else "finite and real"
            with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
                XStateCoeffs(*entries)
            return
        coeffs = XStateCoeffs(*entries)
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

    @pytest.mark.parametrize("seed", range(8))
    def test_a_complex_diagonal_is_refused_where_it_enters(self, seed):
        # the X-state checks never see it: the field is named at construction
        rng = np.random.default_rng(seed)
        diag = list(rng.dirichlet(np.ones(4)).astype(complex))
        field = int(rng.integers(4))
        diag[field] += 1j * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -8.0)
        message = f"{'abcd'[field]} must be finite and real, got {diag[field]!r}"
        with pytest.raises(ValueError) as error:
            XStateCoeffs(*diag, 0.0)
        assert str(error.value) == message

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
            XStateCoeffs.from_operator(Operator(m))
        m[0, 1], m[1, 1] = 0.0, complex(0.25, np.nan)
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} nan"):
            XStateCoeffs.from_operator(Operator(m))

    def test_from_operator_rejects_a_non_hermitian_corner(self):
        # rho_30 must be conj(rho_03), within DEFAULT_ALGEBRAIC_TOL
        m = with_coherence(np.diag([0.25, 0.25, 0.25, 0.25]), 0.2j)
        m[3, 0] = 0.2j
        with pytest.raises(ValueError, match=f"state 0: {X_DEFECT} 4.000e-01"):
            XStateCoeffs.from_operator(Operator(m))
        m[3, 0] = -0.2j + 1e-11
        assert XStateCoeffs.from_operator(Operator(m)).f == 0.2j

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
                    XStateCoeffs.from_operator(Operator(m))
                assert str(error.value) == str(stack_error)
            else:
                coeffs = XStateCoeffs.from_operator(Operator(m))
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
