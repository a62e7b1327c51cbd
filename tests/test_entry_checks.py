"""A state, a budget, an ``Operator``, an ``XStateCoeffs``, an amplitude or
a count of the wrong kind is refused where it enters, by a ValueError naming
the parameter and what it got, not by an AttributeError, TypeError or
OverflowError from deeper down or an empty result."""

import functools
import reprlib

import numpy as np
import pytest

from spin_transfer import (
    STATE_A,
    InvariantPoint,
    QubitPairState,
    QutritPairState,
    SearchBudget,
    TransferTrace,
    XStateCoeffs,
    closed_form_rho12_qutrit,
    entanglement_curve,
    evolve_reduced,
    extract_lower_boundary,
    frontier_line,
    invariants,
    iterate_transfer,
    maximize_E12_half_period,
    negativity,
    negativity_xstate,
    qutrit_closed_form_discrepancy,
)

TP = QubitPairState(0.3)

CASES = {
    "evolve_reduced-tp": (
        lambda: evolve_reduced(None, STATE_A, 1.0),
        "tp must be of type QubitPairState, got NoneType",
    ),
    "maximize_E12_half_period-budget": (
        lambda: maximize_E12_half_period(0.3, None),
        "budget must be of type SearchBudget, got NoneType",
    ),
    "negativity-None": (lambda: negativity(None), "rho must be of type Operator, got NoneType"),
    "negativity-array": (
        lambda: negativity(np.eye(4) / 4),
        "rho must be of type Operator, got ndarray",
    ),
    "XStateCoeffs.from_operator-rho": (
        lambda: XStateCoeffs.from_operator(None),
        "rho must be of type Operator, got NoneType",
    ),
    "negativity_xstate-coeffs": (
        lambda: negativity_xstate(None),
        "coeffs must be of type XStateCoeffs, got NoneType",
    ),
    "invariants-state": (
        lambda: invariants(None),
        "state must be of type QutritPairState, got NoneType",
    ),
    "closed_form_rho12_qutrit-sp": (
        lambda: closed_form_rho12_qutrit(0.3, None, 1.0),
        "sp must be of type QutritPairState, got NoneType",
    ),
    "qutrit_closed_form_discrepancy-negative": (
        lambda: qutrit_closed_form_discrepancy(-1),
        "n_samples must be at least 1, got -1",
    ),
    "qutrit_closed_form_discrepancy-zero": (
        lambda: qutrit_closed_form_discrepancy(0),
        "n_samples must be at least 1, got 0",
    ),
    "QutritPairState-None": (
        lambda: QutritPairState(None, 0, 0),
        "amplitude k0 = None is not a non-negative real number",
    ),
    "QutritPairState-beyond-float": (
        lambda: QutritPairState(10**400, 0, 0),
        f"amplitude k0 = {10**400} is not a non-negative real number",
    ),
    "extract_lower_boundary-text": (
        lambda: extract_lower_boundary("x"),
        "grid_points must be an integer, got 'x'",
    ),
    "SearchBudget-shrink-text": (
        lambda: SearchBudget(shrink="0.3"),
        "shrink must be a real number, got '0.3'",
    ),
    "SearchBudget-shrink-beyond-float": (
        lambda: SearchBudget(shrink=10**400),
        f"shrink must be a real number, got {10**400}",
    ),
    "frontier_line-None": (lambda: frontier_line(None), "i1p must be a real number, got None"),
    "frontier_line-text": (lambda: frontier_line("x"), "i1p must be a real number, got 'x'"),
    "InvariantPoint-i1": (
        lambda: InvariantPoint(None, 0.5),
        "i1 must be a real number, got None",
    ),
    "InvariantPoint-i2": (
        lambda: InvariantPoint(0.5, None),
        "i2 must be a real number, got None",
    ),
    "entanglement_curve-None": (
        lambda: entanglement_curve(TP, STATE_A, None),
        "t_grid must hold real numbers, got None",
    ),
    "entanglement_curve-text": (
        lambda: entanglement_curve(TP, STATE_A, ["x"]),
        "t_grid must hold real numbers, got ['x']",
    ),
    "iterate_transfer-list-mode": (
        lambda: iterate_transfer(0.5, STATE_A, 2, ["mixed"]),
        "unknown mode ['mixed']; expected 'pure-reset' or 'mixed-continuation'",
    ),
}

#: Values refused in every field of ``XStateCoeffs``, by id; a diagonal
#: field also refuses ``COMPLEX_JUNK``.
COEFFICIENT_JUNK = {
    "None": None,
    "text": "x",
    "numeric-text": "0.3",
    "list": [0.1],
    "object": object(),
    "beyond-float": 10**400,
    "vector": np.array([0.1, 0.2]),
}
COMPLEX_JUNK = {"complex": 1 + 2j, "np.complex128": np.complex128(0.5 + 0.5j)}


#: A range-checked slot refuses a complex even when its real part is in
#: range (numpy orders an ``np.complex128`` by its real part).
CASES.update(
    {
        f"{slot}-{name}": (
            functools.partial(call, value),
            f"{field} must be a real number, got {value!r}",
        )
        for slot, field, call, real in (
            ("frontier_line", "i1p", frontier_line, 0.4),
            ("InvariantPoint-i1", "i1", lambda v: InvariantPoint(v, 0.3), 0.5),
            ("InvariantPoint-i2", "i2", lambda v: InvariantPoint(0.5, v), 0.3),
            ("SearchBudget-shrink", "shrink", lambda v: SearchBudget(shrink=v), 5.0),
        )
        for name, value in (
            COMPLEX_JUNK
            | {"complex-real": complex(real), "np.complex128-real": np.complex128(real)}
        ).items()
    }
)
#: Values refused as ``entanglement_curve``'s target state, by id.
STATE_JUNK = COEFFICIENT_JUNK | COMPLEX_JUNK | {"angle": 0.3, "qutrit-state": STATE_A}
CASES.update(
    {
        f"entanglement_curve-tp-{name}": (
            functools.partial(entanglement_curve, value, STATE_A, [0.0, 1.0]),
            f"tp must be of type QubitPairState, got {type(value).__name__}",
        )
        for name, value in STATE_JUNK.items()
    }
)


def trace_with(field, value):
    fields = {"times": [0.0], "negativities": [0.5]}
    fields[field] = value
    return TransferTrace(**fields)


CASES.update(
    {
        f"TransferTrace-{field}-{name}": (
            functools.partial(trace_with, field, value),
            f"{field} must hold real numbers, got {reprlib.repr(value)}",
        )
        for field in ("times", "negativities")
        for name, value in (
            COMPLEX_JUNK
            | {
                "np.complex128-real": np.complex128(0.5),
                "object": COEFFICIENT_JUNK["object"],
                "beyond-float": 10**400,
                "text": "x",
                "list-of-complex": [0.0, 1 + 2j],
                "list-of-numeric-text": ["0.5"],
                "list-beyond-float": [10**400],
            }
        ).items()
    }
)


def xstate_with(field, value):
    fields = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "f": 0.0}
    fields[field] = value
    return XStateCoeffs(**fields)


CASES.update(
    {
        f"XStateCoeffs-{field}-{name}": (
            functools.partial(xstate_with, field, value),
            f"{field} must be {'a complex' if field == 'f' else 'a real'} number, got {value!r}",
        )
        for field in "abcdf"
        for name, value in (COEFFICIENT_JUNK | ({} if field == "f" else COMPLEX_JUNK)).items()
    }
)


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_refused_by_name(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "value",
    [0.25, 1, True, np.float32(0.25), np.float64(0.25), 0.25 + 0j, np.complex128(0.25)],
    ids=["float", "int", "bool", "float32", "float64", "complex-real", "np.complex128-real"],
)
def test_xstate_coefficients_are_stored_as_given(value):
    coeffs = XStateCoeffs(value, value, value, value, value)
    assert all(getattr(coeffs, field) is value for field in "abcdf")
    assert XStateCoeffs(0.25, 0.25, 0.25, 0.25, 1 + 2j).f == 1 + 2j


@pytest.mark.parametrize("shrink", [4, np.float32(2.5), np.int64(3)])
def test_search_budget_stores_shrink_as_a_float(shrink):
    budget = SearchBudget(shrink=shrink)
    assert type(budget.shrink) is float and budget.shrink == shrink


def test_nan_coefficient_is_refused_when_scored():
    coeffs = XStateCoeffs(np.nan, 0.25, 0.25, 0.25, 0.0)
    with pytest.raises(ValueError, match="not a density operator: state 0"):
        negativity_xstate(coeffs)
