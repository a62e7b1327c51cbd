"""A state, a budget, an ``Operator``, an ``XStateCoeffs``, a real number or
a count of the wrong kind is refused where it enters, by a ValueError naming
the parameter and what it got, not by an AttributeError, TypeError or
OverflowError from deeper down or an empty result.  Every scalar real slot
follows the rule of ``qla._real`` and every count slot that of
``qla._count``; the conversions a real slot accepts are listed once, in
``ACCEPTED``, and each gives the bits of the real value."""

import dataclasses
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
    closed_form_rho12_qubit,
    closed_form_rho12_qutrit,
    entanglement_curve,
    evolve_reduced,
    extract_lower_boundary,
    fit_I1_of_theta,
    frontier_line,
    invariants,
    iterate_transfer,
    maximize_E12_half_period,
    negativity,
    negativity_at_half_period,
    negativity_xstate,
    qutrit_closed_form_discrepancy,
    sample_physical_region,
    schmidt_angle_from_negativity,
)
from spin_transfer.model import TransferModel, closed_form_propagator, pair_propagator

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


SMALL_BUDGET = SearchBudget(coarse=4, refinements=1)
QUTRIT_MODEL = TransferModel.for_source_dim(3)

#: Every scalar real slot by id: the name it is refused by and a call that
#: puts a value into it.  Each call returns something ``bits`` can read.
REAL_SLOTS = {
    "QubitPairState-theta": ("theta", QubitPairState),
    "evolve_reduced-t": ("t", lambda v: evolve_reduced(TP, STATE_A, v)),
    "pair_propagator-t": ("t", functools.partial(pair_propagator, QUTRIT_MODEL)),
    "closed_form_propagator-t": ("t", functools.partial(closed_form_propagator, QUTRIT_MODEL)),
    "closed_form_rho12_qubit-theta1": ("theta1", lambda v: closed_form_rho12_qubit(v, 0.2, 1.0)),
    "closed_form_rho12_qubit-theta2": ("theta2", lambda v: closed_form_rho12_qubit(0.3, v, 1.0)),
    "closed_form_rho12_qubit-t": ("t", lambda v: closed_form_rho12_qubit(0.3, 0.2, v)),
    "closed_form_rho12_qutrit-theta1": (
        "theta1",
        lambda v: closed_form_rho12_qutrit(v, STATE_A, 1.0),
    ),
    "closed_form_rho12_qutrit-t": ("t", lambda v: closed_form_rho12_qutrit(0.3, STATE_A, v)),
    "fit_I1_of_theta": ("theta1", fit_I1_of_theta),
    "maximize_E12_half_period": ("theta1", lambda v: maximize_E12_half_period(v, SMALL_BUDGET)),
    "negativity_at_half_period": ("theta1", lambda v: negativity_at_half_period(v, (1, 0, 0))),
    "schmidt_angle_from_negativity": ("negativity", schmidt_angle_from_negativity),
    "iterate_transfer-e0": ("negativity", lambda v: iterate_transfer(v, STATE_A, 2)),
    "iterate_transfer-mixed-e0": ("negativity", lambda v: iterate_transfer(v, STATE_A, 2, "mixed")),
    "QutritPairState-k0": ("k0", lambda v: QutritPairState(v, 0, 0)),
    "QutritPairState-k1": ("k1", lambda v: QutritPairState(0, v, 0)),
    "QutritPairState-k2": ("k2", lambda v: QutritPairState(0, 0, v)),
    "QutritPairState.normalized-k0": ("k0", lambda v: QutritPairState.normalized(v, 1, 1)),
    "QutritPairState.normalized-k1": ("k1", lambda v: QutritPairState.normalized(1, v, 1)),
    "QutritPairState.normalized-k2": ("k2", lambda v: QutritPairState.normalized(1, 1, v)),
    "InvariantPoint-i1": ("i1", lambda v: InvariantPoint(v, 0.3)),
    "InvariantPoint-i2": ("i2", lambda v: InvariantPoint(0.5, v)),
    "frontier_line": ("i1p", frontier_line),
    "SearchBudget-shrink": ("shrink", lambda v: SearchBudget(shrink=v)),
}
#: A fractional value and an integer (None: no integer) that a slot takes,
#: where they are not 0.4 and 1.
IN_RANGE = {
    "QutritPairState-k0": (1.0, 1),
    "QutritPairState-k1": (1.0, 1),
    "QutritPairState-k2": (1.0, 1),
    "InvariantPoint-i1": (0.5, None),
    "InvariantPoint-i2": (0.3, None),
    "frontier_line": (0.4, None),
    "SearchBudget-shrink": (2.5, 2),
}
#: Values refused by every scalar real slot, by id.
REAL_JUNK = (
    COEFFICIENT_JUNK
    | {"one-element-array": np.array([0.1])}
    | COMPLEX_JUNK
    | {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
)
CASES.update(
    {
        f"{slot}-{junk}": (
            functools.partial(call, value),
            f"{name} must be finite and real, got {value!r}",
        )
        for slot, (name, call) in REAL_SLOTS.items()
        for junk, value in REAL_JUNK.items()
    }
)


def accepted_conversions(fraction, whole):
    """The values a real slot takes as a real number, by id: True as 1, an
    integer, numpy scalars, a 0-d array and a complex with zero imaginary
    part.  A value outside the slot's range is left out."""
    values = {
        "np.float32": np.float32(fraction),
        "0-d-array": np.array(fraction),
        "complex-real": complex(fraction),
        "np.complex128-real": np.complex128(fraction),
        "np.complex64-real": np.complex64(fraction),
        "complex-0-d-array": np.array(complex(fraction)),
    }
    if whole is not None:
        values |= {"int": whole, "np.int64": np.int64(whole)}
    if whole == 1:
        values["bool"] = True
    return values


ACCEPTED = {
    f"{slot}-{kind}": (call, value)
    for slot, (_, call) in REAL_SLOTS.items()
    for kind, value in accepted_conversions(*IN_RANGE.get(slot, (0.4, 1))).items()
}


def bits(result):
    """``result`` as nested tuples of type names and bytes: two results are
    equal only if every number in them has the same type and bits."""
    if dataclasses.is_dataclass(result):
        fields = dataclasses.fields(result)
        return type(result).__name__, tuple(bits(getattr(result, f.name)) for f in fields)
    if isinstance(result, (list, tuple)):
        return tuple(bits(item) for item in result)
    if isinstance(result, str):
        return result
    array = np.asarray(result)
    return type(result).__name__, array.dtype.str, array.shape, array.tobytes()


@pytest.mark.parametrize("call, value", ACCEPTED.values(), ids=ACCEPTED)
def test_real_slot_takes_the_bits_of_the_real_value(call, value):
    assert bits(call(value)) == bits(call(float(value.real)))


#: Every count slot: (id, the name it is refused by, a call that puts a
#: value into it, its least value).
COUNT_SLOTS = (
    ("iterate_transfer-steps", "steps", lambda v: iterate_transfer(0.5, STATE_A, v), 1),
    (
        "qutrit_closed_form_discrepancy-n_samples",
        "n_samples",
        qutrit_closed_form_discrepancy,
        1,
    ),
    (
        "qutrit_closed_form_discrepancy-seed",
        "seed",
        lambda v: qutrit_closed_form_discrepancy(1, v),
        0,
    ),
    ("sample_physical_region-n", "n", sample_physical_region, 1),
    ("sample_physical_region-seed", "seed", lambda v: sample_physical_region(3, v), 0),
    ("SearchBudget-coarse", "coarse", lambda v: SearchBudget(coarse=v), 2),
    ("SearchBudget-refinements", "refinements", lambda v: SearchBudget(refinements=v), 0),
    ("extract_lower_boundary-grid_points", "grid_points", extract_lower_boundary, 2),
    ("extract_lower_boundary-bins", "bins", lambda v: extract_lower_boundary(2, v), 1),
)
CASES.update(
    {
        f"{slot}-{junk}": (
            functools.partial(call, value),
            f"{name} must be an integer, got {value!r}",
        )
        for slot, name, call, _ in COUNT_SLOTS
        for junk, value in {
            "fraction": 2.5,
            "numeric-text": "3",
            "None": None,
            "np.float64": np.float64(3),
        }.items()
    }
)
CASES.update(
    {
        f"{slot}-below-minimum": (
            functools.partial(call, least - 1),
            f"{name} must be at least {least}, got {least - 1}",
        )
        for slot, name, call, least in COUNT_SLOTS
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
