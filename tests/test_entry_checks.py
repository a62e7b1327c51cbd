"""A state, a budget, an ``Operator``, an ``XStateCoeffs``, a real number,
an array of reals or a count of the wrong kind is refused where it enters,
by a ValueError naming the parameter and what it got, not by an
AttributeError, TypeError or OverflowError from deeper down or an empty
result.  Every scalar real slot (an X-state diagonal entry too) follows the
rule of ``qla._real``, every array slot that of ``qla._reals`` and every
count slot that of ``qla._count``; the conversions a real or an array slot
accepts are listed once, in ``ACCEPTED``, and each gives the bits of the
float value."""

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
    "iterate_transfer-sp": (
        lambda: iterate_transfer(0.2, QubitPairState(0.3), 2),
        "sp must be of type QutritPairState, got QubitPairState",
    ),
    "iterate_transfer-sp-None": (
        lambda: iterate_transfer(0.2, None, 2),
        "sp must be of type QutritPairState, got NoneType",
    ),
    "entanglement_curve-scalar-grid": (
        lambda: entanglement_curve(TP, STATE_A, 1.0),
        "t_grid must be a 1-d array, got shape ()",
    ),
    "entanglement_curve-2-d-grid": (
        lambda: entanglement_curve(TP, STATE_A, [[0, 1]]),
        "t_grid must be a 1-d array, got shape (1, 2)",
    ),
}

#: Values that are not one finite number, refused by every scalar slot, by id.
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


def xstate_with(field, value):
    fields = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "f": 0.0}
    fields[field] = value
    return XStateCoeffs(**fields)


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
    **{f"XStateCoeffs-{f}": (f, functools.partial(xstate_with, f)) for f in "abcd"},
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

#: Every array slot by id: the name it is refused by and a call that puts a
#: value into it (a ``TransferTrace`` takes ``times`` first).
ARRAY_SLOTS = {
    "entanglement_curve-t_grid": ("t_grid", lambda v: entanglement_curve(TP, STATE_A, v)),
    "TransferTrace-times": ("times", lambda v: TransferTrace(v, [0.5, 0.25])),
    "TransferTrace-negativities": ("negativities", lambda v: TransferTrace([0.0, 1.0], v)),
    "InvariantPoint.from_probabilities-p": ("p", InvariantPoint.from_probabilities),
}
#: Values refused by every array slot as not an array of numbers, by id.
ARRAY_JUNK = {
    "None": None,
    "text": "x",
    "object": COEFFICIENT_JUNK["object"],
    "beyond-float": 10**400,
    "list-of-numeric-text": ["0.5"],
    "list-with-None": [1, None],
    "list-beyond-float": [10**400],
    "ragged": [[1, 2], [3]],
}
#: Arrays whose entry 1 is refused by every array slot, by id.
ARRAY_ENTRY_JUNK = {
    "list-of-complex": [0, 1 + 2j],
    "list-of-tiny-imaginary": [0, 1e-300j],
    "list-with-nan": [0, np.nan],
    "list-with-inf": [0, np.inf],
    "list-with--inf": [0, -np.inf],
}
CASES.update(
    {
        f"{slot}-{junk}": (
            functools.partial(call, value),
            f"{name} must hold real numbers, got {reprlib.repr(value)}",
        )
        for slot, (name, call) in ARRAY_SLOTS.items()
        for junk, value in ARRAY_JUNK.items()
    }
)
CASES.update(
    {
        f"{slot}-{junk}": (
            functools.partial(call, value),
            f"{name} at index 1 must be finite and real, got {value[1]!r}",
        )
        for slot, (name, call) in ARRAY_SLOTS.items()
        for junk, value in ARRAY_ENTRY_JUNK.items()
    }
)
CASES.update(
    {
        f"{slot}-{junk}": (
            functools.partial(call, value),
            f"{name} at index 0 must be finite and real, got {complex(value)!r}",
        )
        for slot, (name, call) in ARRAY_SLOTS.items()
        for junk, value in COMPLEX_JUNK.items()
    }
)
#: Arrays an array slot takes as the float array of the same values, by id:
#: 0 and 1 as bools and integers, 0.25 and 0.75 in single precision and as
#: complex numbers with zero imaginary part.
ACCEPTED_ARRAYS = {
    "bool": np.array([False, True]),
    "int": [0, 1],
    "np.int64": np.array([0, 1], dtype=np.int64),
    "np.float32": np.array([0.25, 0.75], dtype=np.float32),
    "complex-real": [0.25 + 0j, 0.75],
    "np.complex128-real": np.array([0.25, 0.75], dtype=np.complex128),
    "np.complex64-real": np.array([0.25, 0.75], dtype=np.complex64),
}
ACCEPTED.update(
    {
        f"{slot}-{kind}": (call, value)
        for slot, (_, call) in ARRAY_SLOTS.items()
        for kind, value in ACCEPTED_ARRAYS.items()
    }
)


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
    real = np.array(np.real(value), dtype=float)
    assert bits(call(value)) == bits(call(float(real) if real.ndim == 0 else real))


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


CASES.update(
    {
        f"XStateCoeffs-f-{name}": (
            functools.partial(xstate_with, "f", value),
            f"f must be a finite number, got {value!r}",
        )
        for name, value in REAL_JUNK.items()
        if name not in COMPLEX_JUNK
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
def test_xstate_coefficients_are_stored_with_the_same_bits(value):
    coeffs = XStateCoeffs(value, value, value, value, value)
    real, number = float(np.real(value)), complex(value)
    assert bits(coeffs) == bits(XStateCoeffs(real, real, real, real, number))
    assert all(type(getattr(coeffs, field)) is float for field in "abcd")
    assert type(coeffs.f) is complex


@pytest.mark.parametrize("f", [1 + 2j, np.complex128(0.5 - 0.5j), np.complex64(0.5 + 0.5j)])
def test_xstate_coherence_is_any_finite_number(f):
    coeffs = XStateCoeffs(0.25, 0.25, 0.25, 0.25, f)
    assert bits(coeffs.f) == bits(complex(f))


@pytest.mark.parametrize("shrink", [4, np.float32(2.5), np.int64(3)])
def test_search_budget_stores_shrink_as_a_float(shrink):
    budget = SearchBudget(shrink=shrink)
    assert type(budget.shrink) is float and budget.shrink == shrink


def test_nan_coefficient_is_refused_when_built():
    with pytest.raises(ValueError, match="^a must be finite and real, got nan$"):
        XStateCoeffs(np.nan, 0.25, 0.25, 0.25, 0.0)
    with pytest.raises(ValueError, match=r"^f must be a finite number, got \(nan\+0j\)$"):
        XStateCoeffs(0.25, 0.25, 0.25, 0.25, complex(np.nan, 0.0))
