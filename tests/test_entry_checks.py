"""A state, a budget, an ``Operator``, an ``XStateCoeffs`` or a sample count
of the wrong kind is refused where it enters, by a ValueError naming the
parameter and what it got, not by an AttributeError from deeper down or an
empty result."""

import numpy as np
import pytest

from spin_transfer import (
    STATE_A,
    XStateCoeffs,
    closed_form_rho12_qutrit,
    evolve_reduced,
    invariants,
    maximize_E12_half_period,
    negativity,
    negativity_xstate,
    qutrit_closed_form_discrepancy,
)

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
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES)
def test_refused_by_name(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == message
