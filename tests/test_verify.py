"""``verify``'s checks fail on a NaN deviation wherever it falls."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from spin_transfer import verify
from spin_transfer.qla import Operator


def nan_operator(op: Operator) -> Operator:
    return Operator(np.full_like(op.matrix, np.nan))


def nan_negativity(value):
    return SimpleNamespace(value=float("nan"))


def nan_invariants(point):
    return SimpleNamespace(i1=point.i1, i2=float("nan"))


#: (check, name of the function ``verify`` calls, result with a NaN in it)
POISONED = [
    (verify.check_propagator_closed_form, "closed_form_propagator", nan_operator),
    (verify.check_half_period_identity, "negativity", nan_negativity),
    (verify.check_periodicity, "negativity", nan_negativity),
    (verify.check_xstate_formula, "negativity_xstate", nan_negativity),
    (verify.check_qubit_closed_form, "evolve_reduced", nan_operator),
    (verify.check_distinguished_invariants, "invariants", nan_invariants),
]


def poison_call(monkeypatch, name: str, to_nan, call: int) -> None:
    """Make call number ``call`` (from 0) of ``verify.<name>`` return NaN."""
    real = getattr(verify, name)
    counter = itertools.count()

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return to_nan(out) if next(counter) == call else out

    monkeypatch.setattr(verify, name, poisoned)


@pytest.mark.parametrize("check,name,to_nan", POISONED, ids=lambda p: getattr(p, "__name__", p))
def test_check_passes_without_the_nan(check, name, to_nan):
    result = check()
    assert result.passed is True
    assert result.max_deviation < result.tolerance


@pytest.mark.parametrize("call", [0, 1])
@pytest.mark.parametrize("check,name,to_nan", POISONED, ids=lambda p: getattr(p, "__name__", p))
def test_a_nan_deviation_fails_the_check(monkeypatch, check, name, to_nan, call):
    poison_call(monkeypatch, name, to_nan, call)
    result = check()
    assert np.isnan(result.max_deviation)
    assert result.passed is False


def qutrit_rows(deviations):
    period = verify.QUTRIT_SOURCE_PERIOD
    return [{"t": t, "max_deviation": d} for t, d in zip([0.0, period, 0.0], deviations)]


@pytest.mark.parametrize("position", [0, 1, 2])
def test_nan_qutrit_row_is_reported(position):
    deviations = [1e-15, 2e-15, 3e-15]
    assert verify.check_qutrit_closed_form_endpoints(qutrit_rows(deviations)).passed is True
    deviations[position] = float("nan")
    endpoints = verify.check_qutrit_closed_form_endpoints(qutrit_rows(deviations))
    assert np.isnan(endpoints.max_deviation) and endpoints.passed is False
    midtimes = verify.check_qutrit_closed_form_midtimes(qutrit_rows(deviations))
    assert np.isnan(midtimes.max_deviation) and midtimes.passed is None


def test_a_nan_fails_the_report(monkeypatch):
    poison_call(monkeypatch, "closed_form_propagator", nan_operator, 1)
    report = verify.run_checks()
    assert report["mandatory_passed"] is False
    (row,) = [c for c in report["checks"] if c["name"].startswith("closed-form propagator")]
    assert row["passed"] is False


def test_a_non_integer_seed_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
        verify.run_checks(2.5)
    assert verify.run_checks(np.int64(1)) == verify.run_checks(1)
