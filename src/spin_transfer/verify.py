"""Self-verification suite: oracle-equivalence and identity checks that the
CLI exposes as a machine-readable report.

Mandatory checks gate the exit status; the mid-revival comparison of the
transcribed qutrit coefficients is informational only.  Each check reports
its largest deviation, NaN when any deviation is NaN, so a NaN fails it.
The transcription is kept verbatim: its a, d and f match the numeric
pipeline, but its inner diagonal entry b (= c) is off between the revivals,
and the check reports that deviation.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .entanglement import XStateCoeffs, negativity, negativity_xstate
from .model import TransferModel, closed_form_propagator, pair_propagator
from .qla import DEFAULT_ALGEBRAIC_TOL
from .qutritmax import invariants
from .transfer import (
    QUBIT_SOURCE_PERIOD,
    QUTRIT_SOURCE_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QubitPairState,
    QutritPairState,
    closed_form_rho12_qubit,
    evolve_reduced,
    qutrit_closed_form_discrepancy,
)

IDENTITY_TOL = 1e-9
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    max_deviation: float
    passed: bool | None  # None marks informational checks
    mandatory: bool


def _worst(deviations: Iterable[float]) -> float:
    """The largest deviation, or NaN when any deviation is NaN (Python's
    ``max`` would drop a NaN that is not in first position)."""
    return float(np.max(list(deviations)))


def _check(name: str, tolerance: float, deviations: Iterable[float]) -> CheckResult:
    """A mandatory check: it passes when the largest of ``deviations`` is
    below ``tolerance``, so a NaN deviation fails it."""
    worst = _worst(deviations)
    return CheckResult(name, tolerance, worst, bool(worst < tolerance), True)


def check_propagator_closed_form(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    deviations = []
    for source_dim in (2, 3):
        model = TransferModel.for_source_dim(source_dim)
        for t in rng.uniform(0.0, 4.0 * np.pi, 50):
            closed = closed_form_propagator(model, t).matrix
            deviations.append(np.abs(closed - pair_propagator(model, t).matrix).max())
    return _check(
        "closed-form propagator vs eigendecomposition", DEFAULT_ALGEBRAIC_TOL, deviations
    )


def check_half_period_identity() -> CheckResult:
    thetas = np.linspace(0.0, np.pi / 2, 20)
    deviations = []
    for t1 in thetas:
        for t2 in thetas:
            rho = evolve_reduced(QubitPairState(t1), QubitPairState(t2), np.pi)
            expected = abs(np.sin(2.0 * t2))
            deviations.append(abs(negativity(rho).value - expected))
    return _check("half-period transfer identity (qubit source)", IDENTITY_TOL, deviations)


def check_periodicity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    deviations = []
    for i in range(100):
        tp = QubitPairState(rng.uniform(0.0, np.pi / 2))
        t = rng.uniform(0.0, 2.0 * np.pi)
        if i % 2 == 0:
            sp = QubitPairState(rng.uniform(0.0, np.pi / 2))
            period = QUBIT_SOURCE_PERIOD
        else:
            sp = QutritPairState(*np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))
            period = QUTRIT_SOURCE_PERIOD
        e_t = negativity(evolve_reduced(tp, sp, t)).value
        e_shift = negativity(evolve_reduced(tp, sp, t + period)).value
        deviations.append(abs(e_shift - e_t))
    return _check("negativity periodicity (qubit 2pi, qutrit 4pi/3)", IDENTITY_TOL, deviations)


def random_xstate(rng: np.random.Generator) -> XStateCoeffs:
    diag = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    magnitude = np.sqrt(diag[0] * diag[3]) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return XStateCoeffs(
        diag[0], diag[1], diag[2], diag[3], magnitude * np.exp(1j * phase)
    )


def check_xstate_formula(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    deviations = []
    for _ in range(1000):
        coeffs = random_xstate(rng)
        fast = negativity_xstate(coeffs).value
        generic = negativity(coeffs.to_operator()).value
        deviations.append(abs(fast - generic))
    return _check("X-state formula vs generic negativity", DEFAULT_ALGEBRAIC_TOL, deviations)


def check_qubit_closed_form() -> CheckResult:
    thetas = np.linspace(0.0, np.pi / 2, 10)
    times = np.linspace(0.0, 2.0 * np.pi, 10)
    deviations = []
    for t1 in thetas:
        for t2 in thetas:
            for t in times:
                analytic = closed_form_rho12_qubit(t1, t2, t).to_operator().matrix
                numeric = evolve_reduced(QubitPairState(t1), QubitPairState(t2), t).matrix
                deviations.append(np.abs(analytic - numeric).max())
    return _check(
        "analytic qubit-source coefficients vs numeric pipeline",
        DEFAULT_ALGEBRAIC_TOL,
        deviations,
    )


def check_qutrit_closed_form_endpoints(rows: list[dict[str, float]]) -> CheckResult:
    endpoint_rows = [
        r
        for r in rows
        if min(abs(r["t"]), abs(r["t"] - QUTRIT_SOURCE_PERIOD)) < EXACT_TOL
    ]
    return _check(
        "analytic qutrit-source coefficients at revival endpoints",
        IDENTITY_TOL,
        (r["max_deviation"] for r in endpoint_rows),
    )


def check_qutrit_closed_form_midtimes(rows: list[dict[str, float]]) -> CheckResult:
    return CheckResult(
        "analytic qutrit-source coefficients between revivals (informational)",
        DEFAULT_ALGEBRAIC_TOL,
        _worst(r["max_deviation"] for r in rows),
        None,
        False,
    )


def check_distinguished_invariants() -> CheckResult:
    table = {
        "A": (STATE_A, (1.0 / 3.0, 1.0 / 9.0)),
        "B": (STATE_B, (1.0 / 2.0, 1.0 / 4.0)),
        "C": (STATE_C, (1.0, 1.0)),
    }
    deviations = []
    for state, (i1, i2) in table.values():
        point = invariants(state)
        deviations += [abs(point.i1 - i1), abs(point.i2 - i2)]
    return _check("distinguished qutrit state invariants", EXACT_TOL, deviations)


def run_checks(seed: int = 0) -> dict:
    """Run every check and assemble a JSON-ready report."""
    qutrit_rows = qutrit_closed_form_discrepancy(n_samples=64, seed=seed)
    checks = [
        check_propagator_closed_form(seed),
        check_half_period_identity(),
        check_periodicity(seed),
        check_xstate_formula(seed),
        check_qubit_closed_form(),
        check_qutrit_closed_form_endpoints(qutrit_rows),
        check_distinguished_invariants(),
        check_qutrit_closed_form_midtimes(qutrit_rows),
    ]
    mandatory_passed = all(c.passed for c in checks if c.mandatory)
    return {
        "seed": seed,
        "checks": [asdict(c) for c in checks],
        "mandatory_passed": mandatory_passed,
    }
