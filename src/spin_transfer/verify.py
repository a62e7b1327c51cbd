"""Self-verification suite: oracle-equivalence and identity checks that the
CLI exposes as a machine-readable report.

Mandatory checks gate the exit status; the mid-revival comparison of the
transcribed qutrit coefficients is informational only (the transcription is
kept verbatim although it disagrees with the numeric pipeline there).
"""

from __future__ import annotations

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


def _check(name: str, tolerance: float, deviation: float) -> CheckResult:
    """A mandatory check: it passes when ``deviation`` is below ``tolerance``."""
    return CheckResult(name, tolerance, float(deviation), bool(deviation < tolerance), True)


def check_propagator_closed_form(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for source_dim in (2, 3):
        model = TransferModel.for_source_dim(source_dim)
        for t in rng.uniform(0.0, 4.0 * np.pi, 50):
            dev = np.abs(
                closed_form_propagator(model, t).matrix - pair_propagator(model, t).matrix
            ).max()
            worst = max(worst, float(dev))
    return _check("closed-form propagator vs eigendecomposition", DEFAULT_ALGEBRAIC_TOL, worst)


def check_half_period_identity() -> CheckResult:
    thetas = np.linspace(0.0, np.pi / 2, 20)
    worst = 0.0
    for t1 in thetas:
        for t2 in thetas:
            rho = evolve_reduced(QubitPairState(t1), QubitPairState(t2), np.pi)
            expected = abs(np.sin(2.0 * t2))
            worst = max(worst, abs(negativity(rho).value - expected))
    return _check("half-period transfer identity (qubit source)", IDENTITY_TOL, worst)


def check_periodicity(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
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
        worst = max(worst, abs(e_shift - e_t))
    return _check("negativity periodicity (qubit 2pi, qutrit 4pi/3)", IDENTITY_TOL, worst)


def random_xstate(rng: np.random.Generator) -> XStateCoeffs:
    diag = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    magnitude = np.sqrt(diag[0] * diag[3]) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return XStateCoeffs(
        diag[0], diag[1], diag[2], diag[3], magnitude * np.exp(1j * phase)
    )


def check_xstate_formula(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        coeffs = random_xstate(rng)
        fast = negativity_xstate(coeffs).value
        generic = negativity(coeffs.to_operator()).value
        worst = max(worst, abs(fast - generic))
    return _check("X-state formula vs generic negativity", DEFAULT_ALGEBRAIC_TOL, worst)


def check_qubit_closed_form() -> CheckResult:
    thetas = np.linspace(0.0, np.pi / 2, 10)
    times = np.linspace(0.0, 2.0 * np.pi, 10)
    worst = 0.0
    for t1 in thetas:
        for t2 in thetas:
            for t in times:
                analytic = closed_form_rho12_qubit(t1, t2, t).to_operator().matrix
                numeric = evolve_reduced(QubitPairState(t1), QubitPairState(t2), t).matrix
                worst = max(worst, float(np.abs(analytic - numeric).max()))
    return _check(
        "analytic qubit-source coefficients vs numeric pipeline", DEFAULT_ALGEBRAIC_TOL, worst
    )


def check_qutrit_closed_form_endpoints(rows: list[dict[str, float]]) -> CheckResult:
    endpoint_rows = [
        r
        for r in rows
        if min(abs(r["t"]), abs(r["t"] - QUTRIT_SOURCE_PERIOD)) < EXACT_TOL
    ]
    worst = max(r["max_deviation"] for r in endpoint_rows)
    return _check(
        "analytic qutrit-source coefficients at revival endpoints", IDENTITY_TOL, worst
    )


def check_qutrit_closed_form_midtimes(rows: list[dict[str, float]]) -> CheckResult:
    worst = max(r["max_deviation"] for r in rows)
    return CheckResult(
        "analytic qutrit-source coefficients between revivals (informational)",
        DEFAULT_ALGEBRAIC_TOL,
        float(worst),
        None,
        False,
    )


def check_distinguished_invariants() -> CheckResult:
    table = {
        "A": (STATE_A, (1.0 / 3.0, 1.0 / 9.0)),
        "B": (STATE_B, (1.0 / 2.0, 1.0 / 4.0)),
        "C": (STATE_C, (1.0, 1.0)),
    }
    worst = 0.0
    for state, (i1, i2) in table.values():
        point = invariants(state)
        worst = max(worst, abs(point.i1 - i1), abs(point.i2 - i2))
    return _check("distinguished qutrit state invariants", EXACT_TOL, worst)


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
