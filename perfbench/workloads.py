"""Seeded inputs, timed operations and their independent checks.

Each workload is an endless, seed-determined stream of ``Op`` values.  An op
is one closed-loop request: ``execute`` is the timed call into the library,
``observe`` turns its result into plain comparable values (outside the timed
region), and ``check`` compares those values with a route that does not
share the timed code path.  Library functions are always looked up through
their module at call time, so the tracer's wrappers are picked up.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from spin_transfer import cli, entanglement, protocol, qutritmax, transfer

#: Tolerances of the acceptance suite (tests/test_acceptance.py).
ALGEBRAIC_TOL = 1e-10
IDENTITY_TOL = 1e-9

#: Points per curve.  Odd, so the qutrit grid over one 4pi/3 period has the
#: half period 2pi/3 as its middle point.
CURVE_POINTS = 61
STAIRCASE_STEPS = 8

WORKLOADS = ("sweep", "search", "staircase")

#: Op kinds in the order they repeat.  Two kinds of different cost in a 1:1
#: mix put the median on the gap between the two latency modes, where it
#: jumps from run to run; a 1:2 mix keeps the median inside the majority mode
#: and the 90th percentile inside the minority mode.
_CYCLES = {
    "sweep": ("fig2", "qutrit_curve", "qutrit_curve"),
    "search": ("search",),
    "staircase": ("pure_reset", "mixed", "mixed"),
}


@dataclass(frozen=True)
class Op:
    """One request: its index in the stream, its kind and its inputs."""

    index: int
    kind: str
    theta1: float = 0.0
    theta2: float = 0.0
    k: tuple[float, float, float] = (0.0, 0.0, 0.0)
    e0: float = 0.0
    source: str = ""


def _qutrit_amplitudes(rng: np.random.Generator) -> tuple[float, float, float]:
    return tuple(float(a) for a in np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))


def op_stream(workload: str, seed: int) -> Iterator[Op]:
    """Endless stream of ops; the same (workload, seed) gives the same ops."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    cycle = _CYCLES[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    for i in count():
        kind = cycle[i % len(cycle)]
        if kind == "fig2":
            yield Op(i, kind, theta1=rng.uniform(0, np.pi / 2), theta2=rng.uniform(0, np.pi / 2))
        elif kind == "qutrit_curve":
            yield Op(i, kind, theta1=rng.uniform(0, np.pi / 2), k=_qutrit_amplitudes(rng))
        elif kind == "search":
            # half-open range: at theta1 = pi/4 the target is already maximal
            yield Op(i, kind, theta1=rng.uniform(0, np.pi / 4))
        else:
            e0 = rng.uniform(0.01, 0.99)
            source = ("A", "B", "random")[rng.integers(3)]
            amps = _qutrit_amplitudes(rng)
            k = amps if source == "random" else tuple(
                transfer.QutritPairState.from_label(source).amplitudes()
            )
            yield Op(i, kind, e0=e0, k=k, source=source)


def _qutrit(op: Op) -> transfer.QutritPairState:
    return transfer.QutritPairState(*op.k)


def _fig2_grid() -> np.ndarray:
    return np.linspace(0.0, transfer.QUBIT_SOURCE_PERIOD, CURVE_POINTS)


def _qutrit_grid() -> np.ndarray:
    return np.linspace(0.0, transfer.QUTRIT_SOURCE_PERIOD, CURVE_POINTS)


def setup(workload: str) -> None:
    """The lazy set-up a workload triggers: the model builds, and for
    ``search`` the cached half-period propagator."""
    if workload == "sweep":
        tp = transfer.QubitPairState(0.0)
        transfer.evolve_reduced(tp, transfer.QubitPairState(0.0), 0.0)
        transfer.evolve_reduced(tp, transfer.STATE_A, 0.0)
    elif workload == "search":
        qutritmax.negativity_at_half_period(0.0, transfer.STATE_A.amplitudes())
    elif workload == "staircase":
        for mode in (protocol.MODE_PURE_RESET, protocol.MODE_MIXED):
            protocol.iterate_transfer(0.5, transfer.STATE_A, 1, mode)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def execute(op: Op, workdir: Path) -> Any:
    """The timed part of an op."""
    if op.kind == "fig2":
        argv = [
            "fig2",
            "--theta1", repr(op.theta1),
            "--theta2", repr(op.theta2),
            "--t-points", str(CURVE_POINTS),
            "--out", str(workdir / "fig2.csv"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    if op.kind == "qutrit_curve":
        return transfer.entanglement_curve(
            transfer.QubitPairState(op.theta1), _qutrit(op), _qutrit_grid()
        )
    if op.kind == "search":
        result = qutritmax.maximize_E12_half_period(op.theta1, qutritmax.SearchBudget())
        e_a = qutritmax.negativity_at_half_period(op.theta1, transfer.STATE_A.amplitudes())
        e_b = qutritmax.negativity_at_half_period(op.theta1, transfer.STATE_B.amplitudes())
        return result, e_a, e_b
    mode = protocol.MODE_PURE_RESET if op.kind == "pure_reset" else protocol.MODE_MIXED
    return protocol.iterate_transfer(op.e0, _qutrit(op), STAIRCASE_STEPS, mode)


def observe(op: Op, raw: Any, workdir: Path) -> dict[str, Any]:
    """Plain values of an op's output, including ``evals`` (scored points or
    amplitude columns)."""
    if op.kind == "fig2":
        text = (workdir / "fig2.csv").read_text(encoding="utf-8")
        rows = [line.split(",") for line in text.splitlines()]
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        return {"exit": raw, "header": rows[0], "table": table, "evals": len(table)}
    if op.kind == "qutrit_curve":
        return {"values": np.array(raw.negativities), "evals": raw.negativities.size}
    if op.kind == "search":
        result, e_a, e_b = raw
        return {
            "e_max": result.e_max,
            "argmax": result.argmax_state.amplitudes(),
            "e_a": float(e_a),
            "e_b": float(e_b),
            "evals": result.evaluations + 2,
        }
    pairs = np.array([(r.step, r.negativity_before, r.negativity_after) for r in raw])
    return {"records": pairs, "evals": len(raw)}


def _oracle_half_period(theta1: float, sp: transfer.QutritPairState) -> float:
    rho = transfer.evolve_reduced(transfer.QubitPairState(theta1), sp, transfer.QUTRIT_HALF_PERIOD)
    return entanglement.negativity(rho).value


def _off(label: str, got: float, want: float, tol: float) -> list[str]:
    got, want = float(got), float(want)
    dev = abs(got - want)
    if dev <= tol:
        return []
    return [f"{label}: got {got!r}, want {want!r} (|dev| {dev:.2e} > {tol:.0e})"]


def check(op: Op, out: dict[str, Any]) -> list[str]:
    """Problems found by comparing the op's output with an independent
    route; empty when the op is correct."""
    if op.kind == "fig2":
        return _check_fig2(op, out)
    if op.kind == "qutrit_curve":
        return _check_qutrit_curve(op, out)
    if op.kind == "search":
        return _check_search(op, out)
    return _check_staircase(op, out)


def _check_fig2(op: Op, out: dict[str, Any]) -> list[str]:
    """Every row against the analytic qubit-source coefficients."""
    if out["exit"] != 0:
        return [f"fig2 exited {out['exit']}"]
    table = out["table"]
    header = ["t", "E12", "A", "B", "C", "D", "ReF", "ImF"]
    if out["header"] != header or table.shape != (CURVE_POINTS, len(header)):
        return [f"fig2 table has header {out['header']} and shape {table.shape}"]
    problems: list[str] = []
    for row, t in zip(table, _fig2_grid()):
        cf = transfer.closed_form_rho12_qubit(op.theta1, op.theta2, t)
        e12 = entanglement.negativity_xstate(cf).value
        want = [t, e12, cf.a, cf.b, cf.c, cf.d, cf.f.real, cf.f.imag]
        for name, got, exp in zip(out["header"], row, want):
            problems += _off(f"fig2 {name} at t={t:.6g}", got, exp, ALGEBRAIC_TOL)
    return problems


def _check_qutrit_curve(op: Op, out: dict[str, Any]) -> list[str]:
    """Revival identity at both ends, half-period kernel in the middle."""
    values = out["values"]
    if values.shape != (CURVE_POINTS,):
        return [f"qutrit curve has shape {values.shape}"]
    revival = abs(np.sin(2.0 * op.theta1))
    kernel = float(qutritmax.negativity_at_half_period(op.theta1, np.array(op.k)))
    return (
        _off("E(0)", values[0], revival, IDENTITY_TOL)
        + _off("E(4pi/3)", values[-1], revival, IDENTITY_TOL)
        + _off("E(2pi/3)", values[CURVE_POINTS // 2], kernel, ALGEBRAIC_TOL)
    )


def _check_search(op: Op, out: dict[str, Any]) -> list[str]:
    """The maximum against the density-matrix oracle at its argmax, its
    dominance over A, B and C, and the no-unity bound."""
    e_max = out["e_max"]
    argmax = transfer.QutritPairState(*out["argmax"])
    problems = _off("e_max vs oracle", e_max, _oracle_half_period(op.theta1, argmax), ALGEBRAIC_TOL)
    named = {
        label: _oracle_half_period(op.theta1, transfer.QutritPairState.from_label(label))
        for label in "ABC"
    }
    problems += _off("E_A kernel vs oracle", out["e_a"], named["A"], ALGEBRAIC_TOL)
    problems += _off("E_B kernel vs oracle", out["e_b"], named["B"], ALGEBRAIC_TOL)
    for label, value in named.items():
        if e_max < value - ALGEBRAIC_TOL:
            problems.append(f"e_max {e_max!r} below E_{label} {value!r}")
    if not e_max < 1.0:
        problems.append(f"e_max {e_max!r} is not below 1")
    return problems


def _check_staircase(op: Op, out: dict[str, Any]) -> list[str]:
    """Step 1 against the half-period kernel, the chaining of before/after
    values, and, for source A, agreement with the other mode."""
    records = out["records"]
    if records.shape != (STAIRCASE_STEPS, 3) or list(records[:, 0]) != list(
        range(1, STAIRCASE_STEPS + 1)
    ):
        return [f"staircase records have shape {records.shape}"]
    theta = entanglement.schmidt_angle_from_negativity(op.e0)
    kernel = float(qutritmax.negativity_at_half_period(theta, np.array(op.k)))
    problems = _off("step 1 before", records[0, 1], op.e0, ALGEBRAIC_TOL)
    problems += _off("step 1 after vs kernel", records[0, 2], kernel, ALGEBRAIC_TOL)
    for i in range(1, STAIRCASE_STEPS):
        problems += _off(f"step {i + 1} before", records[i, 1], records[i - 1, 2], ALGEBRAIC_TOL)
    if op.source == "A":
        other = protocol.MODE_MIXED if op.kind == "pure_reset" else protocol.MODE_PURE_RESET
        again = protocol.iterate_transfer(op.e0, _qutrit(op), STAIRCASE_STEPS, other)
        for rec, row in zip(again, records):
            label = f"step {rec.step} modes agree"
            problems += _off(label, row[2], rec.negativity_after, IDENTITY_TOL)
    return problems


def same_output(a: dict[str, Any], b: dict[str, Any]) -> bool:
    """Exact equality of two observed outputs."""
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)

