"""Iterated transfer: repeatedly couple the target pair to a fresh source
pair for one half period and track the entanglement growth.

Two bookkeeping modes exist.  In pure-reset mode the target pair re-enters
each round as the pure Schmidt state carrying the previously achieved
negativity (the idealization behind the staircase construction).  In
mixed-continuation mode the actual 4x4 target density operator is carried
forward and re-coupled to a fresh source copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .entanglement import negativity, schmidt_angle_from_negativity
from .model import full_evolution
from .qla import Operator, kron
from .transfer import (
    QUTRIT_HALF_PERIOD,
    QubitPairState,
    QutritPairState,
    evolve_and_reduce,
    evolve_reduced,
    model_for_source,
)

MODE_PURE_RESET = "pure-reset"
MODE_MIXED = "mixed-continuation"
_MODE_ALIASES = {
    MODE_PURE_RESET: MODE_PURE_RESET,
    "mixed": MODE_MIXED,
    MODE_MIXED: MODE_MIXED,
}


def canonical_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(
            f"unknown mode {mode!r}; expected {MODE_PURE_RESET!r} or {MODE_MIXED!r}"
        ) from None


@dataclass(frozen=True)
class IterationRecord:
    """One interaction round.  ``tp_state_snapshot`` is the target-pair state
    entering the round: a Schmidt angle in pure-reset mode, the full density
    operator in mixed-continuation mode."""

    step: int
    negativity_before: float
    negativity_after: float
    mode: str
    tp_state_snapshot: Union[float, Operator]


def iterate_transfer(
    e0: float,
    sp: QutritPairState,
    steps: int,
    mode: str = MODE_PURE_RESET,
) -> list[IterationRecord]:
    """Run ``steps`` rounds of half-period coupling to fresh copies of ``sp``
    starting from target negativity ``e0``.  The half period is that of a
    qutrit source, so ``sp`` must be a ``QutritPairState``."""
    if not isinstance(sp, QutritPairState):
        raise ValueError(
            f"iterate_transfer couples for the qutrit half period and needs a"
            f" QutritPairState source, got {type(sp).__name__}"
        )
    if not 0.0 <= e0 <= 1.0:
        raise ValueError(f"initial negativity {e0!r} outside [0, 1]")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    mode = canonical_mode(mode)
    records: list[IterationRecord] = []
    if mode == MODE_PURE_RESET:
        e = float(e0)
        for step in range(1, steps + 1):
            theta = schmidt_angle_from_negativity(e)
            rho = evolve_reduced(QubitPairState(theta), sp, QUTRIT_HALF_PERIOD)
            e_after = negativity(rho).value
            records.append(IterationRecord(step, e, e_after, mode, theta))
            e = e_after
        return records

    u = full_evolution(model_for_source(sp), QUTRIT_HALF_PERIOD)
    rho_tp = QubitPairState(schmidt_angle_from_negativity(e0)).density()
    sp_density = sp.density()
    e = negativity(rho_tp).value
    for step in range(1, steps + 1):
        snapshot = rho_tp
        rho_tp = evolve_and_reduce(u, kron(rho_tp, sp_density))
        e_after = negativity(rho_tp).value
        records.append(IterationRecord(step, e, e_after, mode, snapshot))
        e = e_after
    return records


def snapshot_purity(record: IterationRecord) -> float:
    """Purity of the target state entering the round (1 in pure-reset mode)."""
    snap = record.tp_state_snapshot
    if isinstance(snap, Operator):
        return float(np.real(np.trace(snap.matrix @ snap.matrix)))
    return 1.0
