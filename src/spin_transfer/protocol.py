"""Iterated transfer: repeatedly couple the target pair to a fresh source
pair for one half period and track the entanglement growth.

Two bookkeeping modes exist.  In pure-reset mode the target pair re-enters
each round as the pure Schmidt state carrying the previously achieved
negativity (the idealization behind the staircase construction).  In
mixed-continuation mode the actual 4x4 target density operator is carried
forward and re-coupled to a fresh source copy.  Since the propagator and the
pure source are the same every round, that round is one fixed channel on the
target state (``transfer.source_channel``), built once per run and applied
as a 16x16 matrix-vector product per step.  No state of that chain depends
on a score, so the run scores the initial state and every carried state in
one ``entanglement.negativities`` call after the chain.  A pure-reset round
starts from the previous round's score and is scored as it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .entanglement import (
    clamp_negativity,
    negativities,
    negativity,
    schmidt_angle_from_negativity,
)
from .model import full_evolution
from .qla import POSITIVITY_TOL, Operator
from .transfer import (
    QUTRIT_HALF_PERIOD,
    QubitPairState,
    QutritPairState,
    evolve_reduced,
    model_for_source,
    source_channel,
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
    qutrit source, so ``sp`` must be a ``QutritPairState``.

    Both modes collect the ``steps + 1`` scores and the snapshots entering
    each round, and one comprehension makes the records from them.

    In mixed-continuation mode the source channel is checked where it is
    built: unless its rows (x, x) sum to vec(I) within ``POSITIVITY_TOL``
    (it preserves the trace), ValueError is raised before any step.  The
    ``steps + 1`` states (the initial Schmidt density, then the state after
    each step) are scored as one stack after the whole chain has run, so a
    carried state that is not a density
    operator raises the ValueError of ``negativities``, which names a state
    by its position in the stack: state 0 is the initial state and state i
    the state after step i.  As there, the state named is the first one that
    fails the first failing check (Hermiticity, trace, then eigenvalues),
    which need not be the earliest bad state."""
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
    if mode == MODE_PURE_RESET:
        scores, snapshots = [float(e0)], []
        for _ in range(steps):
            snapshots.append(schmidt_angle_from_negativity(scores[-1]))
            rho = evolve_reduced(QubitPairState(snapshots[-1]), sp, QUTRIT_HALF_PERIOD)
            scores.append(negativity(rho).value)
    else:
        channel = source_channel(full_evolution(model_for_source(sp), QUTRIT_HALF_PERIOD), sp)
        # trace preservation: vec(I) S = vec(I), the rows (x, x) of S sum to vec(I)
        vec_identity = np.eye(4).ravel()
        defect = float(np.abs(vec_identity @ channel - vec_identity).max())
        if not defect <= POSITIVITY_TOL:  # NaN fails too
            raise ValueError(
                f"source channel does not preserve the trace: defect {defect:.3e}"
                f" exceeds tol {POSITIVITY_TOL:.1e}"
            )
        snapshots = [QubitPairState(schmidt_angle_from_negativity(e0)).density()]
        for _ in range(steps):
            rho = (channel @ snapshots[-1].matrix.ravel()).reshape(4, 4)
            snapshots.append(Operator(rho, (2, 2)))
        stack = np.stack([s.matrix for s in snapshots])
        scores = clamp_negativity(negativities(stack, (2, 2))).tolist()
    return [
        IterationRecord(step, scores[step - 1], scores[step], mode, snapshots[step - 1])
        for step in range(1, steps + 1)
    ]


def snapshot_purity(record: IterationRecord) -> float:
    """Purity of the target state entering the round (1 in pure-reset mode)."""
    snap = record.tp_state_snapshot
    if isinstance(snap, Operator):
        return float(np.real(np.trace(snap.matrix @ snap.matrix)))
    return 1.0
