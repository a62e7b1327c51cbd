"""Iterated transfer: repeatedly couple the target pair to a fresh source
pair for one half period and track the entanglement growth.

Two bookkeeping modes exist.  In pure-reset mode the target pair re-enters
each round as the pure Schmidt state carrying the previously achieved
negativity (the idealization behind the staircase construction).  In
mixed-continuation mode the actual 4x4 target density operator is carried
forward and re-coupled to a fresh source copy.  Since the propagator and the
pure source are the same every round, that round is one fixed channel on the
target state (``transfer.source_channel``), built once per run and applied
as a 16x16 matrix-vector product per step.  The chain is one
(steps + 1, 4, 4) array, and no state of it depends on a score, so the run
scores that array in one ``entanglement.negativities`` call after the chain
and wraps only the snapshots its records keep.  A pure-reset round starts
from the previous round's score and is scored as it runs, through the
layers themselves: ``transfer.initial_full_state`` and
``transfer.evolve_and_reduce`` under one ``model.full_evolution`` call (every
round evolves for the same half period, so after the first round it returns
the propagator it kept), then the one-state stack is scored by the rule of
the mixed chain, ``clamp_negativity(negativities(...))``.  No round builds an
``Operator`` or a ``NegativityValue``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .entanglement import clamp_negativity, negativities, schmidt_angle_from_negativity
from .model import full_evolution
from .qla import POSITIVITY_TOL, Operator, _count, _real, _typed
from .transfer import (
    QUTRIT_HALF_PERIOD,
    QubitPairState,
    QutritPairState,
    evolve_and_reduce,
    initial_full_state,
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
    except (KeyError, TypeError):  # TypeError: a list or another unhashable value
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
    qutrit source, so ``sp`` must be a ``QutritPairState`` (``qla._typed``).

    Both modes collect the ``steps + 1`` scores and the snapshots entering
    each round, and one comprehension makes the records from them.  Both
    take the Schmidt angle of ``e0`` first, so an ``e0`` that the rule of
    ``qla._real`` refuses, or one outside [0, 1], raises the ValueError of
    ``schmidt_angle_from_negativity`` before any evolution.

    In mixed-continuation mode the source channel is checked where it is
    built: unless its rows (x, x) sum to vec(I) within ``POSITIVITY_TOL``
    (it preserves the trace), ValueError is raised before any step.  The
    ``steps + 1`` states (the initial Schmidt density, then the state after
    each step) fill one array that is scored after the whole chain has run,
    so a carried state that is not a density
    operator raises the ValueError of ``negativities``, which names a state
    by its position in the stack: state 0 is the initial state and state i
    the state after step i.  As there, the state named is the first one that
    fails the first failing check (Hermiticity, trace, then eigenvalues),
    which need not be the earliest bad state."""
    sp = _typed("sp", sp, QutritPairState)
    steps = _count("steps", steps, 1)
    mode = canonical_mode(mode)
    theta0 = schmidt_angle_from_negativity(e0)
    model = model_for_source(sp)
    if mode == MODE_PURE_RESET:
        scores, snapshots = [_real("negativity", e0)], []
        for _ in range(steps):
            snapshots.append(schmidt_angle_from_negativity(scores[-1]) if snapshots else theta0)
            rho = evolve_and_reduce(
                full_evolution(model, QUTRIT_HALF_PERIOD),
                initial_full_state(QubitPairState(snapshots[-1]), sp),
            )
            scores.append(float(clamp_negativity(negativities(rho[None]))[0]))
    else:
        initial = QubitPairState(theta0).density()
        channel = source_channel(full_evolution(model, QUTRIT_HALF_PERIOD), sp)
        # trace preservation: vec(I) S = vec(I), the rows (x, x) of S sum to vec(I)
        vec_identity = np.eye(4).ravel()
        defect = float(np.abs(vec_identity @ channel - vec_identity).max())
        if not defect <= POSITIVITY_TOL:  # NaN fails too
            raise ValueError(
                f"source channel does not preserve the trace: defect {defect:.3e}"
                f" exceeds tol {POSITIVITY_TOL:.1e}"
            )
        chain = np.empty((steps + 1, 4, 4), dtype=complex)
        chain[0] = initial.matrix
        for i in range(steps):
            chain[i + 1] = (channel @ chain[i].ravel()).reshape(4, 4)
        snapshots = [initial] + [Operator(rho) for rho in chain[1:steps]]
        scores = clamp_negativity(negativities(chain)).tolist()
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
