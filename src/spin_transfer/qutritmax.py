"""Search machinery for the qutrit-source analysis.

A Schmidt-form two-qutrit state is summarized by the invariants
I1 = sum k_i^4 and I2 = sum k_i^6.  For a fixed target angle the target-pair
negativity at the half period t = 2*pi/3 is maximized over the amplitude
simplex with a deterministic coarse grid plus local refinement.  The lower
boundary of the attainable (I1', I2') region (the arc joining the maximally
entangled state A to the balanced two-term state B) is extracted numerically
from a dense sweep of the simplex.

At the half period the evolved four-particle state is linear in the source
amplitudes k, so the target pair's X-state coefficients are quadratic forms
b = k^T B k, c = k^T C k and f = k^T F k with 3x3 matrices that depend on the
target angle alone (B == C up to rounding).  They are built from columns of
``model.full_evolution`` and are the only half-period route: the search scores
its grids with them, and ``negativity_at_half_period`` one ``QutritPairState``.
Apart from that scoring, a search round costs one grid fill (cosines and sines
of the two axes, written into one (3, N) array) and a few float operations on
its window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entanglement import xstate_negativity_raw
from .model import TransferModel, full_evolution
from .qla import POSITIVITY_TOL, _count, _real, _typed
from .transfer import (
    QUTRIT_HALF_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QutritPairState,
)

I1_MIN = 1.0 / 3.0
_HALF_PI = np.pi / 2
INVARIANT_TOL = 1e-9

#: Target angles marked in the region picture.
FIG3_THETA_GRID = tuple(k * np.pi / 32 for k in (0, 1, 2, 3, 4, 5, 6, 7, 8))


@dataclass(frozen=True)
class InvariantPoint:
    """Invariants (I1, I2) of a two-qutrit Schmidt state and the shear-
    transformed pair (I1', I2') = (I1, I2 - 3/2 I1) used for plotting.
    Both follow the rule of ``qla._real`` and are stored as the floats it
    returns; then I1 must lie in [1/3, 1] and I2 in [I1^2, I1]."""

    i1: float
    i2: float

    def __post_init__(self) -> None:
        i1, i2 = _real("i1", self.i1), _real("i2", self.i2)
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)
        if not I1_MIN - INVARIANT_TOL <= i1 <= 1.0 + INVARIANT_TOL:
            raise ValueError(f"I1 = {i1!r} outside [1/3, 1]")
        if not i1**2 - INVARIANT_TOL <= i2 <= i1 + INVARIANT_TOL:
            raise ValueError(f"I2 = {i2!r} outside the attainable band for I1 = {i1!r}")

    @property
    def i1p(self) -> float:
        return self.i1

    @property
    def i2p(self) -> float:
        return self.i2 - 1.5 * self.i1

    @classmethod
    def from_probabilities(cls, p: np.ndarray) -> "InvariantPoint":
        p = np.asarray(p, dtype=float)
        return cls(float(np.sum(p**2)), float(np.sum(p**3)))


def invariants(state: QutritPairState) -> InvariantPoint:
    """Invariant pair of a normalized Schmidt-form two-qutrit state."""
    state = _typed("state", state, QutritPairState)
    return InvariantPoint.from_probabilities(state.amplitudes() ** 2)


def sample_physical_region(
    n: int, seed: int = 0
) -> list[tuple[QutritPairState, InvariantPoint]]:
    """Deterministic coverage of the amplitude simplex.

    The first samples are the distinguished states A, B, C; the remainder is
    a seeded uniform (Dirichlet) fill of the simplex interior.  ``seed``
    (at least 0) and ``n`` (at least 1) follow the rule of ``qla._count``.
    """
    rng = np.random.default_rng(_count("seed", seed, 0))
    n = _count("n", n, 1)
    states = [STATE_A, STATE_B, STATE_C][:n]
    while len(states) < n:
        amps = np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))
        states.append(QutritPairState(*amps))
    return [(s, invariants(s)) for s in states]


def negativity_at_half_period(theta1: float, amplitudes: np.ndarray) -> np.float64:
    """Target-pair negativity after one half period with a qutrit source:
    the raw X-state negativity of one Schmidt amplitude column, scored with
    the 3x3 forms of ``_half_period_forms``.

    Raises ValueError for any shape but (3,), then for a ``theta1`` that
    ``qla._real`` refuses, then for a column that ``QutritPairState`` refuses.
    """
    amps = np.asarray(amplitudes)
    if amps.shape != (3,):
        raise ValueError(f"amplitudes must have shape (3,), got {amps.shape}")
    forms = _half_period_forms(_real("theta1", theta1))
    state = QutritPairState(*amps.tolist())
    return _form_negativity(forms, state.amplitudes()[:, None])[0]


@functools.cache
def _half_period_columns() -> np.ndarray:
    """Read-only (2, 36, 3) tensor: entry [A, :, i] is the |AA>|ii> column
    of ``full_evolution`` at the half period, the state it makes from target
    |AA> and source |ii>.  It does not depend on the target angle, so it is
    built once per process."""
    full = full_evolution(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD)
    legs = full.reshape(36, 2, 2, 3, 3)
    columns = np.stack([legs[:, a, a].diagonal(axis1=1, axis2=2) for a in (0, 1)])
    columns.setflags(write=False)
    return columns


def _half_period_forms(theta1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 forms (B, C, F) of the half-period X-state coefficients: B and
    C real symmetric, F complex symmetric.  Column i of ``m`` is the state the
    pair propagator on both legs makes from the target state and source |ii>.
    ``theta1`` is a float its caller took by the rule of ``qla._real``."""
    columns = _half_period_columns()
    m = np.cos(theta1) * columns[0] + np.sin(theta1) * columns[1]
    blocks = m.reshape(4, 9, 3)
    b = (blocks[1].conj().T @ blocks[1]).real
    c = (blocks[2].conj().T @ blocks[2]).real
    f = blocks[0].T @ blocks[3].conj()
    return b, c, (f + f.T) / 2


def _form_negativity(forms: tuple[np.ndarray, ...], amps: np.ndarray) -> np.ndarray:
    """Raw X-state negativity of the (3, N) amplitude columns from the
    forms, unchecked.  One real form at a time keeps every temporary at
    (3, N)."""
    b, c, f = forms
    b_k, c_k, f_re, f_im = (
        np.einsum("in,in->n", q @ amps, amps) for q in (b, c, f.real, f.imag)
    )
    return xstate_negativity_raw(b_k, c_k, np.hypot(f_re, f_im))


@dataclass(frozen=True)
class SearchBudget:
    """Deterministic search effort: a coarse-by-coarse angle grid, then
    ``refinements`` rounds of re-gridding a window shrunk by ``shrink``.
    ``coarse`` (at least 2) and ``refinements`` (at least 0) follow the
    rule of ``qla._count``; ``shrink`` follows that of ``qla._real`` and is
    stored as the float it returns, which must exceed 1."""

    coarse: int = 60
    refinements: int = 3
    shrink: float = 5.0

    def __post_init__(self) -> None:
        for name, least in (("coarse", 2), ("refinements", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        object.__setattr__(self, "shrink", _real("shrink", self.shrink))
        if not self.shrink > 1.0:
            raise ValueError(f"invalid search budget {self}")


@dataclass(frozen=True)
class MaximizationResult:
    theta1: float
    e_max: float
    argmax_state: QutritPairState
    argmax_invariants: InvariantPoint
    evaluations: int
    refinement_depth: int


def _grid_amplitudes(alpha_axis: np.ndarray, beta_axis: np.ndarray) -> np.ndarray:
    """(3, len(alpha_axis) * len(beta_axis)) amplitude columns
    (cos a, sin a cos b, sin a sin b) of the grid, alpha slowest (``meshgrid``
    with ``indexing="ij"``).  Cosines and sines are taken on the two axes
    only, and the three rows are written straight into one array."""
    sin_alpha = np.sin(alpha_axis)[:, None]
    amps = np.empty((3, alpha_axis.size, beta_axis.size))
    amps[0] = np.cos(alpha_axis)[:, None]
    np.multiply(sin_alpha, np.cos(beta_axis), out=amps[1])
    np.multiply(sin_alpha, np.sin(beta_axis), out=amps[2])
    return amps.reshape(3, -1)


#: Angle coordinates of the distinguished states, evaluated as explicit
#: candidates alongside the first grid so the maximum can never fall below
#: any of them.
_SEED_ANGLES = (
    (float(np.arccos(np.sqrt(1 / 3))), float(np.pi / 4)),  # state A
    (float(np.pi / 4), 0.0),  # state B
    (0.0, 0.0),  # state C
)
#: Their amplitude columns: the diagonal of the 3x3 grid of their angles.
_SEED_AMPLITUDES = _grid_amplitudes(*np.array(_SEED_ANGLES).T)[:, ::4]


def maximize_E12_half_period(
    theta1: float, budget: SearchBudget = SearchBudget()
) -> MaximizationResult:
    """Maximize the half-period target-pair negativity over all Schmidt-form
    qutrit source states, for a fixed target angle.

    The amplitude simplex is parameterized by two angles on [0, pi/2]^2.
    Round 0 scores the grid and the distinguished states A, B, C as one
    batch (a winning seed is located by its seed angles), so the result
    dominates each of them; each later round re-grids a window around the
    best point so far.  One rank, (value, -k0^2, -k1^2), picks the best
    column of a round (the first of highest rank) and decides whether it
    replaces the best so far (only if its rank is strictly higher), so ties
    resolve to the lowest (k0^2, k1^2) lexicographically.

    Each round scores every grid point with the 3x3 quadratic forms of
    ``negativity_at_half_period`` (unchecked: the grid columns are
    non-negative and normalized by construction), and ``evaluations``
    counts the grid points scored.  The window's two angle intervals and the
    best angles are Python floats: each interval shrinks to width / shrink
    around the best angle, clamped to [0, pi/2] (the best angle lies in it,
    so only the bound on its own side can bind), the same double operations
    as a clip of the 2-vectors.
    """
    budget = _typed("budget", budget, SearchBudget)
    theta1 = _real("theta1", theta1)
    forms = _half_period_forms(theta1)
    lo_a = lo_b = 0.0
    hi_a = hi_b = _HALF_PI
    best_rank: tuple[float, ...] = (-np.inf,)
    evaluations = 0
    for round_index in range(budget.refinements + 1):
        alpha_axis = np.linspace(lo_a, hi_a, budget.coarse)
        beta_axis = np.linspace(lo_b, hi_b, budget.coarse)
        amps = _grid_amplitudes(alpha_axis, beta_axis)
        if round_index == 0:
            amps = np.hstack([amps, _SEED_AMPLITUDES])
        values = _form_negativity(forms, amps)
        evaluations += values.size
        top = np.flatnonzero(values == values.max())
        ranks = [(float(values[i]), -amps[0, i] ** 2, -amps[1, i] ** 2) for i in top]
        rank = max(ranks)
        if rank > best_rank:
            pick = top[ranks.index(rank)]
            best_rank, best_amps = rank, amps[:, pick].copy()
            row, col = divmod(pick, budget.coarse)
            best_a, best_b = (
                (float(alpha_axis[row]), float(beta_axis[col]))
                if row < budget.coarse
                else _SEED_ANGLES[pick - budget.coarse**2]
            )
        half_a, half_b = (hi_a - lo_a) / budget.shrink / 2, (hi_b - lo_b) / budget.shrink / 2
        lo_a, hi_a = max(best_a - half_a, 0.0), min(best_a + half_a, _HALF_PI)
        lo_b, hi_b = max(best_b - half_b, 0.0), min(best_b + half_b, _HALF_PI)
    state = QutritPairState(*best_amps)
    return MaximizationResult(
        theta1=theta1,
        e_max=best_rank[0],
        argmax_state=state,
        argmax_invariants=invariants(state),
        evaluations=evaluations,
        refinement_depth=budget.refinements,
    )


def emax_is_nondecreasing(results: list[MaximizationResult]) -> bool:
    """Whether the maximized negativity is monotone along the given results,
    allowing a dip of ``POSITIVITY_TOL``, the resolution of a negativity.

    Reported, not asserted: a grid maximum may dip where the exact maximum
    does not.  ``tests/test_half_period_forms.py`` certifies that the exact
    maximum is strictly increasing on [0, pi/4].
    """
    values = [r.e_max for r in results]
    return all(b >= a - POSITIVITY_TOL for a, b in zip(values, values[1:]))


def frontier_line(i1p: float) -> float:
    """Approximate straight-line lower frontier between the states A and B:
    I2' = -(2/3) I1' - 1/6, valid for I1' in [1/3, 1/2].  ``i1p`` follows
    the rule of ``qla._real``, so the line is a float."""
    i1p = _real("i1p", i1p)
    if not I1_MIN - INVARIANT_TOL <= i1p <= 0.5 + INVARIANT_TOL:
        raise ValueError(f"I1' = {i1p!r} outside the frontier domain [1/3, 1/2]")
    return -2.0 / 3.0 * i1p - 1.0 / 6.0


def fit_I1_of_theta(theta1: float) -> float:
    """Quadratic-in-sin(2 theta) fit of the argmax invariant I1:
    -0.08756 sin^2(2 theta) - 0.07911 sin(2 theta) + 0.5."""
    s = np.sin(2.0 * _real("theta1", theta1))
    return float(-0.08756 * s**2 - 0.07911 * s + 0.5)


@dataclass(frozen=True)
class LowerBoundary:
    """Numerically extracted lower boundary of the attainable (I1', I2')
    region, tabulated at increasing I1' abscissas."""

    i1p: np.ndarray
    i2p: np.ndarray

    def i2p_at(self, query: float | np.ndarray) -> np.ndarray:
        return np.interp(query, self.i1p, self.i2p)


#: Rows of the alpha axis that ``extract_lower_boundary`` fills and reduces
#: at once: a block of the default 1201-point sweep holds 77k points.
_BOUNDARY_BLOCK_ROWS = 64


def extract_lower_boundary(grid_points: int = 1201, bins: int = 600) -> LowerBoundary:
    """Sweep the amplitude simplex densely and record, per I1' bin, the
    sample of least I2' (at its own abscissa, which avoids binning bias),
    the earliest in grid order on a tie.  A count below 2 ``grid_points``
    or 1 bin, or not an integer, raises ValueError naming it.

    The grid is filled and reduced ``_BOUNDARY_BLOCK_ROWS`` rows at a time:
    each block keeps its own least I2' per bin (``lexsort`` is stable, so
    the earliest point wins a tie), and replaces the sweep's only where it
    is strictly less, so an earlier block keeps a tie too."""
    grid_points, bins = _count("grid_points", grid_points, 2), _count("bins", bins, 1)
    axis = np.linspace(0.0, np.pi / 2, grid_points)
    edges = np.linspace(I1_MIN, 1.0, bins + 1)
    least_i2p = np.full(bins, np.inf)  # every I2' is finite and negative
    at_i1 = np.empty(bins)
    for start in range(0, grid_points, _BOUNDARY_BLOCK_ROWS):
        p = _grid_amplitudes(axis[start : start + _BOUNDARY_BLOCK_ROWS], axis) ** 2
        i1 = (p**2).sum(axis=0)
        i2p = (p**3).sum(axis=0) - 1.5 * i1
        bin_idx = np.clip(np.digitize(i1, edges) - 1, 0, bins - 1)
        order = np.lexsort((i2p, bin_idx))
        block_bins, first = np.unique(bin_idx[order], return_index=True)
        chosen = order[first]
        better = i2p[chosen] < least_i2p[block_bins]
        least_i2p[block_bins[better]] = i2p[chosen[better]]
        at_i1[block_bins[better]] = i1[chosen[better]]
    found = least_i2p < np.inf
    i1, i2p = at_i1[found], least_i2p[found]
    sort = np.argsort(i1)
    return LowerBoundary(i1[sort], i2p[sort])
