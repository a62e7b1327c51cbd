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
``model.full_evolution`` and are the only half-period route:
``negativity_at_half_period`` and the search both score with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .entanglement import xstate_negativity_raw
from .model import TransferModel, full_evolution
from .qla import POSITIVITY_TOL, _real_angle
from .transfer import (
    NORMALIZATION_TOL,
    QUTRIT_HALF_PERIOD,
    STATE_A,
    STATE_B,
    STATE_C,
    QutritPairState,
)

I1_MIN = 1.0 / 3.0
INVARIANT_TOL = 1e-9

#: Target angles marked in the region picture.
FIG3_THETA_GRID = tuple(k * np.pi / 32 for k in (0, 1, 2, 3, 4, 5, 6, 7, 8))


@dataclass(frozen=True)
class InvariantPoint:
    """Invariants (I1, I2) of a two-qutrit Schmidt state and the shear-
    transformed pair (I1', I2') = (I1, I2 - 3/2 I1) used for plotting."""

    i1: float
    i2: float

    def __post_init__(self) -> None:
        if not I1_MIN - INVARIANT_TOL <= self.i1 <= 1.0 + INVARIANT_TOL:
            raise ValueError(f"I1 = {self.i1!r} outside [1/3, 1]")
        if not self.i1**2 - INVARIANT_TOL <= self.i2 <= self.i1 + INVARIANT_TOL:
            raise ValueError(f"I2 = {self.i2!r} outside the attainable band for I1 = {self.i1!r}")

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
    return InvariantPoint.from_probabilities(state.amplitudes() ** 2)


def sample_physical_region(
    n: int, seed: int = 0
) -> list[tuple[QutritPairState, InvariantPoint]]:
    """Deterministic coverage of the amplitude simplex.

    The first samples are the distinguished states A, B, C; the remainder is
    a seeded uniform (Dirichlet) fill of the simplex interior.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    states = [STATE_A, STATE_B, STATE_C][:n]
    rng = np.random.default_rng(seed)
    while len(states) < n:
        amps = np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))
        states.append(QutritPairState(*amps))
    return [(s, invariants(s)) for s in states]


def negativity_at_half_period(theta1: float, amplitudes: np.ndarray) -> np.ndarray:
    """Target-pair negativity after one half period with a qutrit source.

    ``amplitudes`` has shape (3,) or (3, N), one Schmidt amplitude column
    per source state; returns a scalar array or a length-N vector of raw
    X-state negativities, scored with the 3x3 forms of ``_half_period_forms``.

    Raises ValueError for a leading dimension other than 3, then for a
    ``theta1`` that ``_half_period_forms`` refuses, then for the first column
    that ``QutritPairState`` would refuse: a non-real or negative entry, or a
    sum of squares off 1 by more than ``NORMALIZATION_TOL`` (NaN included).
    """
    amps = np.asarray(amplitudes)
    squeeze = amps.ndim == 1
    if squeeze:
        amps = amps[:, None]
    if amps.shape[0] != 3:
        raise ValueError(f"amplitudes must have leading dimension 3, got {amps.shape}")
    forms = _half_period_forms(theta1)
    real = np.asarray(amps.real, dtype=float)
    off_norm = ~(np.abs(np.einsum("in,in->n", real, real) - 1.0) <= NORMALIZATION_TOL)
    bad = np.flatnonzero(((real < 0.0) | (amps.imag != 0.0)).any(axis=0) | off_norm)
    if bad.size:
        column = bad[0]
        raise ValueError(
            f"amplitude column {column} = {tuple(amps[:, column].tolist())} is not a real "
            f"non-negative column with unit sum of squares (tol {NORMALIZATION_TOL:.0e})"
        )
    values = _form_negativity(forms, real)
    return values[0] if squeeze else values


@functools.cache
def _half_period_columns() -> np.ndarray:
    """Read-only (2, 36, 3) tensor: entry [A, :, i] is the |AA>|ii> column
    of ``full_evolution`` at the half period, the state it makes from target
    |AA> and source |ii>.  It does not depend on the target angle, so it is
    built once per process."""
    full = full_evolution(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD).matrix
    legs = full.reshape(36, 2, 2, 3, 3)
    columns = np.stack([legs[:, a, a].diagonal(axis1=1, axis2=2) for a in (0, 1)])
    columns.setflags(write=False)
    return columns


def _half_period_forms(theta1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 forms (B, C, F) of the half-period X-state coefficients: B and
    C real symmetric, F complex symmetric.  Column i of ``m`` is the state the
    pair propagator on both legs makes from the target state and source |ii>.

    The one check of the target angle on the half-period route: ``theta1``
    must be finite and real (a complex number with zero imaginary part is
    taken as its real part), else ValueError."""
    theta1 = _real_angle("theta1", theta1)
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
    ``refinements`` rounds of re-gridding a window shrunk by ``shrink``."""

    coarse: int = 60
    refinements: int = 3
    shrink: float = 5.0

    def __post_init__(self) -> None:
        if self.coarse < 2 or self.refinements < 0 or not 1.0 < self.shrink < np.inf:
            raise ValueError(f"invalid search budget {self}")


@dataclass(frozen=True)
class MaximizationResult:
    theta1: float
    e_max: float
    argmax_state: QutritPairState
    argmax_invariants: InvariantPoint
    evaluations: int
    refinement_depth: int


def _amplitudes_from_angles(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Amplitude columns (cos a, sin a cos b, sin a sin b) of the broadcast
    angles, stacked along a new first axis of length 3."""
    sin_alpha = np.sin(alpha)
    return np.stack(
        np.broadcast_arrays(np.cos(alpha), sin_alpha * np.cos(beta), sin_alpha * np.sin(beta))
    )


def _grid_amplitudes(alpha_axis: np.ndarray, beta_axis: np.ndarray) -> np.ndarray:
    """(3, len(alpha_axis) * len(beta_axis)) amplitude columns of the grid,
    alpha slowest (``meshgrid`` with ``indexing="ij"``).  Cosines and sines
    are taken on the two axes only."""
    return _amplitudes_from_angles(alpha_axis[:, None], beta_axis[None, :]).reshape(3, -1)


#: Angle coordinates of the distinguished states, evaluated as explicit
#: candidates alongside the first grid so the maximum can never fall below
#: any of them.
_SEED_ANGLES = (
    (float(np.arccos(np.sqrt(1 / 3))), float(np.pi / 4)),  # state A
    (float(np.pi / 4), 0.0),  # state B
    (0.0, 0.0),  # state C
)
_SEED_AMPLITUDES = _amplitudes_from_angles(*np.array(_SEED_ANGLES).T)


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
    counts the grid points scored.
    """
    forms = _half_period_forms(theta1)
    lo = np.array([0.0, 0.0])
    hi = np.array([np.pi / 2, np.pi / 2])
    best_rank: tuple[float, ...] = (-np.inf,)
    evaluations = 0
    for round_index in range(budget.refinements + 1):
        alpha_axis = np.linspace(lo[0], hi[0], budget.coarse)
        beta_axis = np.linspace(lo[1], hi[1], budget.coarse)
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
            best_angles = np.array(
                [alpha_axis[row], beta_axis[col]]
                if row < budget.coarse
                else _SEED_ANGLES[pick - budget.coarse**2]
            )
        window = (hi - lo) / budget.shrink
        lo = np.clip(best_angles - window / 2, 0.0, np.pi / 2)
        hi = np.clip(best_angles + window / 2, 0.0, np.pi / 2)
    state = QutritPairState(*best_amps)
    return MaximizationResult(
        theta1=float(np.real(theta1)),
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
    I2' = -(2/3) I1' - 1/6, valid for I1' in [1/3, 1/2]."""
    if not I1_MIN - INVARIANT_TOL <= i1p <= 0.5 + INVARIANT_TOL:
        raise ValueError(f"I1' = {i1p!r} outside the frontier domain [1/3, 1/2]")
    return -2.0 / 3.0 * i1p - 1.0 / 6.0


def fit_I1_of_theta(theta1: float) -> float:
    """Quadratic-in-sin(2 theta) fit of the argmax invariant I1:
    -0.08756 sin^2(2 theta) - 0.07911 sin(2 theta) + 0.5."""
    s = np.sin(2.0 * _real_angle("theta1", theta1))
    return float(-0.08756 * s**2 - 0.07911 * s + 0.5)


@dataclass(frozen=True)
class LowerBoundary:
    """Numerically extracted lower boundary of the attainable (I1', I2')
    region, tabulated at increasing I1' abscissas."""

    i1p: np.ndarray
    i2p: np.ndarray

    def i2p_at(self, query: float | np.ndarray) -> np.ndarray:
        return np.interp(query, self.i1p, self.i2p)


def extract_lower_boundary(grid_points: int = 1201, bins: int = 600) -> LowerBoundary:
    """Sweep the amplitude simplex densely and record, per I1' bin, the
    sample of least I2' (at its own abscissa, which avoids binning bias).
    A sweep with fewer than 2 ``grid_points`` or 1 bin raises ValueError."""
    if not grid_points >= 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points!r}")
    if not bins >= 1:
        raise ValueError(f"bins must be at least 1, got {bins!r}")
    axis = np.linspace(0.0, np.pi / 2, grid_points)
    p = _grid_amplitudes(axis, axis) ** 2
    i1 = (p**2).sum(axis=0)
    i2p = (p**3).sum(axis=0) - 1.5 * i1
    edges = np.linspace(I1_MIN, 1.0, bins + 1)
    bin_idx = np.clip(np.digitize(i1, edges) - 1, 0, bins - 1)
    order = np.lexsort((i2p, bin_idx))
    _, first = np.unique(bin_idx[order], return_index=True)
    chosen = order[first]
    sort = np.argsort(i1[chosen])
    return LowerBoundary(i1[chosen][sort], i2p[chosen][sort])
