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
target angle alone (B == C up to rounding).  The search ranks its grid with
these forms and re-scores only the near-best points with the 36x36 kernel
``negativity_at_half_period``, which stays the source of every reported value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .entanglement import xstate_negativity_raw
from .model import TransferModel, full_evolution
from .qla import DEFAULT_ALGEBRAIC_TOL, POSITIVITY_TOL
from .transfer import QUTRIT_HALF_PERIOD, STATE_A, STATE_B, STATE_C, QutritPairState

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


@lru_cache(maxsize=1)
def _half_period_evolution_matrix() -> np.ndarray:
    return full_evolution(TransferModel.for_source_dim(3), QUTRIT_HALF_PERIOD).matrix


def negativity_at_half_period(theta1: float, amplitudes: np.ndarray) -> np.ndarray:
    """Target-pair negativity after one half period with a qutrit source.

    ``amplitudes`` has shape (3,) or (3, N); returns a scalar array or a
    length-N vector.  Vectorized fast path for sweeps; agrees with the
    generic pipeline to within rounding (covered by tests).
    """
    amps = np.asarray(amplitudes, dtype=float)
    squeeze = amps.ndim == 1
    if squeeze:
        amps = amps[:, None]
    if amps.shape[0] != 3:
        raise ValueError(f"amplitudes must have leading dimension 3, got {amps.shape}")
    tp = np.array([np.cos(theta1), 0.0, 0.0, np.sin(theta1)], dtype=complex)
    n = amps.shape[1]
    source = np.zeros((9, n), dtype=complex)
    source[0], source[4], source[8] = amps[0], amps[1], amps[2]
    psi0 = (tp[:, None, None] * source[None, :, :]).reshape(36, n)
    psi = _half_period_evolution_matrix() @ psi0
    blocks = psi.reshape(4, 9, n)
    b = np.einsum("sn,sn->n", blocks[1], blocks[1].conj()).real
    c = np.einsum("sn,sn->n", blocks[2], blocks[2].conj()).real
    f = np.einsum("sn,sn->n", blocks[0], blocks[3].conj())
    values = xstate_negativity_raw(b, c, np.abs(f))
    return values[0] if squeeze else values


def _half_period_forms(theta1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 forms (B, C, F) of the half-period X-state coefficients: B and
    C real symmetric, F complex symmetric.  Column i of ``m`` is the evolved
    state that starts from the target state and the source |ii>."""
    u = _half_period_evolution_matrix()
    m = np.cos(theta1) * u[:, 0:9:4] + np.sin(theta1) * u[:, 27:36:4]
    blocks = m.reshape(4, 9, 3)
    b = (blocks[1].conj().T @ blocks[1]).real
    c = (blocks[2].conj().T @ blocks[2]).real
    f = blocks[0].T @ blocks[3].conj()
    return b, c, (f + f.T) / 2


def _form_negativity(forms: tuple[np.ndarray, ...], amps: np.ndarray) -> np.ndarray:
    """X-state negativity of the (3, N) amplitude columns from the forms;
    matches ``negativity_at_half_period`` to rounding, not to the bit.  One
    real form at a time keeps every temporary at (3, N)."""
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

    The amplitude simplex is parameterized by two angles on [0, pi/2]^2; the
    distinguished states A, B, C are always evaluated as extra candidates, so
    the result dominates each of them.  Deterministic: ties resolve to the
    lowest (k0^2, k1^2) lexicographically, and the best point ever seen is
    kept across refinement rounds.

    Each round scores every grid point with the 3x3 quadratic forms, which
    agree with ``negativity_at_half_period`` to about 1e-15.  Only the points
    within ``DEFAULT_ALGEBRAIC_TOL`` of the round's best form score, and never
    fewer than the best two, are re-scored with that kernel, and the
    selection runs on the kernel values.  The band holds every point that
    could be the kernel's maximum, so ``e_max``, the argmax and
    ``evaluations`` (grid points scored) are bit for bit those of scoring the
    whole grid with the kernel.  A lone column is not enough: numpy sends a
    one-column product to gemv, whose last bit can differ from the batched
    gemm that the whole grid used.
    """
    if not np.isfinite(theta1):
        raise ValueError(f"theta1 must be finite, got {theta1!r}")
    lo = np.array([0.0, 0.0])
    hi = np.array([np.pi / 2, np.pi / 2])
    best_value = -1.0
    best_key: tuple[float, float] | None = None
    best_amps: np.ndarray | None = None
    best_angles: np.ndarray | None = None
    evaluations = 0
    forms = _half_period_forms(theta1)
    for round_index in range(budget.refinements + 1):
        alpha_axis = np.linspace(lo[0], hi[0], budget.coarse)
        beta_axis = np.linspace(lo[1], hi[1], budget.coarse)
        amps = _grid_amplitudes(alpha_axis, beta_axis)
        if round_index == 0:
            amps = np.hstack([amps, _SEED_AMPLITUDES])
        scores = _form_negativity(forms, amps)
        band = np.flatnonzero(scores >= scores.max() - DEFAULT_ALGEBRAIC_TOL)
        if band.size < 2:
            band = np.sort(np.argpartition(scores, -2)[-2:])
        values = negativity_at_half_period(theta1, amps[:, band])
        evaluations += scores.size
        top = values.max()
        candidates = band[values == top]
        keys = [(amps[0, i] ** 2, amps[1, i] ** 2) for i in candidates]
        pick = candidates[min(range(len(candidates)), key=keys.__getitem__)]
        key = (amps[0, pick] ** 2, amps[1, pick] ** 2)
        if top > best_value or (top == best_value and (best_key is None or key < best_key)):
            best_value = float(top)
            best_key = key
            best_amps = amps[:, pick].copy()
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
        theta1=float(theta1),
        e_max=best_value,
        argmax_state=state,
        argmax_invariants=invariants(state),
        evaluations=evaluations,
        refinement_depth=budget.refinements,
    )


def emax_is_nondecreasing(results: list[MaximizationResult]) -> bool:
    """Whether the maximized negativity is monotone along the given results,
    allowing a dip of ``POSITIVITY_TOL``, the resolution of a negativity.

    Reported, not asserted: monotonicity is suggested by the curves but
    nothing guarantees it.
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
    s = np.sin(2.0 * theta1)
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
    sample of least I2' (at its own abscissa, which avoids binning bias)."""
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
