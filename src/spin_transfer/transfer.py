"""End-to-end entanglement transfer pipeline.

Builds the initial product state, evolves the four particles, reduces to the
target pair and scores its negativity.  The numeric pipeline
(``evolve_reduced``) is authoritative; the analytic coefficient functions
are regression artifacts.  For a qutrit source the transcribed analytic
coefficients are known to disagree with the numeric pipeline between the
revival times; ``qutrit_closed_form_discrepancy`` quantifies this.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .entanglement import XStateCoeffs, negativity
from .model import TransferModel, full_evolution
from .qla import Operator, partial_trace

QUBIT_SOURCE_PERIOD = 2.0 * np.pi
QUTRIT_SOURCE_PERIOD = 4.0 * np.pi / 3.0
QUTRIT_HALF_PERIOD = 2.0 * np.pi / 3.0

#: Default number of uniform grid intervals per period for sweep commands.
GRID_INTERVALS_PER_PERIOD = 600

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class QubitPairState:
    """Schmidt-form two-qubit pure state cos(theta)|00> + sin(theta)|11>."""

    theta: float

    def amplitudes(self) -> np.ndarray:
        return np.array([np.cos(self.theta), np.sin(self.theta)])

    def state_vector(self) -> np.ndarray:
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = np.cos(self.theta), np.sin(self.theta)
        return vec

    def density(self) -> Operator:
        vec = self.state_vector()
        return Operator(np.outer(vec, vec.conj()), (2, 2))

    def initial_negativity(self) -> float:
        return abs(float(np.sin(2.0 * self.theta)))


@dataclass(frozen=True)
class QutritPairState:
    """Schmidt-form two-qutrit pure state with non-negative amplitudes
    k0|00> + k1|11> + k2|22>.  Complex inputs are canonicalized to their
    magnitudes with a warning; the dynamics studied here only ever depend
    on the squared magnitudes."""

    k0: float
    k1: float
    k2: float

    def __post_init__(self) -> None:
        amps = []
        for name in ("k0", "k1", "k2"):
            val = getattr(self, name)
            if isinstance(val, complex) or val < 0:
                warnings.warn(
                    "qutrit amplitudes are canonicalized to magnitudes",
                    stacklevel=3,
                )
                val = abs(val)
            object.__setattr__(self, name, float(val))
            amps.append(float(getattr(self, name)))
        norm_sq = sum(a * a for a in amps)
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValueError(
                f"amplitudes not normalized: sum of squares is {norm_sq!r} "
                f"(tol {NORMALIZATION_TOL:.0e}); use QutritPairState.normalized"
            )

    @classmethod
    def normalized(cls, k0: float, k1: float, k2: float) -> "QutritPairState":
        amps = np.abs(np.asarray([k0, k1, k2], dtype=complex)).astype(float)
        largest = amps.max()
        if not 0.0 < largest < np.inf:  # NaN fails too
            raise ValueError(f"cannot normalize {(k0, k1, k2)}: not finite or all zero")
        amps = amps / largest  # keeps the sum of squares in range
        amps = amps / np.linalg.norm(amps)
        return cls(float(amps[0]), float(amps[1]), float(amps[2]))

    @classmethod
    def from_label(cls, label: str) -> "QutritPairState":
        try:
            return {"A": STATE_A, "B": STATE_B, "C": STATE_C}[label.upper()]
        except KeyError:
            raise ValueError(f"unknown named state {label!r}; expected A, B or C") from None

    def amplitudes(self) -> np.ndarray:
        return np.array([self.k0, self.k1, self.k2])

    def state_vector(self) -> np.ndarray:
        vec = np.zeros(9, dtype=complex)
        vec[0], vec[4], vec[8] = self.k0, self.k1, self.k2
        return vec

    def density(self) -> Operator:
        vec = self.state_vector()
        return Operator(np.outer(vec, vec.conj()), (3, 3))


#: Maximally entangled two-qutrit state.
STATE_A = QutritPairState(np.sqrt(1 / 3), np.sqrt(1 / 3), np.sqrt(1 / 3))
#: Balanced two-term state.
STATE_B = QutritPairState(np.sqrt(1 / 2), np.sqrt(1 / 2), 0.0)
#: Product state.
STATE_C = QutritPairState(1.0, 0.0, 0.0)

SourceState = Union[QubitPairState, QutritPairState]


@dataclass(frozen=True)
class TransferTrace:
    """Time series of target-pair negativity for one scenario."""

    times: np.ndarray
    negativities: np.ndarray
    theta1: float
    source_label: str

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.negativities, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and negativities must be 1-d arrays of equal length")
        if times.size >= 2 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "negativities", values)


def source_dim(sp: SourceState) -> int:
    return 2 if isinstance(sp, QubitPairState) else 3


def model_for_source(sp: SourceState) -> TransferModel:
    return TransferModel.for_source_dim(source_dim(sp))


def initial_full_state(tp: QubitPairState, sp: SourceState) -> Operator:
    """Rank-1 density operator of the four-particle product state."""
    vec = np.kron(tp.state_vector(), sp.state_vector())
    d = source_dim(sp)
    return Operator(np.outer(vec, vec.conj()), (2, 2, d, d))


def evolve_reduced(tp: QubitPairState, sp: SourceState, t: float) -> Operator:
    """Reduced target-pair state after evolving for time ``t``: evolve the
    full product state unitarily, then trace out the source pair."""
    model = model_for_source(sp)
    u = full_evolution(model, t)
    rho0 = initial_full_state(tp, sp)
    rho_t = Operator(u.matrix @ rho0.matrix @ u.matrix.conj().T, rho0.dims)
    return partial_trace(rho_t, (0, 1))


def closed_form_rho12_qubit(theta1: float, theta2: float, t: float) -> XStateCoeffs:
    """Analytic reduced-state coefficients for a qubit source."""
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    half_sin_sq = np.sin(t / 2) ** 2
    half_cos_sq = np.cos(t / 2) ** 2
    a = (c2 * s1 * half_sin_sq - s2 * c1 * half_cos_sq) ** 2 + c1**2 * c2**2
    b = 0.25 * np.sin(t) ** 2 * np.sin(theta1 + theta2) ** 2
    d = (c2 * s1 * half_cos_sq - s2 * c1 * half_sin_sq) ** 2 + s1**2 * s2**2
    f = np.exp(-1j * t) * (
        -c2 * s2 * half_sin_sq * (c1**2 + np.exp(2j * t) * s1**2)
        + c1 * s1 * half_cos_sq * (c2**2 + np.exp(2j * t) * s2**2)
    )
    return XStateCoeffs(float(a), float(b), float(b), float(d), complex(f))


def closed_form_rho12_qutrit(theta1: float, sp: QutritPairState, t: float) -> XStateCoeffs:
    """Verbatim transcription of the analytic reduced-state coefficients for
    a qutrit source.

    Away from t = 0 and t = 4*pi/3 these coefficients disagree with the
    numeric pipeline (they need not even form a density matrix); they are
    kept verbatim as a regression artifact and quantified by
    ``qutrit_closed_form_discrepancy``.
    """
    k0, k1, k2 = sp.k0, sp.k1, sp.k2
    c, s = np.cos(theta1), np.sin(theta1)
    e32 = np.exp(3j * t / 2)
    em3 = np.exp(-3j * t)
    p2 = (2 + e32) ** 2
    p1 = (1 + 2 * e32) ** 2
    m2 = (-1 + e32) ** 2
    a = (
        k0**2 * c**2
        + em3 / 81 * (p2 * k1 * c + 2 * m2 * k0 * s) * (p1 * k1 * c + 2 * m2 * k0 * s)
        + em3 / 81 * (p2 * k2 * c + 2 * m2 * k1 * s) * (p1 * k2 * c + 2 * m2 * k1 * s)
    )
    b = (
        -2 * em3 / 81 * m2 * (p1 * k1 * c + p2 * k0 * s) * (p2 * k1 * c + p1 * k0 * s)
        - 2 * em3 / 81 * m2 * (p1 * k2 * c + p2 * k1 * s) * (p2 * k2 * c + p1 * k0 * s)
    )
    d = (
        k2**2 * s**2
        + em3 / 81 * (2 * m2 * k1 * c + p2 * k0 * s) * (2 * m2 * k1 * c + p1 * k0 * s)
        + em3 / 81 * (2 * m2 * k2 * c + p2 * k1 * s) * (2 * m2 * k2 * c + p1 * k1 * s)
    )
    f = (
        em3 / 9 * k0 * c * (2 * m2 * k1 * c + p2 * k0 * s)
        + 1 / 9 * k2 * s * (p1 * k2 * c + 2 * m2 * k1 * s)
        + em3 / 81 * (p2 * k1 * c + 2 * m2 * k0 * s) * (2 * m2 * k2 * c + p1 * k1 * s)
    )
    return XStateCoeffs(
        float(np.real(a)), float(np.real(b)), float(np.real(b)), float(np.real(d)), complex(f)
    )


def qutrit_closed_form_discrepancy(
    n_samples: int = 64, seed: int = 0
) -> list[dict[str, float]]:
    """Entrywise deviation between the transcribed qutrit coefficients and
    the numeric pipeline over a deterministic sample of (theta1, k, t).

    Includes the revival endpoints t = 0 and t = 4*pi/3, where the two
    routes agree exactly.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict[str, float]] = []
    special_t = (0.0, QUTRIT_HALF_PERIOD, QUTRIT_SOURCE_PERIOD)
    for i in range(n_samples):
        theta1 = rng.uniform(0.0, np.pi / 4)
        amps = np.sqrt(rng.dirichlet((1.0, 1.0, 1.0)))
        sp = QutritPairState(*amps)
        t = special_t[i % 3] if i < len(special_t) else rng.uniform(0.0, QUTRIT_SOURCE_PERIOD)
        analytic = closed_form_rho12_qutrit(theta1, sp, t)
        numeric = evolve_reduced(QubitPairState(theta1), sp, t)
        deviation = float(np.abs(analytic.to_operator().matrix - numeric.matrix).max())
        rows.append(
            {
                "theta1": theta1,
                "k0": sp.k0,
                "k1": sp.k1,
                "k2": sp.k2,
                "t": t,
                "max_deviation": deviation,
            }
        )
    return rows


def entanglement_curve(
    tp: QubitPairState, sp: SourceState, t_grid: Sequence[float]
) -> TransferTrace:
    """Target-pair negativity on a time grid via the numeric pipeline."""
    times = np.asarray(t_grid, dtype=float)
    values = np.array(
        [negativity(evolve_reduced(tp, sp, t)).value for t in times], dtype=float
    )
    label = (
        f"qubit(theta2={sp.theta:.6g})"
        if isinstance(sp, QubitPairState)
        else f"qutrit(k=({sp.k0:.6g},{sp.k1:.6g},{sp.k2:.6g}))"
    )
    return TransferTrace(times, values, tp.theta, label)


def default_time_grid(period: float, points: int | None = None) -> np.ndarray:
    """Uniform grid over one period, endpoints included."""
    n = GRID_INTERVALS_PER_PERIOD + 1 if points is None else int(points)
    if n < 2:
        raise ValueError("time grid needs at least two points")
    return np.linspace(0.0, period, n)
