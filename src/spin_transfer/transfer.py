"""End-to-end entanglement transfer pipeline.

Builds the initial product state, evolves the four particles, reduces to the
target pair and scores its negativity.  ``evolve_and_reduce`` is the
target|source cut of a density matrix: it conjugates a (2, 2, d, d) state
array by the four-particle propagator and traces out the source pair.
``source_channel`` is the same cut for a pure source, written as the 16x16
matrix of the map it makes on the target state; the mixed-continuation
staircase builds it once per run.  The numeric pipeline (``evolve_reduced``)
is authoritative: it is the route of ``fig2`` (one call per time point) and
``verify``, and the oracle of ``entanglement_curve``; a pure-reset staircase
round runs its two layers, ``initial_full_state`` and ``evolve_and_reduce``,
itself.  A ``model.full_evolution`` call at the time of the call before it
(every pure-reset round, ``verify``'s fixed-time loops) returns the
four-particle propagator it kept.
The curve takes the spectral route instead: each pair propagator is
exp(-i lambda_minus t) P_minus + exp(-i lambda_plus t) P_plus, so the reduced
state is a five-term Fourier sum of fixed 4x4 matrices and a whole time grid
is one matrix product.  Both initial pairs are Schmidt-diagonal, so the five
matrices are one quadratic form in the real amplitudes
x = kron((cos theta, sin theta), k): ``_fourier_tensor`` holds it, the
target|source cut of the curve, built once per source dimension from the
projectors, and a curve reads its components off it with one product.
Each leg conserves its own S_z, so every state on the
curve is an X state, scored by the X-state closed form under the density
checks of ``negativities``; the generic partial-transpose route scores
``fig2`` and the mixed staircase as one stack (``negativities``) and each
pure-reset round as a one-state stack.  The analytic
coefficient functions are regression artifacts.
For a qutrit source one transcribed analytic coefficient is wrong: between
the revival times the inner diagonal entry b (= c) departs from the numeric
pipeline, while a, d and f match it to rounding;
``qutrit_closed_form_discrepancy`` quantifies this.
"""

from __future__ import annotations

import functools
import reprlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .entanglement import XStateCoeffs, _xstate_negativities, clamp_negativity
from .model import SUPPORTED_SOURCE_DIMS, TransferModel, full_evolution
from .qla import Operator, _count, _real, _typed

QUBIT_SOURCE_PERIOD = 2.0 * np.pi
QUTRIT_SOURCE_PERIOD = 4.0 * np.pi / 3.0
QUTRIT_HALF_PERIOD = 2.0 * np.pi / 3.0

#: Default number of uniform grid intervals per period for sweep commands.
GRID_INTERVALS_PER_PERIOD = 600

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class QubitPairState:
    """Schmidt-form two-qubit pure state cos(theta)|00> + sin(theta)|11>.
    ``theta`` follows the rule of ``qla._real`` and is stored as the float
    it returns."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", _real("theta", self.theta))

    def state_vector(self) -> np.ndarray:
        vec = np.zeros(4, dtype=complex)
        vec[0], vec[3] = np.cos(self.theta), np.sin(self.theta)
        return vec

    def density(self) -> Operator:
        vec = self.state_vector()
        return Operator(np.outer(vec, vec.conj()))

    def initial_negativity(self) -> float:
        return abs(float(np.sin(2.0 * self.theta)))


_AMPLITUDE_NAMES = ("k0", "k1", "k2")


def _amplitude(name: str, value: float) -> float:
    """``value`` by the rule of ``qla._real``, with -0.0 as 0.0; a negative
    value is refused too, since a sign (like a phase) changes the dynamics."""
    real = _real(name, value)
    if real < 0:
        raise ValueError(f"amplitude {name} = {value!r} is not a non-negative real number")
    return real + 0.0


@dataclass(frozen=True)
class QutritPairState:
    """Schmidt-form two-qutrit pure state k0|00> + k1|11> + k2|22> with
    non-negative real amplitudes, each taken by the rule of ``qla._real``.
    Negative and complex amplitudes are rejected: their signs and phases
    change the transferred entanglement, so no magnitude stands in for
    them."""

    k0: float
    k1: float
    k2: float

    def __post_init__(self) -> None:
        amps = [_amplitude(name, getattr(self, name)) for name in _AMPLITUDE_NAMES]
        for name, val in zip(_AMPLITUDE_NAMES, amps):
            object.__setattr__(self, name, val)
        norm_sq = sum(a * a for a in amps)
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ValueError(
                f"amplitudes not normalized: sum of squares is {norm_sq!r} "
                f"(tol {NORMALIZATION_TOL:.0e}); use QutritPairState.normalized"
            )

    @classmethod
    def normalized(cls, k0: float, k1: float, k2: float) -> "QutritPairState":
        amps = np.array([_amplitude(n, k) for n, k in zip(_AMPLITUDE_NAMES, (k0, k1, k2))])
        largest = amps.max()
        if not largest > 0.0:
            raise ValueError(f"cannot normalize {(k0, k1, k2)}: all zero")
        amps = amps / largest  # keeps the sum of squares in range
        amps = amps / np.linalg.norm(amps)
        return cls(float(amps[0]), float(amps[1]), float(amps[2]))

    @classmethod
    def from_label(cls, label: str) -> "QutritPairState":
        named = {"A": STATE_A, "B": STATE_B, "C": STATE_C}
        if isinstance(label, str) and label.upper() in named:
            return named[label.upper()]
        raise ValueError(f"unknown named state {label!r}; expected A, B or C")

    def amplitudes(self) -> np.ndarray:
        return np.array([self.k0, self.k1, self.k2])

    def state_vector(self) -> np.ndarray:
        vec = np.zeros(9, dtype=complex)
        vec[0], vec[4], vec[8] = self.k0, self.k1, self.k2
        return vec


#: Maximally entangled two-qutrit state.
STATE_A = QutritPairState(np.sqrt(1 / 3), np.sqrt(1 / 3), np.sqrt(1 / 3))
#: Balanced two-term state.
STATE_B = QutritPairState(np.sqrt(1 / 2), np.sqrt(1 / 2), 0.0)
#: Product state.
STATE_C = QutritPairState(1.0, 0.0, 0.0)

SourceState = Union[QubitPairState, QutritPairState]


def _real_array(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``, which must hold real numbers
    (bool, integer or float dtype), else ValueError naming ``name``: a
    complex, a string or an object that is not a number (None, 10**400) is
    refused, not converted."""
    try:
        array = np.asarray(value)  # a ragged nesting raises ValueError
        if array.dtype.kind not in "biuf":
            raise TypeError
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold real numbers, got {reprlib.repr(value)}") from None
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class TransferTrace:
    """Time series of target-pair negativity for one scenario; it keeps its
    own read-only float copies of both arrays, each taken by the rule of
    ``_real_array``, ``times`` first."""

    times: np.ndarray
    negativities: np.ndarray

    def __post_init__(self) -> None:
        times = _real_array("times", self.times)
        values = _real_array("negativities", self.negativities)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and negativities must be 1-d arrays of equal length")
        if not (times[1:] > times[:-1]).all():  # NaN fails too
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "negativities", values)


def source_dim(sp: SourceState) -> int:
    if not isinstance(sp, (QubitPairState, QutritPairState)):
        name = type(sp).__name__
        raise ValueError(f"source must be a QubitPairState or a QutritPairState, got {name}")
    return 2 if isinstance(sp, QubitPairState) else 3


def model_for_source(sp: SourceState) -> TransferModel:
    return TransferModel.for_source_dim(source_dim(sp))


def initial_full_state(tp: QubitPairState, sp: SourceState) -> np.ndarray:
    """Rank-1 density matrix of the four-particle product state (4d^2 x 4d^2)."""
    vec = (tp.state_vector()[:, None] * sp.state_vector()[None, :]).ravel()
    return vec[:, None] * vec.conj()


#: The source dimension d of each 4d^2 x 4d^2 four-particle shape.
_SOURCE_DIM_OF_SHAPE = {(4 * d * d,) * 2: d for d in SUPPORTED_SOURCE_DIMS}


def evolve_and_reduce(u: np.ndarray, rho0: np.ndarray) -> np.ndarray:
    """4x4 target-pair state of u rho0 u^dagger: conjugate the (2, 2, d, d)
    four-particle state ``rho0`` by the propagator ``u``, then trace out the
    source pair.  Raises ValueError naming both shapes unless ``rho0`` is
    4d^2 x 4d^2 with d in ``SUPPORTED_SOURCE_DIMS`` and ``u`` has its shape."""
    d = _SOURCE_DIM_OF_SHAPE.get(rho0.shape)
    if d is None or u.shape != rho0.shape:
        raise ValueError(
            f"expected a 4d^2 x 4d^2 state with d in {SUPPORTED_SOURCE_DIMS} and a"
            f" propagator of its shape, got shapes {rho0.shape} and {u.shape}"
        )
    rho_t = (u @ rho0 @ u.conj().T).reshape((2, 2, d, d) * 2)
    return np.einsum("abijABij->abAB", rho_t).reshape(4, 4)


def source_channel(u: np.ndarray, sp: SourceState) -> np.ndarray:
    """The 16x16 matrix S of rho -> Tr_S[u (rho x |sp><sp|) u^dagger] on the
    row-major vectorized 4x4 target state: the target|source cut of
    ``evolve_and_reduce``, specialised to a pure source.

    Its Kraus operators are V_s[ab, AB] = sum_j u[(ab, s), (AB, j)] sp_j,
    one per source basis state s, and S[(x, w), (y, z)] =
    sum_s V_s[x, y] conj(V_s[w, z]), so the state after the round is
    ``(S @ rho.ravel()).reshape(4, 4)``.  Raises ValueError naming the
    shape unless ``u`` is 4d^2 x 4d^2, with d the dimension of ``sp``'s
    particles.
    """
    d = source_dim(sp)
    n = 4 * d * d
    if u.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} propagator for a source of dimension {d}, got shape {u.shape}"
        )
    kraus = np.einsum("xsyj,j->sxy", u.reshape(4, d * d, 4, d * d), sp.state_vector())
    return np.einsum("sxy,swz->xwyz", kraus, kraus.conj()).reshape(16, 16)


def evolve_reduced(tp: QubitPairState, sp: SourceState, t: float) -> Operator:
    """Reduced target-pair state after evolving for time ``t``: evolve the
    full product state unitarily, then trace out the source pair.  The
    propagator is ``model.full_evolution``'s, kept from the last call at the
    same time and source dimension."""
    tp = _typed("tp", tp, QubitPairState)
    rho = evolve_and_reduce(full_evolution(model_for_source(sp), t), initial_full_state(tp, sp))
    return Operator(rho)


def closed_form_rho12_qubit(theta1: float, theta2: float, t: float) -> XStateCoeffs:
    """Analytic reduced-state coefficients for a qubit source.  Both angles
    and the time ``t`` follow the rule of ``qla._real``."""
    theta1, theta2 = _real("theta1", theta1), _real("theta2", theta2)
    t = _real("t", t)
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

    a, d and f match the numeric pipeline at every time.  The inner
    diagonal entry b (= c) matches it only at t = 0 and t = 4*pi/3; between
    those revivals it is off (the pipeline's b is (1 - a - d)/2), so the
    coefficients need not even form a density matrix.  They are kept
    verbatim as a regression artifact and quantified by
    ``qutrit_closed_form_discrepancy``.  ``theta1`` and ``t`` follow the
    rule of ``qla._real``.
    """
    theta1, t = _real("theta1", theta1), _real("t", t)
    sp = _typed("sp", sp, QutritPairState)
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
    routes agree exactly.  ``n_samples`` (at least 1) and ``seed`` (at
    least 0) follow the rule of ``qla._count``.
    """
    n_samples = _count("n_samples", n_samples, 1)
    rng = np.random.default_rng(_count("seed", seed, 0))
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


#: The orders m of the Fourier sum rho(t) = sum_m exp(-i m Delta t) R_m.
_FOURIER_ORDERS = np.arange(-2, 3)


@functools.cache
def _fourier_tensor(d: int) -> np.ndarray:
    """Read-only (4d^2, 5 * 16) tensor T of the source-traced Fourier sum:
    R_m = sum_pq x_p x_q T[(p, q), m], m = -2..2 in that order, each R_m a
    row-major 4x4 block, for the real amplitudes
    x = kron((cos theta, sin theta), k) of a target cos theta|00> +
    sin theta|11> and a source sum_i k_i|ii>.  Built once per source
    dimension, from the model's ``pair_projectors``.

    The propagator on legs (0,2) and (1,3) is u x u with
    u = exp(-i lambda_minus t) (P_minus + exp(-i Delta t) P_plus), so the
    evolved state is psi(t) = sum_j exp(-i j Delta t) chi_j (up to a global
    phase), where chi_0, chi_1 and chi_2 are (P_minus x P_minus),
    (P_minus x P_plus + P_plus x P_minus) and (P_plus x P_plus) applied to
    the initial state.  On the two legs, (P_x x P_y) applies to the initial
    matrix W, rows (a, i) and columns (b, j), as the sandwich P_x W P_y^T.
    Both initial pairs are Schmidt-diagonal, so W = diag(x) and the sandwich
    is sum_p x_p P_x[:, p] P_y[:, p]^T: each chi_j is linear in x, and each
    R_m = sum_{j - k = m} Tr_S chi_j chi_k^dagger is a quadratic form in x,
    whose coefficients T holds."""
    p = TransferModel.for_source_dim(d).pair_projectors
    n = 2 * d
    legs = np.einsum("xap,ybp->pxyab", p, p)  # (p, x, y, (a, i), (b, j))
    chi = np.stack([legs[:, 0, 0], legs[:, 0, 1] + legs[:, 1, 0], legs[:, 1, 1]], axis=1)
    chi = chi.reshape(n, 3, 2, d, 2, d).transpose(0, 1, 2, 4, 3, 5).reshape(n, 3, 4, d * d)
    gram = np.einsum("pjas,qkbs->pqjkab", chi, chi.conj())  # chi_j(e_p) chi_k(e_q)^dagger
    tensor = np.stack(
        [
            gram[:, :, 0, 2],
            gram[:, :, 0, 1] + gram[:, :, 1, 2],
            gram[:, :, 0, 0] + gram[:, :, 1, 1] + gram[:, :, 2, 2],
            gram[:, :, 1, 0] + gram[:, :, 2, 1],
            gram[:, :, 2, 0],
        ],
        axis=2,
    ).reshape(n * n, 5 * 16)
    tensor.setflags(write=False)
    return tensor


def _spectral_components(tp: QubitPairState, sp: SourceState) -> np.ndarray:
    """The five 4x4 Fourier components R_m, m = -2..2 (stacked in that
    order), of the reduced target state rho(t) = sum_m exp(-i m Delta t) R_m,
    with R_{-m} = R_m^dagger: the quadratic form of ``_fourier_tensor`` at
    the real amplitudes x = kron((cos theta, sin theta), k), one
    (4d^2,) @ (4d^2, 80) product."""
    d = source_dim(sp)
    # the Schmidt diagonals (cos theta, sin theta) and k, read off |00>, |11>, ...
    x = np.multiply.outer(tp.state_vector()[::3].real, sp.state_vector()[:: d + 1].real)
    return (np.outer(x, x).ravel() @ _fourier_tensor(d)).reshape(5, 4, 4)


def entanglement_curve(
    tp: QubitPairState, sp: SourceState, t_grid: Sequence[float]
) -> TransferTrace:
    """Target-pair negativity on a time grid, scored in one batched pass.

    The reduced state is the Fourier sum rho(t) = sum_m exp(-i m Delta t) R_m,
    m = -2..2, where Delta = lambda_plus - lambda_minus is 1 for a qubit
    source and 3/2 for a qutrit source.  The five 4x4 R_m are read off the
    cached ``_fourier_tensor`` of the source dimension with one product;
    then one (N, 5) @ (5, 16) product gives the (N, 4, 4) reduced states.
    Each leg conserves its own S_z, so every state is an X state, and
    ``entanglement._xstate_negativities`` checks it as a density operator and
    scores it in closed form.  Agrees with ``negativity(evolve_reduced(tp, sp,
    t))``, the oracle, within 2.7e-13 for |t| <= 1e3 (measured on 2400
    random points; both routes carry about |t| * eps of phase rounding), and
    with the former route through the stack of evolved pure states and
    ``negativities`` within 6.7e-16 on the 601-point default grids (13
    target angles in [-3, 3], six sources).

    Raises ValueError, before any evolution, naming ``tp`` if it is not a
    ``QubitPairState``, then naming ``t_grid`` if it does
    not hold numbers (None, a string), then the first time that
    ``qla._real`` refuses (a non-zero imaginary part, NaN or +-inf),
    then the first finite time whose phase m * Delta * t overflows.
    """
    tp = _typed("tp", tp, QubitPairState)
    times = np.asarray(t_grid)
    flat = times.ravel()
    try:
        bad = np.flatnonzero((flat.imag != 0.0) | ~np.isfinite(flat.real))
    except TypeError:  # not numbers: None, a string, an object array
        raise ValueError(f"t_grid must hold real numbers, got {reprlib.repr(t_grid)}") from None
    if bad.size:  # the rule of _real refuses this time
        _real(f"time at index {bad[0]}", flat[bad[0]].item())
    times = np.asarray(times.real, dtype=float)
    lo, hi = model_for_source(sp).pair_eigenvalues
    with np.errstate(over="ignore"):
        phases = np.multiply.outer(times.ravel(), -(hi - lo) * _FOURIER_ORDERS)
    bad = np.flatnonzero(~np.isfinite(phases).all(axis=1))
    if bad.size:
        time = float(times.flat[bad[0]])
        raise ValueError(f"time {time!r} at index {bad[0]} has a non-finite phase")
    rho = np.exp(1j * phases) @ _spectral_components(tp, sp).reshape(5, 16)
    values = clamp_negativity(_xstate_negativities(rho.reshape(-1, 4, 4)))
    return TransferTrace(times, values)


def default_time_grid(period: float) -> np.ndarray:
    """Uniform grid over one period, endpoints included."""
    return np.linspace(0.0, period, GRID_INTERVALS_PER_PERIOD + 1)
