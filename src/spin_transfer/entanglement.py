"""Negativity of two-subsystem states, generic and X-state closed form.

The generic route (eigenvalues of the partial transpose) is written once, for
a stack of states: ``negativities`` scores a whole time grid of
``transfer.entanglement_curve`` and every state of a mixed-continuation
staircase in one call each, and ``negativity``, its one-state case, scores
every pure-reset step and ``fig2`` row.  A state scores the same bits in a
stack of any length as alone.  The vectorized X-state formula serves the
half-period quadratic forms, which score both
``qutritmax.negativity_at_half_period`` and the half-period search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import DEFAULT_ALGEBRAIC_TOL, POSITIVITY_TOL, Operator

X_PATTERN = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=bool,
)


@dataclass(frozen=True)
class NegativityValue:
    """Negativity with the raw (unclamped) number kept alongside the
    sanitized value.  Clamping beyond ``POSITIVITY_TOL`` is refused, since a genuinely
    out-of-range number signals an evolution bug.  For qubit pairs the
    attainable range is [0, 1]; for a d x D bipartition it is [0, min-1]."""

    value: float
    raw: float

    @classmethod
    def from_raw(cls, raw: float, upper: float = 1.0) -> "NegativityValue":
        if not -POSITIVITY_TOL <= raw <= upper + POSITIVITY_TOL:  # NaN fails too
            raise ValueError(
                f"negativity {raw!r} outside [0, {upper}] by more than tol {POSITIVITY_TOL:.1e}"
            )
        return cls(min(max(raw, 0.0), upper), raw)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class XStateCoeffs:
    """The five independent entries of a two-qubit X state: diagonal
    (a, b, c, d) and the outer anti-diagonal coherence f."""

    a: float
    b: float
    c: float
    d: float
    f: complex

    def validate(self) -> None:
        diag = (self.a, self.b, self.c, self.d)
        if not abs(sum(diag) - 1.0) <= POSITIVITY_TOL:  # NaN fails too
            raise ValueError(f"diagonal sums to {sum(diag)!r}, not 1 within {POSITIVITY_TOL:.1e}")
        if not min(diag) >= -POSITIVITY_TOL:
            raise ValueError(f"negative diagonal entry {min(diag)!r}")
        if not abs(self.f) ** 2 <= self.a * self.d + POSITIVITY_TOL:
            raise ValueError(
                f"|f|^2 = {abs(self.f)**2!r} exceeds a*d = {self.a * self.d!r} beyond tol"
            )

    def to_operator(self) -> Operator:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[0, 3] = self.f
        m[3, 0] = np.conj(self.f)
        return Operator(m, (2, 2))

    @classmethod
    def from_operator(cls, rho: Operator) -> "XStateCoeffs":
        """Extract coefficients, rejecting matrices without the X sparsity
        pattern or with non-real diagonal."""
        if rho.dims != (2, 2):
            raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
        m = rho.matrix
        stray = float(np.abs(np.where(X_PATTERN, 0.0, m)).max())
        if not stray <= DEFAULT_ALGEBRAIC_TOL:  # NaN fails too
            raise ValueError(f"matrix is not X-shaped: off-pattern entry {stray:.3e}")
        if not float(np.abs(np.imag(np.diag(m))).max()) <= DEFAULT_ALGEBRAIC_TOL:
            raise ValueError("diagonal entries are not real")
        return cls(m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, complex(m[0, 3]))


def clamp_negativity(raw, upper: float = 1.0) -> np.ndarray:
    """The array form of ``NegativityValue.from_raw``: raw negativities
    clamped to [0, upper], where a value outside that range by more than
    ``POSITIVITY_TOL``, or a NaN, raises ValueError naming the first one.
    A -0.0 stays -0.0, as with ``min(max(raw, 0.0), upper)``."""
    raw = np.asarray(raw, dtype=float)
    inside = (raw >= -POSITIVITY_TOL) & (raw <= upper + POSITIVITY_TOL)
    if not inside.all():
        value = float(raw.flat[np.argmin(inside)])
        raise ValueError(
            f"negativity {value!r} outside [0, {upper}] by more than tol {POSITIVITY_TOL:.1e}"
        )
    return np.where(raw < 0.0, 0.0, np.minimum(raw, upper))


def negativities(states: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Raw negativity of each state of a stack (N, a*b, a*b) on the
    subsystems ``dims`` = (a, b): minus twice the sum of the negative
    eigenvalues of its partial transpose on the second subsystem.

    Every state must be a density operator: Hermitian within
    ``DEFAULT_ALGEBRAIC_TOL``, of unit trace within ``POSITIVITY_TOL`` and
    with no eigenvalue below ``-POSITIVITY_TOL`` (a NaN fails every check).
    The checks run in that order, and the ValueError names the first state
    that fails the first failing check.  One ``eigvalsh`` call takes the
    spectra of the states and of their partial transposes.
    """
    asymmetry = abs(states - states.conj().swapaxes(1, 2))
    trace = abs(states.trace(axis1=1, axis2=2) - 1.0)
    if not (
        asymmetry.max(initial=0.0) <= DEFAULT_ALGEBRAIC_TOL
        and trace.max(initial=0.0) <= POSITIVITY_TOL
    ):
        hermiticity = asymmetry.max(axis=(1, 2))
        _reject("Hermiticity defect", hermiticity, hermiticity <= DEFAULT_ALGEBRAIC_TOL)
        _reject("trace defect", trace, trace <= POSITIVITY_TOL)
    a, b = dims
    n = len(states)
    transposed = states.reshape(n, a, b, a, b).transpose(0, 1, 4, 3, 2).reshape(n, a * b, a * b)
    spectra = np.linalg.eigvalsh(np.concatenate([states, transposed]))
    least = spectra[:n, 0]
    if not least.min(initial=0.0) >= -POSITIVITY_TOL:
        _reject("eigenvalue", least, least >= -POSITIVITY_TOL)
    return -2.0 * np.minimum(spectra[n:], 0.0).sum(axis=1)


def _reject(name: str, values: np.ndarray, ok: np.ndarray) -> None:
    """Raise ValueError naming the first state where ``ok`` is False."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(f"input is not a density operator: state {i}: {name} {values[i]:.3e}")


def negativity(rho: Operator) -> NegativityValue:
    """Negativity of a two-subsystem state ``rho``; the one-state case of
    ``negativities``."""
    if len(rho.dims) != 2:
        raise ValueError(f"negativity needs two subsystems, got dims {rho.dims}")
    raw = float(negativities(rho.matrix[None], rho.dims)[0])
    return NegativityValue.from_raw(raw, upper=float(min(rho.dims) - 1))


def negativity_xstate(coeffs: XStateCoeffs) -> NegativityValue:
    """Closed-form negativity of an X state:
    max(0, sqrt((b - c)^2 + 4 |f|^2) - (b + c))."""
    coeffs.validate()
    raw = xstate_negativity_raw(coeffs.b, coeffs.c, abs(coeffs.f))
    return NegativityValue.from_raw(float(raw))


def xstate_negativity_raw(b, c, f_abs):
    """Vectorized X-state negativity; accepts scalars or arrays."""
    return np.maximum(0.0, np.sqrt((b - c) ** 2 + 4.0 * f_abs**2) - (b + c))


def schmidt_angle_from_negativity(value: float) -> float:
    """Angle theta in [0, pi/4] whose Schmidt state cos(theta)|00> +
    sin(theta)|11> has the requested negativity |sin 2 theta|."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"negativity {value!r} outside [0, 1]")
    return 0.5 * float(np.arcsin(value))
