"""Negativity of two-subsystem states, generic and X-state closed form.

The generic route (eigenvalues of the partial transpose) scores every curve
and staircase step; the vectorized X-state formula serves the half-period
kernel (``qutritmax.negativity_at_half_period``) and the quadratic forms that
rank the half-period search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import DEFAULT_ALGEBRAIC_TOL, POSITIVITY_TOL, Operator, partial_transpose

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


def negativity(rho: Operator) -> NegativityValue:
    """Negativity of a two-subsystem state ``rho``: minus twice the sum of
    negative eigenvalues of its partial transpose."""
    if len(rho.dims) != 2:
        raise ValueError(f"negativity needs two subsystems, got dims {rho.dims}")
    if not rho.is_density():
        raise ValueError("input is not a density operator (trace/Hermiticity/positivity)")
    eigs = np.linalg.eigvalsh(partial_transpose(rho, 1).matrix)
    raw = float(-2.0 * eigs[eigs < 0].sum())
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
