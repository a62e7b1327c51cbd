"""Negativity of two-subsystem states, generic and X-state closed form.

The generic route (eigenvalues of the partial transpose) is written once, for
a stack of states: ``negativities`` scores every state of a
mixed-continuation staircase in one call, and ``negativity``, its one-state
case, scores every pure-reset step and ``fig2`` row.  A state scores the same
bits in a stack of any length as alone.  The X-state closed form serves the
states that keep the X pattern, under one acceptance rule: the checks of
``_xstate_negativities``, the density checks of ``negativities`` written for
that pattern (its least eigenvalue is exact).  They guard a whole time grid
of ``transfer.entanglement_curve`` and the one-state stack of
``negativity_xstate``, and their Hermiticity and X-pattern part guards
``XStateCoeffs.from_operator``.  The same formula scores the half-period
quadratic forms behind ``qutritmax.negativity_at_half_period`` and the
half-period search.
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

    def to_operator(self) -> Operator:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[0, 3] = self.f
        m[3, 0] = np.conj(self.f)
        return Operator(m, (2, 2))

    @classmethod
    def from_operator(cls, rho: Operator) -> "XStateCoeffs":
        """Extract coefficients from a two-qubit ``rho`` that passes the
        Hermiticity and X-pattern check of ``_xstate_negativities``."""
        if rho.dims != (2, 2):
            raise ValueError(f"expected a two-qubit state, got dims {rho.dims}")
        m = rho.matrix
        _check_x_form(m[None])
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


def _xstate_negativities(states: np.ndarray) -> np.ndarray:
    """Raw negativity of each two-qubit X state of a stack (N, 4, 4), in
    closed form: ``negativities`` for states that keep the X pattern.

    The checks are those of ``negativities``, in its order, each written for
    the X form, and the ValueError names the first state that fails the
    first failing check (a NaN fails the first):
    - Hermiticity and X pattern within ``DEFAULT_ALGEBRAIC_TOL``: every
      off-pattern entry, twice the imaginary part of the diagonal and
      rho_30 - conj(rho_03);
    - unit trace within ``POSITIVITY_TOL``;
    - least eigenvalue min(b, c, (a + d)/2 - hypot((a - d)/2, |f|)), the
      exact spectrum of an X state, not below ``-POSITIVITY_TOL``.
    """
    _check_x_form(states)
    trace = abs(states.trace(axis1=1, axis2=2) - 1.0)
    _reject("trace defect", trace, trace <= POSITIVITY_TOL)
    a, b, c, d = states.diagonal(axis1=1, axis2=2).real.T
    f_abs = abs(states[:, 0, 3])
    least = np.minimum(np.minimum(b, c), (a + d) / 2 - np.hypot((a - d) / 2, f_abs))
    _reject("eigenvalue", least, least >= -POSITIVITY_TOL)
    return xstate_negativity_raw(b, c, f_abs)


def _check_x_form(states: np.ndarray) -> None:
    """The Hermiticity and X-pattern check of ``_xstate_negativities``, which
    ``XStateCoeffs.from_operator`` runs alone."""
    defect = abs(states - np.where(X_PATTERN, states.conj().swapaxes(1, 2), 0.0))
    defect = defect.max(axis=(1, 2))
    _reject("Hermiticity or X-pattern defect", defect, defect <= DEFAULT_ALGEBRAIC_TOL)


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
    """Closed-form negativity of an X state,
    max(0, sqrt((b - c)^2 + 4 |f|^2) - (b + c)), for coefficients that pass
    the checks ``_xstate_negativities`` runs on ``coeffs.to_operator()``."""
    _xstate_negativities(coeffs.to_operator().matrix[None])
    # scored from the scalars: numpy's vectorized complex abs differs by 1 ulp
    # from the scalar one on about a third of |f| values; .real drops an
    # imaginary diagonal part the check let through, as the stack does
    raw =xstate_negativity_raw(coeffs.b.real, coeffs.c.real, abs(coeffs.f))
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
