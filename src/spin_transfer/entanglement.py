"""Negativity of two-qubit states, generic and X-state closed form.

The generic route (eigenvalues of the partial transpose) is written once, for
a stack of states: ``negativities`` scores every state of a
mixed-continuation staircase, and every row of a ``fig2`` table, in one
call, and each pure-reset step as a one-state stack; ``negativity`` is its
one-state case for an ``Operator``.  A state scores the same bits in a
stack of any length as alone.  The X-state closed form serves the states
that keep the X pattern, under one acceptance rule: the checks of
``_xstate_negativities``, the density checks of ``negativities`` written
for that pattern (its least eigenvalue is exact).  It checks and scores a whole time grid of ``transfer.entanglement_curve``,
and ``negativity_xstate`` is its one-state case; its Hermiticity and
X-pattern check, ``_check_x_form``, guards ``XStateCoeffs.from_operator``
and the coefficient columns of a ``fig2`` table.  The same formula scores
the half-period quadratic forms behind ``qutritmax.negativity_at_half_period``
and the half-period search.  Every score is clamped to [0, 1] by one rule,
``clamp_negativity``, of which ``NegativityValue.from_raw`` is the
one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import DEFAULT_ALGEBRAIC_TOL, POSITIVITY_TOL, Operator, _real, _typed

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
    """Two-qubit negativity with the raw (unclamped) number kept alongside
    the value clamped to [0, 1].  Clamping beyond ``POSITIVITY_TOL`` is
    refused, since a genuinely out-of-range number signals an evolution bug."""

    value: float
    raw: float

    @classmethod
    def from_raw(cls, raw: float) -> "NegativityValue":
        """The one-element case of ``clamp_negativity``."""
        return cls(float(clamp_negativity(raw)), raw)


def _check_coefficient(name: str, value, real: bool) -> None:
    """Refuse an X-state coefficient that is not a number: a string, a
    value ``complex()`` refuses (None, a list, an object, 10**400) and, if
    ``real``, a non-zero imaginary part raise ValueError naming ``name``.
    A NaN passes here; the X-state checks refuse it when it is scored."""
    if not isinstance(value, str):
        try:
            z = complex(value)
        except (TypeError, ValueError, OverflowError):
            pass  # refused below, with the other cases
        else:
            if not real or z.imag == 0:
                return
    kind = "a real" if real else "a complex"
    raise ValueError(f"{name} must be {kind} number, got {value!r}")


@dataclass(frozen=True)
class XStateCoeffs:
    """The five independent entries of a two-qubit X state: diagonal
    (a, b, c, d) and the outer anti-diagonal coherence f.  Each field is
    stored as given, after ``_check_coefficient``: a diagonal entry must be
    a real number (a complex one with zero imaginary part is taken), and f
    any number."""

    a: float
    b: float
    c: float
    d: float
    f: complex

    def __post_init__(self) -> None:
        for name in "abcd":
            _check_coefficient(name, getattr(self, name), real=True)
        _check_coefficient("f", self.f, real=False)

    def to_operator(self) -> Operator:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[0, 3] = self.f
        m[3, 0] = np.conj(self.f)
        return Operator(m)

    @classmethod
    def from_operator(cls, rho: Operator) -> "XStateCoeffs":
        """Extract coefficients from a 4x4 ``rho`` that passes the
        Hermiticity and X-pattern check of ``_xstate_negativities``."""
        m = _two_qubit_matrix(rho)
        _check_x_form(m[None])
        return cls(m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, complex(m[0, 3]))


def clamp_negativity(raw) -> np.ndarray:
    """The one clamp rule: raw two-qubit negativities clamped to [0, 1],
    where a value outside that range by more than ``POSITIVITY_TOL``, or a
    NaN, raises ValueError naming the first one.  A -0.0 stays -0.0."""
    raw = np.asarray(raw, dtype=float)
    low, high = -POSITIVITY_TOL, 1.0 + POSITIVITY_TOL
    # a NaN fails the range test; the mask is built only to name a failure
    if not (raw.min(initial=0.0) >= low and raw.max(initial=0.0) <= high):
        inside = (raw >= low) & (raw <= high)
        value = float(raw.flat[np.argmin(inside)])
        raise ValueError(
            f"negativity {value!r} outside [0, 1.0] by more than tol {POSITIVITY_TOL:.1e}"
        )
    return np.where(raw < 0.0, 0.0, np.minimum(raw, 1.0))


#: States per block of the temporaries of ``negativities``: a few hundred kB
#: whatever the length of the stack.
_BLOCK = 1024


def negativities(states: np.ndarray) -> np.ndarray:
    """Raw negativity of each two-qubit state of a stack (N, 4, 4): minus
    twice the sum of the negative eigenvalues of its partial transpose on
    the second qubit.

    Every state must be a density operator: Hermitian within
    ``DEFAULT_ALGEBRAIC_TOL``, of unit trace within ``POSITIVITY_TOL`` and
    with no eigenvalue below ``-POSITIVITY_TOL`` (a NaN fails every check).
    The checks run in that order over the whole stack, and the ValueError
    names the first state that fails the first failing check.  The stack is
    checked and scored one block of at most ``_BLOCK`` states at a time, so
    no temporary spans a longer stack.
    """
    blocks = _blocks(states)
    for first, block in blocks:
        _check_hermitian(block, first)
    _check_unit_trace(states)
    if len(blocks) == 1:
        return _block_negativities(states, 0)
    raw = np.empty(len(states))
    for first, block in blocks:
        raw[first : first + len(block)] = _block_negativities(block, first)
    return raw


def _blocks(states: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The blocks of at most ``_BLOCK`` states of a stack, each with the
    index of its state 0 in the stack."""
    return [(i, states[i : i + _BLOCK]) for i in range(0, len(states), _BLOCK)]


def _check_hermitian(states: np.ndarray, first: int) -> None:
    """The Hermiticity check of ``negativities`` on a block whose state 0 is
    state ``first`` of the stack."""
    asymmetry = abs(states - states.conj().swapaxes(1, 2))
    if not asymmetry.max(initial=0.0) <= DEFAULT_ALGEBRAIC_TOL:
        hermiticity = asymmetry.max(axis=(1, 2))
        _reject("Hermiticity defect", hermiticity, hermiticity <= DEFAULT_ALGEBRAIC_TOL, first)


def _check_unit_trace(states: np.ndarray) -> None:
    """The trace check of ``negativities`` and ``_xstate_negativities``."""
    trace = abs(states.trace(axis1=1, axis2=2) - 1.0)
    if not trace.max(initial=0.0) <= POSITIVITY_TOL:
        _reject("trace defect", trace, trace <= POSITIVITY_TOL)


def _block_negativities(states: np.ndarray, first: int) -> np.ndarray:
    """The eigenvalue check and the scores of ``negativities`` on a block of
    Hermitian, unit-trace states whose state 0 is state ``first`` of the
    stack: one ``eigvalsh`` call takes the spectra of the states and of
    their partial transposes."""
    n = len(states)
    transposed = states.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    spectra = np.linalg.eigvalsh(np.concatenate([states, transposed]))
    least = spectra[:n, 0]
    if not least.min(initial=0.0) >= -POSITIVITY_TOL:
        _reject("eigenvalue", least, least >= -POSITIVITY_TOL, first)
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
    _check_unit_trace(states)
    a, b, c, d = states.diagonal(axis1=1, axis2=2).real.T
    f = states[:, 0, 3]
    f_abs = np.hypot(f.real, f.imag)  # the bits of the scalar abs(complex)
    least = np.minimum(np.minimum(b, c), (a + d) / 2 - np.hypot((a - d) / 2, f_abs))
    _reject("eigenvalue", least, least >= -POSITIVITY_TOL)
    return xstate_negativity_raw(b, c, f_abs)


def _check_x_form(states: np.ndarray) -> None:
    """The Hermiticity and X-pattern check of ``_xstate_negativities``, which
    ``XStateCoeffs.from_operator`` runs alone on one state and
    ``cli.cmd_fig2`` on its whole table, one block of ``_BLOCK`` states at a
    time."""
    for first, block in _blocks(states):
        defect = abs(block - np.where(X_PATTERN, block.conj().swapaxes(1, 2), 0.0))
        defect = defect.max(axis=(1, 2))
        _reject("Hermiticity or X-pattern defect", defect, defect <= DEFAULT_ALGEBRAIC_TOL, first)


def _reject(name: str, values: np.ndarray, ok: np.ndarray, first: int = 0) -> None:
    """Raise ValueError naming the first state where ``ok`` is False, counted
    from ``first``, the index of state 0 of ``values`` in its stack."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"input is not a density operator: state {first + i}: {name} {values[i]:.3e}"
        )


def _two_qubit_matrix(rho: Operator) -> np.ndarray:
    """The matrix of ``rho``; ValueError naming its type unless it is an
    ``Operator``, then naming its shape unless it is 4x4."""
    m = _typed("rho", rho, Operator).matrix
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit state, got shape {m.shape}")
    return m


def negativity(rho: Operator) -> NegativityValue:
    """Negativity of a 4x4 two-qubit state ``rho``, one state of ``negativities``."""
    return NegativityValue.from_raw(float(negativities(_two_qubit_matrix(rho)[None])[0]))


def negativity_xstate(coeffs: XStateCoeffs) -> NegativityValue:
    """Closed-form negativity of an X state,
    max(0, sqrt((b - c)^2 + 4 |f|^2) - (b + c)): the one-state case of
    ``_xstate_negativities`` on ``coeffs.to_operator()``."""
    coeffs = _typed("coeffs", coeffs, XStateCoeffs)
    raw = _xstate_negativities(coeffs.to_operator().matrix[None])[0]
    return NegativityValue.from_raw(float(raw))


def xstate_negativity_raw(b, c, f_abs):
    """Vectorized X-state negativity; accepts scalars or arrays."""
    return np.maximum(0.0, np.sqrt((b - c) ** 2 + 4.0 * f_abs**2) - (b + c))


def schmidt_angle_from_negativity(value: float) -> float:
    """Angle theta in [0, pi/4] whose Schmidt state cos(theta)|00> +
    sin(theta)|11> has the requested negativity |sin 2 theta|.  ``value``
    follows the rule of ``qla._real``, and a value outside [0, 1] raises
    ValueError too."""
    real = _real("negativity", value)
    if not 0.0 <= real <= 1.0:
        raise ValueError(f"negativity {value!r} outside [0, 1]")
    return 0.5 * float(np.arcsin(real))
