"""Dense complex linear algebra on small square matrices.

``Operator`` is the immutable type of a state or propagator handed to a
caller, in the Kronecker basis order (first particle slowest); inside the
library the Hamiltonian and four-particle layers pass plain complex arrays.
``hermitian_eigh`` is the one checked eigendecomposition: ``propagator``
runs it on every call and is the oracle the tests compare against, while
``model.TransferModel`` runs it once per source dimension and keeps the
result, so its pair propagator evaluates only ``spectral_exponential`` and
its spectral projectors are grouped from the same eigenvectors.
The two cuts the physics makes, target pair | source pair
(``transfer.evolve_and_reduce``, with ``transfer.source_channel`` its form for
a pure source and the Fourier components of ``transfer.entanglement_curve``
its form for the spectral parts of a pure state) and target A | target B
(``entanglement.negativities``, and in closed form for X states), live next
to the state layouts they depend on.  Dimensions stay tiny (at most 36).

A caller's value is converted where it enters by one of four rules:
``_real`` (a real number), ``_reals`` (an array of reals), ``_count`` and
``_typed``; ``_finite_number`` is the one ``complex()`` conversion.
"""

from __future__ import annotations

import cmath
import operator
import reprlib
from dataclasses import dataclass

import numpy as np

DEFAULT_ALGEBRAIC_TOL = 1e-10
POSITIVITY_TOL = 1e-9


def _finite_number(value) -> complex | None:
    """``value`` as a finite complex number, or None for a string, a value
    ``complex()`` refuses (None, a list, a one-element array, 10**400) and a
    value with a non-finite part."""
    if isinstance(value, str):
        return None
    try:
        z = complex(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return z if cmath.isfinite(z) else None


def _real(name: str, value: float) -> float:
    """``value`` as a float, the one rule for a scalar real input (an angle,
    a time, a negativity, an amplitude, an invariant, a shrink factor, an
    X-state diagonal entry): a value ``_finite_number`` refuses and a value
    with a non-zero imaginary part raise ValueError naming ``name``; a
    complex number with zero imaginary part is its real part.  A range is
    checked by the caller on the float returned."""
    z = _finite_number(value)
    if z is None or z.imag != 0:
        raise ValueError(f"{name} must be finite and real, got {value!r}")
    return z.real


def _reals(name: str, value) -> np.ndarray:
    """``value`` as a read-only float64 copy, the array form of ``_real``: a
    value that is not an array of numbers (None, text, ``["0.5"]``,
    ``[10**400]``, a ragged nesting) raises ValueError naming ``name``, and
    so does, by the message of ``_real``, the first entry in flat order that
    is not finite or has a non-zero imaginary part ("<name> at index i")."""
    try:
        array = np.asarray(value)  # a ragged nesting raises ValueError
    except (TypeError, ValueError):
        array = None
    if array is None or array.dtype.kind not in "biufc":
        raise ValueError(f"{name} must hold real numbers, got {reprlib.repr(value)}")
    reals = np.array(array.real, dtype=float)
    ok = np.isfinite(reals)
    if array.dtype.kind == "c":
        ok &= array.imag == 0
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        _real(f"{name} at index {i}", array.ravel()[i].item())
    reals.setflags(write=False)
    return reals


def _count(name: str, value: int, least: int) -> int:
    """``value`` as an int, the one rule for a count: ``operator.index``,
    so a numpy integer is taken and 2.5 raises ValueError naming it, and so
    does a count below ``least``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return count


def _typed(name: str, value, cls: type):
    """``value`` itself if it is a ``cls``, the one rule for a state, a
    budget, an ``Operator`` or an ``XStateCoeffs`` where it enters: any other
    type raises ValueError naming ``name`` and the type it got."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be of type {cls.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Operator:
    """Read-only complex copy of a square matrix, handed to a caller."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors ``(w, v)`` of the array ``h``, as ``np.linalg.eigh``.

    Raises ValueError with the measured asymmetry max|h - h^dagger| when
    ``h`` is not Hermitian within ``DEFAULT_ALGEBRAIC_TOL`` (or holds a NaN).
    """
    defect = float(np.abs(h - h.conj().T).max())
    if not defect <= DEFAULT_ALGEBRAIC_TOL:  # NaN fails too
        raise ValueError(
            f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e}"
            f" exceeds tol {DEFAULT_ALGEBRAIC_TOL:.1e}"
        )
    return np.linalg.eigh(h)


def spectral_exponential(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """The matrix exp(-i h t) of the Hamiltonian h = v diag(w) v^dagger."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) built from the checked eigendecomposition of ``h``."""
    return spectral_exponential(*hermitian_eigh(h), t)

