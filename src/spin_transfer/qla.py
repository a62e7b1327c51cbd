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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite

import numpy as np

DEFAULT_ALGEBRAIC_TOL = 1e-10
POSITIVITY_TOL = 1e-9


def _real_angle(name: str, value: float) -> float:
    """``value`` as a float, the one rule for a target angle or an
    evolution time: a string, a value ``complex()`` refuses, a value with a
    non-zero imaginary part and a non-finite value raise ValueError naming
    ``name``; a complex number with zero imaginary part is its real part."""
    if not isinstance(value, str):
        try:
            z = complex(value)
        except (TypeError, ValueError, OverflowError):
            pass  # refused below, with the other cases
        else:
            if z.imag == 0 and isfinite(z.real):
                return z.real
    raise ValueError(f"{name} must be finite and real, got {value!r}")


def _count(name: str, value: int) -> int:
    """``value`` as an int, the one rule for a count: ``operator.index``,
    so a numpy integer is taken and 2.5 raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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

