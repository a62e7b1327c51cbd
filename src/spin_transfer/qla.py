"""Dense complex linear algebra on labelled tensor-product spaces.

``Operator`` is the immutable, labelled type of a state or propagator handed
to a caller; inside the library the Hamiltonian and four-particle layers pass
plain complex arrays.  ``hermitian_eigh`` is the one checked
eigendecomposition: ``propagator`` runs it on every call and is the oracle
the tests compare against, while ``model.TransferModel`` runs it once per
source dimension and keeps the result, so its pair propagator evaluates
only ``spectral_exponential`` and its spectral projectors are grouped from
the same eigenvectors.
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
from math import isfinite, prod

import numpy as np

DEFAULT_ALGEBRAIC_TOL = 1e-10
POSITIVITY_TOL = 1e-9


def _real_angle(name: str, value: float) -> float:
    """``value`` as a float, the one rule for a target angle or an
    evolution time: a value with a non-zero imaginary part or a non-finite
    value is rejected, and a complex number with zero imaginary part is
    taken as its real part."""
    z = complex(value)
    if z.imag != 0 or not isfinite(z.real):
        raise ValueError(f"{name} must be finite and real, got {value!r}")
    return z.real


def _count(name: str, value: int) -> int:
    """``value`` as an int, the one rule for a count: ``operator.index``,
    so a numpy integer is taken and 2.5 raises ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on an ordered product of subsystems.

    ``dims`` lists the subsystem dimensions; their product equals the matrix
    dimension.  Basis ordering is lexicographic with the first subsystem
    slowest, i.e. the plain Kronecker-product convention.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if prod(dims) != m.shape[0]:
            raise ValueError(
                f"product of dims {dims} is {prod(dims)}, matrix dimension is {m.shape[0]}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


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

