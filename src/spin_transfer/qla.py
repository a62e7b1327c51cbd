"""Dense complex linear algebra on labelled tensor-product spaces.

Immutable operators, tensor products and propagators from the Hermitian
eigendecomposition, all pure functions.  ``kron`` is one broadcast multiply,
entry for entry the product ``np.kron`` forms, without its generic set-up.
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from self-adjointness."""
        return float(np.abs(self.matrix - self.matrix.conj().T).max())


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; subsystem labels of ``b`` follow those of ``a``.

    One broadcast multiply, laid out as ``np.kron`` lays it out, so every
    entry is the same single product a[i, j] * b[k, l]."""
    (m, n), (p, q) = a.matrix.shape, b.matrix.shape
    product = a.matrix[:, None, :, None] * b.matrix[None, :, None, :]
    return Operator(product.reshape(m * p, n * q), a.dims + b.dims)


def hermitian_eigh(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors ``(w, v)`` of ``h``, as ``np.linalg.eigh``.

    Raises ValueError with the measured asymmetry when ``h`` is not
    Hermitian within ``DEFAULT_ALGEBRAIC_TOL`` (or holds a NaN).
    """
    defect = h.hermiticity_defect()
    if not defect <= DEFAULT_ALGEBRAIC_TOL:  # NaN fails too
        raise ValueError(
            f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e}"
            f" exceeds tol {DEFAULT_ALGEBRAIC_TOL:.1e}"
        )
    return np.linalg.eigh(h.matrix)


def spectral_exponential(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """The matrix exp(-i h t) of the Hamiltonian h = v diag(w) v^dagger."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def propagator(h: Operator, t: float) -> Operator:
    """Unitary exp(-i h t) built from the checked eigendecomposition of ``h``."""
    return Operator(spectral_exponential(*hermitian_eigh(h), t), h.dims)

