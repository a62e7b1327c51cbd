"""Dense complex linear algebra on labelled tensor-product spaces.

Everything here is a pure function on immutable operators.  Dimensions stay
tiny (at most 36), so clarity wins over performance everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ALGEBRAIC_TOL = 1e-10
POSITIVITY_TOL = 1e-9


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

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "Operator":
        dims = tuple(int(d) for d in dims)
        return cls(np.eye(prod(dims), dtype=complex), dims)

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from self-adjointness."""
        return float(np.abs(self.matrix - self.matrix.conj().T).max())

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() <= DEFAULT_ALGEBRAIC_TOL

    def is_unitary(self) -> bool:
        gram = self.matrix.conj().T @ self.matrix
        return float(np.abs(gram - np.eye(self.dim)).max()) <= DEFAULT_ALGEBRAIC_TOL

    def is_density(self) -> bool:
        """Unit trace, Hermitian, and no eigenvalue below ``-POSITIVITY_TOL``."""
        if not self.is_hermitian() or abs(self.trace() - 1.0) > POSITIVITY_TOL:
            return False
        return float(np.linalg.eigvalsh(self.matrix)[0]) >= -POSITIVITY_TOL

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dims != other.dims:
            raise ValueError(f"dims mismatch: {self.dims} vs {other.dims}")
        return Operator(self.matrix @ other.matrix, self.dims)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian operator: ascending eigenvalues and a
    unitary whose columns are the matching eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: Operator

    def reconstruct(self) -> Operator:
        v = self.eigenvectors.matrix
        return Operator((v * self.eigenvalues) @ v.conj().T, self.eigenvectors.dims)


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product; subsystem labels of ``b`` follow those of ``a``."""
    return Operator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def hermitian_eig(m: Operator) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator (ascending eigenvalues).

    Raises ValueError with the measured asymmetry when the input is not
    Hermitian within ``DEFAULT_ALGEBRAIC_TOL``.
    """
    defect = m.hermiticity_defect()
    if defect > DEFAULT_ALGEBRAIC_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max|M - M^dagger| = {defect:.3e}"
            f" exceeds tol {DEFAULT_ALGEBRAIC_TOL:.1e}"
        )
    w, v = np.linalg.eigh(m.matrix)
    return EigenDecomposition(w, Operator(v, m.dims))


def propagator(h: Operator, t: float) -> Operator:
    """Unitary exp(-i h t) built from the eigendecomposition of ``h``."""
    eig = hermitian_eig(h)
    v = eig.eigenvectors.matrix
    u = (v * np.exp(-1j * eig.eigenvalues * t)) @ v.conj().T
    return Operator(u, h.dims)


def _check_subsystem_indices(indices: Iterable[int], n: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise ValueError(f"{what} must not be empty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"{what} contains duplicates: {idx}")
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"{what} {idx} out of range for {n} subsystems")
    return idx


def partial_trace(rho: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not listed in ``keep`` (original order kept)."""
    n = len(rho.dims)
    if n < 2:
        raise ValueError("partial trace needs at least two subsystems")
    kept = tuple(sorted(_check_subsystem_indices(keep, n, "keep set")))
    t = rho.matrix.reshape(rho.dims + rho.dims)
    row = list(range(n))
    col = [n + i for i in range(n)]
    for i in range(n):
        if i not in kept:
            col[i] = row[i]
    out = [row[i] for i in kept] + [col[i] for i in kept]
    kept_dims = tuple(rho.dims[i] for i in kept)
    d = prod(kept_dims)
    reduced = np.einsum(t, row + col, out).reshape(d, d)
    return Operator(reduced, kept_dims)


def partial_transpose(rho: Operator, subsystem: int) -> Operator:
    """Transpose a single subsystem in place; involutive and spectrum-real
    preserving on Hermitian inputs."""
    n = len(rho.dims)
    (k,) = _check_subsystem_indices([subsystem], n, "subsystem")
    t = rho.matrix.reshape(rho.dims + rho.dims)
    axes = list(range(2 * n))
    axes[k], axes[n + k] = axes[n + k], axes[k]
    return Operator(t.transpose(axes).reshape(rho.dim, rho.dim), rho.dims)


def embed_on_subsystems(
    u: Operator, targets: Sequence[int], full_dims: Sequence[int]
) -> Operator:
    """Extend ``u`` to the full space: acts as ``u`` on ``targets`` (in the
    given order) and as the identity elsewhere."""
    full_dims = tuple(int(d) for d in full_dims)
    n = len(full_dims)
    tgt = _check_subsystem_indices(targets, n, "targets")
    expected = tuple(full_dims[i] for i in tgt)
    if u.dims != expected:
        raise ValueError(
            f"operator dims {u.dims} do not match full dims {expected} at targets {tgt}"
        )
    rest = tuple(i for i in range(n) if i not in tgt)
    rest_dim = prod(full_dims[i] for i in rest) if rest else 1
    big = np.kron(u.matrix, np.eye(rest_dim, dtype=complex))
    # big acts on subsystem order targets + rest; permute back to 0..n-1
    perm = tgt + rest
    dims_perm = tuple(full_dims[i] for i in perm)
    inv = np.argsort(perm)
    t = big.reshape(dims_perm + dims_perm)
    axes = list(inv) + [n + i for i in inv]
    d = prod(full_dims)
    return Operator(t.transpose(axes).reshape(d, d), full_dims)
