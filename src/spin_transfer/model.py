"""Spin operators, pairwise exchange Hamiltonians and their propagators.

The interaction is the isotropic exchange coupling s1.s2 between one target
qubit and one source particle (qubit or qutrit).  Two propagator routes
exist: the eigendecomposition route (authoritative) and a closed-form matrix
(regression check).  ``full_evolution`` composes the pair propagator on the
(target, target, source, source) product space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qla import DEFAULT_ALGEBRAIC_TOL, Operator, embed_on_subsystems, kron, propagator

SUPPORTED_SOURCE_DIMS = (2, 3)


@dataclass(frozen=True)
class SpinOperators:
    """Cartesian spin components for a spin-(d-1)/2 particle."""

    d: int
    sx: Operator
    sy: Operator
    sz: Operator

    @property
    def components(self) -> tuple[Operator, Operator, Operator]:
        return (self.sx, self.sy, self.sz)


def spin_operators(d: int) -> SpinOperators:
    """Standard spin matrices for d in {2, 3}.

    Levels are ordered by descending magnetic quantum number, so
    sz = diag(1/2, -1/2) for a qubit and diag(1, 0, -1) for a qutrit.
    """
    if d not in SUPPORTED_SOURCE_DIMS:
        raise ValueError(f"unsupported spin dimension {d}; expected one of {SUPPORTED_SOURCE_DIMS}")
    s = (d - 1) / 2.0
    m = np.array([s - k for k in range(d)])
    sz = np.diag(m).astype(complex)
    raise_op = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        raise_op[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    lower_op = raise_op.conj().T
    sx = (raise_op + lower_op) / 2
    sy = (raise_op - lower_op) / 2j
    dims = (d,)
    return SpinOperators(d, Operator(sx, dims), Operator(sy, dims), Operator(sz, dims))


def heisenberg_pair(d_a: int, d_b: int) -> Operator:
    """Exchange coupling sx*sx + sy*sy + sz*sz between a qubit and a spin-d_b
    particle, on the ordered pair space (d_a, d_b)."""
    if d_a != 2:
        raise ValueError(f"first particle must be a qubit, got dimension {d_a}")
    a = spin_operators(d_a)
    b = spin_operators(d_b)
    total = sum(
        (kron(x, y).matrix for x, y in zip(a.components, b.components)),
        np.zeros((d_a * d_b, d_a * d_b), dtype=complex),
    )
    return Operator(total, (d_a, d_b))


@dataclass(frozen=True)
class TransferModel:
    """One target qubit coupled to one source particle, replicated on both
    legs of the four-particle system (targets 0,1 and sources 2,3)."""

    source_dim: int
    pair_hamiltonian: Operator

    @property
    def full_dims(self) -> tuple[int, int, int, int]:
        return (2, 2, self.source_dim, self.source_dim)

    @classmethod
    def for_source_dim(cls, source_dim: int) -> "TransferModel":
        if source_dim not in SUPPORTED_SOURCE_DIMS:
            raise ValueError(f"unsupported source dimension {source_dim}")
        return cls(source_dim, heisenberg_pair(2, source_dim))


def closed_form_propagator(model: TransferModel, t: float) -> Operator:
    """Analytic pair propagator exp(-i H t) written out entrywise.

    Used as a regression check against the eigendecomposition route, which
    is the authoritative one.
    """
    if model.source_dim == 2:
        phase = np.exp(-1j * t / 4)
        e = np.exp(1j * t)
        u = phase * np.array(
            [
                [1, 0, 0, 0],
                [0, (1 + e) / 2, -(-1 + e) / 2, 0],
                [0, -(-1 + e) / 2, (1 + e) / 2, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        return Operator(u, (2, 2))
    x1 = np.exp(-1j * t / 2)
    x2 = (np.exp(1j * t) + 2 * np.exp(-1j * t / 2)) / 3
    x3 = np.sqrt(2) * (np.exp(-1j * t / 2) - np.exp(1j * t)) / 3
    x4 = (2 * np.exp(1j * t) + np.exp(-1j * t / 2)) / 3
    z = 0.0
    u = np.array(
        [
            [x1, z, z, z, z, z],
            [z, x2, z, x3, z, z],
            [z, z, x4, z, x3, z],
            [z, x3, z, x4, z, z],
            [z, z, x3, z, x2, z],
            [z, z, z, z, z, x1],
        ],
        dtype=complex,
    )
    return Operator(u, (2, 3))


def pair_propagator(model: TransferModel, t: float) -> Operator:
    """Eigendecomposition propagator for the coupled pair."""
    return propagator(model.pair_hamiltonian, t)


def full_evolution(model: TransferModel, t: float) -> Operator:
    """Four-particle evolution: the pair propagator applied to legs (0,2)
    and (1,3) of the (2, 2, source, source) product space."""
    u = pair_propagator(model, t)
    dims = model.full_dims
    leg_a = embed_on_subsystems(u, (0, 2), dims)
    leg_b = embed_on_subsystems(u, (1, 3), dims)
    return leg_a @ leg_b


def equal_up_to_phase(a: Operator, b: Operator) -> bool:
    """Unitary equality test that ignores a global phase."""
    prod_ = a.dagger().matrix @ b.matrix
    phase = prod_[0, 0]
    if abs(abs(phase) - 1.0) > DEFAULT_ALGEBRAIC_TOL:
        return False
    return float(np.abs(prod_ - phase * np.eye(a.dim)).max()) <= DEFAULT_ALGEBRAIC_TOL
