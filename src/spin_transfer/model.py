"""Spin operators, pairwise exchange Hamiltonians and their propagators.

The interaction is the isotropic exchange coupling s1.s2 between one target
qubit and one source particle (qubit or qutrit).  ``TransferModel.for_source_dim``
runs the checked ``qla.hermitian_eigh`` of the time-independent pair
Hamiltonian once per source dimension, the only decomposition of it, and
keeps the read-only result.  Two propagator routes, both ``Operator``s,
exist: ``pair_propagator`` evaluates the spectral exponential from it, bit
for bit ``qla.propagator`` (authoritative), and ``closed_form_propagator``
is written out entrywise (regression check).  ``full_evolution`` is the
read-only array of ``pair_propagator``'s exponential, never made an
``Operator``, on legs (0,2) and (1,3) of the (target, target, source,
source) product space; it keeps the last array it built per source
dimension and returns it when the same time comes again, as it does every
round of a staircase and every loop of ``verify`` at one time.  The spin
matrices and the pair Hamiltonian are arrays too.  The two
spectral projectors, grouped from the same eigenvectors and checked when
they are built, give ``transfer.entanglement_curve`` the propagator at every
time of a grid.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .qla import DEFAULT_ALGEBRAIC_TOL, Operator, _real, hermitian_eigh, spectral_exponential

SUPPORTED_SOURCE_DIMS = (2, 3)


def spin_operators(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard d x d spin matrices (sx, sy, sz) for d in {2, 3}.

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
    return (sx, sy, sz)


def heisenberg_pair(source_dim: int) -> np.ndarray:
    """Exchange coupling sx*sx + sy*sy + sz*sz between a qubit and a spin
    particle of dimension ``source_dim``, the 2d x 2d matrix on the ordered
    pair space (2, source_dim)."""
    return sum(
        (np.kron(x, y) for x, y in zip(spin_operators(2), spin_operators(source_dim))),
        np.zeros((2 * source_dim, 2 * source_dim), dtype=complex),
    )


def spectral_projectors(
    eigh: tuple[np.ndarray, np.ndarray], eigenvalues: tuple[float, float]
) -> np.ndarray:
    """Read-only (2, n, n) stack of the projectors (P_minus, P_plus) = V V^dagger
    over the columns of v whose eigenvalue in ``eigh`` = (w, v) lies within
    ``DEFAULT_ALGEBRAIC_TOL`` of lambda_minus and of lambda_plus, the two
    ``eigenvalues``.  Orthonormal columns make P^2 = P, P_minus P_plus = 0 and
    P_minus + P_plus = I hold by construction; a ValueError names the first
    eigenvalue near neither, so h = lambda_minus P_minus + lambda_plus P_plus
    holds too.
    """
    w, v = eigh
    near = [np.abs(w - value) <= DEFAULT_ALGEBRAIC_TOL for value in eigenvalues]
    stray = np.flatnonzero(~(near[0] | near[1]))
    if stray.size:
        raise ValueError(
            f"eigenvalues {eigenvalues} do not split the Hamiltonian: eigenvalue "
            f"{float(w[stray[0]])!r} is farther than tol {DEFAULT_ALGEBRAIC_TOL:.1e} from both"
        )
    projectors = np.stack([v[:, cols] @ v[:, cols].conj().T for cols in near])
    projectors.setflags(write=False)
    return projectors


@dataclass(frozen=True)
class TransferModel:
    """One target qubit coupled to one source particle, replicated on both
    legs of the four-particle system (targets 0,1 and sources 2,3).

    The pair coupling s.S = (J^2 - s^2 - S^2)/2, with total spin
    J = S -+ 1/2, has the two ``pair_eigenvalues`` -(S + 1)/2 and S/2: -3/4
    and 1/4 for a qubit source, -1 and 1/2 for a qutrit source.  The pair
    propagator is u(t) = exp(-i lambda_minus t) P_minus
    + exp(-i lambda_plus t) P_plus with the ``pair_projectors``, the
    read-only (2, 2d, 2d) stack (P_minus, P_plus).

    ``pair_hamiltonian`` is the read-only 2d x 2d array of
    ``heisenberg_pair`` and ``pair_eigh`` its read-only eigendecomposition
    (w, v) from ``qla.hermitian_eigh``; ``pair_propagator`` evaluates
    it, and ``pair_projectors`` are grouped from it."""

    source_dim: int
    pair_hamiltonian: np.ndarray
    pair_eigenvalues: tuple[float, float]
    pair_projectors: np.ndarray
    pair_eigh: tuple[np.ndarray, np.ndarray]

    @classmethod
    @functools.cache
    def for_source_dim(cls, source_dim: int) -> "TransferModel":
        """One shared model per source dimension; its arrays are read-only."""
        if source_dim not in SUPPORTED_SOURCE_DIMS:
            raise ValueError(f"unsupported source dimension {source_dim}")
        h = heisenberg_pair(source_dim)
        spin = (source_dim - 1) / 2
        eigenvalues = (-(spin + 1) / 2, spin / 2)
        eigh = hermitian_eigh(h)
        for array in (h, *eigh):
            array.setflags(write=False)
        return cls(source_dim, h, eigenvalues, spectral_projectors(eigh, eigenvalues), eigh)


def closed_form_propagator(model: TransferModel, t: float) -> Operator:
    """Analytic pair propagator exp(-i H t) written out entrywise.

    Used as a regression check against the eigendecomposition route, which
    is the authoritative one.  ``t`` follows the rule of ``qla._real``.
    """
    t = _real("t", t)
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
        return Operator(u)
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
    return Operator(u)


def _pair_exponential(model: TransferModel, t: float) -> np.ndarray:
    """The array of ``pair_propagator`` at a time ``_real`` has taken."""
    return spectral_exponential(*model.pair_eigh, t)


def pair_propagator(model: TransferModel, t: float) -> Operator:
    """Eigendecomposition propagator for the coupled pair, from the model's
    cached ``pair_eigh``.  ``t`` follows the rule of ``qla._real``, as
    in ``full_evolution`` (hence ``transfer.evolve_reduced``): a non-finite
    or non-real time is refused."""
    return Operator(_pair_exponential(model, _real("t", t)))


#: The last ``full_evolution`` per source dimension: (model, bits of t, array).
_LAST_EVOLUTION: dict[int, tuple[TransferModel, bytes, np.ndarray]] = {}


def full_evolution(model: TransferModel, t: float) -> np.ndarray:
    """Four-particle evolution: the read-only 4d^2 x 4d^2 pair propagator on
    legs (0,2) and (1,3) of the (2, 2, source, source) product space.

    ``t`` follows the rule of ``qla._real``, checked first.  The last
    array built for each source dimension is kept, in one tuple with the
    model and the exact bits of ``t`` (so -0.0 and 0.0 differ); a call that
    repeats both returns that same array, the one a fresh build would make,
    and any other call builds afresh and replaces it."""
    t = _real("t", t)
    bits = struct.pack("d", t)
    last = _LAST_EVOLUTION.get(model.source_dim)
    if last is not None and last[0] is model and last[1] == bits:
        return last[2]
    d = model.source_dim
    u = _pair_exponential(model, t).reshape(2, d, 2, d)
    full = np.einsum("asAS,brBR->absrABSR", u, u).reshape(4 * d * d, 4 * d * d)
    full.setflags(write=False)
    _LAST_EVOLUTION[d] = (model, bits, full)
    return full
