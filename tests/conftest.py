from math import isqrt, prod

import numpy as np
import pytest

from spin_transfer.qla import Operator


def random_density(rng: np.random.Generator, dims) -> Operator:
    d = prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return Operator(m / np.trace(m))


def random_hermitian(rng: np.random.Generator, dims) -> np.ndarray:
    d = prod(dims)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def trace_out_sources(rho: np.ndarray) -> np.ndarray:
    """4x4 target-pair state of a 4d^2 x 4d^2 state on (2, 2, d, d), traced
    with two nested ``np.trace`` calls over the source axes: an oracle
    independent of ``transfer.evolve_and_reduce``."""
    d = isqrt(rho.shape[0] // 4)
    t = rho.reshape((2, 2, d, d) * 2)  # axes (a, b, i, j, A, B, I, J)
    t = np.trace(np.trace(t, axis1=3, axis2=7), axis1=2, axis2=5)
    return t.reshape(4, 4)


def max_abs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
