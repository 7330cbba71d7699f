"""Dense complex linear algebra for small multipartite quantum states.

Everything here operates on plain ``numpy`` arrays (complex128).  Matrices are
assumed to be small (side <= ~100), so no sparsity or blocking is attempted.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Validation tolerances used across the package.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Average a matrix with its conjugate transpose."""
    return 0.5 * (m + m.conj().T)


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(m)[0])


def partial_transpose(
    rho: np.ndarray,
    dims: Sequence[int],
    subsystems: int | Iterable[int],
) -> np.ndarray:
    """Transpose one or more tensor factors of a multipartite operator.

    ``dims`` lists the local dimension of each party in canonical order;
    ``subsystems`` is a party index or an iterable of party indices (0-based).
    The operation is an exact index permutation: it preserves the diagonal
    (hence the trace) bit for bit and is an involution.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    total = int(np.prod(dims))
    rho = np.asarray(rho)
    if rho.shape != (total, total):
        raise ValueError(f"shape {rho.shape} does not match dims {dims}")
    if isinstance(subsystems, (int, np.integer)):
        subsystems = (int(subsystems),)
    subs = sorted(set(int(s) for s in subsystems))
    for s in subs:
        if not 0 <= s < n:
            raise ValueError(f"subsystem {s} out of range for {n} parties")
    t = rho.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return t.transpose(axes).reshape(total, total)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance: half the sum of absolute eigenvalues of a - b."""
    diff = hermitianize(np.asarray(a) - np.asarray(b))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def hs_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two operators."""
    diff = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.abs(np.vdot(diff, diff).real)))


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2) computed without an explicit matrix product."""
    rho = np.asarray(rho)
    return float(np.vdot(rho, rho).real)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix together with its tensor factorization.

    ``dims`` records the local dimension of each party; their product must
    equal the matrix side.  Construction checks finite entries, Hermiticity,
    unit trace and positive semidefiniteness and raises ``ValueError`` with
    the offending quantity otherwise.  Two density matrices are equal when
    their dims and entries are; like its array, the class is unhashable.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        side = int(np.prod(self.dims))
        if m.ndim != 2 or m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite (NaN or infinite) entries")
        herm_dev = float(np.abs(m - m.conj().T).max())
        if herm_dev > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e}")
        tr_dev = abs(complex(np.trace(m)) - 1.0)
        if tr_dev > TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        lo = min_eigenvalue(hermitianize(m))
        if lo < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: min eigenvalue {lo:.3e}")

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self.matrix, other.matrix))


def as_matrix(state) -> np.ndarray:
    """Accept either a DensityMatrix or a bare array."""
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state)
