"""Twirls over groups of local unitaries whose commutant is commutative.

Let G be a compact group of local unitaries.  Its twirl
T(sigma) = integral of g sigma g^dag dg is the Hilbert-Schmidt-orthogonal
projection onto G's commutant.  T maps separable states to separable states
under every separability structure (each g acts party by party), it fixes
every target that G fixes, and it contracts the trace and Hilbert-Schmidt
distances.  So for a target that G fixes, the best fit over T(SEP) is the
best fit over SEP (Vollbrecht & Werner, PRA 64, 062307 (2001)).

For the groups here the commutant is spanned by orthogonal projectors P_i
that sum to the identity, so T(sigma) = sum_i s_i P_i with
s_i = Tr(P_i sigma) / Tr(P_i):

* ``isotropic`` (U x conj(U) on C^d x C^d): |phi+><phi+| and its complement;
* ``werner`` (U x U on C^d x C^d): the symmetric and antisymmetric projectors;
* ``ghz`` (X on every qubit, and local phase gates whose phases sum to zero;
  Eltschka & Siewert, PRL 108, 020502 (2012)): GHZ+ and GHZ-, plus one
  projector |b><b| + |~b><~b| per other pair of complementary bit strings,
  2^(n-1) + 1 projectors in all.

Every projector is real and symmetric, and is stored as its nonzero entries
only; a twirl is built on first use and cached per local dimensions.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

# a target counts as fixed by a twirl when no entry moves by more than this
FIXED_TOL = 1e-12


class Twirl(NamedTuple):
    name: str
    side: int            # D, the matrix side
    index: np.ndarray    # flat D x D positions of the projectors' nonzero entries
    value: np.ndarray    # the entries
    label: np.ndarray    # the projector each entry belongs to
    rank: np.ndarray     # Tr P_i

    def coefficients(self, m: np.ndarray) -> np.ndarray:
        """s_i = Tr(P_i m) / Tr(P_i) of a Hermitian matrix m."""
        w = (self.value * np.take(m, self.index)).real
        return np.bincount(self.label, weights=w, minlength=len(self.rank)) / self.rank

    def compose(self, c: np.ndarray) -> np.ndarray:
        """The dense real matrix sum_i c_i P_i."""
        dense = np.bincount(self.index, weights=c[self.label] * self.value, minlength=self.side**2)
        return dense.reshape(self.side, self.side)

    def apply(self, m: np.ndarray) -> np.ndarray:
        """T(m) for a Hermitian matrix m."""
        return self.compose(self.coefficients(m))


def _twirl(name: str, side: int, projectors) -> Twirl:
    """Build a twirl from per-projector (rows, cols, values) entry lists.

    Entries at the same position add up, so a projector may be given as a
    sum of simpler terms.
    """
    index, value, label = [], [], []
    for i, (rows, cols, vals) in enumerate(projectors):
        flat = np.asarray(rows) * side + np.asarray(cols)
        index.append(flat)
        value.append(np.broadcast_to(np.asarray(vals, dtype=float), flat.shape))
        label.append(np.full(flat.shape, i))
    index, value, label = (np.concatenate(a) for a in (index, value, label))
    on_diagonal = index % (side + 1) == 0
    # a projector's trace is its rank, an integer
    rank = np.rint(np.bincount(label, weights=value * on_diagonal))
    for a in (index, value, label, rank):
        a.setflags(write=False)      # shared by every caller of the cache
    return Twirl(name, side, index, value, label, rank)


def _isotropic(dims: tuple[int, ...]) -> Twirl | None:
    if len(dims) != 2 or dims[0] != dims[1]:
        return None
    d = dims[0]
    diag = np.arange(d * d)
    # |phi+><phi+| = (1/d) sum_ij |ii><jj|
    rows, cols = (a.ravel() for a in np.meshgrid(diag[:: d + 1], diag[:: d + 1], indexing="ij"))
    return _twirl("isotropic", d * d, [
        (rows, cols, 1.0 / d),
        (np.concatenate([diag, rows]), np.concatenate([diag, cols]),
         np.concatenate([np.ones(d * d), np.full(rows.size, -1.0 / d)])),
    ])


def _werner(dims: tuple[int, ...]) -> Twirl | None:
    if len(dims) != 2 or dims[0] != dims[1]:
        return None
    d = dims[0]
    diag = np.arange(d * d)
    swapped = diag.reshape(d, d).T.ravel()      # row ij of F has its 1 in column ji
    rows, cols = np.concatenate([diag, diag]), np.concatenate([diag, swapped])
    half = np.full(d * d, 0.5)
    # (I + F)/2 and (I - F)/2, F the swap |ij><ji|
    return _twirl("werner", d * d, [(rows, cols, 0.5), (rows, cols, np.concatenate([half, -half]))])


def _ghz(dims: tuple[int, ...]) -> Twirl | None:
    if len(dims) < 2 or any(d != 2 for d in dims):
        return None
    side = 2 ** len(dims)
    top = side - 1               # |1...1>, the complement of |0...0>
    corner_rows, corner_cols = [0, 0, top, top], [0, top, 0, top]
    projectors = [(corner_rows, corner_cols, 0.5),
                  (corner_rows, corner_cols, [0.5, -0.5, -0.5, 0.5])]
    for b in range(1, side // 2):
        projectors.append(([b, top - b], [b, top - b], 1.0))
    return _twirl("ghz", side, projectors)


# checked in this order; the first twirl that fixes a target is used
_BUILDERS: dict[str, Callable[[tuple[int, ...]], Twirl | None]] = {
    "isotropic": _isotropic,
    "werner": _werner,
    "ghz": _ghz,
}
SYMMETRIES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def get_twirl(name: str, dims: tuple[int, ...]) -> Twirl | None:
    """The named twirl on the given local dimensions; None if it does not apply to them."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown symmetry {name!r}; known: {', '.join(SYMMETRIES)}")
    return _BUILDERS[name](tuple(int(d) for d in dims))


def find_twirl(rho: np.ndarray, dims: Sequence[int]) -> Twirl | None:
    """The first twirl in the table that fixes ``rho`` to ``FIXED_TOL``, or None."""
    for name in SYMMETRIES:
        twirl = get_twirl(name, tuple(dims))
        if twirl is not None and np.abs(twirl.apply(rho) - rho).max() <= FIXED_TOL:
            return twirl
    return None
