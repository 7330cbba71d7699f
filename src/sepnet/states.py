"""Target state families: benchmark densities with known separability structure.

All factories return validated :class:`~sepnet.linalg.DensityMatrix` objects
(or bare state vectors for the pure states).  The mixing conventions are:

* ``isotropic(d, q)``   = (1-q)/d^2 * I + q |phi+><phi+|
* ``werner(d, q)``      = (1-q) * 2/(d(d+1)) P_sym + q * 2/(d(d-1)) P_asym
* ``noisy_mix(psi, q)`` = q |psi><psi| + (1-q) I/D

With these conventions the isotropic family has a positive partial transpose
iff q <= 1/(d+1) (the same point where it becomes separable), and the Werner
family is separable iff q <= 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import DensityMatrix, hermitianize


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled state vector (1/sqrt(d)) sum_i |ii> on C^d x C^d."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def isotropic(d: int, q: float) -> DensityMatrix:
    """Isotropic state: uniform noise mixed with the maximally entangled state."""
    if d < 2:
        raise ValueError("d must be at least 2")
    psi = max_entangled(d)
    m = (1.0 - q) / d**2 * np.eye(d * d) + q * np.outer(psi, psi.conj())
    return DensityMatrix(m, (d, d))


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F = sum_ij |ij><ji| on C^d x C^d."""
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return f


def werner(d: int, q: float) -> DensityMatrix:
    """Werner state: mixture of the normalized symmetric and antisymmetric projectors."""
    if d < 2:
        raise ValueError("d must be at least 2")
    f = flip_operator(d)
    eye = np.eye(d * d)
    p_sym = 0.5 * (eye + f)
    p_asym = 0.5 * (eye - f)
    m = (1.0 - q) * 2.0 / (d * (d + 1)) * p_sym + q * 2.0 / (d * (d - 1)) * p_asym
    return DensityMatrix(m, (d, d))


def horodecki_3x3(q: float) -> DensityMatrix:
    """Two-qutrit family with a bound-entangled region.

    Separable for q in [0, 0.5], entangled with positive partial transpose for
    q in (0.5, 1.5] and NPT entangled for q in (1.5, 2.5].
    """
    if not 0.0 <= q <= 2.5:
        raise ValueError("q must lie in [0, 2.5]")
    beta_m = 2.5 - q
    beta_p = 2.5 + q
    m = np.zeros((9, 9))
    corners = (0, 4, 8)
    for i in corners:
        for j in corners:
            m[i, j] = 2.0
    diag = (2.0, beta_m, beta_p, beta_p, 2.0, beta_m, beta_m, beta_p, 2.0)
    for i, v in enumerate(diag):
        m[i, i] = v
    return DensityMatrix(m / 21.0, (3, 3))


def ghz(n: int) -> np.ndarray:
    """GHZ state vector (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("n must be at least 2")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2)
    return psi


def w_state(n: int) -> np.ndarray:
    """W state vector: equal superposition of all single-excitation basis states."""
    if n < 2:
        raise ValueError("n must be at least 2")
    psi = np.zeros(2**n, dtype=complex)
    for i in range(n):
        psi[1 << i] = 1.0
    return psi / np.sqrt(n)


def noisy_mix(psi: np.ndarray, q: float, dims: tuple[int, ...]) -> DensityMatrix:
    """Pure state mixed with white noise: q |psi><psi| + (1-q) I/D."""
    psi = np.asarray(psi, dtype=complex)
    total = int(np.prod(dims))
    if psi.shape != (total,):
        raise ValueError(f"vector length {psi.shape} does not match dims {dims}")
    m = q * np.outer(psi, psi.conj()) + (1.0 - q) / total * np.eye(total)
    return DensityMatrix(m, dims)


def random_density_matrix(d: int, rng: np.random.Generator, dims=None) -> DensityMatrix:
    """Hilbert-Schmidt random density matrix: G G^dag / Tr(G G^dag), G Ginibre."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(hermitianize(m), dims if dims is not None else (d,))

def random_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    """Hilbert-Schmidt random two-qubit density matrix."""
    return random_density_matrix(4, rng, dims=(2, 2))


def bell_ansatz_state(a: float, b: complex, c: complex) -> DensityMatrix:
    """Two-qubit family built around the maximally entangled state.

    The matrix is::

        [[1/2-a,  c,     conj(c),  a      ],
         [conj(c), a,    b,       -conj(c)],
         [c,      conj(b), a,     -c      ],
         [a,     -c,    -conj(c),  1/2-a  ]]

    ``a`` must be real so the diagonal is real; ``b`` and ``c`` may be
    complex.  Positivity is checked, not assumed; invalid parameters raise
    ``ValueError`` carrying the minimum eigenvalue.
    """
    a = complex(a)
    if abs(a.imag) > 1e-12:
        raise ValueError("parameter a must be real")
    a = a.real
    b = complex(b)
    c = complex(c)
    cc = np.conj(c)
    bb = np.conj(b)
    m = np.array(
        [
            [0.5 - a, c, cc, a],
            [cc, a, b, -cc],
            [c, bb, a, -c],
            [a, -c, -cc, 0.5 - a],
        ],
        dtype=complex,
    )
    return DensityMatrix(m, (2, 2))


# --- reference values ------------------------------------------------------

def reference_distance(family: str, metric: str, d: int, q: float) -> float:
    """Closed-form distance to the separable set for isotropic/Werner states.

    ``metric`` is "trace" or "hs".  Values below the separability boundary
    clamp to zero.
    """
    if family == "isotropic":
        x = q - 1.0 / (d + 1)
        if x <= 0:
            return 0.0
        if metric == "hs":
            return float(np.sqrt(d**2 - 1) / d * x)
        if metric == "trace":
            return float((d**2 - 1) / d**2 * x)
    elif family == "werner":
        x = q - 0.5
        if x <= 0:
            return 0.0
        if metric == "hs":
            return float(2.0 / np.sqrt(d**2 - 1) * x)
        if metric == "trace":
            return float(x)
    else:
        raise ValueError(f"no reference distance for family {family!r}")
    raise ValueError(f"unknown metric {metric!r}")


# --- family registry -------------------------------------------------------

class _Family(NamedTuple):
    fields: tuple[str, ...]     # the FamilySpec fields this kind uses
    dims: Callable[["FamilySpec"], tuple[int, ...]]
    member: Callable[["FamilySpec", float], DensityMatrix]
    uses_q: bool = True         # whether the member depends on q


_FAMILIES = {
    "isotropic": _Family(("d",), lambda f: (f.d, f.d), lambda f, q: isotropic(f.d, q)),
    "werner": _Family(("d",), lambda f: (f.d, f.d), lambda f, q: werner(f.d, q)),
    "horodecki": _Family((), lambda f: (3, 3), lambda f, q: horodecki_3x3(q)),
    "noisy_ghz": _Family(("n",), lambda f: (2,) * f.n,
                         lambda f, q: noisy_mix(ghz(f.n), q, (2,) * f.n)),
    "noisy_w": _Family(("n",), lambda f: (2,) * f.n,
                       lambda f, q: noisy_mix(w_state(f.n), q, (2,) * f.n)),
    "bell_ansatz": _Family(("ansatz",), lambda f: (2, 2), lambda f, q: bell_ansatz_state(*f.ansatz),
                           uses_q=False),
}
FAMILY_KINDS = tuple(_FAMILIES)
_FIELD_LABELS = {"d": "d", "n": "n", "ansatz": "a,b,c"}


def family_parameters(kind: str) -> tuple[str, ...]:
    """The FamilySpec fields a kind uses, plus ``"q"`` if its members depend on q."""
    family = FamilySpec(kind)._family()
    return family.fields + (("q",) if family.uses_q else ())


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of a one-parameter target family, used by scans and the CLI.

    ``kind`` is one of :data:`FAMILY_KINDS`.  ``d`` is the local dimension
    for the bipartite families, ``n`` the number of qubits for the noisy
    multipartite ones and ``ansatz`` the (a, b, c) of ``bell_ansatz``; each
    kind ignores the fields it does not use.
    """

    kind: str
    d: int = 2
    n: int = 3
    ansatz: tuple[float, complex, complex] = field(default=(0.0, 0.0, 0.0))

    def _family(self) -> _Family:
        try:
            return _FAMILIES[self.kind]
        except KeyError:
            raise ValueError(f"unknown family kind {self.kind!r}") from None

    def dims(self) -> tuple[int, ...]:
        return self._family().dims(self)

    def make(self, q: float) -> DensityMatrix:
        """Instantiate the family member with mixing parameter q."""
        return self._family().member(self, q)

    def describe(self) -> list[str]:
        """Header lines naming the kind and the value of each field it uses."""
        return [f"family = {self.kind}"] + [
            f"{_FIELD_LABELS[name]} = {getattr(self, name)}" for name in self._family().fields
        ]
