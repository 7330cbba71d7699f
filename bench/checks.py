"""Reference values and correctness checks, computed apart from sepnet.

Every function here uses numpy alone: none calls into the package, so a fault
in sepnet's linear algebra cannot hide a fault in its results.  A check
returns a list of messages, empty when the result passes.
"""
from __future__ import annotations

import numpy as np

# The recomputed distance of a returned state must match the reported one.
REPORT_TOL = 1e-9
# Slack for "never below": the bounds are exact, the eigensolvers are not.
BOUND_SLACK = 1e-9
PSD_SLACK = 1e-9


def eigvalsh(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


def trace_dist(a, b) -> float:
    return 0.5 * float(np.abs(eigvalsh(np.asarray(a) - np.asarray(b))).sum())


def hs_dist(a, b) -> float:
    d = np.asarray(a) - np.asarray(b)
    return float(np.sqrt(np.sum(np.abs(d) ** 2)))


def pt_second(m: np.ndarray, da: int, db: int) -> np.ndarray:
    """Partial transpose on the second factor of C^da x C^db."""
    t = np.asarray(m).reshape(da, db, da, db)
    return t.transpose(0, 3, 2, 1).reshape(da * db, da * db)


def pt_min_eig(m: np.ndarray, da: int = 2, db: int = 2) -> float:
    return float(eigvalsh(pt_second(m, da, db))[0])


def isotropic_matrix(d: int, q: float) -> np.ndarray:
    phi = np.zeros(d * d)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return (1.0 - q) / d**2 * np.eye(d * d) + q * np.outer(phi, phi)


def werner_matrix(d: int, q: float) -> np.ndarray:
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    eye = np.eye(d * d)
    return ((1.0 - q) / (d * (d + 1)) * (eye + swap)
            + q / (d * (d - 1)) * (eye - swap))


def ghz_vector(n: int) -> np.ndarray:
    v = np.zeros(2**n)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return v


def noisy_ghz_matrix(n: int, q: float) -> np.ndarray:
    v = ghz_vector(n)
    return q * np.outer(v, v) + (1.0 - q) / 2**n * np.eye(2**n)


def isotropic_trace_bound(d: int, q: float) -> float:
    """Exact trace distance of isotropic(d, q) to the separable set."""
    return max(0.0, (d * d - 1) / (d * d) * (q - 1.0 / (d + 1)))


def ghz_witness_bound(rho: np.ndarray, n: int) -> float:
    """<GHZ|rho|GHZ> - 1/2: every biseparable state has fidelity at most 1/2."""
    v = ghz_vector(n)
    return float(np.real(v @ np.asarray(rho) @ v)) - 0.5


# --- checks ------------------------------------------------------------------

def check_target(name: str, matrix, expected) -> list[str]:
    dev = float(np.abs(np.asarray(matrix) - expected).max())
    return [] if dev <= 1e-12 else [f"{name}: target deviates from its definition by {dev:.3e}"]


def check_state(name: str, state) -> list[str]:
    """The returned state is a density matrix."""
    m = np.asarray(state)
    out = []
    if abs(np.trace(m) - 1.0) > 1e-9:
        out.append(f"{name}: returned state has trace {np.trace(m).real:.12f}")
    if float(np.abs(m - m.conj().T).max()) > 1e-9:
        out.append(f"{name}: returned state is not Hermitian")
    lo = float(eigvalsh(m)[0])
    if lo < -PSD_SLACK:
        out.append(f"{name}: returned state has eigenvalue {lo:.3e}")
    return out


def check_reported(name: str, reported: float, recomputed: float) -> list[str]:
    """A reported distance equals the distance recomputed from the returned state."""
    if abs(reported - recomputed) > REPORT_TOL:
        return [f"{name}: reported distance {reported:.12f} but the returned state is at {recomputed:.12f}"]
    return []


def check_between(name: str, value: float, lower: float, tol: float) -> list[str]:
    """``lower <= value <= lower + tol``, with eigensolver slack below."""
    if value < lower - BOUND_SLACK:
        return [f"{name}: distance {value:.6e} is below its lower bound {lower:.6e}"]
    if value > lower + tol:
        return [f"{name}: distance {value:.6e} is more than {tol:g} above {lower:.6e}"]
    return []


def check_below(name: str, value: float, limit: float) -> list[str]:
    return [] if value < limit else [f"{name}: distance {value:.6e} is not below {limit:g}"]


def check_ppt(name: str, state, slack: float = PSD_SLACK) -> list[str]:
    lo = pt_min_eig(state)
    return [] if lo >= -slack else [f"{name}: returned state is NPT (min PT eigenvalue {lo:.3e})"]


def check_not_certified(name: str, rho, certified: bool) -> list[str]:
    """No certificate may be issued for a state with a negative partial transpose."""
    lo = pt_min_eig(rho)
    if certified and lo < 0.0:
        return [f"{name}: NPT state (min PT eigenvalue {lo:.3e}) was certified separable"]
    return []


def check_ansatz(name: str, rho, valid: bool, bound: float, candidate, reported) -> list[str]:
    """A valid closed-form candidate is a PPT state no farther than the negativity."""
    negativity = -pt_min_eig(rho)
    out = []
    if abs(bound - negativity) > 1e-9:
        out.append(f"{name}: ansatz bound {bound:.6e} differs from the negativity {negativity:.6e}")
    if valid:
        out += check_state(name + " ansatz", candidate)
        out += check_ppt(name + " ansatz", candidate)
        dist = trace_dist(rho, candidate)
        out += check_reported(name + " ansatz", reported, dist)
        if dist > negativity + BOUND_SLACK:
            out.append(f"{name}: ansatz distance {dist:.6e} exceeds its bound {negativity:.6e}")
    return out
