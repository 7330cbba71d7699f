"""Certification tools: PPT checks, closed-form bounds, and separability balls.

Three independent routes complement the trained upper bounds:

* a closed-form candidate for the closest separable state of an NPT two-qubit
  state, built from the partial-transpose eigensystem, with the guarantee
  that its trace distance never exceeds the negativity -lambda_min;
* an alternating-projection (Dykstra) computation of the Hilbert-Schmidt
  projection onto the PPT states, which for two qubits *is* the separable set;
  the returned state is exactly PPT, up to eigensolver rounding;
* purity-ball certificates: a state close enough to maximally mixed (in
  purity) is separable, so exhibiting the target as a convex combination of a
  trained separable state and a ball member proves separability.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .linalg import (
    PSD_TOL,
    DensityMatrix,
    as_matrix,
    hermitianize,
    hs_distance,
    min_eigenvalue,
    partial_transpose,
    purity,
    trace_distance,
)
from .model import parse_structure
from .optim import TrainConfig, train
from .states import FamilySpec

NPT_TOL = 1e-12          # a partial-transpose eigenvalue below -NPT_TOL is negative
ANSATZ_TOL = 1e-9        # spectrum slack the two-qubit ansatz candidate may show
PPT_TOL = 1e-8           # Dykstra stops once its gap and step are both below this
PPT_MAX_ITER = 50000


def ppt_min_eigenvalue(rho, dims, cut: int | tuple[int, ...] = 0) -> float:
    """Smallest eigenvalue of the partial transpose across the given cut."""
    return min_eigenvalue(partial_transpose(as_matrix(rho), dims, cut))


def is_npt(rho, dims, cut: int | tuple[int, ...] = 0) -> bool:
    """Whether the state has a negative partial transpose across the cut."""
    return ppt_min_eigenvalue(rho, dims, cut) < -NPT_TOL


# --- closed-form two-qubit ansatz -------------------------------------------

@dataclass(frozen=True)
class AnsatzResult:
    """Outcome of the partial-transpose eigenvalue surgery on a two-qubit state.

    ``bound`` is the negativity -lambda_min of the input.  When ``valid`` the
    candidate is a genuine separable state and ``distance`` <= ``bound``.
    """

    valid: bool
    bound: float
    candidate: np.ndarray
    candidate_min_eig: float
    state: DensityMatrix | None
    distance: float | None


def css_ansatz_two_qubit(rho) -> AnsatzResult:
    """Closed-form closest-separable-state candidate for an NPT two-qubit state.

    Eigendecompose the partial transpose, zero out its (single) negative
    eigenvalue, subtract a third of its magnitude from the other three, and
    transpose back.  The result has unit trace by construction; it is a valid
    (separable) state iff it is PSD and the shifted spectrum stays nonnegative.
    """
    m = as_matrix(rho)
    if m.shape != (4, 4):
        raise ValueError("defined for two-qubit states only")
    pt = partial_transpose(m, (2, 2), 1)
    w, u = np.linalg.eigh(pt)
    lam = w[0]
    if lam >= 0:
        raise ValueError("input has positive partial transpose; the construction needs an NPT state")
    w2 = w + lam / 3.0
    w2[0] = 0.0
    candidate = partial_transpose((u * w2) @ u.conj().T, (2, 2), 1)
    candidate = hermitianize(candidate)
    cand_lo = min_eigenvalue(candidate)
    valid = cand_lo >= -ANSATZ_TOL and w2[1] >= -ANSATZ_TOL
    if not valid:
        return AnsatzResult(False, -float(lam), candidate, cand_lo, None, None)
    state = DensityMatrix(candidate, (2, 2))
    return AnsatzResult(True, -float(lam), candidate, cand_lo, state, trace_distance(m, candidate))


# --- Hilbert-Schmidt projection onto the PPT states --------------------------

def _project_density(x: np.ndarray) -> np.ndarray:
    """HS projection onto {Hermitian, trace 1, PSD}: simplex-project the spectrum."""
    w, v = np.linalg.eigh(hermitianize(x))
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    cond = u + (1.0 - css) / idx > 0
    j = idx[cond][-1]
    tau = (1.0 - css[j - 1]) / j
    w2 = np.maximum(w + tau, 0.0)
    return (v * w2) @ v.conj().T


def _project_pt_psd(x: np.ndarray, dims) -> np.ndarray:
    """HS projection onto {X : partial transpose of X is PSD}."""
    pt = partial_transpose(hermitianize(x), dims, 1)
    w, v = np.linalg.eigh(pt)
    w2 = np.maximum(w, 0.0)
    return partial_transpose((v * w2) @ v.conj().T, dims, 1)


@dataclass(frozen=True)
class PptProjection:
    state: DensityMatrix
    distance: float
    iterations: int


def closest_ppt_hs(rho, dims=(2, 2)) -> PptProjection:
    """Hilbert-Schmidt projection onto the PPT density matrices.

    Dykstra-corrected alternating projections between the density matrices
    and the PT-PSD set; the corrections make the iteration converge to the
    true metric projection onto the intersection, not merely a feasible
    point.  Dykstra leaves the partial transpose PSD only to within ``PPT_TOL``,
    so the result is mixed with I/D at the least weight that makes it exactly
    PPT.  For two qubits the PPT set equals the separable set, so the
    returned distance is the exact HS distance to the separable states.
    """
    target = as_matrix(rho).astype(complex)
    x = target.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    y_prev = None
    for it in range(1, PPT_MAX_ITER + 1):
        y = _project_density(x + p)
        p = x + p - y
        x = _project_pt_psd(y + q, dims)
        q = y + q - x
        gap = hs_distance(y, x)
        step = np.inf if y_prev is None else hs_distance(y, y_prev)
        y_prev = y
        if gap < PPT_TOL and step < PPT_TOL:
            m = _project_density(y)
            # mixing in I/D at weight t lifts the PT minimum to (1-t) lam + t/D = 0
            total = len(m)
            lam = min_eigenvalue(partial_transpose(m, dims, 1))
            if lam < 0:
                t = -lam * total / (1.0 - lam * total)
                m = (1.0 - t) * m + t * np.eye(total) / total
            state = DensityMatrix(m, tuple(dims))
            return PptProjection(state, hs_distance(target, state.matrix), it)
    raise RuntimeError(
        f"alternating projections did not converge within {PPT_MAX_ITER} iterations "
        f"(last gap {gap:.3e})"
    )


# --- purity-ball certification -----------------------------------------------

def purity_ball_bound(notion: str, dims) -> float:
    """Purity threshold below which a state is guaranteed separable.

    For ``bisep``, and for ``full`` with two parties (where it is the single
    bipartition), this is 1/(D-1) with D the total dimension.  For ``full`` on
    N >= 3 qubits it is 1/(2^N - alpha^2) with
    alpha^2 = 2^N / ((17/2) 3^(N-3) + 1) < 1.  Every bound is at most 1/(D-1),
    so a unit-trace Hermitian matrix inside the ball is positive semidefinite.
    """
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if notion == "full" and any(d != 2 for d in dims):
        raise ValueError("the full-separability purity ball is defined for qubit systems")
    if notion == "bisep" or (notion == "full" and len(dims) == 2):
        return 1.0 / (total - 1)
    if notion == "full":
        n = len(dims)
        alpha2 = 2**n / (8.5 * 3.0 ** (n - 3) + 1.0)
        return 1.0 / (2**n - alpha2)
    raise ValueError(f"unknown notion {notion!r}")


@dataclass(frozen=True, kw_only=True)
class CertificateResult:
    """Outcome of a separability-ball certification attempt at one q."""

    certified: bool
    q: float
    notion: str
    epsilon: float
    eps_prime: float | None = None
    purity: float | None = None
    purity_bound: float
    rho_x_min_eig: float | None = None
    train_distance: float | None = None
    train_status: str | None = None
    derived_from: float | None = None
    reason: str


def certify_state(
    rho,
    dims,
    notion: str = "full",
    epsilon: float = 0.01,
    eps_prime_grid=None,
    train_config: TrainConfig | None = None,
    q: float = float("nan"),
) -> CertificateResult:
    """Attempt to prove that a state is separable under the given notion.

    A deliberately harder target rho_t = (1+eps) rho - eps I/D is trained;
    the target is then rewritten as the convex combination
    rho = (rho_x + eps' rho_css) / (1 + eps') and certified when some grid
    eps' > 0 puts the unit-trace Hermitian rho_x inside the purity ball; no
    bound exceeds 1/(D-1), so that alone makes rho_x a state.  Soundness only
    uses the separability of rho_css (by construction) and of ball members,
    so a poor fit can at worst fail to certify, never certify wrongly.  A
    ``rho`` that is not a state for ``dims``, an epsilon that is not finite and
    positive, or an empty grid or one with an eps' that is not finite and
    positive, raises ``ValueError`` untrained.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    dims = tuple(int(d) for d in dims)
    rho = as_matrix(rho)
    DensityMatrix(rho, dims)
    grid = np.asarray(np.logspace(-3, 0, 20) if eps_prime_grid is None else eps_prime_grid,
                      dtype=float).ravel()
    if not (grid.size and np.isfinite(grid).all() and (grid > 0).all()):
        raise ValueError(f"eps' grid must be non-empty, finite and positive, got {eps_prime_grid!r}")
    total = rho.shape[0]
    bound = purity_ball_bound(notion, dims)
    result = partial(CertificateResult, certified=False, q=q, notion=notion, epsilon=epsilon,
                     purity_bound=bound)
    rho_t = (1.0 + epsilon) * rho - epsilon * np.eye(total) / total
    lo = min_eigenvalue(hermitianize(rho_t))
    if lo < -PSD_TOL:
        # rho sits too close to the boundary of the state set for this offset
        return result(reason=f"offset target is not a state (min eigenvalue {lo:.3e}); reduce epsilon")
    trained = train(rho_t, parse_structure(notion, dims), train_config or TrainConfig())
    result = partial(result, train_distance=trained.distance, train_status=trained.status)
    if trained.distance > epsilon:
        return result(reason=f"training residual {trained.distance:.3e} exceeds epsilon")
    rho_css = trained.state.matrix
    best = None
    for ep in grid:
        rho_x = (1.0 + ep) * rho - ep * rho_css
        pur = purity(rho_x)
        if pur <= bound and (best is None or pur < best[1]):
            best = (ep, pur, rho_x)
    if best is None:
        return result(reason="no grid eps' gave a PSD combination inside the purity ball")
    ep, pur, rho_x = best
    return result(certified=True, eps_prime=float(ep), purity=pur,
                  rho_x_min_eig=min_eigenvalue(hermitianize(rho_x)), reason="purity ball membership")


def certify_lower_bound(
    family: FamilySpec,
    q: float,
    notion: str = "full",
    epsilon: float = 0.01,
    eps_prime_grid=None,
    train_config: TrainConfig | None = None,
) -> CertificateResult:
    """Attempt to prove that family(q) is separable under the given notion."""
    return certify_state(
        family.make(q).matrix, family.dims(), notion, epsilon,
        eps_prime_grid, train_config, q=q,
    )


def certify_grid(
    family: FamilySpec,
    qs,
    notion: str = "full",
    epsilon: float = 0.01,
    eps_prime_grid=None,
    train_config: TrainConfig | None = None,
) -> list[CertificateResult]:
    """Certify a descending sweep of mixing parameters.

    All the target families are affine segments between a separable q=0 state
    and the q=1 endpoint, so once some q is certified every smaller q is a
    convex combination of it with the separable q=0 state and inherits the
    certificate without re-training.  Results are returned in the input order.
    """
    qs = list(qs)
    order = sorted(range(len(qs)), key=lambda i: -qs[i])
    results: dict[int, CertificateResult] = {}
    certified_at = None
    for i in order:
        if certified_at is not None:
            parent, proof = certified_at
            results[i] = replace(
                proof, q=qs[i], purity=None, rho_x_min_eig=None, derived_from=parent,
                reason=f"convex combination of certified q={parent:g} and the separable q=0 state",
            )
            continue
        res = certify_lower_bound(family, qs[i], notion, epsilon, eps_prime_grid, train_config)
        results[i] = res
        if res.certified:
            certified_at = (qs[i], res)
    return [results[i] for i in range(len(qs))]


# --- threshold estimation -----------------------------------------------------

@dataclass(frozen=True)
class ThresholdEstimate:
    threshold: float
    slope: float
    intercept: float
    residual: float
    points_used: tuple[tuple[float, float], ...]
    method: str = "linear_fit"


def estimate_threshold(points, fit_window: int = 4, flat_tol: float = 5e-3) -> ThresholdEstimate:
    """Estimate where a distance-vs-q curve leaves zero.

    Takes the ``fit_window`` smallest q values whose distance exceeds
    ``flat_tol``, fits a least-squares line, and intersects it with zero.
    """
    if fit_window < 2:
        raise ValueError(f"fit_window must be at least 2, got {fit_window}")
    if not 0 <= flat_tol < np.inf:
        raise ValueError(f"flat_tol must be finite and non-negative, got {flat_tol!r}")
    pts = sorted((float(q), float(d)) for q, d in points)
    if len(pts) < 2:
        raise ValueError("need at least two scan points")
    rising = [(q, d) for q, d in pts if d > flat_tol]
    if len(rising) < 2:
        raise ValueError("fewer than two points rise above flat_tol; widen the scan")
    used = rising[:fit_window]
    qs = np.array([q for q, _ in used])
    ds = np.array([d for _, d in used])
    a = np.stack([qs, np.ones_like(qs)], axis=1)
    (slope, intercept), res, *_ = np.linalg.lstsq(a, ds, rcond=None)
    if slope <= 0:
        raise ValueError(f"non-increasing distance curve (slope {slope:.3e})")
    threshold = -intercept / slope
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    return ThresholdEstimate(float(threshold), float(slope), float(intercept), residual, tuple(used))
