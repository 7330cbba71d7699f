"""Training: distance losses, the Adadelta loop, and a plain-GD baseline.

A batch is one full evaluation of the mixture over all K term indices
followed by one parameter update; an epoch is ``batches_per_epoch`` batches.
Training stops early when the best distance seen drops below
``stop_distance`` (the target is then separable for practical purposes).
When the best distance improves by less than ``convergence_delta`` over one
epoch (a plateau), the Adadelta update is scaled down tenfold for a settling
window of ``batches_per_epoch // 30`` batches: at the full step the iterate
jitters at a noise floor around the optimum, and the best distance seen is
the lowest dip of that noise.  The run then ends as ``converged``, unless the
window reaches ``stop_distance`` first.

The Adadelta update works in place on the model's flat parameter vector:
the gradient dict from ``backward`` is copied into one flat gradient, and
the accumulators, the best parameters and the temporaries are flat vectors
allocated once per run.  Every element goes through the same operations in
the same order as the textbook update, so results do not depend on this
layout.

A target that one of the twirls in :mod:`sepnet.twirl` fixes is trained in
that twirl's commutant: the loss is that of the twirled mixture T(rho_nn),
computed from a handful of projector coefficients without an ``eigh``, and
the returned state is T of the best mixture.  T maps separable states to
separable states, so the result is an upper bound like any other; the
check that T fixes the target only decides how fast training gets there.
Unless ``k_terms`` is set, such a target trains one term per projector: by
Caratheodory, that many twirled product states reach every point of T(SEP).

The baseline :func:`naive_gd` has its own parametrization (linearly
normalized weights, free complex amplitudes) but assembles and
differentiates the mixture with the model's product-state kernel.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import DensityMatrix, as_matrix, hermitianize, hs_distance, trace_distance
from .model import (DecompositionModel, SeparabilityStructure, _block_gradients, _evaluate,
                    _product, _term_gradients, _through_normalization, assemble, backward,
                    init_model)
from .twirl import Twirl, find_twirl

SIGN_EIGENVALUE_CUTOFF = 1e-12
SETTLE_SCALE = 0.1      # Adadelta update scale in the settling window after a plateau
SETTLE_FRACTION = 30    # settling window length is batches_per_epoch // SETTLE_FRACTION
ADADELTA_DECAY = 0.95         # Adadelta average decay
ADADELTA_STABILIZER = 1e-6    # Adadelta epsilon
# the plain-GD baseline's fixed settings
GD_K_TERMS = 16
GD_LEARNING_RATE = 1.0
GD_LR_DECAY = 0.98
GD_MOMENTUM = 0.2
GD_LOSS = "trace"
# stddev of the Gaussian amplitude init; larger values start the product
# vectors further from the unit sphere, where the normalized-gradient steps
# are smaller and plain GD tends to stall above the true optimum
GD_INIT_SCALE = 2.0
_DISTANCES = {"trace": trace_distance, "hs": hs_distance}


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite; carries epoch and batch indices."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def loss_value_and_gradient(rho_nn: np.ndarray, rho_t: np.ndarray, loss: str,
                            twirl: Twirl | None = None) -> tuple[float, np.ndarray]:
    """Distance between mixtures plus its Hermitian gradient wrt the first argument.

    The gradient G is defined through d(loss) = Tr[G d(rho_nn)].  Both losses
    read the difference as orthogonal parts c_i with multiplicities m_i, plus
    a ``rebuild`` that turns one value per part back into a matrix:

    * trace, dense: the eigenvalues, m_i = 1, rebuild(x) = U diag(x) U^dag;
    * Hilbert-Schmidt, dense: the entries, m_i = 1, rebuild the identity;
    * with a ``twirl`` that fixes ``rho_t``, the distance from T(rho_nn):
      T(rho_nn) - rho_t = sum_i c_i P_i, m_i = Tr(P_i) and
      rebuild(x) = sum_i x_i P_i.  T is self-adjoint and G lies in its
      range, so G is also the gradient wrt rho_nn.

    The trace distance is sum_i |c_i| m_i / 2 with G = rebuild(sign(c) / 2),
    parts below 1e-12 in magnitude taking sign zero; the Hilbert-Schmidt
    distance is sqrt(sum_i |c_i|^2 m_i) with G = rebuild(c / value), and
    G = 0 below the same cutoff.
    """
    if loss not in _DISTANCES:
        raise ValueError(f"unknown loss {loss!r}")
    if twirl is not None:
        c = twirl.coefficients(rho_nn) - twirl.coefficients(rho_t)
        m, rebuild = twirl.rank, twirl.compose
    else:
        c, m = hermitianize(np.asarray(rho_nn) - np.asarray(rho_t)), 1.0
        rebuild = np.asarray                # the identity on the entries
        if loss == "trace":
            c, v = np.linalg.eigh(c)
            rebuild = lambda x: (v * x) @ v.conj().T     # noqa: E731
    if loss == "trace":
        size = np.abs(c)
        s = np.sign(c)
        s[size < SIGN_EIGENVALUE_CUTOFF] = 0.0
        return 0.5 * float((size * m).sum()), rebuild(0.5 * s)
    value = float(np.sqrt(np.vdot(c * m, c).real))
    return value, rebuild(np.zeros_like(c) if value < SIGN_EIGENVALUE_CUTOFF else c / value)


def distance(a, b, loss: str = "trace") -> float:
    """Distance between two states under the named loss."""
    if loss not in _DISTANCES:
        raise ValueError(f"unknown loss {loss!r}")
    return _DISTANCES[loss](as_matrix(a), as_matrix(b))


@dataclass
class TrainConfig:
    loss: str = "trace"
    k_terms: int | None = None
    width: int = 100
    seed: int = 0
    restarts: int = 1
    max_epochs: int = 10
    batches_per_epoch: int = 3000
    stop_distance: float = 2e-3
    # per-epoch improvement below this is a plateau: a settling window at a
    # tenfold smaller step follows, then the run ends; 0 disables the plateau
    # stop, which helps on slowly-descending separable targets
    convergence_delta: float = 2e-4

    def __post_init__(self):
        if self.loss not in _DISTANCES:
            raise ValueError(f"loss must be one of {', '.join(_DISTANCES)}, got {self.loss!r}")
        for name in ("restarts", "max_epochs", "batches_per_epoch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("stop_distance", "convergence_delta"):
            if not getattr(self, name) >= 0.0:     # also rejects NaN
                raise ValueError(f"{name} must be a number >= 0, got {getattr(self, name)}")


@dataclass
class TrainResult:
    distance: float
    loss: str
    # separable_stop (best < stop_distance) | converged (plateau, then the
    # settling window) | exhausted (max_epochs used up)
    status: str
    epochs: int
    batches: int
    wall_time: float
    model: DecompositionModel
    state: DensityMatrix
    seed: int                  # seed of the winning restart
    history: list[tuple[int, float]] = field(default_factory=list)
    symmetry: str | None = None    # the twirl that ``state`` is the image of, if any
    k_terms: int | None = None     # the terms per partition that ``model`` trained


def derived_seed(seed: int, index: int) -> int:
    """Deterministic child seed for restart/grid-point number ``index``."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0] >> 1)


def _train_once(target: np.ndarray, structure: SeparabilityStructure, config: TrainConfig,
                seed: int, twirl: Twirl | None = None
                ) -> tuple[float, DecompositionModel, str, int, int, list[tuple[int, float]]]:
    """One restart; the returned model holds the best parameters seen."""
    k_terms = config.k_terms if config.k_terms is not None or twirl is None else len(twirl.rank)
    model = init_model(structure, k_terms, config.width, seed)
    model.symmetry = None if twirl is None else twirl.name
    x = model.flat
    names = tuple(model.parameters())
    acc_g = np.zeros_like(x)
    acc_dx = np.zeros_like(x)
    grad = np.empty_like(x)
    dx = np.empty_like(x)
    tmp = np.empty_like(x)
    rho_t = target
    best = np.inf
    best_x = x.copy()
    history: list[tuple[int, float]] = []
    batches = 0
    epochs = 0
    prev_best = np.inf
    eps = ADADELTA_STABILIZER
    dec = ADADELTA_DECAY
    rest = 1.0 - dec

    def run(epoch: int, batch_range: range, scale: float) -> bool:
        """Adadelta steps with the update scaled by ``scale``; True on separable stop."""
        nonlocal best, batches
        for batch in batch_range:
            batches += 1
            rho, cache = _evaluate(model)
            value, grad_rho = loss_value_and_gradient(rho, rho_t, config.loss, twirl)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, batch)
            if value < best:
                best = value
                np.copyto(best_x, x)
            if best < config.stop_distance:
                return True
            grads = backward(model, grad_rho, cache)
            np.concatenate([grads[k] for k in names], axis=None, out=grad)
            # in place, each element in the same order of operations as
            # ag = dec ag + (1 - dec) g g; dx = -sqrt((ad + eps) / (ag + eps)) g;
            # ad = dec ad + (1 - dec) dx dx; x += scale dx
            np.multiply(acc_g, dec, out=acc_g)
            np.multiply(grad, rest, out=tmp)
            np.multiply(tmp, grad, out=tmp)
            np.add(acc_g, tmp, out=acc_g)
            np.add(acc_dx, eps, out=dx)
            np.add(acc_g, eps, out=tmp)
            np.divide(dx, tmp, out=dx)
            np.sqrt(dx, out=dx)
            np.negative(dx, out=dx)
            np.multiply(dx, grad, out=dx)
            np.multiply(acc_dx, dec, out=acc_dx)
            np.multiply(dx, rest, out=tmp)
            np.multiply(tmp, dx, out=tmp)
            np.add(acc_dx, tmp, out=acc_dx)
            np.multiply(dx, scale, out=tmp)
            np.add(x, tmp, out=x)
        return False

    per_epoch = config.batches_per_epoch
    window = max(1, per_epoch // SETTLE_FRACTION)
    status = "exhausted"
    for epoch in range(1, config.max_epochs + 1):
        epochs = epoch
        stop = run(epoch, range(1, per_epoch + 1), 1.0)
        history.append((batches, best))
        if stop:
            status = "separable_stop"
            break
        if prev_best - best < config.convergence_delta:
            # ``best`` is only the lowest dip of the full step's noise floor
            stop = run(epoch, range(per_epoch + 1, per_epoch + window + 1), SETTLE_SCALE)
            history.append((batches, best))
            status = "separable_stop" if stop else "converged"
            break
        prev_best = best
    np.copyto(x, best_x)
    return best, model, status, epochs, batches, history


def train(target, structure: SeparabilityStructure, config: TrainConfig | None = None) -> TrainResult:
    """Fit the decomposition to ``target``; returns the best restart's result.

    The reported distance always corresponds to the returned model: it is the
    distance of the assembled state of the best parameters seen, not of the
    last update.  If a twirl fixes the target, every restart trains in its
    commutant, and the state and model carry the twirl.
    """
    if config is None:
        config = TrainConfig()
    rho_t = as_matrix(target)
    total = structure.total_dim
    if rho_t.shape != (total, total):
        raise ValueError(f"target shape {rho_t.shape} does not match structure dimension {total}")
    t0 = time.perf_counter()
    twirl = find_twirl(rho_t, structure.dims)
    runs = []
    for r in range(config.restarts):
        seed = derived_seed(config.seed, r) if config.restarts > 1 else config.seed
        runs.append(_train_once(rho_t, structure, config, seed, twirl))
        if runs[-1][0] < config.stop_distance:
            break
    # the first restart with the lowest best distance wins
    _, model, status, _, _, history = min(runs, key=lambda run: run[0])
    state = assemble(model)
    return TrainResult(
        distance=distance(state.matrix, rho_t, config.loss),
        loss=config.loss,
        status=status,
        epochs=sum(run[3] for run in runs),
        batches=sum(run[4] for run in runs),
        wall_time=time.perf_counter() - t0,
        model=model,
        state=state,
        seed=model.seed,
        history=history,
        symmetry=model.symmetry,
        k_terms=model.k_terms,
    )


# --- naive gradient-descent baseline ----------------------------------------

@dataclass
class GdConfig:
    rounds: int = 250
    real_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError(f"rounds must be at least 0, got {self.rounds}")


@dataclass
class GdResult:
    distances: np.ndarray      # length rounds + 1; [0] is the initial distance
    state: DensityMatrix


def naive_gd(target, dims: tuple[int, ...], config: GdConfig | None = None) -> GdResult:
    """Directly parametrized mixture trained with momentum gradient descent.

    The free parameters are K raw mixture weights (normalized by their sum
    after clipping at zero) and one unnormalized amplitude vector per party
    per term.  With ``real_only`` the imaginary parts are pinned to zero.
    This baseline exists to be compared against :func:`train`; it is expected
    to underperform it.
    """
    if config is None:
        config = GdConfig()
    rho_t = as_matrix(target)
    total = int(np.prod(dims))
    if rho_t.shape != (total, total):
        raise ValueError(f"target shape {rho_t.shape} does not match dims {tuple(dims)}, "
                         f"shape {(total, total)}")
    rng = np.random.default_rng(config.seed)
    kk = GD_K_TERMS
    raw_p = rng.uniform(0.5, 1.5, size=kk)
    amps = []
    for d in dims:
        a = GD_INIT_SCALE * rng.standard_normal((d, kk))
        if not config.real_only:
            a = a + 1j * GD_INIT_SCALE * rng.standard_normal((d, kk))
        amps.append(a.astype(complex))
    vel_p = np.zeros_like(raw_p)
    vel_a = [np.zeros_like(a) for a in amps]

    distances = np.empty(config.rounds + 1)
    lr = GD_LEARNING_RATE
    for rnd in range(config.rounds + 1):
        p = np.maximum(raw_p, 1e-12)
        s = p.sum()
        probs = p / s
        norms = [np.sqrt((a.conj() * a).real.sum(axis=0)) for a in amps]
        hats = [a / n for a, n in zip(amps, norms)]
        phi = _product(hats)
        rho = (phi * probs) @ phi.conj().T
        value, grad_rho = loss_value_and_gradient(rho, rho_t, GD_LOSS)
        distances[rnd] = value
        if rnd == config.rounds:
            break
        w_grad, g_phi = _term_gradients(grad_rho, phi, probs)
        # normalization of the raw weights
        gp = (w_grad - probs @ w_grad) / s
        gp = np.where(raw_p > 1e-12, gp, np.minimum(gp, 0.0))
        # through the 2-norm normalization, on the unnormalized amplitudes
        ga = [_through_normalization(h, n, g)
              for h, n, g in zip(hats, norms, _block_gradients(g_phi, hats, dims))]
        if config.real_only:
            ga = [g.real.astype(complex) for g in ga]
        vel_p = GD_MOMENTUM * vel_p - lr * gp
        raw_p = np.maximum(raw_p + vel_p, 0.0)
        for b, g in enumerate(ga):
            vel_a[b] = GD_MOMENTUM * vel_a[b] - lr * g
            amps[b] = amps[b] + vel_a[b]
        lr *= GD_LR_DECAY
    state = DensityMatrix(rho, tuple(dims))
    return GdResult(distances=distances, state=state)
