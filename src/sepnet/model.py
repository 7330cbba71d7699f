"""Neural parametrization of mixtures of pure product states.

A :class:`SeparabilityStructure` lists the partitions of the parties that the
mixture is allowed to use (one partition for plain separability, several for
biseparability-style notions).  A :class:`DecompositionModel` is a one-hidden-
layer perceptron that maps a one-hot term index k to, for every partition, a
weight logit plus the raw components of one pure state per block.  Assembly
turns these raw outputs into

    rho = sum_{k, partition} w_{k,partition} * |psi_1 x psi_2 x ...><...|

with the weights normalized jointly by a softmax and every block amplitude
vector normalized by its 2-norm.  All raw network outputs pass through a
logistic sigmoid; amplitude components are mapped affinely from (0, 1) to
(-1, 1) before normalization so that arbitrary relative phases are reachable.

Partitions whose blocks have the same dimensions, in order, form a group.
Assembly and backpropagation loop over groups and blocks, not partitions:
each group's amplitude vectors are stacked on a leading axis, so the
product-state kernel runs once per group (4-qubit biseparability has 7
partitions in 3 groups).  Grouping reorders neither partitions nor output
rows, and every element sees the same floating-point operations as when
each partition is handled on its own.

The model's four parameter arrays are views into one flat float64 vector,
``DecompositionModel.flat``, so an optimizer can update all of them with a
few in-place vector operations.

A model trained on a symmetric target records the twirl it was trained
under (see :mod:`sepnet.twirl`) by name in ``symmetry``; :func:`assemble`
then returns the twirled mixture, which is the state training reported.
"""
from __future__ import annotations

import json
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import DensityMatrix
from .twirl import get_twirl

CHECKPOINT_VERSION = 2     # version 1 has no symmetry and still loads, untwirled

Partition = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SeparabilityStructure:
    """Local dimensions plus the partitions available to the decomposition.

    Each partition is a tuple of blocks; each block a sorted tuple of party
    indices (0-based).  Every partition must split the full party set into at
    least two disjoint, covering blocks.
    """

    dims: tuple[int, ...]
    partitions: tuple[Partition, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 2 for d in dims):
            raise ValueError("every local dimension must be at least 2")
        parties = set(range(len(dims)))
        parts = []
        for partition in self.partitions:
            blocks = tuple(tuple(int(i) for i in b) for b in partition)
            seen: set[int] = set()
            for b in blocks:
                if not b or list(b) != sorted(b):
                    raise ValueError(f"block {b} must be nonempty and sorted")
                if seen & set(b):
                    raise ValueError(f"blocks overlap in partition {blocks}")
                seen |= set(b)
            if seen != parties:
                raise ValueError(f"partition {blocks} does not cover all parties")
            if len(blocks) < 2:
                raise ValueError("a partition needs at least two blocks")
            if list(blocks) != sorted(blocks, key=lambda b: b[0]):
                raise ValueError(f"blocks must be ordered by first party: {blocks}")
            parts.append(blocks)
        if not parts:
            raise ValueError("at least one partition is required")
        if len(set(parts)) != len(parts):
            raise ValueError("duplicate partitions")
        object.__setattr__(self, "partitions", tuple(parts))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))


def full_separability(dims: Sequence[int]) -> SeparabilityStructure:
    """Every party in its own block."""
    dims = tuple(dims)
    return SeparabilityStructure(dims, (tuple((i,) for i in range(len(dims))),))


def fixed_partition(dims: Sequence[int], blocks: Sequence[Sequence[int]]) -> SeparabilityStructure:
    """A single, caller-chosen partition (e.g. one bipartition I | complement)."""
    part = tuple(tuple(sorted(b)) for b in blocks)
    part = tuple(sorted(part, key=lambda b: b[0]))
    return SeparabilityStructure(tuple(dims), (part,))


def _bipartitions(n: int) -> list[Partition]:
    out = []
    for mask in range(2 ** (n - 1)):
        # masks over parties 1..n-1; party 0 always in the first block
        left = (0,) + tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        right = tuple(i for i in range(1, n) if not mask >> (i - 1) & 1)
        if right:
            out.append((left, right))
    return out


def biseparable(dims: Sequence[int]) -> SeparabilityStructure:
    """All bipartitions of the parties (2^(n-1) - 1 of them)."""
    dims = tuple(dims)
    return SeparabilityStructure(dims, tuple(_bipartitions(len(dims))))


def size_constrained_biseparable(dims: Sequence[int], m: int) -> SeparabilityStructure:
    """Bipartitions whose smaller side has exactly m parties."""
    dims = tuple(dims)
    n = len(dims)
    if not 1 <= m <= n // 2:
        raise ValueError(f"m must be in [1, {n // 2}]")
    parts = tuple(p for p in _bipartitions(n) if min(len(p[0]), len(p[1])) == m)
    return SeparabilityStructure(dims, parts)


def _set_partitions(items: tuple[int, ...]) -> list[list[list[int]]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for smaller in _set_partitions(rest):
        for i, block in enumerate(smaller):
            out.append(smaller[:i] + [[first] + block] + smaller[i + 1 :])
        out.append([[first]] + smaller)
    return out


def triseparable(dims: Sequence[int]) -> SeparabilityStructure:
    """All partitions of the parties into exactly three blocks."""
    dims = tuple(dims)
    parts = []
    for p in _set_partitions(tuple(range(len(dims)))):
        if len(p) != 3:
            continue
        blocks = tuple(sorted((tuple(sorted(b)) for b in p), key=lambda b: b[0]))
        parts.append(blocks)
    return SeparabilityStructure(dims, tuple(sorted(parts)))


def parse_structure(text: str, dims: Sequence[int]) -> SeparabilityStructure:
    """Parse a structure word: full | bisep | bisep-m<M> | trisep | '0|12'-style.

    Raises ``ValueError`` on any other word.
    """
    text = text.strip()
    if text == "full":
        return full_separability(dims)
    if text == "bisep":
        return biseparable(dims)
    if text.startswith("bisep-m"):
        try:
            m = int(text[len("bisep-m"):])
        except ValueError:
            raise ValueError(f"bad size-constrained structure {text!r}; want e.g. bisep-m1")
        return size_constrained_biseparable(dims, m)
    if text == "trisep":
        return triseparable(dims)
    if "|" in text:
        blocks = []
        for block in text.split("|"):
            if not block or not all(ch.isdigit() for ch in block):
                raise ValueError(f"bad partition block {block!r} in {text!r}")
            blocks.append(tuple(int(ch) for ch in block))
        return fixed_partition(dims, tuple(blocks))
    raise ValueError(f"unknown structure {text!r}")


# --- where each partition sits in the network output ------------------------

class _Group(NamedTuple):
    parts: np.ndarray                  # (G,) partition indices, in structure order
    cmaps: np.ndarray                  # (G, D) block-order flat index -> canonical flat index
    block_dims: tuple[int, ...]        # shared by every member
    block_rows: tuple[np.ndarray, ...]  # per block: (G, 2m) output rows


class _Layout(NamedTuple):
    width: int                  # output rows per term index
    logit_rows: np.ndarray      # (P,) the weight-logit row of every partition
    groups: tuple[_Group, ...]  # the partitions grouped by ordered block dims


@lru_cache(maxsize=None)
def _layout(structure: SeparabilityStructure) -> _Layout:
    """The output rows of every partition, and the partitions grouped by block dims.

    Per partition, in structure order, the output holds one weight-logit row
    and then, per block of dimension m, m real parts and m imaginary parts.
    """
    dims = structure.dims
    idx = np.arange(structure.total_dim).reshape(dims)
    logit_rows = []
    members: dict[tuple[int, ...], list] = {}
    row = 0
    for p, blocks in enumerate(structure.partitions):
        cmap = np.ascontiguousarray(idx.transpose([i for b in blocks for i in b])).ravel()
        block_dims = tuple(int(np.prod([dims[i] for i in b])) for b in blocks)
        logit_rows.append(row)
        row += 1
        block_rows = []
        for bd in block_dims:
            block_rows.append(np.arange(row, row + 2 * bd))
            row += 2 * bd
        members.setdefault(block_dims, []).append((p, cmap, block_rows))
    groups = []
    for block_dims, ms in members.items():
        parts, cmaps, rows = zip(*ms)
        groups.append(_Group(np.array(parts), np.array(cmaps), block_dims,
                             tuple(np.array(block) for block in zip(*rows))))
    return _Layout(row, np.array(logit_rows), tuple(groups))


def output_width(structure: SeparabilityStructure) -> int:
    """Rows of the network output consumed per term index."""
    return _layout(structure).width


# --- the model --------------------------------------------------------------

class DecompositionModel:
    """One-hidden-layer perceptron producing a mixture of pure product states.

    The constructor copies ``w1``, ``b1``, ``w2`` and ``b2`` into one flat
    vector ``flat``, in that order; the attributes are reshaped views of it.
    ``symmetry`` names the twirl that :func:`assemble` applies, or is None.
    """

    def __init__(self, structure: SeparabilityStructure, k_terms: int, width: int,
                 seed: int, w1, b1, w2, b2, symmetry: str | None = None):
        if symmetry is not None and get_twirl(symmetry, structure.dims) is None:
            raise ValueError(f"symmetry {symmetry!r} does not apply to dims {structure.dims}")
        self.structure = structure
        self.k_terms = int(k_terms)
        self.width = int(width)
        self.seed = int(seed)
        self.symmetry = symmetry
        arrays = [np.asarray(a, dtype=float) for a in (w1, b1, w2, b2)]
        self.flat = np.concatenate(arrays, axis=None)
        views, start = [], 0
        for a in arrays:
            views.append(self.flat[start:start + a.size].reshape(a.shape))
            start += a.size
        self.w1, self.b1, self.w2, self.b2 = views

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def __reduce__(self):
        # unpickled through the constructor, so the arrays are views of ``flat`` again
        return (DecompositionModel, (self.structure, self.k_terms, self.width, self.seed,
                                     *self.parameters().values(), self.symmetry))


def init_model(structure: SeparabilityStructure, k_terms: int | None = None,
               width: int = 100, seed: int = 0) -> DecompositionModel:
    """Initialize a model with zero-mean uniform weights scaled by 1/sqrt(fan-in).

    ``k_terms`` defaults to the total Hilbert space dimension and is capped at
    its square (enough terms for any separable state by Caratheodory).
    :func:`~sepnet.optim.train` passes m, the twirl's projector count, for a
    target that a twirl fixes.
    """
    if k_terms is None:
        k_terms = structure.total_dim
    k_terms = int(k_terms)
    cap = structure.total_dim ** 2
    if not 1 <= k_terms <= cap:
        raise ValueError(f"k_terms must be in [1, {cap}], got {k_terms}")
    if width < 1:
        raise ValueError("width must be positive")
    out = output_width(structure)
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(k_terms)
    lim2 = 1.0 / np.sqrt(width)
    w1 = rng.uniform(-lim1, lim1, size=(width, k_terms))
    b1 = np.zeros(width)
    w2 = rng.uniform(-lim2, lim2, size=(out, width))
    b2 = np.zeros(out)
    return DecompositionModel(structure, k_terms, width, seed, w1, b1, w2, b2)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, without overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


class _Cache(NamedTuple):
    z1: np.ndarray
    h: np.ndarray
    y: np.ndarray
    weights: np.ndarray          # softmax weights, length K * n_partitions
    psi_hats: list[list[np.ndarray]]   # per group, per block: (G, m, K) complex
    v_norms: list[list[np.ndarray]]    # per group, per block: (G, 1, K) norms
    vs: list[list[np.ndarray]]         # per group, per block: (G, 2m, K) centered reals
    phis: np.ndarray             # canonical-order product vectors, (D, K * n_partitions)


def _evaluate(model: DecompositionModel) -> tuple[np.ndarray, _Cache]:
    """Assemble the mixture for all K terms at once; keep what backward needs."""
    structure = model.structure
    _, logit_rows, groups = _layout(structure)
    kk = model.k_terms
    z1 = model.w1 + model.b1[:, None]
    h = np.maximum(z1, 0.0)
    y = _sigmoid(model.w2 @ h + model.b2[:, None])

    total = structure.total_dim
    # column p * K + k of phis is term k of partition p
    phis = np.empty((total, len(logit_rows), kk), dtype=complex)
    psi_hats: list[list[np.ndarray]] = []
    v_norms: list[list[np.ndarray]] = []
    vs: list[list[np.ndarray]] = []
    for grp in groups:
        hats, norms, cvs = [], [], []
        for rows, bd in zip(grp.block_rows, grp.block_dims):
            v = 2.0 * y[rows] - 1.0
            n = np.sqrt((v * v).sum(axis=-2, keepdims=True))
            if np.any(n < 1e-12):
                raise np.linalg.LinAlgError(
                    "amplitude vector norm below 1e-12; re-initialize with a different seed"
                )
            hats.append((v[:, :bd] + 1j * v[:, bd:]) / n)
            norms.append(n)
            cvs.append(v)
        psi_hats.append(hats)
        v_norms.append(norms)
        vs.append(cvs)
        phis[grp.cmaps, grp.parts[:, None]] = _product(hats)
    phis = phis.reshape(total, -1)
    weights = _softmax(y[logit_rows].ravel())
    rho = (phis * weights) @ phis.conj().T
    return rho, _Cache(z1, h, y, weights, psi_hats, v_norms, vs, phis)


# --- the product-state kernel, shared with the plain-GD baseline ------------

def _product(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of per-block (..., m_b, K) vectors: (..., prod m_b, K)."""
    prod = vectors[0]
    for psi in vectors[1:]:
        prod = (prod[..., :, None, :] * psi[..., None, :, :]).reshape(prod.shape[:-2] + (-1, prod.shape[-1]))
    return prod


@lru_cache(maxsize=None)
def _contractions(n_blocks: int) -> tuple[str, ...]:
    """einsum subscripts contracting a product gradient with every block but one."""
    letters = string.ascii_letters.replace("k", "")[:n_blocks]      # "k" indexes the terms
    return tuple(
        "...k" + letters + "," + ",".join("..." + c + "k" for c in letters if c != out)
        + "->..." + out + "k"
        for out in letters
    )


def _term_gradients(grad_rho: np.ndarray, phis: np.ndarray,
                    weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients wrt each w_t and each phi_t of rho = sum_t w_t |phi_t><phi_t|."""
    g_phis = grad_rho @ phis
    w_grad = np.einsum("dt,dt->t", phis.conj(), g_phis).real
    return w_grad, 2.0 * weights * g_phis


def _block_gradients(g_product: np.ndarray, vectors: Sequence[np.ndarray],
                     block_dims: Sequence[int]) -> list[np.ndarray]:
    """Gradient wrt each block vector, given the gradient wrt their product.

    Leading axes of ``g_product`` (..., D, K) and the (..., m_b, K) vectors
    are carried through.
    """
    lead = g_product.shape[:-2]
    gt = g_product.swapaxes(-1, -2).reshape(lead + (g_product.shape[-1],) + tuple(block_dims))
    conj = [psi.conj() for psi in vectors]
    return [np.einsum(subs, gt, *(c for ob, c in enumerate(conj) if ob != b))
            for b, subs in enumerate(_contractions(len(vectors)))]


def _through_normalization(unit: np.ndarray, norm: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Chain a gradient wrt u = v/|v| back to v: (g - u Re sum(conj(u) g)) / |v|."""
    return (grad - unit * (unit.conj() * grad).real.sum(axis=-2, keepdims=True)) / norm


def assemble(model: DecompositionModel) -> DensityMatrix:
    """Evaluate the model for every term and return the mixed state it encodes.

    The state is the mixture twirled by ``model.symmetry``, if one is set.
    """
    rho, _ = _evaluate(model)
    if model.symmetry is not None:
        rho = get_twirl(model.symmetry, model.structure.dims).apply(rho)
    return DensityMatrix(rho, model.structure.dims)


def backward(model: DecompositionModel, grad_rho: np.ndarray, cache: _Cache) -> dict[str, np.ndarray]:
    """Chain a Hermitian gradient d(loss)/d(rho) back to parameter gradients.

    ``grad_rho`` is understood in the real inner product d(loss) =
    Tr[grad_rho . d(rho)]; ``cache`` is what ``_evaluate`` kept for the same
    parameters.  Returns gradients keyed like ``parameters()``.
    """
    _, logit_rows, groups = _layout(model.structure)
    g = np.asarray(grad_rho)

    w_grad, g_phis = _term_gradients(g, cache.phis, cache.weights)
    logit_grad = cache.weights * (w_grad - cache.weights @ w_grad)

    dy = np.zeros_like(cache.y)
    dy[logit_rows] = logit_grad.reshape(len(logit_rows), -1)
    g_phis = g_phis.reshape(g_phis.shape[0], len(logit_rows), -1)     # (D, P, K)
    for grp, hats, vs, norms in zip(groups, cache.psi_hats, cache.vs, cache.v_norms):
        g_psis = _block_gradients(g_phis[grp.cmaps, grp.parts[:, None]], hats, grp.block_dims)
        for rows, g_psi, v, n in zip(grp.block_rows, g_psis, vs, norms):
            g_hat = np.concatenate([g_psi.real, g_psi.imag], axis=-2)     # (G, 2m, K)
            # add onto the zeros, not assign: a -0.0 gradient lands as +0.0
            dy[rows] += 2.0 * _through_normalization(v / n, n, g_hat)

    dz2 = dy * cache.y * (1.0 - cache.y)
    dw2 = dz2 @ cache.h.T
    db2 = dz2.sum(axis=1)
    dh = model.w2.T @ dz2
    dz1 = dh * (cache.z1 > 0.0)
    dw1 = dz1
    db1 = dz1.sum(axis=1)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


# --- checkpointing ----------------------------------------------------------

def save_checkpoint(model: DecompositionModel, path: str) -> None:
    """Write model parameters, structure and symmetry to an .npz file (bit-exact)."""
    descr = {
        "dims": list(model.structure.dims),
        "partitions": [[list(b) for b in part] for part in model.structure.partitions],
    }
    np.savez(
        path,
        version=np.array(CHECKPOINT_VERSION),
        structure=np.array(json.dumps(descr)),
        k_terms=np.array(model.k_terms),
        width=np.array(model.width),
        seed=np.array(model.seed),
        symmetry=np.array(model.symmetry or ""),
        w1=model.w1,
        b1=model.b1,
        w2=model.w2,
        b2=model.b2,
    )


def load_checkpoint(path: str) -> DecompositionModel:
    with np.load(path) as data:
        version = int(data["version"])
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        descr = json.loads(str(data["structure"]))
        structure = SeparabilityStructure(
            tuple(descr["dims"]),
            tuple(tuple(tuple(b) for b in part) for part in descr["partitions"]),
        )
        k_terms, width = int(data["k_terms"]), int(data["width"])
        out = output_width(structure)
        shapes = {"w1": (width, k_terms), "b1": (width,), "w2": (out, width), "b2": (out,)}
        params = {name: data[name] for name in shapes}
        for name, shape in shapes.items():
            if params[name].shape != shape:
                raise ValueError(f"checkpoint array {name} has shape {params[name].shape}, "
                                 f"expected {shape} for its structure, k_terms and width")
        symmetry = str(data["symmetry"]) if version > 1 else ""
        return DecompositionModel(structure, k_terms, width, int(data["seed"]), **params,
                                  symmetry=symmetry or None)
