"""Tests for separability structures and the decomposition network."""
from functools import reduce
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from sepnet import (
    DensityMatrix,
    SeparabilityStructure,
    assemble,
    biseparable,
    fixed_partition,
    full_separability,
    init_model,
    load_checkpoint,
    output_width,
    save_checkpoint,
    size_constrained_biseparable,
    triseparable,
)


# --- an independent reference for the model's assembly ----------------------

def reorder_to_canonical(op: np.ndarray, dims: Sequence[int], partition: Sequence[Sequence[int]]) -> np.ndarray:
    """Bring an operator assembled blockwise back to canonical party order.

    ``op`` acts on the tensor product of the partition's blocks in their
    listed order; the result acts on parties 0..n-1 in canonical order.
    """
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    sigma = tuple(i for b in partition for i in b)
    if sorted(sigma) != list(range(len(dims))):
        raise ValueError(f"partition {partition} is not a permutation of the parties")
    # canonical flat index -> block-order flat index
    rmap = np.arange(total).reshape([dims[i] for i in sigma]).transpose(np.argsort(sigma)).ravel()
    op = np.asarray(op)
    if op.shape == (total,):
        return op[rmap]
    if op.shape == (total, total):
        return op[np.ix_(rmap, rmap)]
    raise ValueError(f"operator shape {op.shape} does not match dims {dims}")


class RawTermOutput(NamedTuple):
    logit: float
    blocks: list[np.ndarray]


def forward(model, k: int) -> list[RawTermOutput]:
    """Raw sigmoid outputs for term index k (1-based), one entry per partition.

    Per partition, in order, the output holds one logit row and then 2 m
    rows per block of dimension m.
    """
    z1 = model.w1[:, k - 1] + model.b1
    y = 1.0 / (1.0 + np.exp(-(model.w2 @ np.maximum(z1, 0.0) + model.b2)))
    out, row = [], 0
    for part in model.structure.partitions:
        logit, row = float(y[row]), row + 1
        blocks = []
        for block in part:
            size = 2 * int(np.prod([model.structure.dims[i] for i in block]))
            blocks.append(y[row:row + size])
            row += size
        out.append(RawTermOutput(logit, blocks))
    return out


class TestStructures:
    def test_full_separability(self):
        s = full_separability((2, 3, 2))
        assert s.partitions == (((0,), (1,), (2,)),)
        assert s.total_dim == 12

    def test_fixed_partition_sorts_blocks(self):
        s = fixed_partition((2, 2, 2), [(2, 1), (0,)])
        assert s.partitions == (((0,), (1, 2)),)

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 7)])
    def test_biseparable_counts(self, n, count):
        s = biseparable((2,) * n)
        assert len(s.partitions) == count
        for part in s.partitions:
            assert len(part) == 2
            assert part[0][0] == 0

    def test_size_constrained(self):
        one = size_constrained_biseparable((2,) * 4, 1)
        two = size_constrained_biseparable((2,) * 4, 2)
        assert len(one.partitions) == 4
        assert len(two.partitions) == 3
        for part in one.partitions:
            assert min(len(b) for b in part) == 1
        with pytest.raises(ValueError):
            size_constrained_biseparable((2,) * 4, 3)

    def test_triseparable_counts(self):
        # Stirling numbers of the second kind S(n, 3)
        assert len(triseparable((2, 2, 2)).partitions) == 1
        assert len(triseparable((2,) * 4).partitions) == 6

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            SeparabilityStructure((1, 2), (((0,), (1,)),))
        with pytest.raises(ValueError, match="overlap"):
            SeparabilityStructure((2, 2), (((0, 1), (1,)),))
        with pytest.raises(ValueError, match="cover"):
            SeparabilityStructure((2, 2, 2), (((0,), (1,)),))
        with pytest.raises(ValueError, match="two blocks"):
            SeparabilityStructure((2, 2), (((0, 1),),))
        with pytest.raises(ValueError, match="duplicate"):
            SeparabilityStructure((2, 2), (((0,), (1,)), ((0,), (1,))))
        with pytest.raises(ValueError, match="sorted"):
            SeparabilityStructure((2, 2), (((1, 0),),))


class TestReorder:
    def test_vector_two_parties(self, rng):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        block_order = np.kron(b, a)  # partition lists party 1 first
        canonical = reorder_to_canonical(block_order, (2, 3), ((1,), (0,)))
        assert np.allclose(canonical, np.kron(a, b))

    def test_matrix_three_parties(self, rng):
        mats = [rng.standard_normal((d, d)) for d in (2, 3, 2)]
        block_order = reduce(np.kron, (mats[1], mats[2], mats[0]))
        canonical = reorder_to_canonical(block_order, (2, 3, 2), ((1, 2), (0,)))
        assert np.allclose(canonical, reduce(np.kron, mats))

    def test_identity_partition_is_noop(self, rng):
        op = rng.standard_normal((4, 4))
        assert np.allclose(reorder_to_canonical(op, (2, 2), ((0,), (1,))), op)

    def test_errors(self):
        with pytest.raises(ValueError, match="permutation"):
            reorder_to_canonical(np.eye(4), (2, 2), ((0,), (0,)))
        with pytest.raises(ValueError, match="shape"):
            reorder_to_canonical(np.eye(3), (2, 2), ((0,), (1,)))


class TestInit:
    def test_output_width(self):
        # per partition: one weight logit + 2 * block_dim reals per block
        assert output_width(full_separability((2, 2))) == 1 + 4 + 4
        assert output_width(full_separability((2, 2, 2))) == 1 + 3 * 4
        assert output_width(biseparable((2, 2, 2))) == 3 * (1 + 4 + 8)

    def test_default_k_and_cap(self):
        s = full_separability((2, 2))
        assert init_model(s).k_terms == 4
        assert init_model(s, k_terms=16).k_terms == 16
        with pytest.raises(ValueError, match="k_terms"):
            init_model(s, k_terms=17)
        with pytest.raises(ValueError, match="k_terms"):
            init_model(s, k_terms=0)
        with pytest.raises(ValueError, match="width"):
            init_model(s, width=0)

    def test_shapes_and_scaling(self):
        s = biseparable((2, 2, 2))
        m = init_model(s, k_terms=6, width=50, seed=3)
        out = output_width(s)
        assert m.w1.shape == (50, 6)
        assert m.w2.shape == (out, 50)
        assert np.all(m.b1 == 0) and np.all(m.b2 == 0)
        assert np.abs(m.w1).max() <= 1 / np.sqrt(6)
        assert np.abs(m.w2).max() <= 1 / np.sqrt(50)

    def test_deterministic(self):
        s = full_separability((2, 2))
        a = init_model(s, seed=11)
        b = init_model(s, seed=11)
        c = init_model(s, seed=12)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, c.w1)


class TestAssembly:
    def test_valid_state(self):
        s = biseparable((2, 2, 2))
        rho = assemble(init_model(s, seed=5))
        assert isinstance(rho, DensityMatrix)
        assert rho.dims == (2, 2, 2)

    def test_matches_manual_reconstruction(self):
        # independent assembly from the raw per-term outputs: softmax the
        # logits jointly over (term, partition), normalize each block
        # amplitude vector, tensor the blocks, reorder, mix; the 4-qubit and
        # mixed-dims structures have partitions with equal block dims, which
        # the model assembles together
        for s in (biseparable((2, 2, 2)), biseparable((2, 2, 2, 2)), triseparable((2, 2, 2, 2)),
                  size_constrained_biseparable((2, 2, 2, 2), 1), biseparable((2, 3, 2))):
            model = init_model(s, k_terms=3, width=20, seed=8)
            logits, projectors = [], []
            for k in range(1, model.k_terms + 1):
                for term, part in zip(forward(model, k), s.partitions):
                    logits.append(term.logit)
                    blocks = []
                    for raw in term.blocks:
                        m = raw.shape[0] // 2
                        v = 2.0 * raw - 1.0
                        psi = (v[:m] + 1j * v[m:]) / np.linalg.norm(v)
                        blocks.append(psi)
                    phi = reorder_to_canonical(reduce(np.kron, blocks), s.dims, part)
                    projectors.append(np.outer(phi, phi.conj()))
            weights = np.exp(logits) / np.sum(np.exp(logits))
            expected = sum(w * p for w, p in zip(weights, projectors))
            assert np.allclose(assemble(model).matrix, expected, atol=1e-12), s.partitions

    def test_grouped_products_equal_per_partition_loop_exactly(self):
        # partitions with equal block dims are assembled together; each
        # product vector must be bit-for-bit what a per-partition pass gives
        from sepnet.model import _evaluate, _product, _sigmoid

        s = biseparable((2, 2, 2, 2))
        model = init_model(s, k_terms=5, width=12, seed=4)
        _, cache = _evaluate(model)
        # one matrix product for all terms, as in _evaluate: a product per
        # column is not bit-identical to it
        y = _sigmoid(model.w2 @ np.maximum(model.w1 + model.b1[:, None], 0.0) + model.b2[:, None])
        kk = model.k_terms
        row = 0
        for p, part in enumerate(s.partitions):
            row += 1            # the partition's logit
            hats = []
            for block in part:
                bd = int(np.prod([s.dims[i] for i in block]))
                v = 2.0 * y[row:row + 2 * bd] - 1.0
                row += 2 * bd
                hats.append((v[:bd] + 1j * v[bd:]) / np.sqrt((v * v).sum(axis=0)))
            expected = np.stack([reorder_to_canonical(col, s.dims, part) for col in _product(hats).T],
                                axis=1)
            assert np.array_equal(cache.phis[:, p * kk:(p + 1) * kk], expected), p

    def test_degenerate_amplitudes_rejected(self):
        # zero second-layer weights pin every sigmoid at 1/2, which centers
        # every amplitude vector at exactly zero
        model = init_model(full_separability((2, 2)), seed=0)
        model.w2[:] = 0.0
        model.b2[:] = 0.0
        with pytest.raises(ValueError, match="norm below"):
            assemble(model)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        s = biseparable((2, 2, 2))
        model = init_model(s, k_terms=5, width=30, seed=21)
        model.b2 += 0.125  # make the biases nontrivial
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.structure == s
        assert loaded.k_terms == 5 and loaded.width == 30 and loaded.seed == 21
        for key, val in model.parameters().items():
            assert np.array_equal(loaded.parameters()[key], val)
        assert np.allclose(assemble(loaded).matrix, assemble(model).matrix)

    def test_tampered_array_shape_rejected(self, tmp_path):
        model = init_model(full_separability((2, 2)), k_terms=3, width=5, seed=0)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["w2"] = arrays["w2"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="w2"):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, version=np.array(99))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_parameters_share_one_buffer(self):
        model = init_model(biseparable((2, 2, 2)), k_terms=3, width=5, seed=0)
        params = model.parameters()
        assert sum(v.size for v in params.values()) == model.flat.size
        assert all(np.shares_memory(v, model.flat) for v in params.values())
        model.flat[:] = 0.25
        assert all(np.all(v == 0.25) for v in params.values())
