"""Tests for the grid sweeps."""
from dataclasses import replace

import numpy as np
import pytest

from sepnet import (FamilySpec, TrainConfig, TrainResult, derived_seed, distance, full_separability,
                    scan_family, train)

CHEAP = TrainConfig(seed=5, max_epochs=1, batches_per_epoch=30)


def test_points_in_grid_order_with_derived_seeds():
    family = FamilySpec("isotropic", d=2)
    qs = [0.9, 0.5, 0.7]
    points = scan_family(family, qs, full_separability((2, 2)), CHEAP)
    assert [p.q for p in points] == qs
    assert [p.seed for p in points] == [derived_seed(5, i) for i in range(3)]
    for p in points:
        assert p.status in ("separable_stop", "converged", "exhausted")
        assert p.batches <= 30


def test_worker_count_does_not_change_results():
    family = FamilySpec("werner", d=2)
    qs = [0.6, 0.8]
    serial = scan_family(family, qs, full_separability((2, 2)), CHEAP, workers=1)
    parallel = scan_family(family, qs, full_separability((2, 2)), CHEAP, workers=2)
    for a, b in zip(serial, parallel):
        assert (a.q, a.distance, a.status, a.seed) == (b.q, b.distance, b.status, b.seed)


def test_points_carry_the_trained_state():
    family = FamilySpec("isotropic", d=2)
    qs = [0.4, 0.8]
    serial = scan_family(family, qs, full_separability((2, 2)), CHEAP)
    parallel = scan_family(family, qs, full_separability((2, 2)), CHEAP, workers=2)
    for p, other in zip(serial, parallel):
        assert p.distance == distance(p.state, family.make(p.q), CHEAP.loss)
        assert np.array_equal(p.state.matrix, other.state.matrix)


@pytest.mark.parametrize("workers", [1, 2])
def test_points_match_direct_training(workers):
    family = FamilySpec("werner", d=2)
    structure = full_separability((2, 2))
    qs = [0.2, 0.7, 0.95]
    points = scan_family(family, qs, structure, CHEAP, workers=workers)
    for i, (q, p) in enumerate(zip(qs, points)):
        direct = train(family.make(q).matrix, structure, replace(CHEAP, seed=derived_seed(CHEAP.seed, i)))
        assert isinstance(p, TrainResult)
        assert p.q == q and p.loss == direct.loss
        assert float(p.distance).hex() == float(direct.distance).hex()
        assert (p.status, p.epochs, p.batches) == (direct.status, direct.epochs, direct.batches)
        assert p.history == direct.history
        assert (p.symmetry, p.k_terms) == (direct.symmetry, direct.k_terms)
        assert np.array_equal(p.state.matrix, direct.state.matrix)
        for name, array in direct.model.parameters().items():
            assert np.array_equal(p.model.parameters()[name], array)
        assert np.shares_memory(p.model.w1, p.model.flat)


def test_restarts_keep_the_point_seed_and_the_winners_model_seed():
    family = FamilySpec("isotropic", d=2)
    structure = full_separability((2, 2))
    config = replace(CHEAP, restarts=2)
    qs = [0.4, 0.9]
    for i, (q, p) in enumerate(zip(qs, scan_family(family, qs, structure, config))):
        point_seed = derived_seed(config.seed, i)
        assert p.seed == point_seed
        direct = train(family.make(q).matrix, structure, replace(config, seed=point_seed))
        assert p.model.seed == direct.seed
        assert p.model.seed in (derived_seed(point_seed, 0), derived_seed(point_seed, 1))
