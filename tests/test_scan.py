"""Tests for the grid sweeps."""
import numpy as np

from sepnet import FamilySpec, TrainConfig, derived_seed, distance, full_separability, scan_family

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
