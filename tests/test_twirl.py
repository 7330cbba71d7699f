"""Tests for the twirls and for training symmetric targets in their commutant."""
import numpy as np
import pytest

from sepnet import (
    DensityMatrix,
    TrainConfig,
    assemble,
    biseparable,
    distance,
    fixed_partition,
    full_separability,
    ghz,
    horodecki_3x3,
    init_model,
    isotropic,
    load_checkpoint,
    noisy_mix,
    random_density_matrix,
    save_checkpoint,
    train,
    w_state,
    werner,
)
from sepnet.model import _evaluate, backward
from sepnet.optim import loss_value_and_gradient
from sepnet.twirl import SYMMETRIES, find_twirl, get_twirl

QS = np.linspace(0.0, 1.0, 6)


def noisy_ghz(n, q):
    return noisy_mix(ghz(n), q, (2,) * n)


# (twirl name, dims, family member)
FIXED = (
    [("isotropic", (d, d), lambda q, d=d: isotropic(d, q)) for d in (2, 3)]
    + [("werner", (d, d), lambda q, d=d: werner(d, q)) for d in (2, 3, 8)]
    + [("ghz", (2,) * n, lambda q, n=n: noisy_ghz(n, q)) for n in (2, 3, 4, 5)]
)
APPLICABLE = [("isotropic", (2, 2)), ("isotropic", (3, 3)), ("werner", (3, 3)),
              ("ghz", (2, 2, 2)), ("ghz", (2,) * 4)]


def random_hermitian(side, rng):
    a = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return a + a.conj().T


@pytest.mark.parametrize("name,dims,member", FIXED, ids=[f"{n}-{d}" for n, d, _ in FIXED])
def test_twirl_fixes_its_family(name, dims, member):
    twirl = get_twirl(name, dims)
    for q in QS:
        rho = member(q).matrix
        assert np.abs(twirl.apply(rho) - rho).max() <= 1e-12, q


def test_projector_count_and_ranks():
    for n in (2, 3, 4, 5):
        twirl = get_twirl("ghz", (2,) * n)
        assert len(twirl.rank) == 2 ** (n - 1) + 1
        assert twirl.rank.sum() == 2**n
    assert list(get_twirl("werner", (3, 3)).rank) == [6, 3]
    assert list(get_twirl("isotropic", (3, 3)).rank) == [1, 8]


def test_twirls_apply_only_to_their_dims():
    assert get_twirl("isotropic", (2, 3)) is None
    assert get_twirl("werner", (2, 2, 2)) is None
    assert get_twirl("ghz", (2, 3)) is None
    with pytest.raises(ValueError, match="unknown symmetry"):
        get_twirl("clifford", (2, 2))


@pytest.mark.parametrize("name,dims", APPLICABLE)
def test_idempotent_and_self_adjoint(name, dims, rng):
    twirl = get_twirl(name, dims)
    a, b = (random_hermitian(twirl.side, rng) for _ in range(2))
    ta = twirl.apply(a)
    assert np.allclose(twirl.apply(ta), ta, atol=1e-12)
    assert np.vdot(ta, b) == pytest.approx(np.vdot(a, twirl.apply(b)), abs=1e-10)


@pytest.mark.parametrize("loss", ["trace", "hs"])
@pytest.mark.parametrize("name,dims", APPLICABLE)
def test_twirl_contracts_distance(name, dims, loss, rng):
    twirl = get_twirl(name, dims)
    side = twirl.side
    rho = twirl.apply(random_density_matrix(side, rng).matrix)
    for _ in range(5):
        sigma = random_density_matrix(side, rng).matrix
        assert distance(twirl.apply(sigma), rho, loss) <= distance(sigma, rho, loss) + 1e-12


@pytest.mark.parametrize("loss", ["trace", "hs"])
@pytest.mark.parametrize("name,dims", APPLICABLE)
def test_commutant_loss_matches_the_dense_loss(name, dims, loss, rng):
    twirl = get_twirl(name, dims)
    rho = twirl.apply(random_density_matrix(twirl.side, rng).matrix)
    sigma = random_density_matrix(twirl.side, rng).matrix
    value, grad = loss_value_and_gradient(sigma, rho, loss, twirl)
    dense_value, dense_grad = loss_value_and_gradient(twirl.apply(sigma), rho, loss)
    assert value == pytest.approx(dense_value, abs=1e-12)
    assert np.abs(grad - dense_grad).max() <= 1e-12


@pytest.mark.parametrize("structure,target", [
    (full_separability((3, 3)), werner(3, 0.8)),
    (biseparable((2,) * 4), noisy_ghz(4, 0.7)),
], ids=["werner", "ghz4-bisep"])
@pytest.mark.parametrize("loss", ["trace", "hs"])
def test_backprop_through_the_twirl(structure, target, loss, rng):
    # one directional central difference per parameter array
    rho_t = target.matrix
    twirl = find_twirl(rho_t, structure.dims)
    assert twirl is not None
    model = init_model(structure, k_terms=3, width=4, seed=2)
    rho, cache = _evaluate(model)
    _, grad_rho = loss_value_and_gradient(rho, rho_t, loss, twirl)
    grads = backward(model, grad_rho, cache)
    h = 1e-6
    for name, arr in model.parameters().items():
        direction = rng.standard_normal(arr.shape)
        slope = np.vdot(grads[name], direction)
        keep = arr.copy()
        values = []
        for sign in (1, -1):
            arr[...] = keep + sign * h * direction
            values.append(loss_value_and_gradient(_evaluate(model)[0], rho_t, loss, twirl)[0])
        arr[...] = keep
        assert (values[0] - values[1]) / (2 * h) == pytest.approx(slope, rel=1e-5), name


def test_detection_picks_the_first_fixing_twirl():
    assert find_twirl(isotropic(3, 0.4).matrix, (3, 3)).name == "isotropic"
    assert find_twirl(werner(2, 0.7).matrix, (2, 2)).name == "werner"
    assert find_twirl(noisy_ghz(3, 0.3).matrix, (2, 2, 2)).name == "ghz"
    # noisy GHZ on two qubits is isotropic(2, q), which comes first in the table
    assert find_twirl(noisy_ghz(2, 0.3).matrix, (2, 2)).name == SYMMETRIES[0] == "isotropic"


def test_detection_rejects_asymmetric_targets(rng):
    for side, dims in ((4, (2, 2)), (9, (3, 3)), (8, (2, 2, 2))):
        assert find_twirl(random_density_matrix(side, rng).matrix, dims) is None
    assert find_twirl(horodecki_3x3(0.4).matrix, (3, 3)) is None
    assert find_twirl(noisy_mix(w_state(3), 0.3, (2, 2, 2)).matrix, (2, 2, 2)) is None
    rho = isotropic(2, 0.4).matrix
    bump = random_hermitian(4, rng)
    bump -= np.trace(bump) / 4 * np.eye(4)
    bump *= 1e-9 / np.abs(bump).max()
    assert find_twirl(rho + bump, (2, 2)) is None


def test_ghz_run_on_a_fixed_partition():
    structure = fixed_partition((2, 2, 2), [[0], [1, 2]])
    target = noisy_ghz(3, 0.6)
    res = train(target, structure, TrainConfig(seed=0, max_epochs=1, batches_per_epoch=100))
    assert res.symmetry == res.model.symmetry == "ghz"
    DensityMatrix(res.state.matrix, (2, 2, 2))
    assert distance(res.state, target) == res.distance
    # the twirl never yields a distance below the bipartite one (fidelity witness)
    fidelity = float(np.real(ghz(3).conj() @ target.matrix @ ghz(3)))
    assert res.distance >= fidelity - 0.5 - 1e-9


def test_asymmetric_target_trains_untwirled(rng):
    res = train(random_density_matrix(4, rng, dims=(2, 2)), full_separability((2, 2)),
                TrainConfig(seed=0, max_epochs=1, batches_per_epoch=20))
    assert res.symmetry is None and res.model.symmetry is None


def test_separable_isotropic_point_stops_within_a_few_batches():
    res = train(isotropic(2, 0.25), full_separability((2, 2)), TrainConfig(seed=0))
    assert res.symmetry == "isotropic"
    assert res.status == "separable_stop" and res.batches < 100


class TestCheckpoint:
    def test_round_trip_keeps_the_twirl(self, tmp_path):
        res = train(isotropic(2, 0.6), full_separability((2, 2)),
                    TrainConfig(seed=3, max_epochs=1, batches_per_epoch=50))
        assert res.model.symmetry == "isotropic"
        path = str(tmp_path / "model.npz")
        save_checkpoint(res.model, path)
        loaded = load_checkpoint(path)
        assert loaded.symmetry == "isotropic"
        assert assemble(loaded) == res.state

    def test_version_one_loads_untwirled(self, tmp_path):
        res = train(isotropic(2, 0.6), full_separability((2, 2)),
                    TrainConfig(seed=3, max_epochs=1, batches_per_epoch=50))
        path = str(tmp_path / "model.npz")
        save_checkpoint(res.model, path)
        with np.load(path) as data:
            arrays = {k: v for k, v in data.items() if k != "symmetry"}
        arrays["version"] = np.array(1)
        np.savez(path, **arrays)
        loaded = load_checkpoint(path)
        assert loaded.symmetry is None
        assert np.array_equal(assemble(loaded).matrix, _evaluate(res.model)[0])

    def test_unknown_or_misfit_symmetry_rejected(self, tmp_path):
        model = init_model(full_separability((2, 3)), k_terms=2, width=3, seed=0)
        path = str(tmp_path / "model.npz")
        save_checkpoint(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        for name, message in (("clifford", "unknown symmetry"), ("werner", "does not apply")):
            arrays["symmetry"] = np.array(name)
            np.savez(path, **arrays)
            with pytest.raises(ValueError, match=message):
                load_checkpoint(path)
