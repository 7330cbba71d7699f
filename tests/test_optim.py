"""Tests for the distance losses, the training loop, and the GD baseline."""
from dataclasses import replace

import numpy as np
import pytest

from sepnet import (
    GdConfig,
    TrainConfig,
    TrainingDivergedError,
    assemble,
    biseparable,
    derived_seed,
    distance,
    full_separability,
    ghz,
    init_model,
    isotropic,
    load_checkpoint,
    naive_gd,
    noisy_mix,
    random_density_matrix,
    save_checkpoint,
    train,
    triseparable,
    w_state,
    werner,
)
from sepnet.model import _evaluate
from sepnet.optim import loss_value_and_gradient
from sepnet.twirl import get_twirl


def _haar_unitary(n: int, rng) -> np.ndarray:
    # QR of a complex Ginibre matrix, with the phases of R's diagonal divided out
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


class TestLoss:
    def test_values_on_bell_vs_closest_separable(self):
        bell = isotropic(2, 1.0)
        css = isotropic(2, 1 / 3)
        assert distance(bell, css, "trace") == pytest.approx(0.5, abs=1e-12)
        assert distance(bell, css, "hs") == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_zero_at_equal_states(self):
        rho = isotropic(3, 0.4).matrix
        for twirl in (None, get_twirl("isotropic", (3, 3))):
            for loss in ("trace", "hs"):
                value, grad = loss_value_and_gradient(rho, rho, loss, twirl)
                assert value == 0.0
                assert np.allclose(grad, 0.0)

    @pytest.mark.parametrize("loss,symmetry", [
        ("trace", None), ("hs", None), ("trace", "isotropic"), ("hs", "isotropic"),
    ], ids=["trace", "hs", "trace-twirled", "hs-twirled"])
    def test_gradient_pairs_with_difference(self, loss, symmetry, rng):
        # both losses are positively homogeneous of degree one in the
        # difference, so Tr[G . diff] recovers the value exactly; with a
        # twirl the difference is T(a) - b, for a b that T fixes
        twirl = None if symmetry is None else get_twirl(symmetry, (3, 3))
        side = 6 if twirl is None else 9
        a = random_density_matrix(side, rng).matrix
        b = random_density_matrix(side, rng).matrix
        diff = a - b
        if twirl is not None:
            b = twirl.apply(b)
            diff = twirl.apply(a) - b
        value, grad = loss_value_and_gradient(a, b, loss, twirl)
        assert np.trace(grad @ diff).real == pytest.approx(value, rel=1e-10)

    def test_unknown_loss(self, monkeypatch):
        with pytest.raises(ValueError, match="loss"):
            distance(np.eye(2) / 2, np.eye(2) / 2, "fidelity")

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran before the loss name was checked")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        rho = isotropic(3, 0.4).matrix
        for twirl in (None, get_twirl("isotropic", (3, 3))):
            with pytest.raises(ValueError, match="unknown loss 'fidelity'"):
                loss_value_and_gradient(rho, rho, "fidelity", twirl)

    @pytest.mark.parametrize("loss", ["trace", "hs"])
    def test_backprop_matches_finite_differences(self, loss):
        # exhaustive central differences on a small model; relative error is
        # floored at 1e-5 because entries of magnitude ~1e-7 are dominated by
        # the ~1e-10 rounding noise of the difference quotient
        structure = full_separability((2, 2))
        model = init_model(structure, k_terms=2, width=8, seed=4)
        target = isotropic(2, 0.8).matrix

        def value_of(m):
            rho, _ = _evaluate(m)
            return loss_value_and_gradient(rho, target, loss)[0]

        from sepnet.model import backward

        rho, cache = _evaluate(model)
        _, grad_rho = loss_value_and_gradient(rho, target, loss)
        grads = backward(model, grad_rho, cache)
        h = 1e-6
        worst = 0.0
        for key, arr in model.parameters().items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + h
                up = value_of(model)
                arr[idx] = keep - h
                dn = value_of(model)
                arr[idx] = keep
                fd = (up - dn) / (2 * h)
                an = grads[key][idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
                worst = max(worst, rel)
        assert worst < 1e-4

    def test_backprop_beyond_eight_blocks(self, rng):
        # nine single-qubit blocks: one directional central difference
        from sepnet.model import backward

        structure = full_separability((2,) * 9)
        model = init_model(structure, k_terms=2, width=3, seed=0)
        target = np.eye(512) / 512
        rho, cache = _evaluate(model)
        _, grad_rho = loss_value_and_gradient(rho, target, "hs")
        direction = rng.standard_normal(model.b2.shape)
        slope = np.vdot(backward(model, grad_rho, cache)["b2"], direction)
        h = 1e-6
        keep = model.b2.copy()
        values = []
        for sign in (1, -1):
            model.b2[:] = keep + sign * h * direction
            values.append(loss_value_and_gradient(_evaluate(model)[0], target, "hs")[0])
        assert (values[0] - values[1]) / (2 * h) == pytest.approx(slope, rel=1e-5)

    @pytest.mark.parametrize("make", [biseparable, triseparable])
    def test_backprop_through_partition_groups(self, make, rng):
        # 4 qubits: partitions with equal block dims share one pass of the
        # kernel; one directional central difference per parameter array
        from sepnet.model import backward

        structure = make((2,) * 4)
        model = init_model(structure, k_terms=3, width=4, seed=2)
        target = random_density_matrix(16, rng).matrix
        rho, cache = _evaluate(model)
        _, grad_rho = loss_value_and_gradient(rho, target, "hs")
        grads = backward(model, grad_rho, cache)
        h = 1e-6
        for name, arr in model.parameters().items():
            direction = rng.standard_normal(arr.shape)
            slope = np.vdot(grads[name], direction)
            keep = arr.copy()
            values = []
            for sign in (1, -1):
                arr[...] = keep + sign * h * direction
                values.append(loss_value_and_gradient(_evaluate(model)[0], target, "hs")[0])
            arr[...] = keep
            assert (values[0] - values[1]) / (2 * h) == pytest.approx(slope, rel=1e-5), name


class TestDerivedSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derived_seed(7, i) for i in range(50)]
        assert seeds == [derived_seed(7, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert all(0 <= s < 2**63 for s in seeds)

    def test_depends_on_both_arguments(self):
        assert derived_seed(1, 2) != derived_seed(2, 1)


class TestTrain:
    @pytest.mark.parametrize("loss,expected", [("trace", 0.5), ("hs", 1 / np.sqrt(3))],
                             ids=["trace", "hs"])
    @pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
    def test_bell_reaches_known_distance(self, loss, expected, rotated):
        # entangled target: the fit should land on the closest-separable
        # distance, not below it.  A local unitary U x V keeps that distance
        # but leaves the Bell state fixed by no twirl, so the rotated copy
        # trains the untwirled network.
        bell = isotropic(2, 1.0).matrix
        if rotated:
            rng = np.random.default_rng(7)
            uv = np.kron(_haar_unitary(2, rng), _haar_unitary(2, rng))
            bell = uv @ bell @ uv.conj().T
        res = train(bell, full_separability((2, 2)), TrainConfig(loss=loss, seed=0))
        assert res.distance == pytest.approx(expected, abs=2e-3)
        assert res.status in ("converged", "exhausted")
        assert res.state.dims == (2, 2)
        assert distance(res.state, bell, loss) == pytest.approx(res.distance, abs=1e-12)
        if rotated:
            assert res.symmetry is None

    def test_separable_target_stops_early(self):
        res = train(werner(2, 0.45), full_separability((2, 2)), TrainConfig(seed=0))
        assert res.status == "separable_stop"
        assert res.distance < 2e-3

    def test_deterministic(self):
        cfg = TrainConfig(seed=0, max_epochs=1, batches_per_epoch=50)
        target = isotropic(2, 0.8)
        a = train(target, full_separability((2, 2)), cfg)
        b = train(target, full_separability((2, 2)), cfg)
        assert a.distance == b.distance
        for key, val in a.model.parameters().items():
            assert np.array_equal(b.model.parameters()[key], val)

    def test_history_and_counters(self):
        cfg = TrainConfig(seed=1, max_epochs=3, batches_per_epoch=40, convergence_delta=0.0)
        res = train(isotropic(2, 0.9), full_separability((2, 2)), cfg)
        assert res.status == "exhausted"
        assert res.epochs == 3
        assert res.batches == 120
        assert [b for b, _ in res.history] == [40, 80, 120]
        bests = [d for _, d in res.history]
        assert bests == sorted(bests, reverse=True)
        assert res.wall_time > 0

    def test_plateau_runs_settling_window_before_converged(self):
        # convergence_delta=1 makes epoch 2 a plateau; the run then takes a
        # settling window of batches_per_epoch // 30 = 2 smaller steps
        cfg = TrainConfig(seed=0, max_epochs=5, batches_per_epoch=60, convergence_delta=1.0)
        res = train(isotropic(2, 1.0), full_separability((2, 2)), cfg)
        assert res.status == "converged"
        assert res.epochs == 2
        assert res.batches == 122
        assert [b for b, _ in res.history] == [60, 120, 122]
        bests = [d for _, d in res.history]
        assert bests == sorted(bests, reverse=True)
        assert res.distance == pytest.approx(bests[-1], abs=1e-12)

    def test_plateau_on_separable_target_settles_to_stop(self):
        # separable isotropic d=3 (threshold 1/4): at the full step the run
        # jitters around 5.6e-3, where the plateau rule fires
        res = train(isotropic(3, 0.2), full_separability((3, 3)), TrainConfig(seed=0))
        assert res.status == "separable_stop"
        assert res.distance < 2e-3

    def test_restarts_use_derived_seeds(self):
        cfg = TrainConfig(seed=9, restarts=2, max_epochs=1, batches_per_epoch=30)
        res = train(isotropic(2, 0.9), full_separability((2, 2)), cfg)
        assert res.seed in (derived_seed(9, 0), derived_seed(9, 1))
        assert res.epochs == 2 and res.batches == 60  # totals across restarts

    def test_restarts_stop_at_the_first_separable_one(self):
        # I/4 is separable, so the first restart already stops: the result is
        # that restart alone, batches and seed included
        target, structure = np.eye(4) / 4, full_separability((2, 2))
        res = train(target, structure, TrainConfig(restarts=3))
        single = train(target, structure, TrainConfig(seed=derived_seed(0, 0)))
        assert single.status == "separable_stop"
        assert (res.batches, res.epochs, res.seed) == (single.batches, single.epochs, single.seed)

    def test_restarts_return_the_winning_model(self):
        cfg = TrainConfig(seed=9, restarts=2, max_epochs=1, batches_per_epoch=30)
        res = train(isotropic(2, 0.9), full_separability((2, 2)), cfg)
        assert res.model.seed == res.seed
        assert np.array_equal(assemble(res.model).matrix, res.state.matrix)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            train(isotropic(3, 0.5), full_separability((2, 2)))

    @pytest.mark.parametrize("name", ["restarts", "max_epochs", "batches_per_epoch"])
    def test_config_that_cannot_train_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            TrainConfig(**{name: 0})
        with pytest.raises(ValueError, match=name):
            replace(TrainConfig(), **{name: -1})

    def test_unknown_loss_rejected_by_config(self):
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="l1")

    @pytest.mark.parametrize("name", ["stop_distance", "convergence_delta"])
    @pytest.mark.parametrize("value", [float("nan"), -1e-3])
    def test_nan_or_negative_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_fixed_schedule_thresholds_stay_valid(self):
        TrainConfig(stop_distance=0.0, convergence_delta=1.0)
        TrainConfig(stop_distance=0.0, convergence_delta=0.0)

    def test_diverged_error_carries_location(self):
        err = TrainingDivergedError(4, 17)
        assert err.epoch == 4 and err.batch == 17
        assert "epoch 4" in str(err)

    def test_non_finite_loss_stops_training(self, monkeypatch, tmp_path, capsys):
        import sepnet.optim
        from sepnet.cli import main

        calls = 0

        def nan_on_third_call(*args):
            nonlocal calls
            calls += 1
            value, grad = loss_value_and_gradient(*args)
            return (np.nan if calls == 3 else value), grad

        monkeypatch.setattr(sepnet.optim, "loss_value_and_gradient", nan_on_third_call)
        with pytest.raises(TrainingDivergedError) as exc:
            train(isotropic(2, 0.9), full_separability((2, 2)), TrainConfig(seed=0))
        assert (exc.value.epoch, exc.value.batch) == (1, 3)
        calls = 0
        args = ["train", "--family", "isotropic", "--d", "2", "--q", "0.9", "--out", str(tmp_path)]
        assert main(args) == 3
        assert "non-finite loss at epoch 1, batch 3" in capsys.readouterr().err


class TestDefaultTerms:
    """Without ``k_terms``, a twirled target trains one term per projector."""

    SHORT = TrainConfig(max_epochs=1, batches_per_epoch=20)

    @pytest.mark.parametrize("target,structure,symmetry", [
        (isotropic(3, 0.5), full_separability((3, 3)), "isotropic"),
        (werner(3, 0.5), full_separability((3, 3)), "werner"),
        (noisy_mix(ghz(4), 0.5, (2,) * 4), biseparable((2,) * 4), "ghz"),
    ], ids=["isotropic d=3", "werner d=3", "ghz n=4 bisep"])
    def test_twirled_target_trains_one_term_per_projector(self, target, structure, symmetry):
        res = train(target, structure, self.SHORT)
        assert res.symmetry == symmetry
        assert res.model.k_terms == res.k_terms == len(get_twirl(symmetry, structure.dims).rank)
        if symmetry == "ghz":
            assert res.model.k_terms == 9       # 2^(n-1) + 1 for n = 4

    def test_explicit_k_terms_is_honoured(self):
        res = train(isotropic(3, 0.5), full_separability((3, 3)), replace(self.SHORT, k_terms=5))
        assert res.symmetry == "isotropic"
        assert res.model.k_terms == 5

    def test_untwirled_target_keeps_total_dimension(self):
        res = train(noisy_mix(w_state(3), 0.5, (2, 2, 2)), full_separability((2, 2, 2)), self.SHORT)
        assert res.symmetry is None
        assert res.model.k_terms == 8

    def test_every_restart_uses_the_same_k(self, monkeypatch):
        import sepnet.optim

        used = []

        def recording_init_model(structure, k_terms, *args):
            used.append(k_terms)
            return init_model(structure, k_terms, *args)

        monkeypatch.setattr(sepnet.optim, "init_model", recording_init_model)
        res = train(werner(3, 0.8), full_separability((3, 3)), replace(self.SHORT, restarts=2))
        assert used == [2, 2]
        assert res.model.k_terms == 2

    def test_checkpoint_round_trip(self, tmp_path):
        res = train(isotropic(2, 0.9), full_separability((2, 2)), self.SHORT)
        assert res.model.k_terms == 2
        path = tmp_path / "model.npz"
        save_checkpoint(res.model, path)
        loaded = load_checkpoint(path)
        assert loaded.k_terms == 2
        assert np.array_equal(assemble(loaded).matrix, res.state.matrix)


class TestNaiveGd:
    def test_history_shape_and_state(self):
        bell = isotropic(2, 1.0)
        res = naive_gd(bell, (2, 2), GdConfig(seed=0, rounds=10))
        assert res.distances.shape == (11,)
        assert np.all(np.isfinite(res.distances))
        assert res.state.dims == (2, 2)
        assert distance(res.state, bell) == pytest.approx(res.distances[-1], abs=1e-12)

    def test_stalls_above_optimum_on_bell(self):
        # plain GD on the direct parametrization reliably plateaus above the
        # true distance 1/2 that the network fit reaches
        res = naive_gd(isotropic(2, 1.0), (2, 2), GdConfig(seed=0))
        assert res.distances[-1] > 0.505
        assert res.distances[-1] < res.distances[0]

    def test_real_only_keeps_state_real(self):
        res = naive_gd(isotropic(2, 1.0), (2, 2), GdConfig(seed=0, real_only=True, rounds=20))
        assert np.abs(res.state.matrix.imag).max() == 0.0

    def test_deterministic(self):
        a = naive_gd(werner(2, 0.7), (2, 2), GdConfig(seed=3, rounds=5))
        b = naive_gd(werner(2, 0.7), (2, 2), GdConfig(seed=3, rounds=5))
        assert np.array_equal(a.distances, b.distances)

    def test_rounds_below_zero_rejected(self):
        with pytest.raises(ValueError, match="rounds must be at least 0"):
            GdConfig(rounds=-1)
        res = naive_gd(isotropic(2, 1.0), (2, 2), GdConfig(rounds=0))
        assert res.distances.shape == (1,)
        assert distance(res.state, isotropic(2, 1.0)) == pytest.approx(res.distances[0], abs=1e-12)
