"""Tests for the certification routes and the threshold estimator."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import (
    FamilySpec,
    TrainConfig,
    certify_grid,
    certify_lower_bound,
    certify_state,
    closest_ppt_hs,
    css_ansatz_two_qubit,
    estimate_threshold,
    is_npt,
    isotropic,
    min_eigenvalue,
    ppt_min_eigenvalue,
    purity,
    purity_ball_bound,
    trace_distance,
    werner,
)
from tests.conftest import sample_npt_two_qubit


class TestPptChecks:
    def test_bell_negativity(self):
        bell = isotropic(2, 1.0)
        assert ppt_min_eigenvalue(bell, (2, 2)) == pytest.approx(-0.5)
        assert is_npt(bell, (2, 2))

    def test_separable_werner_is_ppt(self):
        assert not is_npt(werner(2, 0.3), (2, 2))


class TestCssAnsatz:
    def test_bell_gives_exact_closest_state(self):
        # zeroing the -1/2 partial-transpose eigenvalue and rebalancing lands
        # exactly on the isotropic state at the separability boundary
        res = css_ansatz_two_qubit(isotropic(2, 1.0))
        assert res.valid
        assert res.bound == pytest.approx(0.5)
        assert res.distance == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(res.candidate, isotropic(2, 1 / 3).matrix, atol=1e-12)
        assert res.state is not None and res.state.dims == (2, 2)

    def test_ppt_input_rejected(self):
        with pytest.raises(ValueError, match="needs an NPT state"):
            css_ansatz_two_qubit(werner(2, 0.3))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="two-qubit"):
            css_ansatz_two_qubit(np.eye(9) / 9)

    def test_random_npt_states_respect_bound(self, rng):
        # whenever the construction yields a state, it is separable (PPT,
        # which suffices for two qubits) and no further than the negativity
        valids = 0
        for _ in range(40):
            rho = sample_npt_two_qubit(rng)
            res = css_ansatz_two_qubit(rho)
            assert res.bound > 0
            if not res.valid:
                assert res.state is None and res.distance is None
                continue
            valids += 1
            assert res.distance <= res.bound + 1e-9
            assert ppt_min_eigenvalue(res.candidate, (2, 2)) >= -1e-9
            assert np.trace(res.candidate).real == pytest.approx(1.0)
            assert res.distance == pytest.approx(
                trace_distance(rho.matrix, res.candidate), abs=1e-12
            )
        assert valids > 10  # the construction succeeds on most random states


class TestClosestPpt:
    def test_bell_projection(self):
        proj = closest_ppt_hs(isotropic(2, 1.0))
        assert proj.distance == pytest.approx(1 / np.sqrt(3), abs=1e-6)
        assert np.allclose(proj.state.matrix, isotropic(2, 1 / 3).matrix, atol=1e-6)
        assert proj.iterations >= 1

    def test_idempotent_on_ppt_input(self):
        rho = werner(2, 0.4)
        proj = closest_ppt_hs(rho)
        assert proj.distance < 1e-7
        assert np.allclose(proj.state.matrix, rho.matrix, atol=1e-6)

    def test_projection_is_ppt_state(self, rng):
        # PPT up to eigensolver rounding, not merely up to the Dykstra tolerance
        for _ in range(10):
            rho = sample_npt_two_qubit(rng)
            proj = closest_ppt_hs(rho)
            assert ppt_min_eigenvalue(proj.state.matrix, (2, 2)) >= -1e-12
            assert proj.distance > 0


class TestPurityBall:
    def test_bisep_values(self):
        assert purity_ball_bound("bisep", (2, 2)) == pytest.approx(1 / 3)
        assert purity_ball_bound("bisep", (2, 2, 2)) == pytest.approx(1 / 7)
        assert purity_ball_bound("bisep", (3, 3)) == pytest.approx(1 / 8)

    def test_full_qubit_values(self):
        # with two parties full separability is the single bipartition
        assert purity_ball_bound("full", (2, 2)) == pytest.approx(1 / 3)
        assert purity_ball_bound("full", (2, 2, 2)) == pytest.approx(19 / 136)

    @pytest.mark.parametrize("notion,dims", [("full", (2,) * n) for n in range(2, 9)] + [
        ("bisep", dims) for dims in [(2, 2), (3, 3), (2, 3, 2)] + [(2,) * n for n in range(3, 7)]
    ])
    def test_no_ball_exceeds_the_positivity_bound(self, notion, dims):
        # purity <= 1/(D-1) makes a unit-trace Hermitian matrix PSD; the
        # certificate relies on every ball sitting inside that one
        assert purity_ball_bound(notion, dims) <= 1 / (np.prod(dims) - 1)

    @settings(max_examples=200, deadline=None)
    @given(side=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), shrink=st.floats(0.0, 1.0))
    def test_purity_inside_the_ball_implies_positivity(self, side, seed, shrink):
        # a unit-trace Hermitian I/D + tH with Tr rho^2 <= 1/(D-1) has no
        # negative eigenvalue: the lemma behind the one purity check
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        h = h + h.conj().T
        h -= np.trace(h) / side * np.eye(side)
        # Tr (I/D + tH)^2 = 1/D + t^2 Tr H^2 reaches 1/(D-1) at t_max
        t_max = np.sqrt((1 / (side - 1) - 1 / side) / np.vdot(h, h).real)
        rho = np.eye(side) / side + shrink * t_max * h
        assert purity(rho) <= 1 / (side - 1) + 1e-15
        assert min_eigenvalue(rho) >= -1e-12

    def test_full_requires_qubits(self):
        with pytest.raises(ValueError, match="qubit"):
            purity_ball_bound("full", (3, 3))

    def test_unknown_notion(self):
        with pytest.raises(ValueError, match="notion"):
            purity_ball_bound("trisep", (2, 2))


@pytest.fixture
def no_training(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("certify_state trained")

    monkeypatch.setattr("sepnet.certify.train", fail)


class TestCertify:
    def test_maximally_mixed_certifies(self):
        cfg = TrainConfig(seed=0, max_epochs=2, batches_per_epoch=500)
        res = certify_state(np.eye(4) / 4, (2, 2), train_config=cfg)
        assert res.certified
        assert res.purity == pytest.approx(0.25, abs=1e-6)
        assert res.purity <= res.purity_bound
        assert res.rho_x_min_eig >= -1e-9
        assert res.train_distance <= res.epsilon
        assert res.reason == "purity ball membership"

    def test_poor_fit_cannot_certify(self):
        # an entangled target leaves a large training residual, which fails
        # the epsilon gate; no certificate is produced
        cfg = TrainConfig(seed=0, max_epochs=1, batches_per_epoch=200)
        res = certify_state(isotropic(2, 0.9).matrix, (2, 2), train_config=cfg)
        assert not res.certified
        assert "training residual" in res.reason
        assert res.train_distance > res.epsilon

    def test_infeasible_offset_reports_not_certified(self):
        # a pure target has zero eigenvalues, so the offset leaves the state
        # set; this must come back as a clean failure, not an exception
        res = certify_state(isotropic(2, 1.0).matrix, (2, 2), epsilon=0.05)
        assert not res.certified
        assert "reduce epsilon" in res.reason
        assert res.train_distance is None

    @pytest.mark.parametrize("epsilon", [-0.5, 0.0, float("nan"), float("inf")])
    def test_non_positive_epsilon_rejected_before_training(self, no_training, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            certify_state(np.eye(4) / 4, (2, 2), epsilon=epsilon)

    def test_state_just_outside_the_two_qubit_ball_is_not_certified(self):
        # isotropic(2, 0.34) is entangled (PT eigenvalue -0.005) with purity
        # 0.3367, between 1/3 and the formerly used bound 23/68
        cfg = TrainConfig(max_epochs=2, batches_per_epoch=1000)
        res = certify_state(isotropic(2, 0.34).matrix, (2, 2), train_config=cfg)
        assert is_npt(isotropic(2, 0.34), (2, 2))
        assert not res.certified

    @pytest.mark.parametrize("rho,kwargs,message", [
        (np.eye(4) / 4 * 1.004, {"notion": "bisep"}, "trace"),
        (np.eye(4) / 4 + 1e-3 * np.triu(np.ones((4, 4)), 1), {"notion": "bisep"}, "Hermitian"),
        (np.eye(9) / 9, {}, "shape"),
        (isotropic(2, 0.34).matrix, {"eps_prime_grid": [-0.9]}, "eps' grid"),
        (isotropic(2, 0.34).matrix, {"eps_prime_grid": [0.1, 0.0]}, "eps' grid"),
        (isotropic(2, 0.34).matrix, {"eps_prime_grid": [float("nan")]}, "eps' grid"),
        (isotropic(2, 0.34).matrix, {"eps_prime_grid": []}, "eps' grid"),
        (np.eye(4) / 4, {"notion": "trisep"}, "notion"),
    ])
    def test_bad_input_rejected_before_training(self, no_training, rho, kwargs, message):
        with pytest.raises(ValueError, match=message):
            certify_state(rho, (2, 2), **kwargs)

    def test_family_wrapper_carries_q(self):
        cfg = TrainConfig(seed=0, max_epochs=2, batches_per_epoch=500)
        res = certify_lower_bound(FamilySpec("isotropic", d=2), 0.0, train_config=cfg)
        assert res.certified
        assert res.q == 0.0

    def test_grid_derives_smaller_q_by_convexity(self):
        cfg = TrainConfig(seed=0, max_epochs=3, batches_per_epoch=1000)
        grid = certify_grid(FamilySpec("isotropic", d=2), [0.0, 0.1], train_config=cfg)
        assert [g.q for g in grid] == [0.0, 0.1]  # input order preserved
        assert grid[1].certified and grid[1].derived_from is None
        assert grid[0].certified and grid[0].derived_from == 0.1
        assert "convex combination" in grid[0].reason


class TestThresholdEstimate:
    def test_exact_hinge_recovered(self):
        pts = [(q, 0.8 * max(0.0, q - 0.5)) for q in np.arange(0.3, 0.75, 0.05)]
        est = estimate_threshold(pts)
        assert est.threshold == pytest.approx(0.5, abs=1e-12)
        assert est.slope == pytest.approx(0.8)
        assert est.residual == pytest.approx(0.0, abs=1e-12)
        assert len(est.points_used) == 4
        assert est.method == "linear_fit"

    def test_uses_smallest_rising_points(self):
        # the flat plateau (below flat_tol) is ignored, and only the
        # fit_window points nearest the knee enter the fit
        pts = [(0.1, 1e-4), (0.2, 2e-4), (0.55, 0.05), (0.6, 0.1), (0.65, 0.15), (0.9, 0.9)]
        est = estimate_threshold(pts, fit_window=3)
        assert [q for q, _ in est.points_used] == [0.55, 0.6, 0.65]
        assert est.threshold == pytest.approx(0.5, abs=1e-12)

    def test_extrapolates_below_scan_window(self):
        # a scan that starts above the threshold still pins it by extension
        pts = [(0.6, 0.1), (0.7, 0.2), (0.8, 0.3)]
        est = estimate_threshold(pts)
        assert est.threshold == pytest.approx(0.5, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least two"):
            estimate_threshold([(0.5, 0.1)])
        with pytest.raises(ValueError, match="widen the scan"):
            estimate_threshold([(0.1, 1e-4), (0.2, 3e-4), (0.3, 2e-3)])

    def test_decreasing_curve_rejected(self):
        pts = [(0.1, 0.5), (0.2, 0.4), (0.3, 0.3)]
        with pytest.raises(ValueError, match="slope"):
            estimate_threshold(pts)

    @pytest.mark.parametrize("fit_window", [0, 1, -3])
    def test_fit_window_below_two_rejected(self, fit_window):
        pts = [(0.6, 0.1), (0.7, 0.2), (0.8, 0.3)]
        with pytest.raises(ValueError, match="fit_window must be at least 2"):
            estimate_threshold(pts, fit_window=fit_window)

    @pytest.mark.parametrize("flat_tol", [float("nan"), float("inf"), -0.1])
    def test_flat_tol_not_finite_and_non_negative_rejected(self, flat_tol):
        pts = [(0.6, 0.1), (0.7, 0.2), (0.8, 0.3)]
        with pytest.raises(ValueError, match="flat_tol must be finite and non-negative"):
            estimate_threshold(pts, flat_tol=flat_tol)

    def test_fit_window_two_fits_two_points(self):
        est = estimate_threshold([(0.6, 0.1), (0.7, 0.2), (0.8, 0.35)], fit_window=2)
        assert [q for q, _ in est.points_used] == [0.6, 0.7]
        assert est.threshold == pytest.approx(0.5, abs=1e-12)
