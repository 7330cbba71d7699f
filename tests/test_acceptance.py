"""Acceptance suite: one test per advertised guarantee of the package.

Every test pins its full configuration (seeds, grids, term counts) so the
numbers are reproducible run to run.  Each prints a single summary line;
run with ``-s`` to see them:

    python3 -m pytest tests/test_acceptance.py -v -s

The isotropic half of the threshold criterion is marked xfail: the quoted
1/d value is a fidelity threshold, while in the mixing parametrization used
throughout (uniform-noise weight 1-q) the family provably turns entangled at
1/(d+1), which is where the fitted thresholds land.  The check is kept in its
quoted form rather than silently re-normalized; see the Werner half for the
passing variant of the same pipeline.
"""
import time

import numpy as np
import pytest

from sepnet import (
    FamilySpec,
    GdConfig,
    TrainConfig,
    biseparable,
    certify_lower_bound,
    certify_state,
    closest_ppt_hs,
    css_ansatz_two_qubit,
    estimate_threshold,
    full_separability,
    horodecki_3x3,
    is_npt,
    isotropic,
    naive_gd,
    random_density_matrix,
    random_two_qubit,
    reference_distance,
    scan_family,
    train,
    werner,
)
from sepnet.model import _evaluate, backward, init_model
from sepnet.optim import loss_value_and_gradient


def report(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def fitted_threshold(family: FamilySpec, qs, notion: str = "full", k_terms=None) -> float:
    structure = (biseparable if notion == "bisep" else full_separability)(family.dims())
    config = TrainConfig(loss="trace", seed=0, k_terms=k_terms)
    points = scan_family(family, qs, structure, config)
    return estimate_threshold([(p.q, p.distance) for p in points]).threshold


def test_criterion_01_bell_state_optimum():
    bell = isotropic(2, 1.0)
    t0 = time.perf_counter()
    tr = train(bell, full_separability((2, 2)), TrainConfig(loss="trace", seed=0))
    hs = train(bell, full_separability((2, 2)), TrainConfig(loss="hs", seed=0))
    elapsed = time.perf_counter() - t0
    err_tr = abs(tr.distance - 0.5)
    err_hs = abs(hs.distance - 1 / np.sqrt(3))
    report(
        "1",
        err_tr <= 2e-3 and err_hs <= 2e-3 and elapsed < 60.0,
        f"bell trace {tr.distance:.6f} (err {err_tr:.1e}), "
        f"hs {hs.distance:.6f} (err {err_hs:.1e}), {elapsed:.1f}s",
    )


def test_criterion_02_isotropic_hs_law():
    worst = 0.0
    for d in (2, 3, 4):
        structure = full_separability((d, d))
        for q in (0.6, 0.8, 1.0):
            res = train(isotropic(d, q), structure, TrainConfig(loss="hs", seed=0))
            worst = max(worst, abs(res.distance - reference_distance("isotropic", "hs", d, q)))
    report("2", worst <= 5e-3, f"max |trained - closed form| = {worst:.1e} over d in 2..4, q in 0.6..1")


@pytest.mark.xfail(
    strict=True,
    reason="quoted 1/d is a fidelity threshold; in this mixing parametrization the "
    "family turns entangled at 1/(d+1), where the fits land",
)
def test_criterion_03_isotropic_threshold_recovery():
    fit2 = fitted_threshold(FamilySpec("isotropic", d=2), [0.36, 0.38, 0.40, 0.42, 0.44])
    fit3 = fitted_threshold(FamilySpec("isotropic", d=3), [0.27, 0.29, 0.31, 0.33, 0.35])
    ok = abs(fit2 - 0.5) <= 5e-3 and abs(fit3 - 1 / 3) <= 5e-3
    report(
        "3 (isotropic)",
        ok,
        f"fits {fit2:.4f}/{fit3:.4f} vs quoted 1/d = 0.5/0.333; the fits match the "
        f"mixing-parameter boundaries 1/(d+1) = 0.333/0.250 instead",
    )


def test_criterion_03_werner_threshold_recovery():
    fit2 = fitted_threshold(FamilySpec("werner", d=2), [0.52, 0.54, 0.56, 0.58, 0.60])
    fit3 = fitted_threshold(FamilySpec("werner", d=3), [0.52, 0.54, 0.56, 0.58, 0.60])
    ok = abs(fit2 - 0.5) <= 5e-3 and abs(fit3 - 0.5) <= 5e-3
    report("3 (werner)", ok, f"fitted thresholds {fit2:.4f} (d=2), {fit3:.4f} (d=3) vs 0.5")


def test_criterion_04_werner_distance_laws():
    worst_tr = 0.0
    for d in (2, 3, 5):
        structure = full_separability((d, d))
        for q in (0.7, 1.0):
            res = train(werner(d, q), structure, TrainConfig(loss="trace", seed=0))
            worst_tr = max(worst_tr, abs(res.distance - reference_distance("werner", "trace", d, q)))
    worst_hs = 0.0
    for d in (2, 3):
        structure = full_separability((d, d))
        for q in (0.7, 1.0):
            res = train(werner(d, q), structure, TrainConfig(loss="hs", seed=0))
            worst_hs = max(worst_hs, abs(res.distance - reference_distance("werner", "hs", d, q)))
    report(
        "4",
        worst_tr <= 5e-3 and worst_hs <= 5e-3,
        f"max errors: trace {worst_tr:.1e} (d in 2,3,5), hs {worst_hs:.1e} (d in 2,3)",
    )


def test_criterion_05_bound_entanglement():
    structure = full_separability((3, 3))
    # the separable point descends slowly: disable the plateau stop so the
    # run is not cut off mid-transit, and give the mixture extra terms
    sep_cfg = TrainConfig(loss="trace", seed=0, k_terms=27, max_epochs=30, convergence_delta=0.0)
    sep = train(horodecki_3x3(0.4).matrix, structure, sep_cfg)
    ent_cfg = TrainConfig(loss="trace", seed=0, k_terms=27)
    curve = [
        train(horodecki_3x3(q).matrix, structure, ent_cfg).distance
        for q in (1.0, 1.5, 2.0, 2.5)
    ]
    monotone = all(b > a for a, b in zip(curve, curve[1:]))
    report(
        "5",
        sep.distance < 2e-3 and curve[0] > 5e-3 and monotone,
        f"q=0.4 -> {sep.distance:.2e} ({sep.status}); q=1.0 -> {curve[0]:.4f} "
        f"(positive partial transpose yet detected); curve {[round(c, 4) for c in curve]}",
    )


def test_criterion_06_multipartite_thresholds():
    ghz = FamilySpec("noisy_ghz", n=3)
    w = FamilySpec("noisy_w", n=3)
    fits = {
        "ghz full": fitted_threshold(ghz, [0.22, 0.24, 0.26, 0.28, 0.30], k_terms=16),
        "ghz bisep": fitted_threshold(ghz, [0.45, 0.47, 0.49, 0.51, 0.53], "bisep"),
        "w full": fitted_threshold(w, [0.20, 0.22, 0.24, 0.26, 0.28], k_terms=16),
        "w bisep": fitted_threshold(w, [0.50, 0.52, 0.54, 0.56, 0.58], "bisep"),
    }
    targets = {"ghz full": (0.20, 0.01), "ghz bisep": (0.429, 0.015),
               "w full": (0.178, 0.01), "w bisep": (0.479, 0.015)}
    ok = all(abs(fits[k] - t) <= tol for k, (t, tol) in targets.items())
    report("6", ok, ", ".join(f"{k} {fits[k]:.4f} (vs {targets[k][0]})" for k in fits))


def test_criterion_07_certification():
    iso = certify_lower_bound(FamilySpec("isotropic", d=2), 0.30)
    ghz = certify_lower_bound(
        FamilySpec("noisy_ghz", n=3), 0.18, "full",
        epsilon=0.05,
        eps_prime_grid=np.logspace(-3, np.log10(20), 25),
        train_config=TrainConfig(k_terms=16),
    )
    rng = np.random.default_rng(5)
    false_certs = 0
    n = 0
    while n < 100:
        rho = random_two_qubit(rng).matrix
        if not is_npt(rho, (2, 2)):
            continue
        n += 1
        if certify_state(rho, (2, 2)).certified:
            false_certs += 1
    report(
        "7",
        iso.certified and ghz.certified and false_certs == 0,
        f"isotropic(2, 0.30) certified={iso.certified} (purity {iso.purity:.4f}), "
        f"ghz(3, 0.18) certified={ghz.certified} (purity {ghz.purity:.4f}); "
        f"{false_certs}/100 false certificates on NPT states",
    )


def test_criterion_08_ansatz_property_suite():
    rng = np.random.default_rng(11)
    n = invalid = violations = 0
    while n < 400:
        rho = random_two_qubit(rng).matrix
        if not is_npt(rho, (2, 2)):
            continue
        n += 1
        res = css_ansatz_two_qubit(rho)
        if not res.valid:
            invalid += 1
        elif res.distance > res.bound + 1e-9:
            violations += 1
    report(
        "8",
        violations == 0 and invalid <= 0.01 * n,
        f"{n} NPT states: {violations} bound violations, "
        f"{invalid} invalid candidates ({100 * invalid / n:.2f}% <= 1%)",
    )


def test_criterion_09_projection_cross_check():
    rng = np.random.default_rng(42)
    structure = full_separability((2, 2))
    worst = 0.0
    for i in range(50):
        rho = random_two_qubit(rng).matrix
        proj = closest_ppt_hs(rho)
        res = train(rho, structure, TrainConfig(loss="hs", seed=i))
        worst = max(worst, abs(res.distance - proj.distance))
    report("9", worst <= 5e-3, f"max |trained hs - projected hs| = {worst:.2e} over 50 states")


def test_criterion_10_gradient_correctness():
    # central differences at h=1e-6 carry ~1e-10 absolute rounding noise, so
    # relative errors are floored at 1e-5; configurations whose difference
    # spectrum comes close to a kink of the trace loss are skipped
    structures = (full_separability((2, 2)), full_separability((2, 3)), biseparable((2, 2, 2)))
    h = 1e-6
    worst = 0.0
    checked = 0
    for i in range(20):
        structure = structures[i % 3]
        model = init_model(structure, k_terms=2, width=8, seed=i)
        target = random_density_matrix(
            structure.total_dim, np.random.default_rng(500 + i), structure.dims
        ).matrix
        rho, cache = _evaluate(model)
        if np.abs(np.linalg.eigvalsh(rho - target)).min() < 1e-4:
            continue
        checked += 1
        for loss in ("trace", "hs"):
            _, grad_rho = loss_value_and_gradient(rho, target, loss)
            grads = backward(model, grad_rho, cache)
            for key, arr in model.parameters().items():
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    keep = arr[idx]
                    arr[idx] = keep + h
                    up = loss_value_and_gradient(_evaluate(model)[0], target, loss)[0]
                    arr[idx] = keep - h
                    dn = loss_value_and_gradient(_evaluate(model)[0], target, loss)[0]
                    arr[idx] = keep
                    fd = (up - dn) / (2 * h)
                    an = grads[key][idx]
                    worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
    report(
        "10",
        worst < 1e-4 and checked >= 15,
        f"max relative gradient error {worst:.1e} over {checked} models x two losses",
    )


def test_criterion_11_baseline_comparison():
    bell = isotropic(2, 1.0)
    nn = train(bell, full_separability((2, 2)), TrainConfig(loss="trace", seed=0))
    gd_complex = [naive_gd(bell, (2, 2), GdConfig(seed=run)).distances[-1] for run in range(20)]
    gd_real = [
        naive_gd(bell, (2, 2), GdConfig(seed=run, real_only=True)).distances[-1]
        for run in range(20)
    ]
    iso5 = isotropic(5, 1.0)
    gd_d5 = [naive_gd(iso5, (5, 5), GdConfig(seed=run)).distances[-1] for run in range(20)]
    gate = nn.distance <= min(gd_complex) - 0.005
    report(
        "11",
        gate,
        f"network {nn.distance:.4f} vs best-of-20 plain GD {min(gd_complex):.4f} (gate); "
        f"reports: real-only GD best {min(gd_real):.4f} "
        f"(within 0.02 of 0.5: {abs(min(gd_real) - 0.5) <= 0.02}), "
        f"d=5 GD best {min(gd_d5):.4f} vs true 0.8 "
        f"(misses by > 0.03: {min(gd_d5) - 0.8 > 0.03})",
    )


@pytest.mark.parametrize("family,make", [("isotropic", isotropic), ("werner", werner)])
def test_criterion_12_local_dimension_ten(family, make):
    # the paper's agreement "up to local dimension d=10"; the target is
    # twirled, so the default K is the twirl's two projectors, not D = 100
    d = 10
    structure = full_separability((d, d))
    worst, batches = 0.0, 0
    t0 = time.perf_counter()
    for q in (0.6, 1.0):
        for loss in ("trace", "hs"):
            res = train(make(d, q), structure, TrainConfig(loss=loss, seed=0))
            worst = max(worst, abs(res.distance - reference_distance(family, loss, d, q)))
            batches += res.batches
    elapsed = time.perf_counter() - t0
    report(
        f"12 ({family})",
        worst <= 5e-3,
        f"max |trained - closed form| = {worst:.1e} at d=10, q in 0.6, 1, "
        f"both losses ({batches} batches, {elapsed:.1f}s)",
    )
