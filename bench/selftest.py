"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload end to end at a tiny size (plain and traced), then feeds
each kind of check a deliberately wrong answer and requires it to be
rejected: a distance below its lower bound, a certified NPT state, and a
reported distance that does not match the returned state.  Exits 1 on the
first failure.  Takes about ten seconds on one core.
"""
import dataclasses
import sys

import run  # pins BLAS threads before numpy is imported

run.import_sepnet()

import numpy as np  # noqa: E402
import sepnet  # noqa: E402
import sepnet.scan  # noqa: E402

import checks as ck  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def round_with(name: str, patch=None, tracer=None):
    """One round of the tiny workload ``name``, with ``train`` replaced by ``patch(train)``."""
    wl = workloads.TINY[name]
    inputs = wl.build(3)
    patches = tracing.Patches()
    if patch is not None:
        for module in (sepnet, sepnet.scan, sepnet.certify):
            patches.wrap(module, "train", patch)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        return run.run_round(wl, inputs, recorder, tracer)[0]
    finally:
        patches.restore()
        recorder.restore()


def target_as_state(train):
    """Claims that the target is its own closest separable state, at distance 0."""
    def lying(target, structure, config=None):
        rho = sepnet.linalg.as_matrix(target)
        return sepnet.TrainResult(0.0, (config or sepnet.TrainConfig()).loss, "converged", 1, 1, 0.0,
                                  None, sepnet.DensityMatrix(rho, structure.dims), 0, [])
    return lying


def misreported(train):
    """Trains for real, then reports a distance 1e-3 off the returned state's."""
    def off(target, structure, config=None):
        result = train(target, structure, config)
        return dataclasses.replace(result, distance=result.distance + 1e-3)
    return off


def expect(outcome, fragment: str) -> None:
    found = [m for m in outcome.problems() if fragment in m]
    assert found, f"no problem containing {fragment!r}; got {outcome.problems()}"
    assert outcome.failed > 0


def test_tiny_workloads_pass():
    for name in workloads.TINY:
        out = round_with(name)
        assert out.attempted > 0 and out.failed == 0 and not out.errors, (name, out.problems(), out.errors)
        assert not out.extra and out.batches > 0, (name, out.extra)


def test_traced_round_accounts_for_its_cpu_time():
    tracer = tracing.Tracer()
    before = run.cpu_seconds()
    out = round_with("twoqubit-crosscheck", tracer=tracer)
    cpu = run.cpu_seconds() - before
    assert out.failed == 0, out.problems()
    m = tracer.metrics(1)
    assert m["optim.batches"] == out.batches and m["optim.train_calls"] >= 3
    assert m["certify.calls"] >= 3 and m["certify.projection_iters"] > 0
    assert 0 < m["optim.batch_us.p50"] <= m["optim.batch_us.p99"]
    assert abs(tracer.self_total_s() / cpu - 1.0) < 0.05, (tracer.self_total_s(), cpu)
    # the wrappers are gone after the round
    assert sepnet.optim._evaluate is sepnet.model._evaluate


def test_distance_below_lower_bound_is_rejected():
    for name in ("iso2-scan", "ghz4-bisep", "werner-large"):
        expect(round_with(name, target_as_state), "below its lower bound")
    # a two-qubit NPT target returned as its own approximation is NPT
    expect(round_with("twoqubit-crosscheck", target_as_state), "returned state is NPT")


def test_misreported_distance_is_rejected():
    for name in workloads.TINY:
        expect(round_with(name, misreported), "reported distance")


def test_certified_npt_state_is_rejected():
    certify = sepnet.certify_state
    sepnet.certify_state = lambda *a, **k: dataclasses.replace(certify(*a, **k), certified=True)
    try:
        expect(round_with("twoqubit-crosscheck"), "was certified separable")
    finally:
        sepnet.certify_state = certify


def test_check_functions_reject_wrong_answers():
    rho = ck.isotropic_matrix(2, 0.9)
    assert ck.check_between("x", 0.4, ck.isotropic_trace_bound(2, 0.9), 1e-3)
    assert ck.check_between("x", 0.5, 0.4, 1e-3)
    assert not ck.check_between("x", 0.4001, 0.4, 1e-3)
    assert ck.check_ppt("x", rho) and not ck.check_ppt("x", np.eye(4) / 4)
    assert ck.check_not_certified("x", rho, True) and not ck.check_not_certified("x", rho, False)
    assert ck.check_state("x", rho + 0.1 * np.eye(4))
    assert ck.check_reported("x", 0.1, 0.1 + 1e-6) and not ck.check_reported("x", 0.1, 0.1)
    assert ck.check_target("x", rho, ck.isotropic_matrix(2, 0.8))


def main() -> int:
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}", flush=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
