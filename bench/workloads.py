"""The four workloads: inputs made from a seed, one round of operations, checks.

A workload's ``build(seed)`` makes its targets, structures and configs (the
set-up that a CLI call pays); ``round(inputs, calls)`` runs one round of
operations through sepnet's public API and checks every result with
:mod:`checks`.  One operation is one target trained and checked.  ``calls``
is the :class:`tracing.Recorder` that sees the ``train`` calls made inside
``scan_family`` and ``certify_state``, whose results those functions do not
return.

Each workload is a frozen dataclass whose fields are its sizes; the self-test
runs the same code with smaller ones.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import sepnet as sn

import checks as ck


@dataclass
class Outcome:
    """What one round did: per-operation problems and the work it took."""

    ops: list[list[str]] = field(default_factory=list)   # check failures, one list per operation
    errors: list[str] = field(default_factory=list)      # operations that raised
    extra: list[str] = field(default_factory=list)       # round-level check failures
    batches: int = 0
    signature: list[float] = field(default_factory=list)  # distances, for repeatability

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.errors)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.ops if p) + len(self.errors)

    def problems(self) -> list[str]:
        return [m for p in self.ops for m in p] + self.extra


def _child_seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def fixed_schedule(batches_per_epoch: int, **kwargs):
    """A training config whose batch count does not depend on the seed.

    Two epochs of ``batches_per_epoch`` batches; the second always improves by
    less than ``convergence_delta`` = 1, so the settling window follows and the
    run ends ``converged``.  A stop distance of 0 is never reached.  The run
    takes ``2 * batches_per_epoch + batches_per_epoch // 30`` batches.
    """
    return sn.TrainConfig(batches_per_epoch=batches_per_epoch, max_epochs=2,
                          convergence_delta=1.0, stop_distance=0.0, **kwargs)


def _trained(name: str, target, result, metric) -> list[str]:
    """Checks shared by every training result: a valid state at the reported distance."""
    state = result.state.matrix
    return ck.check_state(name, state) + ck.check_reported(name, result.distance, metric(state, target))


@dataclass(frozen=True)
class Iso2Scan:
    """The README's isotropic d=2 scan (grid 0.25-0.47, 12 points) and its threshold fit.

    The stop rule is live here, so a point's batch count depends on its
    training seed; the scan therefore always uses ``master_seed`` (the
    acceptance suite's), whatever the run's seed, and its work repeats exactly.
    """

    grid: tuple[float, ...] = tuple(float(q) for q in np.linspace(0.25, 0.47, 12))
    master_seed: int = 0
    batches_per_epoch: int = 1000
    tol: float = 5e-3             # trained distance at most this far above the exact one
    threshold_tol: float = 1e-2   # fitted threshold at most this far from 1/(d+1)

    def build(self, seed: int) -> dict:
        family = sn.FamilySpec("isotropic", d=2)
        structure = sn.full_separability(family.dims())
        sn.output_width(structure)
        config = sn.TrainConfig(loss="trace", seed=self.master_seed, batches_per_epoch=self.batches_per_epoch)
        return {"family": family, "structure": structure, "config": config}

    def round(self, inputs: dict, calls) -> Outcome:
        out = Outcome()
        try:
            points = sn.scan_family(inputs["family"], self.grid, inputs["structure"], inputs["config"])
        except Exception as exc:  # noqa: BLE001 - a raising scan fails all its points
            out.errors += [f"iso2 scan: {exc!r}"] * len(self.grid)
            return out
        trained = calls.take()
        if len(trained) != len(points):
            out.extra.append(f"iso2 scan: {len(trained)} training results for {len(points)} points")
        for point, (target, _, result) in zip(points, trained):
            name = f"iso2 q={point.q:.4f}"
            probs = ck.check_target(name, target, ck.isotropic_matrix(2, point.q))
            probs += _trained(name, target, result, ck.trace_dist)
            probs += ck.check_reported(name + " scan point", point.distance, result.distance)
            probs += ck.check_between(name, point.distance, ck.isotropic_trace_bound(2, point.q), self.tol)
            out.ops.append(probs)
            out.batches += result.batches
            out.signature.append(point.distance)
        try:
            fit = sn.estimate_threshold([(p.q, p.distance) for p in points])
        except ValueError as exc:
            out.extra.append(f"iso2 threshold fit: {exc}")
        else:
            if abs(fit.threshold - 1.0 / 3.0) > self.threshold_tol:
                out.extra.append(f"iso2 threshold {fit.threshold:.5f} is not within {self.threshold_tol:g} of 1/3")
            out.signature.append(fit.threshold)
        return out


@dataclass(frozen=True)
class TwoQubitCrosscheck:
    """Seeded HS-random two-qubit states: hs training, PPT projection, ansatz, certificate.

    Every training follows :func:`fixed_schedule`, so the work of a round does
    not depend on the seed.  States are drawn with a smallest eigenvalue of at
    least ``min_eigenvalue``, so that the offset target of ``certify_state``
    (epsilon 0.01) is a state and every certification attempt trains.
    """

    npt_states: int = 2
    ppt_states: int = 2
    epoch: int = 1500         # batches per epoch of every training
    min_eigenvalue: float = 5e-3
    tol: float = 5e-3          # trained hs distance at most this far above the projection
    projection_tol: float = 1e-6
    projection_ppt_slack: float = 1e-8   # closest_ppt_hs stops at a set gap of 1e-8

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        npt, ppt = [], []
        while len(npt) < self.npt_states or len(ppt) < self.ppt_states:
            rho = sn.random_two_qubit(rng)
            if ck.eigvalsh(rho.matrix)[0] < self.min_eigenvalue:
                continue
            pick = npt if ck.pt_min_eig(rho.matrix) < 0.0 else ppt
            if len(pick) < (self.npt_states if pick is npt else self.ppt_states):
                pick.append(rho)
        states = [s for pair in zip(npt, ppt) for s in pair] + npt[len(ppt):] + ppt[len(npt):]
        structure = sn.full_separability((2, 2))
        sn.output_width(structure)
        seeds = _child_seeds(rng, len(states))
        return {
            "states": states,
            "structure": structure,
            "configs": [fixed_schedule(self.epoch, loss="hs", seed=s) for s in seeds],
            "certify_configs": [fixed_schedule(self.epoch, seed=s) for s in seeds],
        }

    def round(self, inputs: dict, calls) -> Outcome:
        out = Outcome()
        for i, (rho, cfg, cert_cfg) in enumerate(zip(inputs["states"], inputs["configs"], inputs["certify_configs"])):
            name = f"two-qubit state {i}"
            try:
                out.ops.append(self._one(name, rho.matrix, cfg, cert_cfg, inputs["structure"], calls, out))
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out.errors.append(f"{name}: {exc!r}")
        return out

    def _one(self, name, rho, cfg, cert_cfg, structure, calls, out) -> list[str]:
        result = sn.train(rho, structure, cfg)
        proj = sn.closest_ppt_hs(rho)
        proj_state = proj.state.matrix
        proj_dist = ck.hs_dist(proj_state, rho)
        negativity = max(0.0, -ck.pt_min_eig(rho))
        probs = _trained(name, rho, result, ck.hs_dist)
        probs += ck.check_ppt(name, result.state.matrix)
        probs += ck.check_between(name, result.distance, negativity, np.inf)
        probs += ck.check_between(name + " vs projection", result.distance,
                                  proj_dist - self.projection_tol, self.tol + self.projection_tol)
        probs += ck.check_state(name + " projection", proj_state)
        probs += ck.check_ppt(name + " projection", proj_state, self.projection_ppt_slack)
        probs += ck.check_reported(name + " projection", proj.distance, proj_dist)
        out.batches += result.batches
        out.signature += [result.distance, proj.distance]
        if negativity > 0.0:
            ans = sn.css_ansatz_two_qubit(rho)
            probs += ck.check_ansatz(name, rho, ans.valid, ans.bound, ans.candidate, ans.distance)
            cert = sn.certify_state(rho, (2, 2), "full", train_config=cert_cfg)
            probs += ck.check_not_certified(name, rho, cert.certified)
            for target, _, res in calls.take():
                probs += _trained(name + " certify training", target, res, ck.trace_dist)
                out.batches += res.batches
                out.signature.append(res.distance)
        return probs


@dataclass(frozen=True)
class Ghz4Bisep:
    """Noisy 4-qubit GHZ, biseparable structure, q on both sides of 7/15.

    Trainings follow :func:`fixed_schedule`: the entangled points with
    ``epoch`` batches per epoch, the biseparable one with ``bisep_epoch``.
    """

    q_ranges: tuple[tuple[float, float], ...] = ((0.0, 0.15), (0.55, 0.65), (0.75, 0.85))
    n: int = 4
    epoch: int = 500
    bisep_epoch: int = 1500
    bisep_tol: float = 1e-2   # a biseparable point's distance must fall below this
    tol: float = 1e-3         # trained distance at most this far above the fidelity witness

    @property
    def threshold(self) -> float:
        # noisy GHZ fidelity q + (1-q)/2^n reaches 1/2 here
        return (0.5 - 2.0**-self.n) / (1.0 - 2.0**-self.n)

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        qs = [float(rng.uniform(lo, hi)) for lo, hi in self.q_ranges]
        family = sn.FamilySpec("noisy_ghz", n=self.n)
        targets = [family.make(q) for q in qs]
        structure = sn.biseparable(family.dims())
        sn.output_width(structure)
        cfgs = [fixed_schedule(self.bisep_epoch if q < self.threshold else self.epoch, loss="trace", seed=s)
                for q, s in zip(qs, _child_seeds(rng, len(qs)))]
        return {"qs": qs, "targets": targets, "structure": structure, "configs": cfgs}

    def round(self, inputs: dict, calls) -> Outcome:
        out = Outcome()
        for q, target, cfg in zip(inputs["qs"], inputs["targets"], inputs["configs"]):
            name = f"ghz{self.n} q={q:.4f}"
            try:
                result = sn.train(target, inputs["structure"], cfg)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                out.errors.append(f"{name}: {exc!r}")
                continue
            rho = target.matrix
            probs = ck.check_target(name, rho, ck.noisy_ghz_matrix(self.n, q))
            probs += _trained(name, rho, result, ck.trace_dist)
            if q < self.threshold:
                probs += ck.check_below(name, result.distance, self.bisep_tol)
            else:
                probs += ck.check_between(name, result.distance, ck.ghz_witness_bound(rho, self.n), self.tol)
            out.ops.append(probs)
            out.batches += result.batches
            out.signature.append(result.distance)
        return out


@dataclass(frozen=True)
class WernerLarge:
    """One trace-loss run on a Werner state, d=8 (D=64), on :func:`fixed_schedule`."""

    d: int = 8
    q_range: tuple[float, float] = (0.6, 0.9)
    epoch: int = 2000
    tol: float = 2e-2      # trained distance at most this far above q - 1/2

    def build(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        q = float(rng.uniform(*self.q_range))
        target = sn.werner(self.d, q)
        structure = sn.full_separability((self.d, self.d))
        sn.output_width(structure)
        config = fixed_schedule(self.epoch, loss="trace", seed=_child_seeds(rng, 1)[0])
        return {"q": q, "target": target, "structure": structure, "config": config}

    def round(self, inputs: dict, calls) -> Outcome:
        out = Outcome()
        q, rho = inputs["q"], inputs["target"].matrix
        name = f"werner d={self.d} q={q:.4f}"
        try:
            result = sn.train(inputs["target"], inputs["structure"], inputs["config"])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            out.errors.append(f"{name}: {exc!r}")
            return out
        probs = ck.check_target(name, rho, ck.werner_matrix(self.d, q))
        probs += _trained(name, rho, result, ck.trace_dist)
        probs += ck.check_between(name, result.distance, q - 0.5, self.tol)
        out.ops.append(probs)
        out.batches += result.batches
        out.signature.append(result.distance)
        return out


WORKLOADS = {
    "iso2-scan": Iso2Scan(),
    "twoqubit-crosscheck": TwoQubitCrosscheck(),
    "ghz4-bisep": Ghz4Bisep(),
    "werner-large": WernerLarge(),
}

# Small enough that every workload runs in a few seconds; used by the self-test.
TINY = {
    "iso2-scan": Iso2Scan(grid=(0.40, 0.44, 0.47), batches_per_epoch=300),
    "twoqubit-crosscheck": TwoQubitCrosscheck(npt_states=1, ppt_states=1, epoch=500),
    "ghz4-bisep": Ghz4Bisep(q_ranges=((0.0, 0.1), (0.75, 0.8)), n=3, epoch=300, bisep_epoch=600),
    "werner-large": WernerLarge(d=3, epoch=600),
}
