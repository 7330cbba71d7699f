"""Wrappers that the benchmark installs around the calls into sepnet's layers.

:class:`Recorder` keeps the ``TrainResult`` of each ``train`` call made inside
``scan_family`` and ``certify_state``; it costs one Python call per training
run and is installed in every run.  :class:`Tracer` records a span around
every call into a layer, with the process CPU clock, and is installed only for
the traced rounds of a ``--trace 1`` run.  A span's self time is its duration
minus the durations of the spans it contains, so the self times of all layers
plus the benchmark's own add up to the CPU time of the traced round.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np
import sepnet
import sepnet.certify
import sepnet.optim
import sepnet.scan

clock = time.process_time_ns


class Patches:
    """Replace module attributes and put the originals back afterwards."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, name: str, make) -> None:
        orig = getattr(module, name)
        setattr(module, name, make(orig))
        self._undo.append((module, name, orig))

    def restore(self) -> None:
        while self._undo:
            module, name, orig = self._undo.pop()
            setattr(module, name, orig)


class Recorder:
    """Keeps (target, config, result) of the ``train`` calls inside scans and certificates."""

    def __init__(self):
        self._calls = []
        self._patches = Patches()

    def install(self) -> None:
        for module in (sepnet.scan, sepnet.certify):
            self._patches.wrap(module, "train", self._recorded)

    def restore(self) -> None:
        self._patches.restore()

    def _recorded(self, train):
        def recorded(target, structure, config=None):
            result = train(target, structure, config)
            self._calls.append((target, config, result))
            return result
        return recorded

    def take(self) -> list:
        calls, self._calls = self._calls, []
        return calls


class Tracer:
    """Self time and call counts per layer, plus per-batch times inside ``train``."""

    # (module, attribute, layer); ``train`` is wrapped in each namespace it is called from
    TARGETS = (
        (sepnet.optim, "_evaluate", "model.assemble"),
        (sepnet.optim, "backward", "model.backward"),
        (sepnet.optim, "loss_value_and_gradient", "optim.loss"),
        (sepnet.optim, "_train_once", "optim.train"),
        (sepnet, "train", "optim.train"),
        (sepnet.scan, "train", "optim.train"),
        (sepnet.certify, "train", "optim.train"),
        (sepnet, "scan_family", "scan"),
        (sepnet, "certify_state", "certify"),
        (sepnet, "css_ansatz_two_qubit", "certify"),
        (sepnet, "estimate_threshold", "certify"),
        (sepnet, "closest_ppt_hs", "certify.projection"),
    )

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.batch_ns: list[int] = []
        self.train_calls = 0
        self.batches = 0
        self.plateau_batches = 0
        self.certify_train_ns = 0
        self.projection_iters = 0
        self._stack: list[list] = []       # [layer, start, child_ns]
        self._batch_start = None           # set while inside _train_once
        self._patches = Patches()

    def install(self) -> None:
        for module, attr, layer in self.TARGETS:
            self._patches.wrap(module, attr, lambda fn, layer=layer, attr=attr: self._span(fn, layer, attr))

    def restore(self) -> None:
        self._patches.restore()

    def run(self, fn, *args):
        """Call ``fn`` inside a root span ``bench``: the benchmark's own work."""
        return self._span(fn, "bench", "")(*args)

    def _span(self, fn, layer: str, attr: str):
        stack = self._stack

        def traced(*args, **kwargs):
            start = clock()
            if attr == "_evaluate" and self._batch_start is not None:
                if self._batch_start:
                    self.batch_ns.append(start - self._batch_start)
                self._batch_start = start
            elif attr == "_train_once":
                self._batch_start = 0
            frame = [layer, start, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_ns[layer] += dur - frame[2]
                self.calls[layer] += 1
                if stack:
                    stack[-1][2] += dur
            if attr == "_train_once":
                if self._batch_start:
                    self.batch_ns.append(end - self._batch_start)
                self._batch_start = None
            elif attr == "train":
                self._trained(result)
                if stack and stack[-1][0] == "certify":
                    self.certify_train_ns += dur
            elif attr == "closest_ppt_hs":
                self.projection_iters += result.iterations
            return result

        return traced

    def _trained(self, result) -> None:
        self.train_calls += 1
        self.batches += result.batches
        hist = result.history
        # a plateau adds one history entry for the settling window after the epochs
        if len(hist) == result.epochs + 1 and len(hist) >= 3:
            self.plateau_batches += hist[-1][0] - hist[-3][0]

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures; counts and per-round times are averaged over ``rounds``."""
        s = self.self_ns
        c = self.calls

        def per_call_us(layer):
            return s[layer] / c[layer] / 1e3 if c[layer] else 0.0

        certify_calls = c["certify"] + c["certify.projection"]
        batch = np.array(self.batch_ns, dtype=float) / 1e3
        return {
            "model.assemble_us": per_call_us("model.assemble"),
            "model.backward_us": per_call_us("model.backward"),
            "optim.loss_us": per_call_us("optim.loss"),
            "optim.update_us": s["optim.train"] / self.batches / 1e3 if self.batches else 0.0,
            "optim.batch_us.p50": float(np.percentile(batch, 50)) if batch.size else 0.0,
            "optim.batch_us.p99": float(np.percentile(batch, 99)) if batch.size else 0.0,
            "optim.train_calls": self.train_calls / rounds,
            "optim.batches": self.batches / rounds,
            "optim.plateau_share": self.plateau_batches / self.batches if self.batches else 0.0,
            "scan.self_ms": s["scan"] / rounds / 1e6,
            "certify.calls": certify_calls / rounds,
            "certify.train_s": self.certify_train_ns / rounds / 1e9,
            "certify.self_ms": s["certify"] / rounds / 1e6,
            "certify.projection_ms": per_call_us("certify.projection") / 1e3,
            "certify.projection_iters": self.projection_iters / c["certify.projection"] if c["certify.projection"] else 0.0,
            "bench.self_ms": s["bench"] / rounds / 1e6,
        }

    def self_total_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9
