#!/usr/bin/env python3
"""Check that two source trees of sepnet compute bit-identical numbers.

Usage: python3 scripts/same_numbers.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the ``sepnet`` package
(for a checkout, its ``src/``).  The protocol below runs once against each
tree, in its own subprocess with that tree on ``PYTHONPATH`` and one BLAS
thread.  Every case is reduced to a digest of its exact bytes: for ``train``
the batch count, status, epochs, history, every parameter array, the
reported distance and the state; for ``scan_family`` every point; for
``naive_gd`` the distance curve and the state; for ``closest_ppt_hs`` the
state, distance and iteration count; for ``css_ansatz_two_qubit`` the
candidate, its validity and its distance; for ``certify_state`` and
``certify_grid`` the verdict, eps', purity, minimum eigenvalue, training
distance, training status and reason.  The ``train``, ``scan``, ``certify``
and ``random-bench`` commands run through ``sepnet.cli.main`` into a
temporary directory, each with ``--max-epochs 1 --batches 50``; for them the
exit code, the stderr line, every CSV with its ``wall_time`` column dropped,
``state.txt`` and the arrays in ``model.npz``.  One line is printed per case;
the exit status is 1 if any case differs, 0 otherwise.  The two trees run side by side; on a 2-core x86-64
box the whole check takes about a minute.
"""
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

SHORT = dict(max_epochs=2, batches_per_epoch=300)     # the multipartite cases: 2 x 300 batches
FIT = dict(max_epochs=3, batches_per_epoch=1000)      # certificates that fit within epsilon
CLI_SHORT = ["--max-epochs", "1", "--batches", "50"]  # every command-line case


def _cases():
    """(name, thunk) pairs; each thunk returns a list of (field, value) pairs."""
    import numpy as np
    import sepnet as sn

    def trained(target, structure, config):
        def run():
            r = sn.train(target, structure, config)
            fields = [("batches", r.batches), ("status", r.status), ("epochs", r.epochs),
                      ("history", [(b, float(d).hex()) for b, d in r.history]),
                      ("distance", float(r.distance).hex()), ("state", r.state.matrix)]
            return fields + sorted(r.model.parameters().items())
        return run

    def scanned(family, qs, structure, config):
        def run():
            return [(f"point {i}", (p.q, float(p.distance).hex(), p.status, p.seed, p.epochs,
                                    p.batches, _digest(p.state.matrix)))
                    for i, p in enumerate(sn.scan_family(family, qs, structure, config))]
        return run

    def projected(rho):
        def run():
            r = sn.closest_ppt_hs(rho)
            return [("state", r.state.matrix), ("distance", float(r.distance).hex()),
                    ("iterations", r.iterations)]
        return run

    def ansatz(rho):
        def run():
            r = sn.css_ansatz_two_qubit(rho)
            return [("candidate", r.candidate), ("valid", r.valid),
                    ("distance", None if r.distance is None else float(r.distance).hex())]
        return run

    def hexed(x):
        return None if x is None else float(x).hex()

    def verdict(r):
        return (r.certified, hexed(r.eps_prime), hexed(r.purity), hexed(r.rho_x_min_eig),
                hexed(r.train_distance), r.train_status, r.reason)

    def certified(rho, dims, notion, config, **kwargs):
        def run():
            r = sn.certify_state(rho, dims, notion, train_config=config, **kwargs)
            return list(zip(("certified", "eps_prime", "purity", "rho_x_min_eig",
                             "train_distance", "train_status", "reason"), verdict(r)))
        return run

    def certified_grid(family, qs, notion, config):
        def run():
            return [(f"q {r.q!r}", verdict(r) + (r.derived_from,))
                    for r in sn.certify_grid(family, qs, notion, train_config=config)]
        return run

    def gd(target, dims, config):
        def run():
            r = sn.naive_gd(target, dims, config)
            return [("distances", r.distances), ("state", r.state.matrix)]
        return run

    def command(argv):
        def run():
            from sepnet.cli import main

            err = io.StringIO()
            with tempfile.TemporaryDirectory() as out:
                # stdout carries this protocol's JSON, and the command's own lines name ``out``
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main(argv + ["--out", out] + CLI_SHORT)
                fields = [("exit", code), ("stderr", err.getvalue().strip())]
                for name in sorted(os.listdir(out)):
                    path = os.path.join(out, name)
                    if name.endswith(".csv"):
                        fields.append((name, _csv_without_wall_time(path)))
                    elif name == "model.npz":
                        with np.load(path) as arrays:
                            fields += [(f"{name} {k}", arrays[k]) for k in sorted(arrays.files)]
                    else:
                        with open(path) as fh:
                            fields.append((name, fh.read()))
            return fields
        return run

    q4 = (2,) * 4
    ghz4 = sn.noisy_mix(sn.ghz(4), 0.5, q4)
    w3 = sn.noisy_mix(sn.w_state(3), 0.5, (2, 2, 2))
    mixed = sn.random_density_matrix(12, np.random.default_rng(0), dims=(2, 3, 2))
    cases = [
        ("bell trace seed 0", trained(sn.isotropic(2, 1.0), sn.full_separability((2, 2)),
                                      sn.TrainConfig(loss="trace", seed=0))),
        ("isotropic d=3 q=0.2", trained(sn.isotropic(3, 0.2), sn.full_separability((3, 3)),
                                        sn.TrainConfig())),
        # an explicit K is honoured, also on a twirled target
        ("isotropic d=3 q=0.2 k_terms=9",
         trained(sn.isotropic(3, 0.2), sn.full_separability((3, 3)), sn.TrainConfig(k_terms=9))),
        ("ghz n=4 bisep", trained(ghz4, sn.biseparable(q4), sn.TrainConfig(**SHORT))),
        ("ghz n=4 trisep", trained(ghz4, sn.triseparable(q4), sn.TrainConfig(**SHORT))),
        ("ghz n=4 bisep-m1", trained(ghz4, sn.size_constrained_biseparable(q4, 1),
                                     sn.TrainConfig(**SHORT))),
        ("w n=3 bisep", trained(w3, sn.biseparable((2, 2, 2)), sn.TrainConfig(**SHORT))),
        ("random (2,3,2) bisep", trained(mixed, sn.biseparable((2, 3, 2)),
                                         sn.TrainConfig(**SHORT))),
        ("werner d=3 q=0.8 hs", trained(sn.werner(3, 0.8), sn.full_separability((3, 3)),
                                        sn.TrainConfig(loss="hs", **SHORT))),
        ("werner d=2 q=0.8 restarts=2", trained(sn.werner(2, 0.8), sn.full_separability((2, 2)),
                                                sn.TrainConfig(restarts=2, **SHORT))),
        ("isotropic d=2 scan", scanned(sn.FamilySpec("isotropic", d=2), [0.2, 0.4, 0.6],
                                       sn.full_separability((2, 2)), sn.TrainConfig(max_epochs=1))),
        ("certify I/4", certified(np.eye(4) / 4, (2, 2), "full", sn.TrainConfig(**SHORT))),
        ("certify NPT random two-qubit seed 0",
         certified(sn.random_two_qubit(np.random.default_rng(0)), (2, 2), "full",
                   sn.TrainConfig(**SHORT))),
        ("certify noisy ghz n=3 full (criterion 7)",
         certified(sn.noisy_mix(sn.ghz(3), 0.18, (2, 2, 2)), (2, 2, 2), "full",
                   sn.TrainConfig(k_terms=16), epsilon=0.05,
                   eps_prime_grid=np.logspace(-3, np.log10(20), 25))),
        ("certify noisy w n=3 q=0.1 bisep", certified(sn.noisy_mix(sn.w_state(3), 0.1, (2, 2, 2)),
                                                      (2, 2, 2), "bisep", sn.TrainConfig(**FIT))),
        ("certify noisy product q=0.5 outside the ball",
         certified(sn.noisy_mix(np.array([1.0, 0, 0, 0]), 0.5, (2, 2)), (2, 2), "full",
                   sn.TrainConfig(**FIT))),
        ("certify_grid isotropic d=2", certified_grid(sn.FamilySpec("isotropic", d=2), [0.0, 0.1],
                                                      "full", sn.TrainConfig(**SHORT))),
        ("cli train isotropic d=2", command(["train", "--family", "isotropic", "--d", "2",
                                             "--q", "0.9"])),
        ("cli train noisy ghz n=3 bisep", command(["train", "--family", "noisy_ghz", "--n", "3",
                                                   "--q", "0.6", "--structure", "bisep"])),
        ("cli train noisy w n=3 0|12", command(["train", "--family", "noisy_w", "--n", "3",
                                                "--q", "0.5", "--structure", "0|12"])),
        ("cli scan werner d=2", command(["scan", "--family", "werner", "--d", "2",
                                         "--qs", "0.6,0.8"])),
        ("cli certify isotropic d=2", command(["certify", "--family", "isotropic", "--d", "2",
                                               "--qs", "0.0,0.1"])),
        ("cli random-bench", command(["random-bench", "--count", "2", "--seed", "1"])),
        ("cli train unknown structure", command(["train", "--family", "werner", "--d", "2",
                                                 "--q", "0.6", "--structure", "pairwise"])),
    ]
    for seed in range(10):
        rho = sn.random_two_qubit(np.random.default_rng(seed))
        cases.append((f"hs random two-qubit seed {seed}",
                      trained(rho, sn.full_separability((2, 2)), sn.TrainConfig(loss="hs", seed=seed))))
        cases.append((f"closest_ppt_hs random two-qubit seed {seed}", projected(rho)))
        if sn.is_npt(rho, (2, 2)):
            cases.append((f"css_ansatz random two-qubit seed {seed}", ansatz(rho)))
    bell, iso5 = sn.isotropic(2, 1.0), sn.isotropic(5, 1.0)
    for seed in range(20):
        cases.append((f"naive_gd complex seed {seed}", gd(bell, (2, 2), sn.GdConfig(seed=seed))))
        cases.append((f"naive_gd real-only seed {seed}",
                      gd(bell, (2, 2), sn.GdConfig(seed=seed, real_only=True))))
        cases.append((f"naive_gd d=5 seed {seed}", gd(iso5, (5, 5), sn.GdConfig(seed=seed))))
    return cases


def _csv_without_wall_time(path) -> list:
    """The table's lines in order: comments as text, rows as cells without ``wall_time``."""
    lines, drop = [], None
    with open(path) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#") or not line.strip():
                lines.append(line)
                continue
            row = next(csv.reader([line]))
            if drop is None:
                drop = row.index("wall_time") if "wall_time" in row else len(row)
            lines.append(row[:drop] + row[drop + 1:])
    return lines


def _digest(value) -> str:
    import numpy as np

    if isinstance(value, np.ndarray):
        data = repr((value.dtype.str, value.shape)).encode() + np.ascontiguousarray(value).tobytes()
    else:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def emit() -> None:
    """Run the protocol in this process and print {case: {field: digest}} as JSON."""
    out = {}
    for name, run in _cases():
        out[name] = {field: _digest(value) for field, value in run()}
    json.dump(out, sys.stdout)


def _run_tree(src: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--emit"],
                            env=env, stdout=subprocess.PIPE, text=True)


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 2 or not all(os.path.isdir(os.path.join(a, "sepnet")) for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    procs = [_run_tree(src) for src in argv]
    results = []
    for src, proc in zip(argv, procs):
        stdout, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"protocol failed on {src} (exit {proc.returncode})", file=sys.stderr)
            return 1
        results.append(json.loads(stdout))
    old, new = results
    differ = 0
    for name in old:
        fields = [f for f in old[name] if old[name][f] != new.get(name, {}).get(f)]
        differ += bool(fields)
        print(f"{'DIFF' if fields else 'same'}  {name}" + (f": {', '.join(fields)}" if fields else ""))
    print(f"{len(old) - differ} of {len(old)} cases bit-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
