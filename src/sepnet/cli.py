"""Command-line front end: training runs, q-scans, certification, benchmarks.

Every subcommand writes CSV artifacts with a ``#``-comment header carrying
the full configuration and seeds, so any row can be recomputed exactly.

Exit codes: 0 success, 2 usage/validation error (including a missing or
unreadable input file and an output path that cannot be written), 3 numeric
failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .certify import (
    NPT_TOL,
    certify_grid,
    closest_ppt_hs,
    css_ansatz_two_qubit,
    estimate_threshold,
    is_npt,
    ppt_min_eigenvalue,
)
from .io import append_comments, read_matrix, write_matrix, write_table
from .linalg import DensityMatrix, trace_distance
from .model import full_separability, parse_structure, save_checkpoint
from .optim import ADADELTA_DECAY, ADADELTA_STABILIZER, GdConfig, TrainConfig, naive_gd, train
from .scan import scan_family
from .states import (
    FAMILY_KINDS,
    FamilySpec,
    bell_ansatz_state,
    family_parameters,
    isotropic,
    max_entangled,
    random_two_qubit,
)


class UsageError(Exception):
    """Invalid combination of command-line values (exit code 2)."""


# the family parameter each family flag sets
_FAMILY_FLAGS = {"d": "d", "n": "n", "a": "ansatz", "b": "ansatz", "c": "ansatz", "q": "q"}


def _reject_unused_flags(args, used: tuple[str, ...], target: str) -> None:
    for flag, name in _FAMILY_FLAGS.items():
        if getattr(args, flag, None) is not None and name not in used:
            raise UsageError(f"--{flag} is not used by {target}")


def _family_from_args(args) -> FamilySpec:
    if args.family is None:
        raise UsageError(f"{args.command} needs --family")
    used = family_parameters(args.family)
    _reject_unused_flags(args, used, f"family {args.family}")
    fields = {name: getattr(args, name) for name in ("d", "n") if getattr(args, name) is not None}
    if "ansatz" in used:
        fields["ansatz"] = tuple(0.0 if x is None else x for x in (args.a, args.b, args.c))
    return FamilySpec(args.family, **fields)


def _target_from_args(args) -> tuple[np.ndarray, tuple[int, ...], list[str]]:
    """Resolve (matrix, dims, description-comment-lines) from --family or --target."""
    if args.target is not None:
        _reject_unused_flags(args, (), "--target")
        matrix, dims = read_matrix(args.target)
        state = DensityMatrix(matrix, dims)
        return state.matrix, dims, [f"target = file:{args.target}", f"dims = {','.join(map(str, dims))}"]
    if args.family is None:
        raise UsageError("need either --family or --target")
    family = _family_from_args(args)
    q = args.q
    if q is None and "q" in family_parameters(family.kind):
        raise UsageError("--q is required with --family")
    state = family.make(q if q is not None else 0.0)
    desc = family.describe()
    if q is not None:
        desc.append(f"q = {q!r}")
    return state.matrix, family.dims(), desc


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _config_comments(config: TrainConfig) -> list[str]:
    return [f"{f.name} = {getattr(config, f.name)}" for f in fields(config)] + [
        f"decay = {ADADELTA_DECAY!r}",
        f"stabilizer = {ADADELTA_STABILIZER!r}",
    ]


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be at least {low}, got {value}")


def _parse_grid(args) -> list[float]:
    if (args.qs is None) == (args.grid is None):
        raise UsageError("need --qs or --grid (exactly one)")
    if args.qs is not None:
        try:
            qs = [float(tok) for tok in args.qs.split(",") if tok.strip()]
        except ValueError:
            raise UsageError(f"bad --qs list {args.qs!r}")
    else:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise UsageError("--grid wants start:stop:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"bad --grid {args.grid!r}")
        if count < 1:
            raise UsageError("--grid count must be >= 1")
        qs = np.linspace(lo, hi, count).tolist()
    if not qs:
        raise UsageError("--qs lists no q values")
    if not np.isfinite(qs).all():
        flag, text = ("--qs", args.qs) if args.qs is not None else ("--grid", args.grid)
        raise UsageError(f"{flag} q values must be finite, got {text!r}")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise UsageError("q grid must be strictly increasing")
    return qs


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# --- subcommands ---------------------------------------------------------------

def cmd_train(args) -> int:
    matrix, dims, desc = _target_from_args(args)
    structure = parse_structure(args.structure, dims)
    config = _train_config(args)
    out = _out_dir(args)
    result = train(matrix, structure, config)
    comments = (desc + [f"symmetry = {result.symmetry or 'none'}",
                        f"k_terms_used = {result.k_terms}", f"structure = {args.structure}"]
                + _config_comments(config))
    write_table(
        os.path.join(out, "train_result.csv"),
        comments,
        ["distance", "loss", "status", "epochs", "batches", "wall_time", "seed"],
        [[f"{result.distance!r}", result.loss, result.status, result.epochs,
          result.batches, f"{result.wall_time:.3f}", result.seed]],
    )
    save_checkpoint(result.model, os.path.join(out, "model.npz"))
    write_matrix(os.path.join(out, "state.txt"), result.state.matrix, dims)
    print(f"distance = {result.distance:.6f} ({result.loss}), status = {result.status}, "
          f"epochs = {result.epochs}, artifacts in {out}/")
    return 0


def cmd_scan(args) -> int:
    family = _family_from_args(args)
    if "q" not in family_parameters(family.kind):
        raise UsageError(f"family {family.kind} does not depend on q, so there is nothing to scan")
    qs = _parse_grid(args)
    _at_least("--fit-window", args.fit_window, 2)
    if not 0 <= args.flat_tol < np.inf:
        raise UsageError(f"--flat-tol must be finite and non-negative, got {args.flat_tol!r}")
    _at_least("--workers", args.workers, 1)
    dims = family.dims()
    structure = parse_structure(args.structure, dims)
    config = _train_config(args)
    out = _out_dir(args)
    points = scan_family(family, qs, structure, config, workers=args.workers)
    path = os.path.join(out, "scan.csv")
    # distinct, in grid order: a point such as I/D may be fixed by an earlier twirl in the table
    symmetries = dict.fromkeys(p.symmetry or "none" for p in points)
    k_terms = dict.fromkeys(str(p.k_terms) for p in points)
    comments = (family.describe()
                + [f"symmetry = {','.join(symmetries)}", f"k_terms_used = {','.join(k_terms)}",
                   f"structure = {args.structure}", f"workers = {args.workers}",
                   f"fit_window = {args.fit_window}", f"flat_tol = {args.flat_tol!r}"]
                + _config_comments(config))
    write_table(
        path, comments,
        ["q", "distance", "status", "seed", "epochs", "batches", "wall_time"],
        [[f"{p.q!r}", f"{p.distance!r}", p.status, p.seed, p.epochs, p.batches,
          f"{p.wall_time:.3f}"] for p in points],
    )
    try:
        est = estimate_threshold([(p.q, p.distance) for p in points],
                                 fit_window=args.fit_window, flat_tol=args.flat_tol)
    except ValueError as exc:
        append_comments(path, [f"threshold fit failed: {exc}"])
        print(f"scan written to {path}; threshold fit failed: {exc}")
        return 0
    append_comments(path, [
        f"threshold = {est.threshold!r}",
        f"slope = {est.slope!r}",
        f"intercept = {est.intercept!r}",
        f"residual = {est.residual!r}",
        f"points_used = {est.points_used!r}",
        f"method = {est.method}",
    ])
    print(f"scan written to {path}; fitted threshold q* = {est.threshold:.4f}")
    return 0


def cmd_certify(args) -> int:
    family = _family_from_args(args)
    qs = _parse_grid(args)
    if not (0 < args.eps_prime_min < np.inf and 0 < args.eps_prime_max < np.inf):
        raise UsageError("--eps-prime-min and --eps-prime-max must be positive and finite")
    if args.eps_prime_min > args.eps_prime_max:
        raise UsageError("--eps-prime-min must not exceed --eps-prime-max")
    _at_least("--eps-prime-points", args.eps_prime_points, 1)
    grid = np.logspace(np.log10(args.eps_prime_min), np.log10(args.eps_prime_max),
                       args.eps_prime_points)
    config = _train_config(args)
    out = _out_dir(args)
    results = certify_grid(family, qs, notion=args.notion, epsilon=args.epsilon,
                           eps_prime_grid=grid, train_config=config)
    path = os.path.join(out, "certificates.csv")

    def fmt(x):
        return "" if x is None else (f"{x!r}" if isinstance(x, float) else str(x))

    comments = (family.describe()
                + [f"notion = {args.notion}", f"epsilon = {args.epsilon!r}",
                   f"eps_prime_grid = logspace({args.eps_prime_min!r}, {args.eps_prime_max!r}, "
                   f"{args.eps_prime_points})"]
                + _config_comments(config))
    columns = ["q", "certified", "notion", "epsilon", "eps_prime", "purity", "purity_bound",
               "rho_x_min_eig", "train_distance", "train_status", "derived_from", "reason"]
    write_table(path, comments, columns,
                [[fmt(getattr(r, c)) for c in columns] for r in results])
    certified = [r.q for r in results if r.certified]
    if certified:
        headline = max(certified)
        append_comments(path, [f"largest certified q = {headline!r}"])
        print(f"certificates written to {path}; largest certified q = {headline:g}")
    else:
        append_comments(path, ["largest certified q = none"])
        print(f"certificates written to {path}; nothing certified")
    return 0


def cmd_random_bench(args) -> int:
    _at_least("--count", args.count, 1)
    rng = np.random.default_rng(args.seed)
    structure = full_separability((2, 2))
    config = _train_config(args)
    out = _out_dir(args)
    rows = []
    for index in range(args.count):
        rho = random_two_qubit(rng).matrix
        min_eig = ppt_min_eigenvalue(rho, (2, 2))
        result = train(rho, structure, replace(config, seed=args.seed * 100_003 + index))
        ansatz = ""
        if min_eig < -NPT_TOL:
            res = css_ansatz_two_qubit(rho)
            if res.valid:
                ansatz = f"{res.distance!r}"
        projection = closest_ppt_hs(rho)
        rows.append([index, f"{min_eig!r}", f"{result.distance!r}", ansatz,
                     f"{projection.distance!r}"])
    path = os.path.join(out, "random_bench.csv")
    write_table(
        path,
        [f"count = {args.count}", f"sampler_seed = {args.seed}"] + _config_comments(config),
        ["index", "min_pt_eigenvalue", "trained_distance", "ansatz_distance",
         "projection_hs_distance"],
        rows,
    )
    print(f"random-state benchmark written to {path}")
    return 0


def cmd_gd_bench(args) -> int:
    _at_least("--runs", args.runs, 1)
    bell = isotropic(2, 1.0)
    iso5 = isotropic(5, 1.0)
    out = _out_dir(args)
    rows = []
    for label, state, dims in (("bell", bell, (2, 2)), ("isotropic5", iso5, (5, 5))):
        for mode in ("complex", "real"):
            for run in range(args.runs):
                config = GdConfig(rounds=args.rounds, real_only=(mode == "real"),
                                  seed=args.seed + run)
                result = naive_gd(state.matrix, dims, config)
                rows.extend(
                    [label, mode, run, rnd, f"{float(d)!r}"]
                    for rnd, d in enumerate(result.distances)
                )
    path = os.path.join(out, "gd_bench.csv")
    write_table(
        path,
        [f"runs = {args.runs}", f"rounds = {args.rounds}", f"base_seed = {args.seed}"],
        ["target", "mode", "run", "round", "distance"],
        rows,
    )
    print(f"gradient-descent baseline curves written to {path}")
    return 0


def cmd_ansatz_check(args) -> int:
    _at_least("--grid-steps", args.grid_steps, 1)
    _at_least("--random", args.random, 0)
    bell = max_entangled(2)
    bell_rho = np.outer(bell, bell.conj())
    steps = args.grid_steps
    violations = 0
    checked = 0
    skipped = 0

    def check(a, b, c):
        nonlocal violations, checked, skipped
        try:
            state = bell_ansatz_state(a, b, c)
        except ValueError:
            skipped += 1
            return
        checked += 1
        d = trace_distance(state.matrix, bell_rho)
        if abs(d - 0.5) > 1e-9:
            violations += 1
            print(f"  region violation: a={a} b={b} c={c} distance={d!r}")

    # closed regions reported to give trace distance 1/2 from the Bell state
    for a in np.linspace(0.0, 1 / 6, steps):
        for b in np.linspace(0.0, a, steps):
            check(a, b, 0.0)
    for t in np.linspace(0.0, 2 * np.pi, steps, endpoint=False):
        for r in np.linspace(0.0, 1 / 8, steps):
            a = 1 / 8 + r * np.cos(t)
            c = r * np.sin(t)
            check(a, a, c)
    for c in np.linspace(-1 / 12, 1 / 12, steps):
        lo = 24 * c * c - 1 / 6
        for b in np.linspace(lo, 1 / 6, steps):
            check(1 / 6, b, c)
    print(f"region sweep: {checked} states checked, {violations} violations, "
          f"{skipped} non-PSD points skipped")

    rng = np.random.default_rng(args.seed)
    n = 0
    invalid = 0
    bound_violations = 0
    while n < args.random:
        rho = random_two_qubit(rng).matrix
        if not is_npt(rho, (2, 2)):
            continue
        n += 1
        res = css_ansatz_two_qubit(rho)
        if not res.valid:
            invalid += 1
            continue
        if res.distance > res.bound + 1e-9:
            bound_violations += 1
            print(f"  bound violation: distance={res.distance!r} bound={res.bound!r}")
    print(f"random NPT sweep: {n} states, {invalid} invalid candidates, "
          f"{bound_violations} bound violations")
    return 0


# --- argument parsing ------------------------------------------------------------

def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILY_KINDS, help="built-in state family")
    p.add_argument("--d", type=int, default=None, help="local dimension (isotropic/werner)")
    p.add_argument("--n", type=int, default=None, help="party count (noisy_ghz/noisy_w)")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--c", type=float, default=None)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=("trace", "hs"), default=TrainConfig.loss)
    p.add_argument("--k", dest="k_terms", metavar="K", type=int, default=TrainConfig.k_terms,
                   help="decomposition terms per partition (default: the twirl's projector "
                        "count for a symmetric target, otherwise the total dimension)")
    p.add_argument("--width", type=int, default=TrainConfig.width)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--restarts", type=int, default=TrainConfig.restarts)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batches", dest="batches_per_epoch", metavar="BATCHES", type=int,
                   default=TrainConfig.batches_per_epoch)
    p.add_argument("--stop-distance", type=float, default=TrainConfig.stop_distance)
    p.add_argument("--convergence-delta", type=float, default=TrainConfig.convergence_delta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepnet",
        description="separable approximations of density matrices via trained decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one target and write artifacts")
    _add_family_args(p)
    p.add_argument("--target", help="complex-matrix text file (alternative to --family)")
    p.add_argument("--structure", default="full",
                   help="full | bisep | bisep-m<M> | trisep | explicit like '0|12'")
    _add_train_args(p)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--out", default="sepnet-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("scan", help="train across a q grid and fit the threshold")
    _add_family_args(p)
    p.add_argument("--structure", default="full",
                   help="full | bisep | bisep-m<M> | trisep | explicit like '0|12'")
    _add_train_args(p)
    p.add_argument("--qs", help="comma-separated strictly increasing q values")
    p.add_argument("--grid", help="start:stop:count")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--fit-window", type=int, default=4)
    p.add_argument("--flat-tol", type=float, default=5e-3)
    p.add_argument("--out", default="sepnet-out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("certify", help="separability-ball certificates over a q grid")
    _add_family_args(p)
    _add_train_args(p)
    p.add_argument("--qs", help="comma-separated strictly increasing q values")
    p.add_argument("--grid", help="start:stop:count")
    p.add_argument("--notion", choices=("full", "bisep"), default="full")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--eps-prime-min", type=float, default=1e-3)
    p.add_argument("--eps-prime-max", type=float, default=1.0)
    p.add_argument("--eps-prime-points", type=int, default=20)
    p.add_argument("--out", default="sepnet-out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("random-bench", help="random two-qubit benchmark scatter data")
    _add_train_args(p)
    p.add_argument("--count", type=int, default=400)
    p.add_argument("--out", default="sepnet-out")
    p.set_defaults(func=cmd_random_bench)

    p = sub.add_parser("gd-bench", help="plain gradient-descent baseline curves")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--rounds", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sepnet-out")
    p.set_defaults(func=cmd_gd_bench)

    p = sub.add_parser("ansatz-check", help="closed-form ansatz sweeps and bound checks")
    p.add_argument("--grid-steps", type=int, default=25)
    p.add_argument("--random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ansatz_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # before ValueError: numpy's LinAlgError is one
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        # an OSError's message names the file it concerns
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
