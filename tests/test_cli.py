"""End-to-end tests of the command-line interface and its CSV artifacts."""
import argparse
from dataclasses import fields

import numpy as np
import pytest

from sepnet import (
    DensityMatrix,
    TrainConfig,
    full_separability,
    init_model,
    isotropic,
    parse_structure,
    train,
)
from sepnet.cli import build_parser, main
from sepnet.io import read_matrix, read_table

CHEAP = ["--max-epochs", "1", "--batches", "50"]


class TestParseStructure:
    def test_words(self):
        assert parse_structure("full", (2, 2, 2)).partitions == (((0,), (1,), (2,)),)
        assert len(parse_structure("bisep", (2, 2, 2)).partitions) == 3
        assert len(parse_structure("bisep-m1", (2, 2, 2, 2)).partitions) == 4
        assert len(parse_structure("trisep", (2, 2, 2, 2)).partitions) == 6

    def test_explicit_blocks(self):
        s = parse_structure("0|12", (2, 2, 2))
        assert s.partitions == (((0,), (1, 2)),)

    def test_bad_inputs(self):
        for text in ("pairwise", "bisep-mx", "0|x2", "0||1"):
            with pytest.raises(ValueError):
                parse_structure(text, (2, 2))


class TestExitCodes:
    def test_missing_grid(self, capsys):
        assert main(["scan", "--family", "werner"]) == 2
        assert "need --qs or --grid" in capsys.readouterr().err

    def test_non_monotone_grid(self, capsys):
        assert main(["scan", "--family", "werner", "--qs", "0.5,0.4"]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,message", [
        ("--qs", "0.5,nan", "--qs q values must be finite"),
        ("--qs", "inf", "--qs q values must be finite"),
        ("--grid", "0.5:nan:3", "--grid q values must be finite"),
        ("--qs", "0.5,x", "bad --qs"),
        ("--qs", ",", "--qs lists no q values"),
        ("--grid", "0.5:0.6", "--grid wants start:stop:count"),
        ("--grid", "0.5:y:3", "bad --grid"),
        ("--grid", "0.1:0.2:0", "--grid count"),
    ])
    def test_malformed_grid(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "run"
        args = ["scan", "--family", "werner", "--d", "2", f"{flag}={value}", "--out", str(out)]
        assert main(args + CHEAP) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_scan_of_a_family_without_q(self, tmp_path, capsys):
        # bell_ansatz states ignore q: a scan would train one state per point
        args = ["scan", "--family", "bell_ansatz", "--a", "0.1", "--qs", "0.1,0.2",
                "--out", str(tmp_path)]
        assert main(args + CHEAP) == 2
        assert "family bell_ansatz does not depend on q" in capsys.readouterr().err
        assert not (tmp_path / "scan.csv").exists()

    def test_qs_and_grid_together(self, tmp_path, capsys):
        args = ["scan", "--family", "werner", "--qs", "0.5,0.6", "--grid", "0.1:0.9:9"]
        assert main(args + ["--out", str(tmp_path / "run")] + CHEAP) == 2
        assert "exactly one" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_target(self, capsys):
        assert main(["train", "--q", "0.5"]) == 2
        assert "need either" in capsys.readouterr().err

    def test_family_q_out_of_range(self, tmp_path):
        # horodecki validates q in [0, 2.5]; the ValueError maps to exit 2
        args = ["train", "--family", "horodecki", "--q", "3.0", "--out", str(tmp_path)]
        assert main(args + CHEAP) == 2

    def test_nan_target_file(self, tmp_path, capsys):
        from sepnet.io import write_matrix

        target = tmp_path / "nan.txt"
        write_matrix(target, np.full((4, 4), np.nan), (2, 2))
        args = ["train", "--target", str(target), "--out", str(tmp_path / "run")]
        assert main(args + CHEAP) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_degenerate_model_is_numeric_failure(self, tmp_path, monkeypatch, capsys):
        # zero second-layer weights center every amplitude vector at zero
        import sepnet.optim

        def degenerate(*args, **kwargs):
            model = init_model(*args, **kwargs)
            model.w2[:] = 0.0
            return model

        monkeypatch.setattr(sepnet.optim, "init_model", degenerate)
        args = ["train", "--family", "werner", "--q", "0.6", "--out", str(tmp_path)]
        assert main(args + CHEAP) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_workers_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEPNET_WORKERS", "abc")
        args = ["train", "--family", "werner", "--q", "0.6", "--out", str(tmp_path)]
        assert main(args + CHEAP) == 0

    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "isotropic", "--d", "2", "--qs", "0.1", "--structure", "trisep"],
        ["random-bench", "--count", "1", "--structure", "bisep"],
        ["scan", "--family", "werner", "--qs", "0.6", "--target", "state.txt"],
        ["certify", "--family", "werner", "--qs", "0.6", "--target", "state.txt"],
    ])
    def test_flag_the_command_does_not_take(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "run")] + CHEAP)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv,flag,source", [
        (["train", "--family", "bell_ansatz", "--a", "0.125", "--q", "0.2"], "--q", "bell_ansatz"),
        (["train", "--family", "horodecki", "--d", "5", "--q", "1.0"], "--d", "horodecki"),
        (["scan", "--family", "noisy_ghz", "--n", "3", "--a", "0.1", "--qs", "0.2,0.3"],
         "--a", "noisy_ghz"),
        (["scan", "--family", "isotropic", "--n", "4", "--qs", "0.2,0.3"], "--n", "isotropic"),
        (["train", "--target", "state.txt", "--d", "2"], "--d", "--target"),   # a file uses none
    ])
    def test_family_flag_the_family_does_not_use(self, tmp_path, capsys, argv, flag, source):
        assert main(argv + ["--out", str(tmp_path)] + CHEAP) == 2
        err = capsys.readouterr().err
        assert flag in err and source in err
        assert not (tmp_path / "train_result.csv").exists()

    def test_missing_target_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert main(["train", "--target", missing, "--out", str(tmp_path / "run")] + CHEAP) == 2
        assert missing in capsys.readouterr().err

    def test_empty_target_file(self, tmp_path, capsys):
        target = tmp_path / "empty.txt"
        target.write_text("")
        assert main(["train", "--target", str(target), "--out", str(tmp_path / "run")] + CHEAP) == 2
        assert str(target) in capsys.readouterr().err

    def test_out_names_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory")
        args = ["train", "--family", "werner", "--q", "0.6", "--out", str(out)]
        assert main(args + CHEAP) == 2
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--batches", "--max-epochs", "--restarts"])
    def test_config_that_cannot_train(self, tmp_path, capsys, flag):
        args = ["train", "--family", "isotropic", "--q", "0.9", "--out", str(tmp_path)]
        assert main(args + CHEAP + [flag, "0"]) == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "train_result.csv").exists()

    @pytest.mark.parametrize("flag,name", [("--stop-distance", "stop_distance"),
                                           ("--convergence-delta", "convergence_delta")])
    @pytest.mark.parametrize("value", ["nan", "-0.1"])
    def test_nan_or_negative_threshold(self, tmp_path, capsys, flag, name, value):
        args = ["train", "--family", "isotropic", "--d", "2", "--q", "0.5", "--out", str(tmp_path)]
        assert main(args + CHEAP + [f"{flag}={value}"]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "train_result.csv").exists()

    @pytest.mark.parametrize("extra,message", [
        (["--eps-prime-min", "0"], "must be positive"),
        (["--eps-prime-max", "-1"], "must be positive"),
        (["--eps-prime-min", "0.5", "--eps-prime-max", "0.1"], "must not exceed"),
        (["--eps-prime-points", "0"], "--eps-prime-points"),
        (["--eps-prime-min", "nan"], "must be positive and finite"),
        (["--eps-prime-max", "nan"], "must be positive and finite"),
        (["--eps-prime-min", "inf"], "must be positive and finite"),
        (["--eps-prime-max", "inf"], "must be positive and finite"),
    ])
    def test_bad_eps_prime_grid(self, tmp_path, capsys, extra, message):
        args = ["certify", "--family", "isotropic", "--qs", "0.1", "--out", str(tmp_path)]
        assert main(args + CHEAP + extra) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "certificates.csv").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--fit-window", "0"), ("--fit-window", "1"), ("--flat-tol", "nan"), ("--flat-tol", "inf"),
        ("--flat-tol", "-0.1"), ("--workers", "0"), ("--workers", "-1"),
    ])
    def test_scan_setting_that_cannot_fit(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        args = ["scan", "--family", "isotropic", "--d", "2", "--qs", "0.5,0.6", "--out", str(out)]
        assert main(args + CHEAP + [f"{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["gd-bench", "--runs", "0"], "--runs"),
        (["random-bench", "--count", "0"], "--count"),
        (["ansatz-check", "--grid-steps", "0"], "--grid-steps"),
        (["ansatz-check", "--random", "-3"], "--random"),
    ])
    def test_count_that_runs_nothing(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_gd_rounds(self, tmp_path, capsys):
        assert main(["gd-bench", "--runs", "1", "--rounds", "-1", "--out", str(tmp_path)]) == 2
        assert "rounds" in capsys.readouterr().err
        assert not (tmp_path / "gd_bench.csv").exists()

    @pytest.mark.parametrize("epsilon", ["-0.5", "0", "inf"])
    def test_non_positive_epsilon(self, tmp_path, capsys, epsilon):
        args = ["certify", "--family", "isotropic", "--d", "2", "--qs", "0.1",
                "--epsilon", epsilon, "--out", str(tmp_path)]
        assert main(args + CHEAP) == 2
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not (tmp_path / "certificates.csv").exists()

    def test_unknown_structure(self, tmp_path):
        args = ["train", "--family", "werner", "--q", "0.6", "--structure", "pairs",
                "--out", str(tmp_path)]
        assert main(args + CHEAP) == 2


class TestTrainCommand:
    def test_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = main(["train", "--family", "isotropic", "--q", "0.9",
                   "--out", out] + CHEAP)
        assert rc == 0
        assert "distance =" in capsys.readouterr().out

        comments, header, rows = read_table(f"{out}/train_result.csv")
        assert "family = isotropic" in comments
        assert "seed = 0" in comments
        assert header[0] == "distance"
        assert len(rows) == 1

        matrix, dims = read_matrix(f"{out}/state.txt")
        state = DensityMatrix(matrix, dims)  # validates the stored state
        assert state.dims == (2, 2)

        from sepnet import assemble, load_checkpoint

        model = load_checkpoint(f"{out}/model.npz")
        assert np.allclose(assemble(model).matrix, matrix)

    def test_matrix_file_target(self, tmp_path):
        from sepnet.io import write_matrix

        target = tmp_path / "target.txt"
        write_matrix(target, isotropic(2, 0.8).matrix, (2, 2))
        out = str(tmp_path / "run")
        rc = main(["train", "--target", str(target), "--out", out] + CHEAP)
        assert rc == 0
        comments, _, _ = read_table(f"{out}/train_result.csv")
        assert any(c.startswith("target = file:") for c in comments)

    def test_config_header_lists_every_setting(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--family", "isotropic", "--q", "0.9", "--out", out] + CHEAP) == 0
        comments, _, _ = read_table(f"{out}/train_result.csv")
        config = comments[comments.index("structure = full") + 1:]
        assert config == [
            "loss = trace", "k_terms = None", "width = 100", "seed = 0", "restarts = 1",
            "max_epochs = 1", "batches_per_epoch = 50", "stop_distance = 0.002",
            "convergence_delta = 0.0002", "decay = 0.95", "stabilizer = 1e-06",
        ]
        names = [f.name for f in fields(TrainConfig)] + ["decay", "stabilizer"]
        assert [line.split(" = ")[0] for line in config] == names

    @pytest.mark.parametrize("family,symmetry", [
        (["--family", "isotropic", "--q", "0.9"], "isotropic"),
        (["--family", "noisy_ghz", "--n", "3", "--q", "0.5"], "ghz"),
        (["--family", "noisy_w", "--n", "3", "--q", "0.5"], "none"),
    ])
    def test_header_names_the_symmetry(self, tmp_path, family, symmetry):
        out = str(tmp_path / "run")
        assert main(["train"] + family + ["--out", out] + CHEAP) == 0
        comments, _, _ = read_table(f"{out}/train_result.csv")
        assert f"symmetry = {symmetry}" in comments

    @pytest.mark.parametrize("family,k_terms", [
        (["--family", "isotropic", "--d", "2", "--q", "0.9"], 2),
        (["--family", "noisy_ghz", "--n", "3", "--q", "0.5"], 5),
        (["--family", "noisy_w", "--n", "3", "--q", "0.5"], 8),
    ], ids=["isotropic d=2", "noisy ghz n=3", "noisy w n=3"])
    def test_header_records_the_k_used(self, tmp_path, family, k_terms):
        out = str(tmp_path / "run")
        assert main(["train"] + family + ["--out", out] + CHEAP) == 0
        comments, _, _ = read_table(f"{out}/train_result.csv")
        i = comments.index(f"k_terms_used = {k_terms}")
        assert comments[i - 1].startswith("symmetry = ")
        assert comments[i + 1].startswith("structure = ")

    def test_bell_ansatz_needs_no_q(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["train", "--family", "bell_ansatz", "--a", "0.125", "--b", "0.0625",
                   "--out", out] + CHEAP)
        assert rc == 0
        comments, _, _ = read_table(f"{out}/train_result.csv")
        assert "a,b,c = (0.125, 0.0625, 0.0)" in comments
        assert not any(c.startswith("q =") for c in comments)


class TestScanCommand:
    def test_csv_rows_recompute_exactly(self, tmp_path):
        out = str(tmp_path / "scan")
        rc = main(["scan", "--family", "werner", "--qs", "0.6,0.8",
                   "--out", out] + CHEAP)
        assert rc == 0
        comments, header, rows = read_table(f"{out}/scan.csv")
        assert header[:3] == ["q", "distance", "status"]
        assert len(rows) == 2
        assert any(c.startswith("threshold") for c in comments)  # fit or failure note
        assert "fit_window = 4" in comments and "flat_tol = 0.005" in comments

        # every row carries its own seed: rebuilding the config from the
        # comment block and the row must reproduce the distance bit-exactly
        row = rows[1]
        q, logged, seed = float(row[0]), float(row[1]), int(row[3])
        from sepnet import werner

        config = TrainConfig(seed=seed, max_epochs=1, batches_per_epoch=50)
        again = train(werner(2, q), full_separability((2, 2)), config)
        assert again.distance == logged

    def test_header_names_the_symmetry(self, tmp_path):
        out = str(tmp_path / "scan")
        assert main(["scan", "--family", "werner", "--qs", "0.6,0.8", "--out", out] + CHEAP) == 0
        comments, _, _ = read_table(f"{out}/scan.csv")
        assert "symmetry = werner" in comments

    def test_header_records_the_k_used(self, tmp_path):
        # I/4 is fixed by the isotropic twirl, the Werner points by theirs:
        # every point trains two terms, listed once
        out = str(tmp_path / "scan")
        assert main(["scan", "--family", "werner", "--qs", "0.25,0.8", "--out", out] + CHEAP) == 0
        comments, _, _ = read_table(f"{out}/scan.csv")
        assert "symmetry = isotropic,werner" in comments
        assert comments[comments.index("symmetry = isotropic,werner") + 1] == "k_terms_used = 2"


class TestCertifyCommand:
    def test_headline_and_derivation(self, tmp_path, capsys):
        out = str(tmp_path / "cert")
        rc = main(["certify", "--family", "isotropic", "--qs", "0.0,0.1",
                   "--max-epochs", "3", "--batches", "1000", "--out", out])
        assert rc == 0
        assert "largest certified q = 0.1" in capsys.readouterr().out
        comments, header, rows = read_table(f"{out}/certificates.csv")
        assert any(c.startswith("largest certified q = 0.1") for c in comments)
        by_q = {row[0]: row for row in rows}
        col = header.index("derived_from")
        assert by_q["0.1"][header.index("certified")] == "True"
        assert by_q["0.0"][col] == "0.1"

    def test_grid_values_are_plain_numbers(self, tmp_path):
        out = str(tmp_path / "cert")
        rc = main(["certify", "--family", "isotropic", "--grid", "0.0:0.1:2",
                   "--max-epochs", "3", "--batches", "1000", "--out", out])
        assert rc == 0
        comments, header, rows = read_table(f"{out}/certificates.csv")
        assert [float(row[header.index("q")]) for row in rows] == [0.0, 0.1]
        assert float(rows[0][header.index("derived_from")]) == 0.1
        assert float(comments[-1].removeprefix("largest certified q = ")) == 0.1


class TestBenchCommands:
    def test_gd_bench(self, tmp_path):
        out = str(tmp_path / "gd")
        rc = main(["gd-bench", "--runs", "1", "--rounds", "3", "--out", out])
        assert rc == 0
        _, header, rows = read_table(f"{out}/gd_bench.csv")
        assert header == ["target", "mode", "run", "round", "distance"]
        assert len(rows) == 2 * 2 * 1 * 4  # targets x modes x runs x (rounds+1)
        for row in rows:
            float(row[header.index("distance")])

    def test_random_bench(self, tmp_path):
        out = str(tmp_path / "rb")
        rc = main(["random-bench", "--count", "2", "--seed", "1", "--out", out] + CHEAP)
        assert rc == 0
        _, header, rows = read_table(f"{out}/random_bench.csv")
        assert len(rows) == 2
        for row in rows:
            float(row[header.index("min_pt_eigenvalue")])
            float(row[header.index("projection_hs_distance")])

    def test_ansatz_check(self, capsys):
        rc = main(["ansatz-check", "--grid-steps", "4", "--random", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "0 bound violations" in out


@pytest.mark.parametrize("argv", [
    ["train", "--family", "isotropic", "--d", "2", "--q", "0.9"] + CHEAP,
    ["scan", "--family", "werner", "--d", "2", "--qs", "0.6,0.8"] + CHEAP,
    ["certify", "--family", "isotropic", "--d", "2", "--qs", "0.1"] + CHEAP,
    ["random-bench", "--count", "1", "--seed", "1"] + CHEAP,
    ["gd-bench", "--runs", "1", "--rounds", "1"],
    ["ansatz-check", "--grid-steps", "2", "--random", "1"],
], ids=lambda argv: argv[0])
def test_every_declared_flag_is_read(tmp_path, monkeypatch, argv):
    # a flag that its command never reads is accepted and silently ignored
    monkeypatch.chdir(tmp_path)
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(argv, namespace=Recording())
    declared = set(vars(args)) - {"command", "func"}
    reads.clear()  # parsing itself reads every dest
    assert args.func(args) == 0
    assert declared - reads == set()
