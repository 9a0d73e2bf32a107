"""End-to-end command flows at tiny scale."""

import argparse
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cvnet
from cvnet import cli, datagen, gradcheck, nn, trainer


def run(argv):
    return cli.main(argv)


def cli_subprocess(argv, **env):
    """`cvnet argv` in a fresh interpreter on this checkout's sources."""
    src = str(Path(cvnet.__file__).resolve().parents[1])
    code = "import sys; from cvnet.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "saw.cvds"
    rc = run(["gen", "--kind", "sawtooth", "--train", "40", "--val", "10",
              "--test", "10", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_file_size(self, data_file):
        assert data_file.stat().st_size == 26 + 60 * 1024 * 16

    def test_deterministic_bytes(self, tmp_path, data_file):
        other = tmp_path / "again.cvds"
        run(["gen", "--kind", "sawtooth", "--train", "40", "--val", "10",
             "--test", "10", "--seed", "3", "--out", str(other)])
        assert other.read_bytes() == data_file.read_bytes()

    def test_all_kinds_accepted(self, tmp_path):
        for kind in ("sawtooth-analytic", "inharmonic", "inharmonic-analytic"):
            out = tmp_path / f"{kind}.cvds"
            assert run(["gen", "--kind", kind, "--train", "2", "--val", "1",
                        "--test", "1", "--seed", "1", "--out", str(out)]) == 0
            assert datagen.read_dataset(out).kind.value == kind


class TestTrainEvalFilters:
    @pytest.fixture(scope="class")
    @staticmethod
    def run_dir(tmp_path_factory, data_file):
        out = tmp_path_factory.mktemp("run")
        rc = run(["train", "--data", str(data_file), "--field", "complex",
                  "--hidden", "8", "--epochs", "3", "--lr0", "1e-4",
                  "--half-life", "50", "--init-scale", "0.5",
                  "--batch-size", "20", "--seed", "7", "--out", str(out)])
        assert rc == 0
        return out

    def test_outputs_exist(self, run_dir):
        assert (run_dir / "curves.csv").exists()
        assert (run_dir / "model.cvnn").exists()
        lines = (run_dir / "curves.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_mse,val_mse"
        assert len(lines) == 4

    def test_eval_prints_mse(self, run_dir, data_file, capsys):
        rc = run(["eval", "--model", str(run_dir / "model.cvnn"),
                  "--data", str(data_file), "--partition", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("test_mse=")
        float(out.split("=")[1])

    def test_filters_csv(self, run_dir, tmp_path):
        dest = tmp_path / "filters.csv"
        rc = run(["filters", "--model", str(run_dir / "model.cvnn"),
                  "--rows", "2", "--out", str(dest)])
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 256

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "m.cvnn", "--data", "d.cvds", "--partition", "test"],
        ["filters", "--model", "m.cvnn", "--out", "f.csv"],
    ], ids=["eval", "filters"])
    def test_seed_is_not_an_option(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_real_field_on_real_data(self, data_file, tmp_path):
        out = tmp_path / "real_run"
        rc = run(["train", "--data", str(data_file), "--field", "real",
                  "--hidden", "8", "--epochs", "2", "--lr0", "1e-4",
                  "--half-life", "50", "--init-scale", "0.5",
                  "--batch-size", "20", "--seed", "8", "--out", str(out)])
        assert rc == 0
        model = nn.load_model(out / "model.cvnn")
        assert model.field == "real"
        for arr in model.params().values():
            assert np.all(arr.imag == 0)

    def test_rerun_that_keeps_no_model_removes_the_old_checkpoint(self, data_file, tmp_path):
        def train(lr0):
            return run(["train", "--data", str(data_file), "--field", "complex",
                        "--hidden", "4", "--epochs", "2", "--lr0", lr0,
                        "--half-life", "50", "--init-scale", "0.5",
                        "--batch-size", "20", "--seed", "9", "--out", str(tmp_path)])

        assert train("1e-3") == 0 and (tmp_path / "model.cvnn").exists()
        assert train("1e300") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.csv"]
        assert (tmp_path / "curves.csv").read_text().splitlines() == ["epoch,lr,train_mse,val_mse"]


class TestEvalReadsOnePartition:
    def test_same_bits_and_train_partition_not_held(self, tmp_path, capsys):
        # The train partition (4.9 MB) dwarfs the test partition; eval keeps
        # only the one it scores, so its traced peak stays below the train
        # partition's size, and it prints evaluate()'s value on that partition.
        rng = np.random.default_rng(8)
        parts = [rng.normal(size=(n, datagen.N_SAMPLES)) for n in (600, 2, 4)]
        data = tmp_path / "big-train.cvds"
        datagen.write_dataset(datagen.DatasetBundle(datagen.DatasetKind.SAWTOOTH, 8, *parts), data)
        model = tmp_path / "m.cvnn"
        nn.save_model(nn.init_model(256, 4, 256, init_scale=0.5, seed=8), model)
        bundle = datagen.read_dataset(data)
        want = trainer.evaluate(nn.load_model(model), bundle.test, bundle.kind)
        train_bytes = bundle.train.nbytes
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = run(["eval", "--model", str(model), "--data", str(data), "--partition", "test"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert capsys.readouterr().out == f"test_mse={want:.16e}\n"
        assert peak < train_bytes, (peak, train_bytes)


class TestSearch:
    def test_search_outputs(self, data_file, tmp_path):
        out = tmp_path / "search"
        rc = run(["search", "--data", str(data_file), "--field", "complex",
                  "--trials", "2", "--hidden", "4", "--epochs", "2",
                  "--batch-size", "20", "--seed", "5", "--out", str(out)])
        assert rc == 0
        summary = (out / "search.csv").read_text().strip().splitlines()
        assert summary[0] == "trial_id,lr0,half_life,init_scale,best_val,status"
        assert len(summary) == 3
        assert (out / "trial_000.csv").exists()
        assert (out / "trial_001.csv").exists()
        assert (out / "best_model.cvnn").exists()


# Placeholders in the argv lists below, filled in by `usage_files`.
TRAIN = ["train", "--field", "complex", "--epochs", "1", "--lr0", "1e-4",
         "--half-life", "50", "--init-scale", "0.5", "--out", "OUT"]
SEARCH = ["search", "--field", "complex", "--epochs", "1", "--out", "OUT"]
GEN = ["gen", "--kind", "sawtooth", "--out", "OUT"]
FILTERS = ["filters", "--model", "MODEL", "--out", "OUT"]


@pytest.fixture(scope="module")
def usage_files(tmp_path_factory, data_file):
    root = tmp_path_factory.mktemp("usage")
    files = {name: root / name
             for name in ("SHORT", "NOTRAIN", "NOVAL", "MODEL", "OUT", "MISSING", "NANMODEL",
                          "INFDATA", "REALTAG", "IMAGDATA")}
    files["NODIR"] = root / "no-such-dir" / "x.cvds"
    files["DATA"] = data_file
    files["SHORT"].write_bytes(bytes(10))
    datagen.write_dataset(datagen.generate_bundle("sawtooth", 1, 0, 2, 2), files["NOTRAIN"])
    datagen.write_dataset(datagen.generate_bundle("sawtooth", 1, 2, 0, 2), files["NOVAL"])
    nn.save_model(nn.init_model(256, 3, 256, seed=1), files["MODEL"])
    bad = nn.init_model(256, 3, 256, seed=1)
    bad.w_in[0, 0] = np.nan
    nn.save_model(bad, files["NANMODEL"])
    # A real-field header (byte 5) and real-tanh tag (byte 18) over complex weights.
    blob = bytearray(files["MODEL"].read_bytes())
    blob[5], blob[18] = 1, 3
    files["REALTAG"].write_bytes(bytes(blob))
    data = datagen.generate_bundle("sawtooth", 1, 2, 2, 2)
    data.train[1, 5] = np.inf
    datagen.write_dataset(data, files["INFDATA"])
    # One corrupted byte: the top byte of a train sample's zero imaginary part.
    blob = bytearray(data_file.read_bytes())
    blob[26 + 16 * 1029 + 15] = 0x3F
    files["IMAGDATA"].write_bytes(bytes(blob))
    return files


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (TRAIN + ["--data", "DATA", "--hidden", "4", "--clip", "0"],
         "cvnet train: error: clip must be positive, got 0.0"),
        (SEARCH + ["--data", "DATA", "--hidden", "4", "--trials", "0"],
         "cvnet search: error: n_trials must be >= 1, got 0"),
        (SEARCH + ["--data", "SHORT", "--hidden", "4", "--trials", "1"],
         "cvnet search: error: dataset truncated in header at byte 10"),
        (GEN + ["--seed", "-1"],
         "cvnet gen: error: argument --seed: must be >= 0 and < 2**64, got -1"),
        (GEN + ["--seed", str(2**64)],
         f"cvnet gen: error: argument --seed: must be >= 0 and < 2**64, got {2**64}"),
        (GEN + ["--seed", "x"],
         "cvnet gen: error: argument --seed: expected an integer, got 'x'"),
        (GEN + ["--train", "-1"],
         "cvnet gen: error: argument --train: must be >= 0, got -1"),
        (GEN + ["--test", "-1"],
         "cvnet gen: error: argument --test: must be >= 0, got -1"),
        (TRAIN + ["--data", "DATA", "--seed", "-1"],
         "cvnet train: error: argument --seed: must be >= 0 and < 2**64, got -1"),
        (TRAIN + ["--data", "DATA", "--hidden", "0"],
         "cvnet train: error: argument --hidden: must be >= 1, got 0"),
        (SEARCH + ["--data", "DATA", "--hidden", "0"],
         "cvnet search: error: argument --hidden: must be >= 1, got 0"),
        (SEARCH + ["--data", "DATA", "--seed", "-1"],
         "cvnet search: error: argument --seed: must be >= 0 and < 2**64, got -1"),
        (SEARCH + ["--data", "DATA", "--jobs", "0"],
         "cvnet search: error: argument --jobs: must be >= 1, got 0"),
        (FILTERS + ["--rows", "0"],
         "cvnet filters: error: argument --rows: must be >= 1, got 0"),
        (TRAIN + ["--data", "NOTRAIN", "--hidden", "4"],
         "cvnet train: error: the training partition has no observations"),
        (TRAIN + ["--data", "NOVAL", "--hidden", "4"],
         "cvnet train: error: the validation partition has no observations"),
        (["eval", "--model", "MODEL", "--data", "NOTRAIN", "--partition", "train"],
         "cvnet eval: error: the partition to evaluate has no observations"),
        (FILTERS + ["--rows", "99"],
         "cvnet filters: error: rows must be in [1, 3], got 99"),
        (["eval", "--model", "MISSING", "--data", "DATA", "--partition", "val"],
         "cvnet eval: error: [Errno 2] No such file or directory: '{MISSING}'"),
        (["gen", "--kind", "sawtooth", "--train", "2", "--val", "2", "--test", "2",
          "--out", "NODIR"],
         "cvnet gen: error: [Errno 2] No such file or directory: '{NODIR}'"),
        (["eval", "--model", "NANMODEL", "--data", "DATA", "--partition", "val"],
         "cvnet eval: error: non-finite value in checkpoint w_in at byte 19"),
        (FILTERS + ["--model", "NANMODEL"],
         "cvnet filters: error: non-finite value in checkpoint w_in at byte 19"),
        (SEARCH + ["--data", "INFDATA", "--hidden", "4", "--trials", "1"],
         f"cvnet search: error: non-finite value in dataset train at byte {26 + 16 * 1029}"),
        (["eval", "--model", "MODEL", "--data", "INFDATA", "--partition", "test"],
         f"cvnet eval: error: non-finite value in dataset train at byte {26 + 16 * 1029}"),
        (["eval", "--model", "MODEL", "--data", "IMAGDATA", "--partition", "test"],
         f"cvnet eval: error: nonzero imaginary part in dataset train at byte {26 + 16 * 1029 + 8}"),
        (FILTERS + ["--model", "REALTAG"],
         "cvnet filters: error: nonzero imaginary part in checkpoint w_in at byte 27"),
        (TRAIN + ["--data", "DATA", "--hidden", "4", "--init-scale", "nan"],
         "cvnet train: error: init_scale must be finite, got nan"),
    ], ids=["train-clip", "search-trials", "search-short-data", "gen-seed-negative",
            "gen-seed-too-large", "gen-seed-not-int", "gen-train-negative",
            "gen-test-negative", "train-seed-negative", "train-hidden-zero",
            "search-hidden-zero", "search-seed-negative", "search-jobs-zero", "filters-rows-zero",
            "train-empty-train", "train-empty-val", "eval-empty-partition",
            "filters-rows-too-many", "eval-missing-model", "gen-missing-out-dir",
            "eval-nan-checkpoint", "filters-nan-checkpoint", "search-inf-sample",
            "eval-test-inf-in-train", "eval-test-corrupt-byte-in-train",
            "filters-real-tag-complex-params", "train-init-scale-nan"])
    def test_one_line_and_exit_two(self, argv, message, usage_files):
        # A bad setting or input file is a usage error, not a traceback.
        proc = cli_subprocess([str(usage_files.get(a, a)) for a in argv])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [message.format_map(usage_files)]
        assert "Traceback" not in proc.stderr + proc.stdout


class TestChecks:
    def test_gradcheck_exit_zero(self, capsys):
        assert run(["gradcheck", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_gradcheck_flags_corrupted_derivative(self, monkeypatch, capsys):
        import cvnet.autodiff as ad

        original = ad.REGISTRY["ctanh"]

        def corrupt_pair(z, y):
            j, jc = original.pair(z, y)
            return 1.01 * j, jc

        corrupted = ad.ElementwiseOp(
            "ctanh", original.fn, corrupt_pair, original.holomorphic, original.probe_radius
        )
        monkeypatch.setitem(ad.REGISTRY, "ctanh", corrupted)
        assert run(["gradcheck", "--seed", "11"]) == 1
        out = capsys.readouterr().out
        assert any("FAIL" in line and "ctanh" in line for line in out.splitlines())

    def test_gradcheck_fails_nan_derivative(self, monkeypatch, capsys):
        # A NaN error must fail its entry, not be lost in the running maximum.
        import cvnet.autodiff as ad

        original = ad.REGISTRY["square"]

        def nan_pair(z, y):
            j, jc = original.pair(z, y)
            return j, np.full_like(jc, np.nan)

        monkeypatch.setitem(ad.REGISTRY, "square", ad.ElementwiseOp(
            "square", original.fn, nan_pair, original.holomorphic, original.probe_radius))
        assert run(["gradcheck", "--seed", "11"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and "op:square" in failed[0] and "nan" in failed[0]

    def test_gradcheck_rejects_zero_probes(self):
        # With no probe, every entry would pass at an error of 0.
        with pytest.raises(ValueError, match="n_probes"):
            gradcheck.run_gradcheck(seed=1, n_probes=0)

    def test_gradcheck_report_deterministic(self, capsys):
        run(["gradcheck", "--seed", "12"])
        first = capsys.readouterr().out
        run(["gradcheck", "--seed", "12"])
        second = capsys.readouterr().out
        assert first == second

    def test_gradcheck_report_same_across_hash_seeds(self):
        # str hashing is salted per process; the probes must not depend on it
        outs = []
        for hash_seed in ("1", "2"):
            proc = cli_subprocess(["gradcheck", "--seed", "12"], PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestReadme:
    def test_every_documented_command_exists(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```.*?\n(.*?)^```", readme.read_text(), re.M | re.S)
        documented = set(re.findall(r"\bcvnet ([\w-]+)", "".join(blocks)))
        parser = cli.build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert documented and documented <= set(commands)
