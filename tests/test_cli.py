import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import mutated_entries
from hypothesis import given, settings, strategies as st

from moirl.cli import main


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")


@pytest.fixture
def fixture_files(tmp_path):
    spec = tmp_path / "problem.json"
    write_json(spec, {"random": {"count": 3, "dim": 2, "n_actions": 4}})
    phi0 = tmp_path / "phi0.json"
    write_json(phi0, {
        "phi0": [0.6, -0.8],
        "feasible": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    })
    feasible = tmp_path / "feasible.json"
    write_json(feasible, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})
    config = tmp_path / "config.json"
    write_json(config, {
        "schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
        "max_iters": 5000,
        "tie_tol": 0.0,
        "seed": 42,
        "phi1": [-1.0, 0.0],
    })
    return tmp_path, spec, phi0, feasible, config


def run_pipeline(tmp_path, spec, phi0, feasible, config, run_name="run"):
    data_dir = tmp_path / "data"
    run_dir = tmp_path / run_name
    assert main(["generate", str(spec), str(phi0), "--out", str(data_dir),
                 "--seed", "42"]) == 0
    assert main(["train", str(data_dir), str(feasible), str(config),
                 "--out", str(run_dir)]) == 0
    return data_dir, run_dir


class TestGenerate:
    def test_explicit_instance(self, tmp_path):
        spec = tmp_path / "problem.json"
        write_json(spec, {"instances": [
            {"type": "explicit", "id": "a",
             "actions": [[0, 0], [1, -1], [-1, 1]]},
        ]})
        phi0 = tmp_path / "phi0.json"
        write_json(phi0, {"phi0": [1.0, 0.0]})
        out = tmp_path / "out"
        assert main(["generate", str(spec), str(phi0), "--out", str(out)]) == 0
        trajs = json.loads((out / "expert_trajectories.json").read_text())
        assert trajs == [{"instance_id": "a", "action": [1.0, -1.0]}]

    def test_knapsack_instance(self, tmp_path):
        spec = tmp_path / "problem.json"
        write_json(spec, {"instances": [
            {"type": "knapsack", "id": "k", "weights": [1.0, 1.0],
             "capacity": 2.0, "item_features": [[1, 0], [0, 1]]},
        ]})
        phi0 = tmp_path / "phi0.json"
        write_json(phi0, {"phi0": [1.0, 1.0]})
        out = tmp_path / "out"
        assert main(["generate", str(spec), str(phi0), "--out", str(out)]) == 0
        trajs = json.loads((out / "expert_trajectories.json").read_text())
        assert trajs[0]["action"] == [1.0, 1.0]

    def test_same_seed_byte_identical(self, fixture_files):
        tmp_path, spec, phi0, *_ = fixture_files
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert main(["generate", str(spec), str(phi0), "--out", str(out),
                         "--seed", "7"]) == 0
        for name in ("instances.json", "expert_trajectories.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_phi0_outside_feasible_set(self, tmp_path, capsys):
        spec = tmp_path / "problem.json"
        write_json(spec, {"random": {"count": 1, "dim": 2, "n_actions": 3}})
        phi0 = tmp_path / "phi0.json"
        write_json(phi0, {
            "phi0": [5.0, 0.0],
            "feasible": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        })
        code = main(["generate", str(spec), str(phi0), "--out",
                     str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:VALIDATION:")


    def test_missing_phi0_key_exits_2(self, fixture_files, capsys):
        tmp_path, spec, phi0, *_ = fixture_files
        write_json(phi0, {"weights": [0.6, -0.8]})
        code = main(["generate", str(spec), str(phi0), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert "/phi0" in err[0]

    @pytest.mark.parametrize("problem, pointer", [
        ([], "expected an object"),
        ({"random": {"count": "3", "dim": 2, "n_actions": 4}}, "/random/count"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 4, "low": None}},
         "/random/low"),
    ], ids=["array", "string-count", "null-low"])
    def test_bad_problem_spec_exits_2(self, fixture_files, capsys, problem, pointer):
        tmp_path, spec, phi0, *_ = fixture_files
        write_json(spec, problem)
        code = main(["generate", str(spec), str(phi0), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert pointer in err[0]


class TestTrain:
    def test_fixture_run_reaches_budget(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        _, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["best_F"] <= 1e-3
        assert (run_dir / "gap_report.json").exists()

    def test_single_iteration_single_row(self, fixture_files):
        tmp_path, spec, phi0, feasible, _ = fixture_files
        config = tmp_path / "cfg1.json"
        write_json(config, {
            "schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
            "max_iters": 1,
        })
        _, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        lines = (run_dir / "run.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_target_eps_early_exit(self, fixture_files):
        tmp_path, spec, phi0, feasible, _ = fixture_files
        config = tmp_path / "cfg_eps.json"
        write_json(config, {
            "schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
            "max_iters": 5000,
            "target_eps": 1e-2,
            "phi1": [-1.0, 0.0],
        })
        _, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["iters_run"] < 5000
        assert summary["best_F"] < 1e-2

    def test_byte_identical_reruns(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        _, run1 = run_pipeline(tmp_path, spec, phi0, feasible, config, "r1")
        _, run2 = run_pipeline(tmp_path, spec, phi0, feasible, config, "r2")
        assert (run1 / "run.csv").read_bytes() == (run2 / "run.csv").read_bytes()

    def test_invalid_data_exits_2(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, _ = run_pipeline(tmp_path, spec, phi0, feasible, config)
        trajs = json.loads((data_dir / "expert_trajectories.json").read_text())
        trajs[0]["action"] = [99.0, 99.0]
        write_json(data_dir / "expert_trajectories.json", trajs)
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "bad_run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:VALIDATION:")

    @pytest.mark.parametrize("case", ["config_tie_tol", "flag_tie_tol", "box_lo"])
    def test_nan_input_exits_2(self, fixture_files, capsys, case):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        extra = []
        if case == "config_tie_tol":
            cfg = json.loads(config.read_text())
            write_json(config, {**cfg, "tie_tol": float("nan")})
        elif case == "flag_tie_tol":
            extra = ["--tie-tol", "nan"]
        else:
            write_json(feasible, {"kind": "box", "lo": [float("nan"), -1.0],
                                  "hi": [1.0, 1.0]})
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run"), *extra])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")

    @pytest.mark.parametrize("number", ["NaN", "1" + "0" * 400],
                             ids=["nan", "overflowing-integer"])
    def test_bad_number_in_instances_exits_2(self, fixture_files, capsys, number):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        path = data_dir / "instances.json"
        text, n = re.subn(r"(\n +)-?[0-9][0-9.e+-]*", r"\g<1>" + number,
                          path.read_text(), count=1)
        assert n == 1
        path.write_text(text)
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")

    def test_overflowing_subgradient_exits_2_with_one_line(self, fixture_files):
        # In a subprocess: numpy warnings would go to its stderr, where
        # in-process pytest captures them as warnings instead.
        tmp_path, _, _, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_json(data_dir / "instances.json",
                   [{"id": "a", "actions": [[1.5e308, 0], [-1.5e308, 1]]}])
        write_json(data_dir / "expert_trajectories.json",
                   [{"instance_id": "a", "action": [1.5e308, 0]}])
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        proc = subprocess.run(
            [sys.executable, "-m", "moirl.cli", "train", str(data_dir),
             str(feasible), str(config), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 2, proc.stderr
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:"), proc.stderr

    def test_missing_file_exits_4(self, fixture_files, capsys):
        tmp_path, _, _, feasible, config = fixture_files
        code = main(["train", str(tmp_path / "nope"), str(feasible),
                     str(config), "--out", str(tmp_path / "r")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error:IO:")

    def test_null_seed_exits_2(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        write_json(config, {**json.loads(config.read_text()), "seed": None})
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert "/seed" in err[0]


class TestExitCodes:
    """Malformed JSON is a validation error (2); a file that cannot be
    read is an I/O error (4)."""

    @pytest.mark.parametrize("text", ['{"schedule": ', "[1, 2", "\ufeff{}", "{'a': 1}"],
                             ids=["truncated", "unclosed", "bom", "single-quotes"])
    def test_malformed_json_exits_2(self, fixture_files, capsys, text):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        config.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")

    @pytest.mark.parametrize("unreadable", ["missing", "directory"])
    def test_unreadable_file_exits_4(self, fixture_files, capsys, unreadable):
        tmp_path, spec, phi0, *_ = fixture_files
        spec.unlink()
        if unreadable == "directory":
            spec.mkdir()
        code = main(["generate", str(spec), str(phi0), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error:IO:")


class TestWasserstein:
    def test_file_vs_itself(self, tmp_path, capsys):
        traj = tmp_path / "t.json"
        write_json(traj, [{"instance_id": "a", "action": [1.0, 2.0]}])
        assert main(["wasserstein", str(traj), str(traj)]) == 0
        out = capsys.readouterr().out
        assert "w1 0.0" in out
        assert "linear_dual_lower_bound 0.0" in out

    def test_single_pair(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, [{"instance_id": "x", "action": [0.0, 0.0]}])
        write_json(b, [{"instance_id": "x", "action": [3.0, 4.0]}])
        assert main(["wasserstein", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "w1 5.0" in out
        assert "linear_dual_lower_bound 5.0" in out

    def test_size_mismatch_nonzero_exit(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, [{"instance_id": "x", "action": [0.0]}])
        write_json(b, [{"instance_id": "x", "action": [0.0]},
                       {"instance_id": "y", "action": [1.0]}])
        assert main(["wasserstein", str(a), str(b)]) == 2


class TestVerify:
    def test_pipeline_verifies(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        assert main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]) == 0
        report = json.loads((run_dir / "verify_report.json").read_text())
        assert set(report) == {"gaps", "F", "eps", "bound_eN", "equivalence"}

    def test_report_does_not_depend_on_summary_json(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        argv = ["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]
        report = run_dir / "verify_report.json"
        assert main(argv) == 0
        want = report.read_bytes()
        report.unlink()
        (run_dir / "summary.json").unlink()
        assert main(argv) == 0
        assert report.read_bytes() == want

    def test_truncated_run_csv_exits_2(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        csv = run_dir / "run.csv"
        *rows, last = csv.read_text().splitlines()
        csv.write_text("\n".join(rows + [",".join(last.split(",")[:2])]) + "\n")
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0"])
    def test_eps_must_be_finite_and_positive(self, fixture_files, capsys, eps):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", eps])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert not (run_dir / "verify_report.json").exists()

    def test_tampered_expert_file(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        instances = json.loads((data_dir / "instances.json").read_text())
        trajs = json.loads((data_dir / "expert_trajectories.json").read_text())
        # Replace one expert action with a feasible but non-optimal action.
        inst = next(i for i in instances if i["id"] == trajs[0]["instance_id"])
        current = trajs[0]["action"]
        trajs[0]["action"] = next(
            a for a in inst["actions"] if a != current
        )
        write_json(data_dir / "expert_trajectories.json", trajs)
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error:GUARANTEE:")

    def test_unreached_eps_exits_3(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, _ = fixture_files
        config = tmp_path / "cfg_short.json"
        write_json(config, {
            "schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
            "max_iters": 1,
            "phi1": [-1.0, 0.0],
        })
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        summary = json.loads((run_dir / "summary.json").read_text())
        if summary["best_F"] == 0.0:
            pytest.skip("one-step run already optimal")
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-12"])
        assert code == 3
        assert "eps not reached" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A generated data set and a short training run on it."""
    base = tmp_path_factory.mktemp("fuzz")
    spec, phi0, feasible, config = (base / name for name in (
        "problem.json", "phi0.json", "feasible.json", "config.json"))
    write_json(spec, {"random": {"count": 4, "dim": 2, "n_actions": 4}})
    write_json(phi0, {"phi0": [0.5, -0.75]})
    write_json(feasible, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})
    write_json(config, {"schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
                        "max_iters": 20})
    with redirect_stdout(io.StringIO()):
        assert main(["generate", str(spec), str(phi0),
                     "--out", str(base / "data")]) == 0
        assert main(["train", str(base / "data"), str(feasible), str(config),
                     "--out", str(base / "run")]) == 0
    return base, feasible, config


class TestFuzz:
    """Mutated input files end in exit 0, 2, 3 or 4, and a failure prints
    exactly one ``error:`` line on stderr."""

    @given(st.data())
    @settings(max_examples=100)
    def test_mutated_inputs_exit_cleanly(self, fuzz_base, data):
        base, feasible, config = fuzz_base
        name, id_key = data.draw(st.sampled_from(
            [("instances.json", "id"), ("expert_trajectories.json", "instance_id")]))
        command = data.draw(st.sampled_from(["train", "verify"]))
        work = Path(tempfile.mkdtemp(dir=base))
        shutil.copytree(base / "data", work / "data")
        shutil.copytree(base / "run", work / "run")
        entries = json.loads((base / "data" / name).read_text())
        (work / "data" / name).write_text(
            json.dumps(data.draw(mutated_entries(entries, id_key))))
        if command == "train":
            argv = ["train", work / "data", feasible, config, "--out", work / "run"]
        else:
            argv = ["verify", work / "data", work / "run", "--eps", "0.5"]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([str(a) for a in argv])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4)
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:")
        else:
            assert lines == []
