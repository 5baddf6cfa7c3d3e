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
from moirl.guarantees import EquivalenceReport, GapReport


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


def swap_first_decision(data_dir):
    """Replace expert decision 0 with another feasible action of its
    instance, so that the ground truth no longer generates the data."""
    instances = json.loads((data_dir / "instances.json").read_text())
    trajs = json.loads((data_dir / "expert_trajectories.json").read_text())
    inst = next(i for i in instances if i["id"] == trajs[0]["instance_id"])
    trajs[0]["action"] = next(a for a in inst["actions"] if a != trajs[0]["action"])
    write_json(data_dir / "expert_trajectories.json", trajs)


KNAPSACK = {"type": "knapsack", "id": "k", "weights": [1.0, 1.0], "capacity": 2.0,
            "item_features": [[1, 0], [0, 1]]}


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

    @pytest.mark.parametrize("problem, message", [
        ([], ": expected an object"),
        ({"random": {"count": "3", "dim": 2, "n_actions": 4}},
         "/random/count: expected an integer"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 4, "low": None}},
         "/random/low: expected an integer"),
        ({"random": {"count": 3, "dim": 0, "n_actions": 4}},
         "/random/dim: expected an integer >= 1"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 0}},
         "/random/n_actions: expected an integer >= 1"),
        ({"random": {"count": -1, "dim": 2, "n_actions": 4}},
         "/random/count: expected an integer >= 0"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 4, "low": 5, "high": 1}},
         "/random/high: expected an integer >= 5"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 4, "low": -(2**63) - 1}},
         "/random/low: expected an integer >= -9223372036854775808"),
        ({"random": {"count": 3, "dim": 2, "n_actions": 4, "high": 2**63}},
         "/random/high: expected an integer <= 9223372036854775807"),
        ({"random": {"count": 2**70, "dim": 2, "n_actions": 4}},
         "/random: Maximum allowed dimension exceeded"),
        ({"instances": [KNAPSACK, {**KNAPSACK, "id": "k2",
                                   "item_features": [[1, 0]]}]},
         "/instances/1: item_features must be an (m, d) matrix"),
        ({"instances": [{**KNAPSACK, "weights": [1.0] * 21,
                         "item_features": [[1, 0]] * 21}]},
         "/instances/0: enumeration bound exceeded"),
        ({"instances": [{**KNAPSACK, "weights": [1.0, -1.0]}]},
         "/instances/0: knapsack weights and capacity must be nonnegative"),
        ({"instances": [{**KNAPSACK, "capacity": -0.5}]},
         "/instances/0: knapsack weights and capacity must be nonnegative"),
        ({"instances": [{**KNAPSACK, "item_features": [[1e308, 0], [1e308, 0]]}]},
         "/instances/0: action vectors must be finite"),
        ({"instances": [{"type": "explicit", "id": "a", "actions": [[0, 1]]},
                        {"type": "explicit", "id": "b", "actions": [[0, 1, 2]]}]},
         "/instances/1/actions/0: length 3, expected 2"),
        ({"instances": [{"type": "explicit", "id": "a", "actions": [[0, 1]]},
                        {"type": "polytope", "id": "p", "vertices": [[0, 1, 2]]}]},
         "/instances/1/vertices/0: length 3, expected 2"),
        ({"instances": [{**KNAPSACK, "item_features": [[1, 0, 0], [0, 1, 0]]}],
          "random": {"count": 3, "dim": 2, "n_actions": 4}},
         "/random/dim: length 2, expected 3"),
        ({"instances": [{"type": "explicit", "id": "a", "actions": [[0, 1]]},
                        {"type": "explicit", "id": "a", "actions": [[1, 0]]}]},
         "/instances/1/id: duplicate instance id 'a'"),
        ({"instances": [{"type": [], "id": "a", "actions": [[0, 1]]}]},
         "/instances/0/type: unknown instance type []"),
    ], ids=["array", "string-count", "null-low", "zero-dim", "zero-n-actions",
            "negative-count", "low-above-high", "low-below-int64",
            "high-above-int64", "count-beyond-any-shape", "knapsack-rows",
            "knapsack-items-beyond-bound", "knapsack-negative-weight",
            "knapsack-negative-capacity", "knapsack-sums-beyond-floats",
            "explicit-widths", "explicit-polytope-widths", "knapsack-random-widths",
            "duplicate-id", "unhashable-type"])
    def test_bad_problem_spec_exits_2(self, fixture_files, capsys, problem, message):
        tmp_path, spec, phi0, *_ = fixture_files
        write_json(spec, problem)
        code = main(["generate", str(spec), str(phi0), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:VALIDATION: {message}"]
        assert not (tmp_path / "o").exists()

    def test_random_block_beyond_memory_exits_2(self, fixture_files, capsys,
                                                monkeypatch):
        message = ("Unable to allocate 59.6 GiB for an array with shape "
                   "(4000000000, 2) and data type int64")

        def random_instances(*args):
            raise MemoryError(message)

        monkeypatch.setattr("moirl.synth.random_instances", random_instances)
        tmp_path, spec, phi0, *_ = fixture_files
        write_json(spec, {"random": {"count": 10**9, "dim": 2, "n_actions": 4}})
        code = main(["generate", str(spec), str(phi0), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error:VALIDATION: /random: {message}"]
        assert not (tmp_path / "o").exists()


class TestTrain:
    def test_fixture_run_reaches_budget(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        _, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["best_F"] <= 1e-3
        assert (run_dir / "gap_report.json").exists()

    def test_gap_report_breaks_ties_exactly(self, tmp_path, capsys):
        # [1, -1] scores 2**-32 above [0, 0]; the exact argmax takes it,
        # as the expert did, so F and the gap are 0.
        spec, phi0, box, config = (tmp_path / f for f in (
            "problem.json", "phi0.json", "box.json", "config.json"))
        write_json(spec, {"instances": [
            {"type": "explicit", "id": "a", "actions": [[0, 0], [1, -1]]}]})
        write_json(phi0, {"phi0": [1.0, 0.5]})
        write_json(box, {"kind": "box", "lo": [-2.0, -2.0], "hi": [2.0, 2.0]})
        write_json(config, {"schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
                            "max_iters": 1, "phi1": [1 + 2**-32, 1.0]})
        data_dir, run_dir = tmp_path / "data", tmp_path / "run"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        capsys.readouterr()
        assert main(["train", str(data_dir), str(box), str(config),
                     "--out", str(run_dir)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((run_dir / "gap_report.json").read_text())
        assert report["gaps"] == [0.0]
        assert json.loads((run_dir / "summary.json").read_text())["best_F"] == 0.0

    def test_unrealizable_data_trains_with_and_without_manifest(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        swap_first_decision(data_dir)
        outputs = {}
        for run in ("with", "without"):
            if run == "without":
                (data_dir / "manifest.json").unlink()
            run_dir = tmp_path / run
            assert main(["train", str(data_dir), str(feasible), str(config),
                         "--out", str(run_dir)]) == 0
            outputs[run] = {name: (run_dir / name).read_bytes() for name in (
                "run.csv", "summary.json", "gap_report.json")}
        assert outputs["with"] == outputs["without"]
        report = json.loads(outputs["with"]["gap_report.json"])
        assert report["F"] > 0 and min(report["gaps"]) >= 0

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

    def test_mixed_width_instances_exit_2_naming_the_row(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        instances = json.loads((data_dir / "instances.json").read_text())
        instances[1]["actions"] = [row + [0.0] for row in instances[1]["actions"]]
        write_json(data_dir / "instances.json", instances)
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error:VALIDATION: /1/actions/0: length 3, expected 2"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", ["config_tie_tol", "box_lo"])
    def test_nan_input_exits_2(self, fixture_files, capsys, case):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        if case == "config_tie_tol":
            cfg = json.loads(config.read_text())
            write_json(config, {**cfg, "tie_tol": float("nan")})
        else:
            write_json(feasible, {"kind": "box", "lo": [float("nan"), -1.0],
                                  "hi": [1.0, 1.0]})
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")

    @pytest.mark.parametrize("tie_tol", [1e-9, -1.0, 1])
    def test_nonzero_tie_tol_exits_2_and_writes_nothing(self, fixture_files, capsys,
                                                        tie_tol):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        write_json(config, {**json.loads(config.read_text()), "tie_tol": tie_tol})
        capsys.readouterr()
        code = main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error:VALIDATION: tie_tol must be 0 (ties are broken "
                       f"exactly), got {float(tie_tol)!r}"]
        assert not (tmp_path / "run").exists()

    def test_no_tie_tol_flag(self, fixture_files, capsys):
        tmp_path, _, _, feasible, config = fixture_files
        with pytest.raises(SystemExit) as exc:
            main(["train", str(tmp_path), str(feasible), str(config),
                  "--out", str(tmp_path / "run"), "--tie-tol", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tie-tol" in capsys.readouterr().err

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

    def test_non_finite_gap_writes_no_file(self, tmp_path, capsys):
        # Both actions score inf under phi1, so the gap is inf - inf = NaN,
        # while the learner's objective stays finite.
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        write_json(data_dir / "instances.json",
                   [{"id": "a", "actions": [[2, 3], [3, 1]]}])
        write_json(data_dir / "expert_trajectories.json",
                   [{"instance_id": "a", "action": [3, 1]}])
        write_json(tmp_path / "box.json",
                   {"kind": "box", "lo": [-1e308, -1e308], "hi": [1e308, 1e308]})
        write_json(tmp_path / "config.json", {
            "schedule": {"kind": "inverse_sqrt", "alpha0": 1.0},
            "max_iters": 3,
            "phi1": [1e308, 1e308],
        })
        out = tmp_path / "run"
        code = main(["train", str(data_dir), str(tmp_path / "box.json"),
                     str(tmp_path / "config.json"), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert not out.exists()

    def test_huge_initial_weights_project_onto_the_simplex(self, tmp_path):
        spec = tmp_path / "problem.json"
        write_json(spec, {"random": {"count": 3, "dim": 3, "n_actions": 4}})
        feasible = {"kind": "simplex", "dim": 3}
        phi0 = tmp_path / "phi0.json"
        write_json(phi0, {"phi0": [0.2, 0.3, 0.5], "feasible": feasible})
        write_json(tmp_path / "feasible.json", feasible)
        config = tmp_path / "config.json"
        write_json(config, {
            "schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
            "max_iters": 3,
            "phi1": [1e308, 1e308, 0.0],
        })
        with pytest.warns(UserWarning, match="outside the feasible set"):
            _, run_dir = run_pipeline(tmp_path, spec, phi0,
                                      tmp_path / "feasible.json", config)
        first = (run_dir / "run.csv").read_text().splitlines()[1]
        assert first.split(",")[3:] == ["0.5", "0.5", "0.0"]

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

    # Deeper than the JSON decoder's recursion limit.
    @pytest.mark.parametrize("command", ["generate", "train", "wasserstein"])
    def test_deeply_nested_json_exits_2(self, fixture_files, capsys, command):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = {
            "generate": ["generate", str(deep), str(phi0), "--out", str(tmp_path / "o")],
            "train": ["train", str(data_dir), str(feasible), str(deep),
                      "--out", str(tmp_path / "run")],
            "wasserstein": ["wasserstein", str(data_dir / "expert_trajectories.json"),
                            str(deep)],
        }[command]
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error:VALIDATION: : JSON nested too deeply"]


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

    def test_ragged_actions_exit_2_naming_the_entry(self, tmp_path, capsys):
        traj = tmp_path / "t.json"
        write_json(traj, [{"instance_id": "x", "action": [1, 2]},
                          {"instance_id": "y", "action": [1]}])
        assert main(["wasserstein", str(traj), str(traj)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:VALIDATION:")
        assert "/1/action" in err[0]


    def test_large_finite_actions(self, tmp_path, capsys):
        # Their difference, 2e200, squares past the float range.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, [{"instance_id": "x", "action": [1e200, 0.0]}])
        write_json(b, [{"instance_id": "x", "action": [-1e200, 0.0]}])
        assert main(["wasserstein", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "w1 2e+200", "linear_dual_lower_bound 2e+200"]

    def test_w1_beyond_the_float_range_exits_2_with_one_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, [{"instance_id": "x", "action": [1e308, 0.0]}])
        write_json(b, [{"instance_id": "x", "action": [-1e308, 0.0]}])
        assert main(["wasserstein", str(a), str(b)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error:VALIDATION: W1 is beyond the float range"]


def run_in_subprocess(script: str, *args) -> subprocess.CompletedProcess:
    """``python -c script *args`` with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


# Runs each JSON-encoded argv of sys.argv[1:] through the CLI in one process,
# then prints the exit codes and the scipy modules loaded, as JSON.
CLI_SCRIPT = """
import json, sys
import moirl, moirl.cli
codes = [moirl.cli.main(json.loads(argv)) for argv in sys.argv[1:]]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


class TestScipyImports:
    """scipy is loaded only to solve an assignment, which a W1 needs only
    when the two measures differ."""

    def test_no_command_loads_scipy_unless_a_w1_has_mass_to_move(
            self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        short = tmp_path / "short.json"
        write_json(short, {"schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
                           "max_iters": 1, "phi1": [-1.0, 0.0]})
        data, run, stop = tmp_path / "data", tmp_path / "run", tmp_path / "stop"
        expert = data / "expert_trajectories.json"
        argvs = [
            ["generate", spec, phi0, "--out", data, "--seed", "42"],
            ["train", data, feasible, config, "--out", run],
            ["train", data, feasible, short, "--out", stop],
            ["verify", data, run, "--eps", "1e-2"],
            ["verify", data, stop, "--eps", "1e-12"],
            ["wasserstein", expert, expert],
        ]
        proc = run_in_subprocess(CLI_SCRIPT, *(json.dumps(list(map(str, a))) for a in argvs))
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0, 3, 0]
        # The one-step run does not imitate the expert, so the W1 leg has
        # mass to move.
        report = json.loads((stop / "verify_report.json").read_text())
        assert report["equivalence"] == {
            "subgrad_zero": False, "actions_equal": False, "w1_zero": False}
        assert scipy_modules == []

    def test_w1_between_differing_files_loads_scipy(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, [{"instance_id": "x", "action": p}
                       for p in [[0, 0], [1, 2], [2, 2], [0.1, 0.3]]])
        write_json(b, [{"instance_id": "x", "action": p}
                       for p in [[1, 1], [1, 2], [0, 3], [0.7, -0.2]]])
        proc = run_in_subprocess(CLI_SCRIPT, json.dumps(["wasserstein", str(a), str(b)]))
        assert proc.returncode == 0, proc.stderr
        *printed, last = proc.stdout.splitlines()
        assert printed == ["w1 1.026063597881745",
                           "linear_dual_lower_bound 0.3881043674065006"]
        codes, scipy_modules = json.loads(last)
        assert codes == [0] and "scipy.optimize" in scipy_modules


class TestVerify:
    def test_pipeline_verifies(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        assert main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]) == 0
        report = json.loads((run_dir / "verify_report.json").read_text())
        assert set(report) == {"gaps", "F", "eps", "bound_eN", "equivalence"}

    def test_outputs_do_not_depend_on_instances_npz(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        outputs = {}
        for run in ("with", "without", "without_manifest"):
            if run == "without":
                (data_dir / "instances.npz").unlink()
            if run == "without_manifest":
                (data_dir / "manifest.json").unlink()
            run_dir = tmp_path / run
            assert main(["train", str(data_dir), str(feasible), str(config),
                         "--out", str(run_dir)]) == 0
            assert main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]) == 0
            outputs[run] = {name: (run_dir / name).read_bytes() for name in (
                "run.csv", "summary.json", "gap_report.json", "verify_report.json")}
        assert outputs["with"] == outputs["without"] == outputs["without_manifest"]

    def test_negative_zero_expert_gives_the_same_reports(self, tmp_path):
        # The solver returns [1, 0] for "b"; one expert file records it as
        # [1.0, -0.0].
        spec, phi0, feasible, config = (tmp_path / f for f in (
            "problem.json", "phi0.json", "feasible.json", "config.json"))
        write_json(spec, {"instances": [
            {"type": "explicit", "id": "a", "actions": [[0, 0], [1, -1], [-1, 1]]},
            {"type": "explicit", "id": "b", "actions": [[0, 1], [1, 0], [-1, -1]]},
        ]})
        write_json(phi0, {"phi0": [0.6, -0.8]})
        write_json(feasible, {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0})
        write_json(config, {"schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
                            "max_iters": 200, "phi1": [-1.0, 0.0]})
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        expert = data_dir / "expert_trajectories.json"
        assert json.loads(expert.read_text())[1]["action"] == [1.0, 0.0]
        results = {}
        for sign in ("0.0", "-0.0"):
            if sign == "-0.0":
                trajs = json.loads(expert.read_text())
                trajs[1]["action"] = [1.0, -0.0]
                write_json(expert, trajs)
                assert "-0.0" in expert.read_text()
            run_dir = tmp_path / sign
            assert main(["train", str(data_dir), str(feasible), str(config),
                         "--out", str(run_dir)]) == 0
            code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"])
            results[sign] = code, {name: (run_dir / name).read_bytes() for name in (
                "run.csv", "summary.json", "gap_report.json", "verify_report.json")}
        assert results["0.0"] == results["-0.0"]

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

    def test_manifest_may_be_the_ground_truth_file(self, fixture_files):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        argv = ["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]
        report = run_dir / "verify_report.json"
        assert main(argv) == 0
        want = report.read_bytes()
        report.unlink()
        assert main(argv + ["--manifest", str(phi0)]) == 0
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

    # 1e308 is finite, but eps * N, the report's bound_eN, is not.
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1", "0", "1e308"])
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
        swap_first_decision(data_dir)
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1 and err[0].startswith(
            "error:GUARANTEE: expert action 0 is not the solver output")
        assert not (run_dir / "verify_report.json").exists()

    def test_unrealizable_data_without_manifest_exits_by_eps(self, fixture_files,
                                                            capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir = tmp_path / "data"
        assert main(["generate", str(spec), str(phi0), "--out", str(data_dir)]) == 0
        swap_first_decision(data_dir)
        (data_dir / "manifest.json").unlink()
        run_dir = tmp_path / "run"
        assert main(["train", str(data_dir), str(feasible), str(config),
                     "--out", str(run_dir)]) == 0
        best_f = json.loads((run_dir / "summary.json").read_text())["best_F"]
        assert best_f > 0
        capsys.readouterr()
        argv = ["verify", str(data_dir), str(run_dir), "--eps"]
        assert main(argv + ["1e3"]) == 0
        report = json.loads((run_dir / "verify_report.json").read_text())
        assert report["equivalence"] == {
            "subgrad_zero": False, "actions_equal": False, "w1_zero": False}
        assert capsys.readouterr().err == ""
        assert main(argv + [repr(best_f / 2)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error:GUARANTEE: eps not reached"]

    def test_missing_manifest_option_file_exits_4(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2",
                     "--manifest", str(tmp_path / "nope.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 4
        assert len(err) == 1 and err[0].startswith("error:IO:")

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

    # F(0) = 0, so a run whose best iterate is phi = 0 meets every other
    # check whatever the expert did; verify must not certify it.
    @pytest.mark.parametrize("feasible_obj, extra", [
        ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
         {"max_iters": 200}),
        ({"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
         {"max_iters": 1, "phi1": [0.0, 0.0]}),
    ], ids=["ball-without-phi1", "box-zero-phi1"])
    def test_zero_best_weights_exit_3(self, fixture_files, capsys,
                                      feasible_obj, extra):
        tmp_path, spec, phi0, feasible, config = fixture_files
        write_json(feasible, feasible_obj)
        write_json(config, {"schedule": {"kind": "inverse_sqrt", "alpha0": 0.5},
                            "tie_tol": 0.0, **extra})
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["best_iteration"] == 1
        assert not any(summary["best_phi"])
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "0.05"])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err == ["error:GUARANTEE: best weights are zero, which imitate nothing"]
        assert (run_dir / "verify_report.json").exists()

    def test_table_and_report_bytes(self, fixture_files, capsys):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        capsys.readouterr()
        assert main(["verify", str(data_dir), str(run_dir), "--eps", "1e-2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines() == [
            "check                       result        detail",
            "reward gaps >= 0            pass          min gap 0.0",
            "gaps < eps*N                pass          max gap 0.0, budget 0.03",
            "best F < eps reached        pass          iteration 2",
            "equivalence unanimous       pass          "
            "subgrad_zero=True actions_equal=True w1_zero=True",
        ]
        assert (run_dir / "verify_report.json").read_text() == (
            '{\n  "gaps": [\n    0.0,\n    0.0,\n    0.0\n  ],\n  "F": 0.0,\n'
            '  "eps": 0.01,\n  "bound_eN": 0.03,\n  "equivalence": {\n'
            '    "subgrad_zero": true,\n    "actions_equal": true,\n'
            '    "w1_zero": true\n  }\n}\n')

    # Each case fails every check from its message on, so the message
    # shows which failure is reported first: zero weights, then eps, then
    # the budget, then equivalence.  verify_run itself raises before some
    # of these triples could arise.
    @pytest.mark.parametrize("zero, k, gaps, equiv, message, column", [
        (True, None, [0.0, 0.2, 0.1], (True, False, False),
         "best weights are zero, which imitate nothing",
         ["pass", "FAIL", "FAIL", "FAIL"]),
        (False, None, [0.0, 0.2, 0.1], (True, False, False),
         "eps not reached", ["pass", "FAIL", "FAIL", "FAIL"]),
        (False, 1, [0.0, 0.2, 0.1], (False, True, False),
         "reward gap exceeds eps*N at best iterate", ["pass", "FAIL", "pass", "FAIL"]),
        (False, 1, [0.0, 0.1, 0.0], (False, False, True),
         "equivalence criteria disagree", ["pass", "pass", "pass", "FAIL"]),
    ], ids=["zero-weights", "eps-not-reached", "budget", "equivalence"])
    def test_exit_3_precedence(self, fixture_files, capsys, monkeypatch,
                               zero, k, gaps, equiv, message, column):
        tmp_path, spec, phi0, feasible, config = fixture_files
        data_dir, run_dir = run_pipeline(tmp_path, spec, phi0, feasible, config)
        if zero:
            (run_dir / "run.csv").write_text("k,F,grad_norm,phi_0,phi_1\n"
                                             "1,0.0,0.0,0.0,0.0\n")
        triple = (GapReport(np.array(gaps)), k, EquivalenceReport(*equiv))
        monkeypatch.setattr("moirl.cli.verify_run", lambda *args: triple)
        capsys.readouterr()
        code = main(["verify", str(data_dir), str(run_dir), "--eps", "0.05"])
        out, err = capsys.readouterr()
        assert code == 3
        assert err.splitlines() == [f"error:GUARANTEE: {message}"]
        assert [line[28:42].rstrip() for line in out.splitlines()] == [
            "result", *column]
        report = json.loads((run_dir / "verify_report.json").read_text())
        assert report["gaps"] == gaps
        assert report["equivalence"] == dict(zip(
            ["subgrad_zero", "actions_equal", "w1_zero"], equiv))


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

    @given(st.data())
    @settings(max_examples=100)
    def test_mutated_problem_exits_cleanly(self, fuzz_base, data):
        """``generate`` on a ``problem.json`` whose entries of all three
        kinds were mutated: at most 4 + 3 knapsack items, so each example
        enumerates at most 128 packings."""
        base, *_ = fuzz_base
        entries = [
            {"type": "explicit", "id": "e", "state": {"s": [1, 2]},
             "actions": [[0, 1], [1, 0], [-1, 2]]},
            {"type": "polytope", "id": "p", "vertices": [[0, 0], [0, 1], [1, 0]]},
            {"type": "knapsack", "id": "k", "weights": [1, 2, 0.5, 0],
             "capacity": 2, "item_features": [[1, 0], [0, 1], [0.25, 0.5], [-1, 1]]},
        ]
        work = Path(tempfile.mkdtemp(dir=base))
        problem = {"instances": data.draw(mutated_entries(entries, "id"))}
        if data.draw(st.booleans()):
            problem["random"] = {"count": 2, "dim": 2, "n_actions": 3}
        write_json(work / "problem.json", problem)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["generate", str(work / "problem.json"),
                         str(base / "phi0.json"), "--out", str(work / "data")])
        lines = err.getvalue().splitlines()
        assert code in (0, 2)
        if code:
            assert len(lines) == 1 and lines[0].startswith("error:VALIDATION: ")
        else:
            assert lines == []
