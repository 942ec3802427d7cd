import ast
import csv
import json
import math
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import emosam
from emosam import experiments
from emosam.cli import build_parser, main, parse_seeds
from emosam.engine import EmosamEngine, EngineConfig, SelectionStrategy, TriggerPolicy, run_sam_baseline, run_stream
from emosam.experiments import ExperimentSpec, _baseline_config, compare_ablations, load_chunks
from emosam.smpso import SmpsoParams
from emosam.stream import BiasStreamConfig, GroupRates


@pytest.fixture(scope="module")
def gen_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("gen") / "generator.json"
    BiasStreamConfig(
        n_instances=1200,
        proxy_strength=0.8,
        base_rates=GroupRates(0.65, 0.35),
        drift_points=(600,),
        seed=11,
        window_size=150,
    ).to_json(path)
    return path


README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"

FAST_FLAGS = [
    "--stm-cap", "100",
    "--ltm-cap", "100",
    "--min-stm-size", "20",
    "--swarm", "8",
    "--iterations", "2",
]


def test_parse_seeds_forms():
    assert parse_seeds("0:4") == (0, 1, 2, 3)
    assert parse_seeds("2,5,9") == (2, 5, 9)
    assert parse_seeds(" 7 ") == (7,)
    with pytest.raises(ValueError):
        parse_seeds("5:5")
    with pytest.raises(ValueError):
        parse_seeds(",")


def test_readme_config_table_names_every_field_and_flag():
    # Each row of the Configuration table pairs its fields' flags with their
    # defaults in order; a default of "on" belongs to a switch that takes no
    # value. Parse only: nothing runs.
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:4] for line in section.splitlines() if line.startswith("| `")]
    named = {name.split(".")[0] for row in rows for name in re.findall(r"`([\w.]+)`", row[0])}
    assert named == {f.name for f in fields(EngineConfig)}
    parser = build_parser()
    for _, flag_cell, default_cell in rows:
        argv = ["run", "--generator", "generator.json"]
        defaults = [value.strip(" `") for value in default_cell.split(",")]
        for flag, value in zip(re.findall(r"`(--[\w-]+)`", flag_cell), defaults):
            argv += [flag] if value == "on" else [flag, value]
        parser.parse_args(argv)


def test_readme_commands_parse_and_python_imports_exist():
    commands = set()
    imported = []
    for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in body.splitlines():
            if line.startswith("emosam "):
                commands.add(build_parser().parse_args(shlex.split(line)[1:]).command)
        if lang == "python":
            for node in ast.walk(ast.parse(body)):
                if isinstance(node, ast.ImportFrom) and node.module == "emosam":
                    imported += [alias.name for alias in node.names]
    assert commands == {"gen", "inspect", "run", "ablate"}
    assert imported and [name for name in imported if not hasattr(emosam, name)] == []


def test_ci_workflow_parses_and_every_k_word_names_a_test():
    # A CI step that runs named test files runs nothing once one of them is
    # renamed, and one that selects tests with `pytest -k` runs fewer of
    # them, or none, once a rename leaves one of its words naming no test
    # function in the files it runs (all test files when it names none).
    # PyYAML is not a test dependency: without it the check skips.
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    tests_dir = README.parent / "tests"
    runs = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            for line in step.get("run", "").splitlines():
                words = shlex.split(line)
                if "pytest" in words:
                    files = [README.parent / w for w in words if w.startswith("tests/") and w.endswith(".py")]
                    assert all(path.is_file() for path in files), f"{line!r} names a missing test file"
                    expression = words[words.index("-k") + 1] if "-k" in words else ""
                    runs.append((files or sorted(tests_dir.glob("test_*.py")), expression))
    assert len(runs) >= 4  # tier-1 in both jobs and the two BLAS steps
    for files, expression in runs:
        names = [
            node.name.lower()
            for path in files
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        ]
        for word in set(re.findall(r"\w+", expression.lower())) - {"and", "or", "not"}:
            assert any(word in name for name in names), f"-k {expression!r}: {word!r} names no test in {files}"


def test_gen_writes_csv_and_manifest(tmp_path, gen_config_path, capsys):
    out_csv = tmp_path / "stream.csv"
    out_manifest = tmp_path / "stream.manifest.json"
    code = main(
        [
            "gen",
            "--generator", str(gen_config_path),
            "--out", str(out_csv),
            "--manifest-out", str(out_manifest),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == 1200
    assert payload["dimension"] == 8
    assert out_csv.exists() and out_manifest.exists()
    header = out_csv.read_text().splitlines()[0]
    assert header.split(",")[-2:] == ["group", "label"]


def test_inspect_reports_dataset_numbers(tmp_path, gen_config_path, capsys):
    out_csv = tmp_path / "stream.csv"
    out_manifest = tmp_path / "stream.manifest.json"
    main(["gen", "--generator", str(gen_config_path), "--out", str(out_csv),
          "--manifest-out", str(out_manifest)])
    capsys.readouterr()
    code = main(["inspect", "--manifest", str(out_manifest)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == 1200
    assert payload["rejected_rows"] == 0
    assert payload["discrimination"] == pytest.approx(0.3, abs=0.1)
    assert payload["discrimination_pct"] == pytest.approx(100 * payload["discrimination"], abs=0.005)


def test_gen_manifest_finds_csv_in_another_directory(tmp_path, gen_config_path, capsys, monkeypatch):
    # The CSV path is given relative to the working directory, the manifest
    # lives elsewhere, and its source must still lead back to the CSV.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / "manifests").mkdir()
    assert main(["gen", "--generator", str(gen_config_path), "--out", "data/s.csv",
                 "--manifest-out", "manifests/s.json"]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "manifests" / "s.json").read_text())["source"] == "../data/s.csv"
    assert main(["inspect", "--manifest", "manifests/s.json"]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == 1200


@pytest.mark.parametrize("flag", ["--out", "--manifest-out"])
def test_gen_creates_missing_output_directories(tmp_path, gen_config_path, capsys, monkeypatch, flag):
    # Only the directory of ``flag``'s file is missing; gen creates it, as
    # run and ablate create theirs, and writes the CSV and its manifest.
    monkeypatch.chdir(tmp_path)
    paths = {"--out": "s.csv", "--manifest-out": "s.json"}
    paths[flag] = f"new/deeper/{paths[flag]}"
    assert main(["gen", "--generator", str(gen_config_path), "--out", paths["--out"],
                 "--manifest-out", paths["--manifest-out"]]) == 0
    capsys.readouterr()
    assert (tmp_path / paths["--out"]).exists() and (tmp_path / paths["--manifest-out"]).exists()
    assert main(["inspect", "--manifest", paths["--manifest-out"]]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == 1200


def test_run_emits_expected_files(tmp_path, gen_config_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["run", "--generator", str(gen_config_path), "--seeds", "0:2",
         "--trigger", "every", "--out", str(out), "--baseline", *FAST_FLAGS]
    )
    assert code == 0
    assert sorted(p.name for p in out.glob("windows_seed*.csv")) == [
        "windows_seed0000.csv",
        "windows_seed0001.csv",
    ]
    assert len(list(out.glob("summary_seed*.json"))) == 2
    assert len(list(out.glob("baseline_windows_seed*.csv"))) == 2
    assert (out / "aggregate.json").exists()

    with open(out / "windows_seed0000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "window", "accuracy", "discrimination", "abs_discrimination",
        "triggered", "pareto_size", "wall_time_ms",
    ]
    assert len(rows) == 1 + 8  # 1200 instances / 150 window


def test_aggregate_recomputable_from_summaries(tmp_path, gen_config_path, capsys):
    out = tmp_path / "results"
    main(["run", "--generator", str(gen_config_path), "--seeds", "0:3",
          "--trigger", "every", "--out", str(out), *FAST_FLAGS])
    summaries = []
    for path in sorted(out.glob("summary_seed*.json")):
        with open(path) as fh:
            summaries.append(json.load(fh))
    with open(out / "aggregate.json") as fh:
        aggregate = json.load(fh)["engine"]
    for key in ("accuracy", "abs_discrimination", "triggers", "wall_time_ms"):
        values = np.array([s[key] for s in summaries])
        assert aggregate[key]["mean"] == pytest.approx(values.mean(), abs=1e-12)
        assert aggregate[key]["std"] == pytest.approx(values.std(), abs=1e-12)
    assert aggregate["accuracy"]["best"] == aggregate["accuracy"]["max"]
    assert aggregate["abs_discrimination"]["best"] == aggregate["abs_discrimination"]["min"]


def test_identical_summaries_have_zero_std(tmp_path, gen_config_path):
    # the baseline ignores the engine seed entirely, so its aggregate std is 0
    out = tmp_path / "results"
    main(["run", "--generator", str(gen_config_path), "--seeds", "0:2",
          "--trend-threshold", "1.01", "--out", str(out), "--baseline", *FAST_FLAGS])
    with open(out / "aggregate.json") as fh:
        aggregate = json.load(fh)["baseline"]
    assert aggregate["accuracy"]["std"] == 0.0
    assert aggregate["abs_discrimination"]["std"] == 0.0


def test_ablate_grid_has_nine_rows(tmp_path, gen_config_path, capsys):
    out = tmp_path / "ablation.csv"
    code = main(
        ["ablate", "--generator", str(gen_config_path), "--seeds", "0",
         "--out", str(out), *FAST_FLAGS]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["selection", "trigger"]
    assert len(rows) == 10
    cells = {(r[0], r[1]) for r in rows[1:]}
    assert len(cells) == 9
    for selection in ("majority", "random", "knee"):
        for trigger in ("hp", "every", "previous"):
            assert (selection, trigger) in cells


def test_ablation_cell_matches_standalone_run(tmp_path, gen_config_path, capsys):
    out = tmp_path / "ablation.csv"
    main(["ablate", "--generator", str(gen_config_path), "--seeds", "1",
          "--out", str(out), *FAST_FLAGS])
    rows = json.loads(capsys.readouterr().out)
    cell = next(r for r in rows if r["selection"] == "majority" and r["trigger"] == "hp")

    spec = ExperimentSpec(generator_config_path=gen_config_path, seeds=(1,))
    chunks = load_chunks(spec)
    config = EngineConfig(
        trigger=TriggerPolicy.HP,
        selection=SelectionStrategy.MAJORITY,
        stm_cap=100,
        ltm_cap=100,
        min_stm_size=20,
        smpso=SmpsoParams(swarm_size=8, iterations=2),
    )
    result = run_stream(chunks, replace(config, seed=1))
    assert cell["mean_error"] == pytest.approx(1.0 - result.summary.accuracy, abs=1e-12)
    assert cell["mean_abs_discrimination"] == pytest.approx(
        result.summary.abs_discrimination, abs=1e-12
    )
    assert cell["mean_triggers"] == result.summary.triggers


def test_experiments_validate_every_config_before_any_window(gen_config_path, monkeypatch):
    # Python callers get the checks the CLI gets, before the stream is read:
    # duplicate seeds, and a history too short for the hp rule that a grid
    # cell runs. The baseline sizes its own history.
    monkeypatch.setattr(experiments, "load_chunks", lambda spec: pytest.fail("the stream was read"))
    short = EngineConfig(trigger="every", history_capacity=2)
    for spec, match in (
        (ExperimentSpec(generator_config_path=gen_config_path, seeds=(1, 1)), "unique"),
        (ExperimentSpec(engine=short, generator_config_path=gen_config_path, seeds=(0,)), "history_capacity"),
    ):
        with pytest.raises(ValueError, match=match):
            compare_ablations(spec)
    _baseline_config(short).validate()


def test_config_file_merging_and_flag_override(tmp_path, gen_config_path, capsys):
    config_path = tmp_path / "engine.json"
    base = EngineConfig(
        trigger=TriggerPolicy.EVERY,
        stm_cap=100,
        ltm_cap=100,
        min_stm_size=20,
        smpso=SmpsoParams(swarm_size=8, iterations=2),
    )
    with open(config_path, "w") as fh:
        json.dump(base.to_dict(), fh)

    out = tmp_path / "results"
    code = main(
        ["run", "--generator", str(gen_config_path), "--seeds", "0",
         "--config", str(config_path), "--trigger", "previous", "--out", str(out)]
    )
    assert code == 0
    with open(out / "windows_seed0000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    fired = [r[4] for r in rows[1:]]
    # the every policy from the file would fire on all windows past the
    # first; the flag downgraded it to the previous-value rule
    assert fired.count("1") < len(fired) - 1


def test_errors_exit_2_with_json(tmp_path, gen_config_path, capsys, monkeypatch):
    # every error below stops a command before any window runs
    monkeypatch.setattr(EmosamEngine, "step", lambda *a: pytest.fail("a window ran"))
    code = main(["inspect", "--manifest", str(tmp_path / "missing.json")])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert "error" in payload and payload["error"]["type"]

    # unknown keys in an engine config file, at the top or nested, and in a
    # generator config's base rates; engine config values of the wrong type,
    # and NaN or infinite ones (json writes and reads NaN and Infinity)
    bad_generator = json.loads(gen_config_path.read_text())
    bad_generator["base_rates"]["majority"] = 0.5
    for i, (flag, blob, key) in enumerate((
        ("--config", {"foo": 1}, "foo"),
        ("--config", {"smpso": {"swarm": 3}}, "swarm"),
        ("--generator", bad_generator, "majority"),
        ("--config", {"k": "5"}, "'k'"),
        ("--config", {"smpso": None}, "'smpso'"),
        ("--config", {"trend_threshold": math.nan}, "trend_threshold"),
        ("--config", {"hp_smoothing": math.nan}, "hp_smoothing"),
        ("--config", {"hp_smoothing": 1e16}, "hp_smoothing"),
        ("--config", {"smpso": {"inertia": math.nan}}, "inertia"),
        ("--config", {"smpso": {"c1": math.inf}}, "c1"),
        ("--config", {"history_capacity": 2}, "history_capacity"),
        ("--config", {"trigger": "previous", "history_capacity": 1}, "history_capacity"),
    )):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(blob))
        files = {"--generator": str(gen_config_path), flag: str(path)}
        argv = ["run", *(arg for item in files.items() for arg in item), "--seeds", "0", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["type"] == "ValueError" and key in payload["error"]["message"]

    # a negative seed, given after a valid one, stops run and ablate before
    # either writes anything
    for command in ("run", "ablate"):
        out = tmp_path / f"{command}_negative"
        target = out if command == "run" else out / "ablation.csv"
        argv = [command, "--generator", str(gen_config_path), "--seeds=0,-1", "--out", str(target), *FAST_FLAGS]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["type"] == "ValueError" and "non-negative" in payload["error"]["message"]
        assert not out.exists() or not any(out.iterdir())

    # a CSV cell beyond the csv module's field limit, in inspect and in run
    out_csv, out_manifest = tmp_path / "long.csv", tmp_path / "long.json"
    main(["gen", "--generator", str(gen_config_path), "--out", str(out_csv), "--manifest-out", str(out_manifest)])
    capsys.readouterr()
    with open(out_csv, "a", encoding="utf-8") as fh:
        fh.write("x" * (csv.field_size_limit() + 1) + ",0.5,0.5,0.5,0.5,0.5,0.5,0.5,protected,1\n")
    for argv in (["inspect"], ["run", "--seeds", "0", "--out", str(tmp_path / "long_out")]):
        assert main([*argv, "--manifest", str(out_manifest)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith("CSV line 1202: field larger than field limit")

    # a generator config value of the wrong type
    wrong_type = json.loads(gen_config_path.read_text())
    wrong_type["n_instances"] = "600"
    path = tmp_path / "wrong_type.json"
    path.write_text(json.dumps(wrong_type))
    assert main(["gen", "--generator", str(path), "--out", str(tmp_path / "stream.csv")]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["type"] == "ValueError" and "'n_instances'" in payload["error"]["message"]


def test_desk_preset_applies(tmp_path, gen_config_path, capsys):
    out = tmp_path / "results"
    code = main(
        ["run", "--generator", str(gen_config_path), "--seeds", "0",
         "--preset", "desk", "--trigger", "previous", "--out", str(out)]
    )
    assert code == 0
    with open(out / "windows_seed0000.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # desk preset shrinks the window to 250 -> ceil(1200/250) windows
    assert len(rows) == 1 + 5


def test_experiment_baseline_equals_reference_baseline(tmp_path, gen_config_path, capsys):
    # The experiment's baseline is a never-firing engine run; it must equal
    # the independent per-query loop, whatever trigger, selection and
    # initial weights the engine config asks for.
    out = tmp_path / "results"
    code = main(["run", "--generator", str(gen_config_path), "--seeds", "2", "--trigger", "every",
                 "--selection", "knee", "--init", "random", "--tie-label", "0", "--out", str(out),
                 "--baseline", *FAST_FLAGS])
    assert code == 0
    chunks = load_chunks(ExperimentSpec(generator_config_path=gen_config_path, seeds=(2,)))
    config = EngineConfig(trigger="every", selection="knee", init_mode="random", tie_label=0, stm_cap=100,
                          ltm_cap=100, min_stm_size=20, smpso=SmpsoParams(swarm_size=8, iterations=2))
    want = run_sam_baseline(chunks, stm_cap=100, ltm_cap=100, min_stm_size=20, seed=2, tie_label=0)
    got = run_stream(chunks, replace(_baseline_config(config), seed=2))
    assert got.summary.triggers == 0
    for a, b in zip(got.predictions, want.predictions, strict=True):
        np.testing.assert_array_equal(a, b)

    with open(out / "baseline_windows_seed0002.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    wall_col = 6
    assert [r[:wall_col] for r in rows] == [rec.to_csv_row()[:wall_col] for rec in want.records]
    summary = json.loads((out / "baseline_summary_seed0002.json").read_text())
    expected = {"seed": 2, **want.summary.to_dict()}
    assert {k: v for k, v in summary.items() if k != "wall_time_ms"} == {
        k: v for k, v in expected.items() if k != "wall_time_ms"
    }
