import hashlib
import json
import shutil
from pathlib import Path

import pytest

from planlearn.cli import cli_main

FIXTURES = Path(__file__).parent / "fixtures"
DOMAIN = str(FIXTURES / "gripper-domain.pddl")
PROBLEM = str(FIXTURES / "gripper-b1.pddl")


def run(argv):
    return cli_main(argv)


def test_ground_fixture(tmp_path, capsys):
    code = run(["ground", "--domain", DOMAIN, "--problem", PROBLEM,
                "--out-dir", str(tmp_path)])
    assert code == 0
    dump = (tmp_path / "task.strips").read_text()
    assert dump.startswith("planlearn-strips 1\n")
    assert dump.count("\naction ") == 10
    assert (tmp_path / "run.json").exists()
    assert "10 actions" in capsys.readouterr().out


def test_graph_subcommand(tmp_path):
    code = run(["graph", "--domain", DOMAIN, "--problem", PROBLEM,
                "--kind", "slg", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "graph.json").read_text())
    assert payload["kind"] == "slg"
    assert len(payload["nodes"]) == 18
    assert (tmp_path / "graph.dot").read_text().startswith("graph")


def test_solve_blind_and_oracle(tmp_path, capsys):
    code = run(["solve", "--domain", DOMAIN, "--problem", PROBLEM,
                "--heuristic", "hff", "--out-dir", str(tmp_path)])
    assert code == 0
    plan = (tmp_path / "plan.txt").read_text()
    assert plan.strip().endswith("; cost = 3 (unit cost)")
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["status"] == "solved" and result["plan_cost"] == 3
    assert "wall_nanos" not in result  # timing lives in the sidecar
    assert "wall_nanos" in json.loads((tmp_path / "timings.json").read_text())


def test_solve_missing_model_file(tmp_path, capsys):
    code = run(["solve", "--domain", DOMAIN, "--problem", PROBLEM,
                "--heuristic", "model", "--model", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path)])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_usage_error_exit_code(tmp_path, capsys):
    assert run(["solve", "--heuristic", "hff", "--out-dir", str(tmp_path)]) == 2
    assert run(["nonsense"]) == 2
    # removed flags: evaluation batch size and experiment worker threads
    assert run(["solve", "--domain", DOMAIN, "--problem", PROBLEM, "--eval-batch", "1",
                "--out-dir", str(tmp_path / "solve")]) == 2
    assert run(["experiment", "--suite", "m.json", "--jobs", "1",
                "--out-dir", str(tmp_path / "exp")]) == 2
    assert not (tmp_path / "solve").exists() and not (tmp_path / "exp").exists()


@pytest.fixture(scope="module")
def gripper_suite(tmp_path_factory):
    """manifest.json of the gripper suite with train sizes 1-2 and test size 3."""
    suite = tmp_path_factory.mktemp("gripper-suite")
    assert run(["gen", "--domain", "gripper", "--train", "1:2", "--test", "3",
                "--out-dir", str(suite)]) == 0
    return suite / "manifest.json"


FIXTURE_INPUT = ["--domain", DOMAIN, "--problem", PROBLEM]
GEN = ["gen", "--domain", "gripper"]


@pytest.mark.parametrize("argv, message", [
    (["graph", *FIXTURE_INPUT, "--kind", "llg", "--index-dim", "0"],
     "--index-dim must be at least 1"),
    (["solve", *FIXTURE_INPUT, "--timeout", "0"], "--timeout must be above 0"),
    (["solve", *FIXTURE_INPUT, "--node-cap", "0"], "--node-cap must be at least 1"),
    (["theory", "--models", "0"], "--models must be at least 1"),
    (["theory", "--random-tasks", "-3"], "--random-tasks must be at least 0"),
    ([*GEN, "--train", "a:b", "--test", "3"], "--train must be a range"),
    ([*GEN, "--train", "1:2", "--validate", "a:b", "--test", "3"], "--validate must be a range"),
    ([*GEN, "--train", "1:2", "--test", "a:b"], "--test must be a range"),
], ids=["graph-index-dim", "solve-timeout", "solve-node-cap", "theory-models",
        "theory-random-tasks", "gen-train", "gen-validate", "gen-test"])
def test_usage_error_writes_nothing(tmp_path, capsys, argv, message):
    assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--kind", "llg", "--index-dim", "0"], "--index-dim must be at least 1"),
    (["train", "--kind", "slg", "--max-epochs", "0"], "--max-epochs must be at least 1"),
    (["train", "--kind", "slg", "--hidden", "0"], "--hidden must be at least 1"),
    (["train", "--kind", "slg", "--layers", "0"], "--layers must be at least 1"),
    (["experiment", "--node-cap", "0"], "--node-cap must be at least 1"),
    (["experiment", "--heuristics", "blind,bogus"], "unknown --heuristics spec 'bogus'"),
], ids=["train-index-dim", "train-max-epochs", "train-hidden", "train-layers",
        "experiment-node-cap", "experiment-heuristics"])
def test_suite_usage_error_writes_nothing(tmp_path, capsys, gripper_suite, argv, message):
    capsys.readouterr()
    assert run([*argv, "--suite", str(gripper_suite), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_oracle_json(capsys):
    assert run(["oracle", "--domain", DOMAIN, "--problem", PROBLEM,
                "--heuristic", "hmax"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["heuristic"] == "hmax"
    assert payload["value"] == 2
    assert payload["iterations"] >= 2
    assert "nanoseconds" in payload


# oracle.json on the gripper fixture as written before cmd_oracle looked its
# heuristic up in the search oracle table.
ORACLE_JSON = {
    "hmax": '{\n "heuristic": "hmax",\n "value": 2,\n "iterations": 3\n}\n',
    "hadd": '{\n "heuristic": "hadd",\n "value": 3,\n "iterations": 3\n}\n',
    "hff": '{\n "heuristic": "hff",\n "value": 3,\n "iterations": 3\n}\n',
    "hplus": '{\n "heuristic": "hplus",\n "value": 3,\n "iterations": 0\n}\n',
    "hstar": '{\n "heuristic": "hstar",\n "value": 3,\n "iterations": 0\n}\n',
}


def test_oracle_json_bytes_unchanged(tmp_path, capsys):
    for heuristic, expected in ORACLE_JSON.items():
        out = tmp_path / heuristic
        assert run(["oracle", "--domain", DOMAIN, "--problem", PROBLEM,
                    "--heuristic", heuristic, "--out-dir", str(out)]) == 0
        assert (out / "oracle.json").read_bytes() == expected.encode()


def test_oracle_sas_input(capsys):
    assert run(["oracle", "--sas", str(FIXTURES / "gripper-b1.sas"),
                "--heuristic", "hstar"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3


def test_gen_solve_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["gen", "--domain", "gripper", "--train", "1:2",
                    "--validate", "3", "--test", "4", "--seed", "5",
                    "--out-dir", str(out)]) == 0
    for rel in ("manifest.json", "domain.pddl", "train/p00.pddl"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    for out in (a, b):
        assert run(["solve", "--domain", str(a / "domain.pddl"),
                    "--problem", str(a / "train" / "p01.pddl"),
                    "--heuristic", "hadd", "--out-dir", str(out / "solve")]) == 0
    assert (a / "solve/plan.txt").read_bytes() == (b / "solve/plan.txt").read_bytes()
    assert (a / "solve/result.json").read_bytes() == (b / "solve/result.json").read_bytes()


def test_experiment_model_heuristics(tmp_path):
    """experiment --heuristics model:PATH gives every instance the heuristic
    of its own ground and lifted task: rows equal a direct search."""
    from planlearn.bench import load_suite
    from planlearn.graphs import llg_kind, slg_kind
    from planlearn.nn import init_model, load_model, save_model
    from planlearn.search import ModelHeuristic, gbfs
    from planlearn.task import ground

    suite = tmp_path / "suite"
    assert run(["gen", "--domain", "gripper", "--train", "1:2", "--validate", "3",
                "--test", "4", "--out-dir", str(suite)]) == 0
    models = {"slg": tmp_path / "slg.json", "llg": tmp_path / "llg.json"}
    save_model(init_model(slg_kind(), layer_count=2, hidden_dim=8, seed=3), models["slg"])
    save_model(init_model(llg_kind(4), layer_count=2, hidden_dim=8, seed=3), models["llg"])
    spec = ",".join(f"model:{path}" for path in models.values())
    outs = [tmp_path / "exp1", tmp_path / "exp2"]
    for out in outs:
        assert run(["experiment", "--suite", str(suite / "manifest.json"),
                    "--split", "train", "--heuristics", spec, "--out-dir", str(out)]) == 0

    expected = []
    for inst in load_suite(suite / "manifest.json").split("train"):
        strips, gmap = ground(inst.task)
        for kind, path in models.items():
            r = gbfs(strips, ModelHeuristic(load_model(path), strips,
                                            lifted=inst.task, gmap=gmap))
            assert r.status == "solved"
            expected.append(f"{inst.name},model-{kind},solved,{r.plan_cost},"
                            f"{r.expansions},{r.evaluations},{r.generated}")
    assert (outs[0] / "results.csv").read_text().splitlines()[1:] == expected
    assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()


def test_theory_subcommand(tmp_path, capsys):
    code = run(["theory", "--models", "5", "--random-tasks", "20",
                "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 4
    assert "FAIL" not in out
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    names = {v["check"] for v in verdicts}
    assert {"program-dp-equivalence", "lifted-twins", "grounded-twins",
            "scaling-twins", "relaxation-gap"} <= names
    assert all(v["pass"] for v in verdicts)
    assert all({"check", "pair_id", "graph_kind", "wl_equal", "h_values",
                "model_gap", "pass"} <= set(v) for v in verdicts)


def test_no_writes_outside_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    out = tmp_path / "out"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert run(["ground", "--domain", DOMAIN, "--problem", PROBLEM,
                "--out-dir", str(out)]) == 0
    assert list(workdir.iterdir()) == []


def test_experiment_subcommand(tmp_path):
    suite = tmp_path / "suite"
    assert run(["gen", "--domain", "gripper", "--train", "1:2", "--validate", "3",
                "--test", "4", "--out-dir", str(suite)]) == 0
    out = tmp_path / "exp"
    assert run(["experiment", "--suite", str(suite / "manifest.json"),
                "--split", "train", "--heuristics", "blind,hff",
                "--out-dir", str(out)]) == 0
    csv = (out / "results.csv").read_text()
    assert csv.splitlines()[0] == "task,heuristic,status,plan_cost,expansions,evaluations,generated"
    assert csv.count("solved") == 4
    cov = (out / "coverage.csv").read_text()
    assert "blind,2,2" in cov and "hff,2,2" in cov
    # identical rerun produces byte-identical primary outputs
    out2 = tmp_path / "exp2"
    assert run(["experiment", "--suite", str(suite / "manifest.json"),
                "--split", "train", "--heuristics", "blind,hff",
                "--out-dir", str(out2)]) == 0
    assert (out / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_visitall_outputs_do_not_depend_on_hash_seed(tmp_path):
    """Primary outputs are the same in processes with different string hash
    seeds (PEP 456); visitall actions mention several atoms that the initial
    state lacks, so grounding must not intern them in set order. Graphs of
    every encoding and short trainings cover node order and model bytes."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for hash_seed in ("1", "2"):
        root = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        problem = str(root / "suite" / "test" / "p00.pddl")
        domain = str(root / "suite" / "domain.pddl")
        runs = [["gen", "--domain", "visitall", "--train", "2:3", "--test", "4",
                 "--out-dir", str(root / "suite")],
                ["ground", "--domain", domain, "--problem", problem,
                 "--out-dir", str(root / "ground")],
                ["solve", "--domain", domain, "--problem", problem,
                 "--heuristic", "hff", "--out-dir", str(root / "solve")]]
        rels = ["suite/manifest.json", "suite/test/p00.pddl", "ground/task.strips",
                "solve/plan.txt", "solve/result.json"]
        for kind in ("slg", "flg", "llg"):
            runs.append(["graph", "--domain", domain, "--problem", problem, "--kind", kind,
                         "--out-dir", str(root / f"graph-{kind}")])
            rels += [f"graph-{kind}/graph.json", f"graph-{kind}/graph.dot"]
        for kind in ("slg", "llg"):
            runs.append(["train", "--suite", str(root / "suite" / "manifest.json"),
                         "--kind", kind, "--max-epochs", "2",
                         "--out-dir", str(root / f"train-{kind}")])
            rels += [f"train-{kind}/model.json", f"train-{kind}/trace.csv"]
        for argv in runs:
            done = subprocess.run([sys.executable, "-m", "planlearn.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs.append({rel: (root / rel).read_bytes() for rel in rels})
    first, second = outputs
    for rel in first:
        assert first[rel] == second[rel], f"{rel} depends on the hash seed"


# results.csv of blind and every oracle on the test split of the 1:2/3 gripper
# suite, as written before solve and experiment shared one heuristic helper.
ORACLE_RESULTS_CSV = """\
task,heuristic,status,plan_cost,expansions,evaluations,generated
gripper-test-00-s3,blind,solved,9,86,87,272
gripper-test-00-s3,hmax,solved,9,29,46,92
gripper-test-00-s3,hadd,solved,11,11,32,41
gripper-test-00-s3,hff,solved,9,14,34,54
gripper-test-00-s3,hplus,solved,9,10,26,37
gripper-test-00-s3,hstar,solved,9,9,26,34
"""


def test_experiment_oracle_results_unchanged(tmp_path, gripper_suite):
    out = tmp_path / "exp"
    assert run(["experiment", "--suite", str(gripper_suite),
                "--heuristics", "blind,hmax,hadd,hff,hplus,hstar", "--out-dir", str(out)]) == 0
    assert (out / "results.csv").read_text() == ORACLE_RESULTS_CSV


# Training seeds whose 2-epoch models steer search away from blind order on
# the inputs below: the slg seed on the gripper suite's test instance, the
# flg and llg seed there and, for flg, on the finite-domain fixture too.
MODEL_SEEDS = {"slg": "2", "flg": "4", "llg": "4"}

# result.json of `solve --heuristic model` with those models, trained on the
# 1:2/3 gripper suite, with one forward per evaluated state. Recorded on a
# 2-core machine with the default BLAS thread count: training, and so the
# llg result, still depends on that count (one thread gives the llg plan
# [2, 7, ...] with peak_open_size 31).
MODEL_RESULTS = {
    "slg": {"status": "solved", "plan": [2, 7, 0, 16, 1, 10, 0, 21, 24], "expansions": 73,
            "evaluations": 87, "generated": 223, "plan_cost": 9, "peak_open_size": 31},
    "flg": {"status": "solved", "plan": [11, 0, 25, 1, 6, 0, 20, 1, 2, 0, 16], "expansions": 52,
            "evaluations": 78, "generated": 170, "plan_cost": 11, "peak_open_size": 31},
    "llg": {"status": "solved", "plan": [7, 2, 0, 21, 1, 11, 0, 16, 25], "expansions": 57,
            "evaluations": 77, "generated": 181, "plan_cost": 9, "peak_open_size": 29},
    "flg-sas": {"status": "solved", "plan": [2, 0, 8], "expansions": 5, "evaluations": 7,
                "generated": 10, "plan_cost": 3, "peak_open_size": 3},
}


def test_solve_with_trained_models(tmp_path, capsys, gripper_suite):
    """The model branch of solve: each encoding on PDDL input, flg on SAS
    input (which it must read as the SAS task, not its binary view), and llg
    on SAS input refused."""
    root = gripper_suite.parent
    pddl = ["--domain", str(root / "domain.pddl"), "--problem", str(root / "test" / "p00.pddl")]
    sas = ["--sas", str(FIXTURES / "gripper-b1.sas")]
    for kind, seed in MODEL_SEEDS.items():
        assert run(["train", "--suite", str(gripper_suite), "--kind", kind, "--max-epochs", "2",
                    "--seed", seed, "--out-dir", str(tmp_path / kind)]) == 0
    for name, kind, task in (("slg", "slg", pddl), ("flg", "flg", pddl), ("llg", "llg", pddl),
                             ("flg-sas", "flg", sas)):
        out = tmp_path / f"solve-{name}"
        assert run(["solve", *task, "--heuristic", "model",
                    "--model", str(tmp_path / kind / "model.json"), "--out-dir", str(out)]) == 0
        expected = json.dumps(MODEL_RESULTS[name], indent=1) + "\n"
        assert (out / "result.json").read_text() == expected, name
    capsys.readouterr()
    assert run(["solve", *sas, "--heuristic", "model",
                "--model", str(tmp_path / "llg" / "model.json"),
                "--out-dir", str(tmp_path / "solve-llg-sas")]) == 2
    assert capsys.readouterr().err.startswith("usage error: lifted-encoding models need")


def _rewrite_model(path, change):
    """Apply change to the stored payload and store a matching checksum."""
    payload = json.loads(path.read_text())
    del payload["checksum"]
    change(payload)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    payload["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps(payload))


def _set_nan(payload):
    payload["params"]["head.w1"][3][5] = float("nan")


@pytest.mark.parametrize("change, message", [
    (lambda payload: payload["params"].pop("layer1.bias"),
     "parameters do not fit a slg model with 2 layers, hidden_dim 8 and feature dim 3: "
     "missing ['layer1.bias'], unexpected []"),
    (lambda payload: payload["params"].update({"layer2.bias": [0.0] * 8}),
     "missing [], unexpected ['layer2.bias']"),
    (lambda payload: payload["params"].update({"head.b1": [0.0] * 7}),
     "parameter head.b1 has shape (7,), expected (8,)"),
    (_set_nan, "parameter head.w1 holds a non-finite value"),
    (lambda payload: payload["label_order"].reverse(),
     "label order does not match the graph kind"),
    (lambda payload: payload.update(kind="xyz"), "unknown graph kind 'xyz'"),
    (lambda payload: payload.update(aggregator="median"),
     "aggregator 'median' is not one of ('mean', 'max', 'sum')"),
], ids=["missing", "extra", "shape", "nan", "label-order", "kind", "aggregator"])
def test_solve_rejects_invalid_model_file(tmp_path, capsys, change, message):
    """A model file whose checksum matches but whose header or parameters
    do not describe a model ends in one error line naming the file, exit 1,
    before any output is written."""
    from planlearn.graphs import slg_kind
    from planlearn.nn import init_model, save_model

    path = tmp_path / "model.json"
    save_model(init_model(slg_kind(), layer_count=2, hidden_dim=8, seed=3), path)
    _rewrite_model(path, change)
    code = run(["solve", "--domain", DOMAIN, "--problem", PROBLEM, "--heuristic", "model",
                "--model", str(path), "--out-dir", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert lines[-1].startswith(f"error: {path}: ") and message in lines[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--domain", "--problem", "--sas"])
def test_parse_error_names_the_file(tmp_path, capsys, flag):
    """A truncated input file gives one error line that names it."""
    source = {"--domain": DOMAIN, "--problem": PROBLEM,
              "--sas": str(FIXTURES / "gripper-b1.sas")}[flag]
    bad = tmp_path / ("bad.sas" if flag == "--sas" else "bad.pddl")
    bad.write_text(Path(source).read_text().rstrip()[:-1])
    inputs = {"--domain": ["--domain", str(bad), "--problem", PROBLEM],
              "--problem": ["--domain", DOMAIN, "--problem", str(bad)],
              "--sas": ["--sas", str(bad)]}[flag]
    code = run(["ground", *inputs, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: "), err


def test_non_finite_output_is_refused(tmp_path, capsys, monkeypatch):
    """A NaN headed for oracle.json raises one error line naming the file
    instead of writing the non-JSON token NaN."""
    from planlearn.heuristics import HeuristicValue
    from planlearn.search.heuristics import ORACLES

    monkeypatch.setitem(ORACLES, "hmax", lambda task, state: HeuristicValue(float("nan")))
    out = tmp_path / "out"
    code = run(["oracle", "--domain", DOMAIN, "--problem", PROBLEM, "--heuristic", "hmax",
                "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == (f"error: {out / 'oracle.json'} not written: it would hold NaN or an "
                   "infinity, which JSON cannot encode\n")
    assert not (out / "oracle.json").exists()


@pytest.mark.parametrize("out_dir", [True, False], ids=["out-dir", "stdout-only"])
def test_non_finite_oracle_value_writes_nothing(tmp_path, capsys, monkeypatch, out_dir):
    """A NaN oracle value gives one error line, no NaN on stdout and no
    file in --out-dir, run.json included."""
    from planlearn.heuristics import HeuristicValue
    from planlearn.search.heuristics import ORACLES

    monkeypatch.setitem(ORACLES, "hmax", lambda task, state: HeuristicValue(float("nan")))
    out = tmp_path / "out"
    code = run(["oracle", "--domain", DOMAIN, "--problem", PROBLEM, "--heuristic", "hmax",
                *(["--out-dir", str(out)] if out_dir else [])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), captured.err
    assert not (out / "run.json").exists() and not out.exists()


@pytest.mark.parametrize("subcommand", [["train", "--kind", "slg"], ["experiment"]],
                         ids=["train", "experiment"])
@pytest.mark.parametrize("damage", ["truncated-instance", "no-splits", "text-split"])
def test_broken_suite_is_one_error_line(tmp_path, capsys, gripper_suite, subcommand, damage):
    """A suite with a truncated instance, or a manifest without a required key
    or with a split that is not a list of sizes, gives one error line naming
    the file at fault, exit 1 and no output."""
    suite = tmp_path / "suite"
    shutil.copytree(gripper_suite.parent, suite)
    manifest = suite / "manifest.json"
    if damage == "truncated-instance":
        bad = suite / "train" / "p00.pddl"
        bad.write_text(bad.read_text().rstrip()[:-1])
        expected = f"error: {bad}: unbalanced parenthesis"
    elif damage == "no-splits":
        payload = json.loads(manifest.read_text())
        del payload["splits"]
        manifest.write_text(json.dumps(payload))
        expected = f"error: {manifest}: manifest lacks 'splits'"
    else:
        payload = json.loads(manifest.read_text())
        payload["splits"]["train"] = "1:2"
        manifest.write_text(json.dumps(payload))
        expected = f"error: {manifest}: split 'train' is not a list of integers"
    capsys.readouterr()
    code = run([*subcommand, "--suite", str(manifest), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith(expected), err
    assert not (tmp_path / "out").exists()
