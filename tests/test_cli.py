import json
from pathlib import Path

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


def test_graph_index_dim_below_one_is_usage_error(tmp_path, capsys):
    assert run(["graph", "--domain", DOMAIN, "--problem", PROBLEM, "--kind", "llg",
                "--index-dim", "0", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --index-dim must be at least 1") and err.count("\n") == 1
    assert not (tmp_path / "graph.json").exists()


def test_train_index_dim_below_one_is_usage_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    assert run(["gen", "--domain", "gripper", "--train", "1:2", "--test", "3",
                "--out-dir", str(suite)]) == 0
    capsys.readouterr()
    assert run(["train", "--suite", str(suite / "manifest.json"), "--kind", "llg",
                "--index-dim", "0", "--out-dir", str(tmp_path / "train")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --index-dim must be at least 1") and err.count("\n") == 1
    assert not (tmp_path / "train" / "model.json").exists()


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
    for out, jobs in zip(outs, ("1", "2")):
        assert run(["experiment", "--suite", str(suite / "manifest.json"),
                    "--split", "train", "--heuristics", spec, "--jobs", jobs,
                    "--out-dir", str(out)]) == 0

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
                "--jobs", "2", "--out-dir", str(out2)]) == 0
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
