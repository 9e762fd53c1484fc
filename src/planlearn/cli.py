"""Command-line entry point. See docs/cli.md for the full flag reference.

Every subcommand that writes files takes --out-dir, writes only inside it,
and records the fully resolved configuration in run.json there, so any run
can be reproduced byte-for-byte from that file plus the inputs. A run
serialises all its outputs before it writes any, so a refused run creates no
out-dir and changes no file in an existing one; each file is replaced whole,
never left truncated, and run.json is written last. All randomness flows
from --seed through tagged substreams. Wall-clock numbers go to separate
timings files; primary outputs are deterministic.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bench import SuiteSpec, build_training_set, default_suite, generate, load_suite, suite_files
from .bench.domains import GENERATORS
from .errors import PlanlearnError, finite_json, named_input
from .expressiveness import run_theory_checks
from .graphs import IndexEncoder, graph_to_dot, graph_to_json, state_graphs
from .nn import TrainConfig, load_model, model_to_json, train
from .nn.model import AGGREGATORS, READOUTS
from .search import (
    ConstantHeuristic,
    ModelHeuristic,
    OracleHeuristic,
    SearchConfig,
    format_plan,
    gbfs,
    run_experiment,
)
from .search.heuristics import ORACLES
from .task import dump_strips, ground, parse_pddl, parse_sas, strips_view


class UsageError(Exception):
    pass


def _parse_sizes(flag: str, text: str) -> tuple[int, ...]:
    """Accepts '1:10' (inclusive range) or '15,20,25'."""
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise UsageError(f"--{flag} must be a range a:b or a comma list of integers, "
                         f"got {text!r}") from None


def _check_bounds(args):
    """Counts below their bound and a timeout not above 0 are usage errors,
    raised before a subcommand reads any input or writes any file."""
    for dest, bound in (("index_dim", 1), ("max_epochs", 1), ("hidden", 1), ("layers", 1),
                        ("node_cap", 1), ("models", 1), ("random_tasks", 0)):
        value = getattr(args, dest, bound)
        if value < bound:
            raise UsageError(f"--{dest.replace('_', '-')} must be at least {bound}, got {value}")
    if not getattr(args, "timeout", 1) > 0:
        raise UsageError(f"--timeout must be above 0, got {args.timeout}")


def _read(path: str) -> str:
    return Path(path).read_text()


def _load_tasks(args):
    """(strips_task, grounding_map, lifted_task_or_None, fdr_or_None)."""
    if getattr(args, "sas", None):
        fdr = named_input(args.sas, parse_sas, _read(args.sas))
        return strips_view(fdr), None, None, fdr
    if not args.domain or not args.problem:
        raise UsageError("need --domain and --problem (or --sas)")
    lifted = parse_pddl(_read(args.domain), _read(args.problem),
                        names=(args.domain, args.problem))
    strips, gmap = ground(lifted)
    return strips, gmap, lifted, None


def _emit(args, outputs: dict[str, str]) -> Path:
    """Write each {path relative to --out-dir: serialised text} of outputs,
    then run.json, and return the out-dir. Callers serialise every output
    before the call, so a refused one writes nothing. Each file goes to a
    temporary name beside it and is moved into place whole."""
    out = Path(args.out_dir)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    run = json.dumps({"tool": "planlearn", "version": __version__, "config": resolved},
                     indent=1, default=str)
    for rel, text in {**outputs, "run.json": run + "\n"}.items():
        path = out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
    return out


# ── subcommands ───────────────────────────────────────────────────────────

def cmd_ground(args) -> int:
    strips, _, _, _ = _load_tasks(args)
    out = _emit(args, {"task.strips": dump_strips(strips)})
    print(f"{len(strips.propositions)} propositions, {len(strips.actions)} actions, "
          f"{len(strips.goal)} goal facts -> {out / 'task.strips'}")
    return 0


def cmd_graph(args) -> int:
    strips, gmap, lifted, fdr = _load_tasks(args)
    if args.kind == "llg" and lifted is None:
        raise UsageError("the lifted encoding needs --domain/--problem input")
    encoder = IndexEncoder(args.index_dim, seed=args.seed) if args.kind == "llg" else None
    graph = state_graphs(args.kind, strips, lifted, gmap, encoder, fdr)(strips.init)
    out = _emit(args, {
        "graph.json": graph_to_json(graph, Path(args.out_dir) / "graph.json") + "\n",
        "graph.dot": graph_to_dot(graph),
    })
    print(f"{args.kind}: {graph.num_nodes} nodes, {graph.num_edges} edges "
          f"{graph.label_counts()} -> {out / 'graph.json'}")
    return 0


def cmd_gen(args) -> int:
    if args.train or args.validate or args.test:
        if not (args.train and args.test):
            raise UsageError("--train and --test must be given together")
        spec = SuiteSpec(args.domain, _parse_sizes("train", args.train),
                         _parse_sizes("validate", args.validate) if args.validate else (),
                         _parse_sizes("test", args.test), args.seed)
    else:
        spec = default_suite(args.domain, args.seed)
    suite = generate(spec)
    out = _emit(args, suite_files(suite, Path(args.out_dir)))
    print(f"{len(suite.instances)} instances -> {out / 'manifest.json'}")
    return 0


def cmd_train(args) -> int:
    suite = load_suite(args.suite)
    samples = build_training_set(suite.split("train"), args.kind,
                                 encoder_seed=args.seed, index_dim=args.index_dim)
    config = TrainConfig(seed=args.seed, layer_count=args.layers,
                         hidden_dim=args.hidden, aggregator=args.aggregator,
                         readout=args.readout, max_epochs=args.max_epochs)
    model, trace = train(samples, config)
    out = _emit(args, {
        "model.json": model_to_json(model),
        "trace.csv": trace.to_csv(),
        "timings.csv": trace.timings_csv(),
    })
    last = trace.rows[-1]
    print(f"{len(samples)} samples, {len(trace.rows)} epochs ({trace.stop_reason}), "
          f"final train MSE {last.train_loss:.4f}, holdout MSE {last.holdout_loss:.4f}")
    print(f"model -> {out / 'model.json'}")
    return 0


def _heuristic(name: str, model, strips, gmap, lifted, fdr=None):
    """The heuristic on `strips` for "blind", an ORACLES name or "model" with
    its loaded model. Finite-domain models read `fdr`, the task `strips` is
    the view of, when there is one (see `state_graphs`)."""
    if name == "blind":
        return ConstantHeuristic(0.0)
    if name in ORACLES:
        return OracleHeuristic(strips, name)
    if model.kind.name == "llg" and lifted is None:
        raise UsageError("lifted-encoding models need --domain/--problem input")
    return ModelHeuristic(model, strips, lifted=lifted, gmap=gmap, fdr=fdr)


def cmd_solve(args) -> int:
    strips, gmap, lifted, fdr = _load_tasks(args)
    config = SearchConfig(timeout_s=args.timeout, node_cap=args.node_cap)
    if args.heuristic == "model" and not args.model:
        raise UsageError("--heuristic model needs --model FILE")
    model = load_model(args.model) if args.heuristic == "model" else None
    result = gbfs(strips, _heuristic(args.heuristic, model, strips, gmap, lifted, fdr), config)
    out = Path(args.out_dir)
    outputs = {
        "result.json": finite_json(result.to_json_dict(), out / "result.json", indent=1) + "\n",
        "timings.json": json.dumps({"wall_nanos": result.wall_nanos}) + "\n",
    }
    if result.status == "solved":
        outputs["plan.txt"] = format_plan(strips, result)
        summary = (f"solved: cost {result.plan_cost}, {result.expansions} expansions, "
                   f"{result.evaluations} evaluations -> {out / 'plan.txt'}")
    else:
        summary = (f"{result.status}: {result.expansions} expansions, "
                   f"{result.evaluations} evaluations")
    _emit(args, outputs)
    print(summary)
    return 0 if result.status in ("solved", "exhausted") else 1


def cmd_oracle(args) -> int:
    strips, _, _, _ = _load_tasks(args)
    start = time.perf_counter_ns()
    value = ORACLES[args.heuristic](strips, strips.init)
    nanos = time.perf_counter_ns() - start
    payload = {
        "heuristic": args.heuristic,
        "value": value.json_value,
        "iterations": value.iterations,
        "nanoseconds": nanos,
    }
    # oracle.json is the line without its integer timing, so the line is
    # refused only when oracle.json is, before anything is written.
    if args.out_dir:
        stable = {k: v for k, v in payload.items() if k != "nanoseconds"}
        _emit(args, {"oracle.json": finite_json(stable, Path(args.out_dir) / "oracle.json",
                                                indent=1) + "\n"})
    print(finite_json(payload, "oracle output line"))
    return 0


def cmd_theory(args) -> int:
    verdicts = run_theory_checks(seed=args.seed, models=args.models,
                                 random_tasks=args.random_tasks)
    _emit(args, {"verdicts.json": finite_json([v.to_json_dict() for v in verdicts],
                                              Path(args.out_dir) / "verdicts.json",
                                              indent=1) + "\n"})
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status} {v.check} [{v.graph_kind}] wl_equal={v.wl_equal} "
              f"gap={v.model_gap} h={v.h_values}")
    failed = [v for v in verdicts if not v.passed]
    print(f"{len(verdicts) - len(failed)}/{len(verdicts)} checks passed")
    return 1 if failed else 0


def _experiment_heuristics(text: str) -> list[tuple[str, str, object]]:
    """(row label, heuristic name, model or None) per --heuristics spec."""
    heuristics = []
    for spec in (spec.strip() for spec in text.split(",")):
        name, _, path = spec.partition(":")
        if spec in ("blind", *ORACLES):
            heuristics.append((spec, spec, None))
            continue
        if name != "model" or not path:
            raise UsageError(f"unknown --heuristics spec {spec!r}; use blind, "
                             f"{', '.join(ORACLES)} or model:PATH")
        model = load_model(path)
        heuristics.append((f"model-{model.kind.name}", "model", model))
    return heuristics


def cmd_experiment(args) -> int:
    heuristics = _experiment_heuristics(args.heuristics)
    suite = load_suite(args.suite)
    instances = suite.split(args.split)
    if not instances:
        raise UsageError(f"split {args.split!r} is empty")
    tasks = []
    grounding = {}      # id of each ground task -> (grounding map, lifted task)
    for inst in instances:
        strips, gmap = ground(inst.task)
        grounding[id(strips)] = (gmap, inst.task)
        tasks.append((inst.name, strips))

    factories = [(label, lambda task, name=name, model=model:
                  _heuristic(name, model, task, *grounding[id(task)]))
                 for label, name, model in heuristics]
    config = SearchConfig(timeout_s=args.timeout, node_cap=args.node_cap)
    table = run_experiment(tasks, factories, config)
    out = _emit(args, {
        "results.csv": table.to_csv(),
        "coverage.csv": table.coverage_csv(),
        "timings.csv": table.timings_csv(),
    })
    for name, (solved, total) in sorted(table.coverage().items()):
        print(f"{name}: {solved}/{total} solved")
    print(f"results -> {out / 'results.csv'}")
    return 0



# ── wiring ────────────────────────────────────────────────────────────────

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planlearn",
        description="Graph encodings of planning tasks, learned heuristics, "
                    "search, and expressiveness checks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("ground", cmd_ground, "parse and ground a task, dump interchange format")
    p.add_argument("--domain"), p.add_argument("--problem"), p.add_argument("--sas")
    p.add_argument("--out-dir", required=True)

    p = add("graph", cmd_graph, "build a learning graph for the initial state")
    p.add_argument("--domain"), p.add_argument("--problem"), p.add_argument("--sas")
    p.add_argument("--kind", choices=("slg", "flg", "llg"), required=True)
    p.add_argument("--index-dim", type=int, default=4)
    p.add_argument("--out-dir", required=True)

    p = add("gen", cmd_gen, "generate a benchmark suite")
    p.add_argument("--domain", required=True, choices=tuple(GENERATORS))
    p.add_argument("--train"), p.add_argument("--validate"), p.add_argument("--test")
    p.add_argument("--out-dir", required=True)

    p = add("train", cmd_train, "train a model on a suite's train split")
    p.add_argument("--suite", required=True, help="path to manifest.json")
    p.add_argument("--kind", choices=("slg", "flg", "llg"), required=True)
    p.add_argument("--index-dim", type=int, default=4)
    p.add_argument("--layers", type=int, default=8)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--aggregator", choices=AGGREGATORS, default="mean")
    p.add_argument("--readout", choices=READOUTS, default="sum")
    p.add_argument("--max-epochs", type=int, default=10_000)
    p.add_argument("--out-dir", required=True)

    p = add("solve", cmd_solve, "search for a plan")
    p.add_argument("--domain"), p.add_argument("--problem"), p.add_argument("--sas")
    p.add_argument("--heuristic", default="blind", choices=("blind", *ORACLES, "model"))
    p.add_argument("--model")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--node-cap", type=int, default=10**6)
    p.add_argument("--out-dir", required=True)

    p = add("oracle", cmd_oracle, "print exact heuristic values as JSON")
    p.add_argument("--domain"), p.add_argument("--problem"), p.add_argument("--sas")
    p.add_argument("--heuristic", required=True, choices=tuple(ORACLES))
    p.add_argument("--out-dir", help="also record run.json and oracle.json here")

    p = add("theory", cmd_theory, "run all expressiveness checks")
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--random-tasks", type=int, default=200)
    p.add_argument("--out-dir", required=True)

    p = add("experiment", cmd_experiment, "coverage sweep over a suite split")
    p.add_argument("--suite", required=True)
    p.add_argument("--split", default="test", choices=("train", "validate", "test"))
    p.add_argument("--heuristics", default="blind,hff",
                   help=f"comma list: blind, {', '.join(ORACLES)}, model:PATH")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--node-cap", type=int, default=10**6)
    p.add_argument("--out-dir", required=True)

    return parser


def cli_main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s: %(message)s", level=logging.WARNING)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_bounds(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc} (see docs/cli.md or --help)", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:
        named = exc.filename2 or exc.filename
        print(f"error: {named}: {exc.strerror}" if named else f"error: {exc}", file=sys.stderr)
        return 1
    except PlanlearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
