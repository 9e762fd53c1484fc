"""Suites: train/validate/test splits of generated instances, plus the
pipeline turning solved instances into labeled graph samples."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import BudgetExceeded, InvalidSize, ParseError, finite_json, named_input
from ..graphs.builders import state_graphs
from ..graphs.encoder import IndexEncoder
from ..heuristics.exact import optimal_plan
from ..heuristics.labels import label_dataset
from ..nn.train import LabeledGraphSample
from ..seeding import derive_seed
from ..task.ground import ground
from ..task.model import LiftedTask
from ..task.pddl import parse_pddl
from .domains import DOMAIN_TEXT, GENERATORS

log = logging.getLogger(__name__)

_DEFAULT_SPLITS = {
    # desk-scale mirrors: train sizes as published, test capped near 3x train max
    "gripper": {"train": list(range(1, 11)), "validate": [11], "test": [15, 20, 25, 30]},
    "blocksworld": {"train": list(range(3, 11)), "validate": [11], "test": [15, 20, 25, 30]},
    "visitall": {"train": list(range(3, 11)), "validate": [11], "test": [12, 15, 20]},
    "spanner": {"train": list(range(2, 11)), "validate": [11], "test": [15, 20, 25, 30]},
}


@dataclass(frozen=True)
class SuiteSpec:
    domain: str
    train: tuple[int, ...]
    validate: tuple[int, ...]
    test: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.domain, str) or self.domain not in GENERATORS:
            raise InvalidSize(f"unknown domain {self.domain!r}; "
                              f"choose from {sorted(GENERATORS)}")
        if not self.train or not self.test:
            raise InvalidSize("train and test splits must be nonempty")
        if max(self.train) >= min(self.test):
            raise InvalidSize("train sizes must be strictly below test sizes")


def default_suite(domain: str, seed: int = 0) -> SuiteSpec:
    splits = _DEFAULT_SPLITS[domain]
    return SuiteSpec(domain, tuple(splits["train"]), tuple(splits["validate"]),
                     tuple(splits["test"]), seed)


@dataclass
class Instance:
    name: str
    split: str
    size: int
    problem_text: str
    task: LiftedTask


@dataclass
class Suite:
    spec: SuiteSpec
    domain_text: str
    instances: list[Instance] = field(default_factory=list)

    def split(self, name: str) -> list[Instance]:
        return [inst for inst in self.instances if inst.split == name]


def generate(spec: SuiteSpec) -> Suite:
    """Generate all splits; emitted PDDL parses back into the task. Repeated
    sizes inside a split get distinct per-instance seeds."""
    domain_text = DOMAIN_TEXT[spec.domain]
    gen = GENERATORS[spec.domain]
    suite = Suite(spec, domain_text)
    for split in ("train", "validate", "test"):
        for i, size in enumerate(getattr(spec, split)):
            inst_seed = derive_seed(spec.seed, f"{spec.domain}/{split}/{i}")
            text = gen(size, seed=inst_seed)
            task = parse_pddl(domain_text, text)
            suite.instances.append(Instance(
                f"{spec.domain}-{split}-{i:02d}-s{size}", split, size, text, task))
    return suite


def suite_files(suite: Suite, root) -> dict[str, str]:
    """{path relative to the suite root: text} of domain.pddl,
    <split>/pNN.pddl and manifest.json, byte-deterministic; `load_suite`
    reads them back from `root`."""
    files = {"domain.pddl": suite.domain_text}
    manifest = {
        "domain": suite.spec.domain,
        "seed": suite.spec.seed,
        "splits": {"train": list(suite.spec.train),
                   "validate": list(suite.spec.validate),
                   "test": list(suite.spec.test)},
        "instances": [],
    }
    counters: dict[str, int] = {}
    for inst in suite.instances:
        idx = counters.get(inst.split, 0)
        counters[inst.split] = idx + 1
        rel = f"{inst.split}/p{idx:02d}.pddl"
        files[rel] = inst.problem_text
        manifest["instances"].append(
            {"name": inst.name, "split": inst.split, "size": inst.size, "path": rel})
    files["manifest.json"] = finite_json(manifest, Path(root) / "manifest.json", indent=1) + "\n"
    return files


def _require(value, keys, what):
    """`value` if it is an object holding every key, else a ParseError."""
    missing = [k for k in keys if not isinstance(value, dict) or k not in value]
    if missing:
        raise ParseError(f"{what} lacks {', '.join(repr(k) for k in missing)}")
    return value


def _read_manifest(text: str) -> tuple[SuiteSpec, list[dict]]:
    """The spec and instance entries of a manifest that `suite_files` made."""
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not JSON: {exc.msg}", line=exc.lineno) from None
    _require(manifest, ("domain", "seed", "splits", "instances"), "manifest")
    if type(manifest["seed"]) is not int:
        raise ParseError(f"seed {manifest['seed']!r} is not an integer")
    splits = _require(manifest["splits"], ("train", "validate", "test"), "splits")
    for name, sizes in splits.items():
        if not isinstance(sizes, list) or not all(type(size) is int for size in sizes):
            raise ParseError(f"split {name!r} is not a list of integers")
    if not isinstance(manifest["instances"], list):
        raise ParseError("instances is not a list")
    seen: dict[str, dict[str, int]] = {"name": {}, "path": {}}
    for i, entry in enumerate(manifest["instances"]):
        _require(entry, ("name", "split", "size", "path"), f"instance {i}")
        for key in ("name", "path"):
            if not isinstance(entry[key], str):
                raise ParseError(f"instance {i}: {key} {entry[key]!r} is not a string")
            if entry[key] in seen[key]:
                raise ParseError(f"instance {i}: {key} {entry[key]!r} repeats "
                                 f"instance {seen[key][entry[key]]}")
            seen[key][entry[key]] = i
        split, size = entry["split"], entry["size"]
        if split not in ("train", "validate", "test"):
            raise ParseError(f"instance {i}: split {split!r} is not train, validate or test")
        if type(size) is not int or size not in splits[split]:
            raise ParseError(f"instance {i}: size {size!r} is not a size of split {split!r}")
    spec = SuiteSpec(manifest["domain"], tuple(splits["train"]), tuple(splits["validate"]),
                     tuple(splits["test"]), manifest["seed"])
    return spec, manifest["instances"]


def load_suite(manifest_path) -> Suite:
    """The suite whose `suite_files` are in the manifest's directory. An
    error in the manifest or in a PDDL file starts with the path of the file
    at fault."""
    path = Path(manifest_path)
    spec, entries = named_input(path, _read_manifest, path.read_text())
    domain_path = path.parent / "domain.pddl"
    domain_text = domain_path.read_text()
    suite = Suite(spec, domain_text)
    for entry in entries:
        problem_path = path.parent / entry["path"]
        text = problem_path.read_text()
        task = parse_pddl(domain_text, text, names=(str(domain_path), str(problem_path)))
        suite.instances.append(Instance(entry["name"], entry["split"], entry["size"],
                                        text, task))
    return suite


def build_training_set(instances: list[Instance], graph_kind: str,
                       encoder_seed: int = 0, index_dim: int = 4,
                       state_cap: int = 200_000) -> list[LabeledGraphSample]:
    """Solve each instance optimally, label the visited states, and encode
    them as graphs of the requested kind with the builder `state_graphs`
    binds once per instance to its ground task. Instances
    whose optimal search exceeds the state budget are skipped with a
    warning."""
    encoder = IndexEncoder(index_dim, seed=encoder_seed)
    samples: list[LabeledGraphSample] = []
    for inst in instances:
        strips, gmap = ground(inst.task)
        graph_of = state_graphs(graph_kind, strips, inst.task, gmap, encoder)
        try:
            plan = optimal_plan(strips, state_cap=state_cap)
        except BudgetExceeded:
            log.warning("skipping %s: optimal solve exceeded %d states",
                        inst.name, state_cap)
            continue
        if plan is None:
            log.warning("skipping %s: unsolvable", inst.name)
            continue
        for state, target in label_dataset(strips, plan):
            samples.append(LabeledGraphSample(graph_of(state), float(target)))
    return samples
