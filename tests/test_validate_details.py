"""validate's deterministic checks give the detail strings the benchmark reference holds.

The benchmark (bench/) records validate.json for each workload: the
split_invariance detail once, and the sensitivity_fd detail for every
recorded seed.  These tests rebuild each workload's design from
bench/workloads.py's flags, as gcfkit's own parser reads them, and compare
the two checks with bench/reference.json, so a drift in either shows in the
unit tests and not only in a benchmark run.  They only read bench/.
"""

import importlib.util
import json
import os
import sys

import pytest

from gcfkit import cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
KEYS = [("paper-d16", False), ("paper-d16", True), ("split-d256", False), ("split-d256", True)]


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH_DIR, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def validate_spec(workload, toy):
    """The design of the workload's validate command, resolved as gcfkit main resolves its flags."""
    (command,) = [c for c in WORKLOADS.commands(workload, toy) if c.name == "validate"]
    overrides = vars(cli.build_parser(["validate"]).parse_args(command.argv(0, "unused")))
    del overrides["command"], overrides["config"]
    return cli.load_config(None, overrides).spec()


@pytest.mark.parametrize("workload,toy", KEYS, ids=[WORKLOADS.reference_key(w, t) for w, t in KEYS])
def test_detail_strings_match_the_reference(workload, toy):
    entry = REFERENCE["workloads"][WORKLOADS.reference_key(workload, toy)]
    spec = validate_spec(workload, toy)
    _, detail = cli._check_split_invariance(spec)
    assert detail == entry["static"]["validate"]["validate.json:checks.split_invariance.detail"]
    assert REFERENCE["seeds"] == list(range(21))
    for seed in REFERENCE["seeds"]:
        _, detail = cli._check_sensitivity_fd(spec, seed)
        assert detail == entry["seeded"][str(seed)]["validate"]["validate.json:checks.sensitivity_fd.detail"]
