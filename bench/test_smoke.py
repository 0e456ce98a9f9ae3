"""Smoke test of the benchmark at toy sizes.  It has no timing gate.

Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import artifacts  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _reference(workload: str) -> dict:
    return artifacts.load_reference(workloads.reference_key(workload, toy=True))


def _bench(workload: str, trace_flag: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace_flag), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def _run_cli(cmd, seed: int, outdir: str) -> int:
    os.makedirs(outdir)
    _, code, _ = run.timed_process([sys.executable, "-c", run.CLI] + cmd.argv(seed, outdir),
                                   os.path.join(outdir, "cli.log"))
    return code


def test_benchmark_json_matches_the_harness():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_trace.metric_units()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace_flag", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_run_prints_every_metric(workload, trace_flag):
    proc = _bench(workload, trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace_flag else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values.values())
    if not trace_flag:
        assert all(v > 0 for v in values.values())
        return
    sdsim = [v for k, v in values.items() if k.startswith("sdsim.") and k.endswith(".self_s")]
    if workload == "paper-d16":
        assert all(v > 0 for v in sdsim)
    else:
        assert all(v == 0 for v in sdsim)


def test_corrupted_report_is_a_failure(tmp_path):
    cmd = workloads.commands("paper-d16", toy=True)[0]
    assert cmd.name == "design"
    outdir = str(tmp_path / "design")
    code = _run_cli(cmd, 1, outdir)
    reference = _reference("paper-d16")
    assert artifacts.check(cmd, outdir, code, reference, 1) == []
    path = os.path.join(outdir, "report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["f_n"] += 1
    with open(path, "w") as fh:
        json.dump(report, fh)
    problems = artifacts.check(cmd, outdir, code, reference, 1)
    assert any(p.startswith("report.json:f_n") for p in problems), problems
    with open(path, "w") as fh:
        fh.write("{")
    problems = artifacts.check(cmd, outdir, code, reference, 1)
    assert problems and problems[0].startswith("unreadable artifacts"), problems


def test_one_changed_float_is_a_failure(tmp_path):
    cmd = workloads.commands("paper-d16", toy=True)[1]
    assert cmd.name == "response"
    outdir = str(tmp_path / "response")
    code = _run_cli(cmd, 1, outdir)
    reference = _reference("paper-d16")
    assert artifacts.check(cmd, outdir, code, reference, 1) == []
    path = os.path.join(outdir, "response_exact.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index("re")
    scale = max(abs(float(row[j])) for row in rows[1:])
    i = len(rows) // 2 + 3
    rows[i][j] = repr(float(rows[i][j]) + 1e-9 * scale)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    problems = artifacts.check(cmd, outdir, code, reference, 1)
    assert [p for p in problems if p.startswith("response_exact.csv:re:")] and len(problems) == 1, problems


def test_unrecorded_seed_is_checked_by_convolution(tmp_path):
    cmd = workloads.commands("paper-d16", toy=True)[-1]
    assert cmd.name == "simulate"
    seed = 987654
    reference = _reference("paper-d16")
    assert str(seed) not in reference["seeded"]
    outdir = str(tmp_path / "simulate")
    code = _run_cli(cmd, seed, outdir)
    assert artifacts.check(cmd, outdir, code, reference, seed) == []
    path = os.path.join(outdir, "bitstream.bin")
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([1 - first[0]]))
    problems = artifacts.check(cmd, outdir, code, reference, seed)
    assert any(p.startswith("decimated.csv") for p in problems), problems


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("paper-d16", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
