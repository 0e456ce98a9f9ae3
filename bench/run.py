#!/usr/bin/env python3
"""gcfkit benchmark: CLI wall time, start-up and peak memory per workload.

Run from the root of the repository:

    python3 bench/run.py --workload paper-d16 --seed 1 --seconds 10 --trace 0

With ``--trace 0`` one closed-loop client runs the workload's gcfkit
subcommands one at a time, each in a fresh interpreter, round after round
for as many whole rounds as fit in ``--seconds`` (at least one).  Start-up is the
median of several fresh ``import gcfkit.cli`` processes run between them.

With ``--trace 1`` a fresh interpreter runs the workload once in-process
with every public layer function wrapped (see layer_trace.py), and the
per-layer metrics are reported instead.

Every command's artifacts are checked against the recorded reference (see
artifacts.py); a command fails if it exits non-zero or its artifacts differ.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full result, with
the environment, is also written to bench/_work/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "_work")

import artifacts  # noqa: E402  (bench/ is on sys.path when run as a script)
import workloads  # noqa: E402

# The same entry point as the installed ``gcfkit`` console script.
CLI = "import sys; from gcfkit.cli import main; sys.exit(main())"
SETUP = "import gcfkit.cli"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 4  # at least


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def timed_process(argv: list[str], log_path: str) -> tuple[float, int, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(log_path, "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, else the environment's setting."""
    import numpy

    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "loadavg_start": list(os.getloadavg()),
    }


def command_dir(base: str, index: int, cmd) -> str:
    path = os.path.join(base, f"{index}-{cmd.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Tally:
    """Counts the commands attempted and keeps the reasons each failed one failed."""

    def __init__(self, reference, seed):
        self.reference, self.seed = reference, seed
        self.attempted = 0
        self.failures = []

    def check(self, cmd, outdir, exit_code, where):
        self.attempted += 1
        problems = artifacts.check(cmd, outdir, exit_code, self.reference, self.seed)
        if problems:
            self.failures.append({"command": where, "problems": problems})


def sample_setup(work: str) -> float:
    log = os.path.join(work, "setup.log")
    elapsed, code, _ = timed_process([sys.executable, "-c", SETUP], log)
    if code != 0:
        raise SystemExit(f"import gcfkit.cli failed (exit {code}); see {log}")
    return elapsed


def run_untraced(cmds, args, work: str, tally: Tally) -> dict:
    # Start-up samples are taken before every other command of the first
    # round and topped up after the last round, so that they span the run
    # and leave time for more rounds: machine speed drifts over seconds.
    sample_setup(work)  # warm-up: bytecode and file caches
    setup = []
    per_cmd = {cmd.name: [] for cmd in cmds}
    walls, peak_rss = [], 0.0
    # A round starts only if one more as long as the last still ends within
    # --seconds, so a run never measures for much longer than asked.
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= args.seconds:
        wall = 0.0
        for i, cmd in enumerate(cmds):
            if not walls and i % 2 == 0:
                setup.append(sample_setup(work))
            outdir = command_dir(work, i, cmd)
            argv = [sys.executable, "-c", CLI] + cmd.argv(args.seed, outdir)
            elapsed, code, rss = timed_process(argv, os.path.join(outdir, "cli.log"))
            tally.check(cmd, outdir, code, f"round {len(walls)}: {cmd.name}")
            per_cmd[cmd.name].append(elapsed)
            wall += elapsed
            peak_rss = max(peak_rss, rss)
        walls.append(wall)
    while len(setup) < SETUP_SAMPLES:
        setup.append(sample_setup(work))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss,
    }
    details = {
        "rounds": len(walls),
        "setup_samples_s": setup,
        "wall_samples_s": walls,
        "command_samples_s": per_cmd,
        "command_median_s": {name: statistics.median(v) for name, v in per_cmd.items()},
    }
    return {"metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()}, "details": details}


def run_traced(cmds, args, work: str, tally: Tally) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "layer_trace.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--outdir", work] + (["--toy"] if args.toy else [])
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"traced run failed (exit {proc.returncode})")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for i, cmd in enumerate(cmds):
        tally.check(cmd, os.path.join(work, f"{i}-{cmd.name}"), out["commands"][i]["code"], cmd.name)
    return {"metrics": out["metrics"], "details": {"commands": out["commands"], "spans": out["spans"]}}


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}{' (toy)' if result['toy'] else ''}, seed {result['seed']}, "
          f"trace {result['trace']}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    details = result["details"]
    if result["trace"]:
        print(f"{'command':12s} {'traced_s':>9s}  self time per layer (s)")
        for c in details["commands"]:
            layers = ", ".join(f"{k} {v:.4f}" for k, v in c["layer_self_s"].items())
            print(f"{c['name']:12s} {c['seconds']:9.4f}  {layers}, unattributed {c['unattributed_s']:.4f}")
        print(f"spans written to {details['spans']}")
    else:
        print(f"rounds {details['rounds']}")
        for name, value in details["command_median_s"].items():
            print(f"  {name + '_s':16s} {value:10.4f} s   (median of {len(details['command_samples_s'][name])})")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'ops_failed':40s} {ratio:>16.6g} ({result['failed']} of {result['attempted']} commands)")
    for f in result["failures"]:
        print(f"FAILED {f['command']}: " + "; ".join(f["problems"][:5]), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gcfkit", "cli.py")):
        print(f"gcfkit sources not found under {SRC}", file=sys.stderr)
        return 2
    key = workloads.reference_key(args.workload, args.toy)
    reference = artifacts.load_reference(key)
    work = os.path.join(WORK, key.replace("/", "-"), f"trace{args.trace}")
    os.makedirs(work, exist_ok=True)

    env = environment()
    cmds = workloads.commands(args.workload, args.toy)
    tally = Tally(reference, args.seed)
    run = run_traced if args.trace else run_untraced
    measured = run(cmds, args, work, tally)
    env["loadavg_end"] = list(os.getloadavg())

    result = {
        "workload": args.workload, "toy": args.toy, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "correct": not tally.failures, "attempted": tally.attempted, "failed": len(tally.failures),
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
        "details": measured["details"],
    }
    with open(os.path.join(work, f"result-seed{args.seed}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
