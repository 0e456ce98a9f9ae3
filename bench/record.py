#!/usr/bin/env python3
"""Record the reference values that run.py checks artifacts against.

Run from the root of the repository, on a commit whose outputs are known
good:

    python3 bench/record.py

For every workload, at full and toy size, every command runs once and its
static observations are stored; then the commands with seed-dependent
output run once per seed in SEEDS and those observations are stored per
seed.  reference.json and reference_arrays.npz are written from scratch.
"""

from __future__ import annotations

import os
import sys

import artifacts
import workloads
from run import CLI, WORK, command_dir, timed_process

SEEDS = range(0, 21)
SEEDED_COMMANDS = {"validate", "simulate"}


def observe_command(cmd, seed: int, base: str) -> tuple[dict, dict]:
    outdir = command_dir(base, 0, cmd)
    _, code, _ = timed_process([sys.executable, "-c", CLI] + cmd.argv(seed, outdir),
                               os.path.join(outdir, "cli.log"))
    if code != 0:
        raise SystemExit(f"{cmd.name} exited {code}; see {outdir}/cli.log")
    return artifacts.split(artifacts.observe(outdir))


def record(workload: str, toy: bool) -> dict:
    base = os.path.join(WORK, "record")
    entry = {"static": {}, "seeded": {str(s): {} for s in SEEDS}}
    for cmd in workloads.commands(workload, toy):
        seeds = SEEDS if cmd.name in SEEDED_COMMANDS else SEEDS[:1]
        for seed in seeds:
            static, seeded = observe_command(cmd, seed, base)
            problems = artifacts.compare(static, entry["static"].setdefault(cmd.name, static))
            if problems:
                raise SystemExit(f"{workload} {cmd.name}: static outputs differ at seed {seed}: {problems[:3]}")
            if seeded:
                entry["seeded"][str(seed)][cmd.name] = seeded
        print(f"recorded {workloads.reference_key(workload, toy)} {cmd.name}", flush=True)
    return entry


def main() -> int:
    entries = {workloads.reference_key(workload, toy): record(workload, toy)
               for workload in workloads.WORKLOADS for toy in (False, True)}
    artifacts.save_reference(entries, list(SEEDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
