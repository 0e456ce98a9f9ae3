"""The gcfkit command sequences that make up each benchmark workload.

A workload is one design point and the subcommands run on it, in order.
Every command gets the run's seed through ``--seed`` and its own output
directory; nothing else depends on the seed.  ``toy=True`` selects the same
sequence at sizes small enough for the smoke test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# chi and y of the paper's flagship design; one-bit modulator input.
_TOLERANCE = {"chi": "1e-4", "y": "2", "input-width": "1"}
# Coarser response grids for the toy sizes.
_TOY_GRID = {"points-per-band": "17", "global-points": "512"}


@dataclass(frozen=True)
class Command:
    """One ``gcfkit`` subcommand with its flag values (flag name -> text)."""

    name: str
    params: dict = field(default_factory=dict)
    switches: tuple = ()

    def argv(self, seed: int, outdir: str) -> list[str]:
        args = [self.name]
        for flag, value in self.params.items():
            args += [f"--{flag}", value]
        return args + list(self.switches) + ["--seed", str(seed), "--output-dir", outdir]


def _point(D: int, pp: int, rho: int, toy: bool) -> dict:
    params = {"decimation-factor": str(D), "pp-split": str(pp), "oversampling-ratio": str(rho)}
    params.update(_TOLERANCE)
    if toy:
        params.update(_TOY_GRID)
    return params


def _paper_d16(toy: bool) -> list[Command]:
    p = _point(16, -1, 64, toy)
    trials = "1000" if toy else "2000"
    samples = "65536" if toy else "1048576"
    return [
        Command("design", p, ("--sweep-splits",)),
        Command("response", p),
        Command("sensitivity", p),
        Command("compare", p),
        Command("validate", {**p, "trials": trials}),
        Command("simulate", {**p, "n-samples": samples}),
    ]


def _split_d256(toy: bool) -> list[Command]:
    # Toy size: D=32 with the same partial split shape (D1 = 4).
    p = _point(32, 1, 64, toy) if toy else _point(256, 3, 512, toy)
    trials = "1000" if toy else "2000"
    return [
        Command("design", p, ("--sweep-splits",)),
        Command("response", p),
        Command("sensitivity", p),
        Command("validate", {**p, "trials": trials}),
    ]


def _polyphase_d1024(toy: bool) -> list[Command]:
    # The design runs at p_p = p - 3 (D1 = D/8), not p - 2: its peak RSS grows
    # with D1 x grid size and p - 2 needs 3.3 GB at D = 1024.
    D, rho = (64, 128) if toy else (1024, 2048)
    p = D.bit_length() - 1
    return [
        Command("compare", _point(D, p - 1, rho, toy)),
        Command("design", _point(D, p - 3, rho, toy)),
    ]


WORKLOADS = {
    "paper-d16": _paper_d16,
    "split-d256": _split_d256,
    "polyphase-d1024": _polyphase_d1024,
}


def commands(workload: str, toy: bool = False) -> list[Command]:
    return WORKLOADS[workload](toy)


def reference_key(workload: str, toy: bool) -> str:
    return f"{workload}/toy" if toy else workload
