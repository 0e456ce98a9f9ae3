"""Correctness check of the artifacts one gcfkit command wrote.

Each output directory is reduced to observations: a flat map from
``file:field`` to a value.  Integers, strings and flags are compared exactly.
A float CSV column or JSON array is kept whole and compared element by
element to 1e-12 of its largest magnitude; a single float to 1e-12 of
itself.

Observations are static (the same for every seed) or seeded.  The reference
holds the static ones of every workload and the seeded ones of a set of
recorded seeds.  For any other seed only the static ones are compared.  A
simulation is also checked, whatever its seed, against a direct numpy
convolution of its bitstream with the quantized stage polynomial; that
check covers every sample of ``decimated.csv``, so the file is not stored.

The reference is ``reference.json``, with each float array replaced by
``{"array": <sha1 of its float64 bytes>}``, and ``reference_arrays.npz``,
which holds every distinct array once under that name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_ARRAYS = os.path.join(BENCH_DIR, "reference_arrays.npz")

REL_TOL = 1e-12

# Derived from the magnitude columns by a fixed formula; at deep response
# zeros a last-digit change in the magnitude moves them far more than 1e-12.
SKIPPED_COLUMNS = {"magnitude_dB", "power_dB"}
# decimated.csv is checked sample by sample against check_decimation's
# convolution, for every seed.
SKIPPED_FILES = {"cli.log", "resolved_config.json", "decimated.csv"}
# Integer tables compared byte for byte as a whole, besides column by column.
EXACT_FILES = {"fn_sweep.csv"}
# Observation key prefixes that depend on the seed.
SEEDED_PREFIXES = (
    "validate.json:checks.sensitivity_fd.detail",
    "validate.json:checks.mc_model.detail",
    "config.json:config.seed",
    "config.json:overload_count",
    "bitstream.bin",
    "psd_in.csv",
    "psd_out.csv",
)

_INT = re.compile(r"-?\d+\Z")
# gcfkit compare writes numpy scalars with repr(), which numpy >= 2 spells
# "np.float64(51.25)"; the value inside is what is compared.
_NP_SCALAR = re.compile(r"np\.float64\((.*)\)\Z")


def _number(cell: str) -> float:
    m = _NP_SCALAR.match(cell)
    return float(m.group(1) if m else cell)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_observations(path: str, fname: str) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    obs = {f"{fname}:header": header, f"{fname}:rows": len(body)}
    for j, col in enumerate(header):
        if col in SKIPPED_COLUMNS:
            continue
        cells = [row[j] for row in body]
        if all(_INT.match(c) for c in cells):
            obs[f"{fname}:{col}"] = _digest("\n".join(cells))
        else:
            obs[f"{fname}:{col}"] = np.array([_number(c) for c in cells])
    return obs


def _json_observations(value, key: str, obs: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _json_observations(v, f"{key}.{k}" if not key.endswith(":") else key + k, obs)
    elif isinstance(value, list) and any(isinstance(v, float) for v in value):
        obs[key] = np.array(value, dtype=float)
    else:
        obs[key] = value


def observe(outdir: str) -> dict:
    """All observations of the artifacts in one command's output directory."""
    obs = {}
    for fname in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, fname)
        if fname in SKIPPED_FILES or not os.path.isfile(path):
            continue
        if fname in EXACT_FILES:
            with open(path, "rb") as fh:
                obs[f"{fname}:sha256"] = hashlib.sha256(fh.read()).hexdigest()
        if fname.endswith(".csv"):
            obs.update(_csv_observations(path, fname))
        elif fname.endswith(".json"):
            with open(path) as fh:
                _json_observations(json.load(fh), f"{fname}:", obs)
        else:
            with open(path, "rb") as fh:
                data = fh.read()
            obs[f"{fname}:bytes"] = len(data)
            obs[f"{fname}:sha256"] = hashlib.sha256(data).hexdigest()
    return obs


def split(obs: dict) -> tuple[dict, dict]:
    """(static, seeded) parts of an observation map."""
    static, seeded = {}, {}
    for key, value in obs.items():
        (seeded if key.startswith(SEEDED_PREFIXES) else static)[key] = value
    return static, seeded


def _array_name(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _map_leaves(entry: dict, fn) -> dict:
    """entry with fn applied to every observation value, for a reference entry's
    ``{"static": {cmd: obs}, "seeded": {seed: {cmd: obs}}}`` layout."""
    return {
        "static": {cmd: {k: fn(v) for k, v in obs.items()} for cmd, obs in entry["static"].items()},
        "seeded": {seed: {cmd: {k: fn(v) for k, v in obs.items()} for cmd, obs in cmds.items()}
                   for seed, cmds in entry["seeded"].items()},
    }


def save_reference(entries: dict, seeds: list[int]) -> None:
    """Write reference.json and reference_arrays.npz from scratch.

    ``entries`` maps a workload's reference key to its entry, whose
    observations may hold float arrays.
    """
    arrays = {}

    def store(value):
        if not isinstance(value, np.ndarray):
            return value
        name = _array_name(value)
        arrays[name] = value
        return {"array": name}

    stored = {key: _map_leaves(entry, store) for key, entry in entries.items()}
    with open(REFERENCE, "w") as fh:
        json.dump({"seeds": seeds, "workloads": stored}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    np.savez_compressed(REFERENCE_ARRAYS, **arrays)


def load_reference(key: str) -> dict | None:
    """The reference entry of one workload key, float arrays included; None if
    nothing is recorded for it."""
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        entry = json.load(fh)["workloads"].get(key)
    if entry is None:
        return None
    with np.load(REFERENCE_ARRAYS) as arrays:
        return _map_leaves(entry, lambda v: arrays[v["array"]] if isinstance(v, dict) and "array" in v else v)


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * max(scale, 1e-300)


def _compare_array(key: str, got: np.ndarray, want: np.ndarray) -> str | None:
    if got.shape != want.shape:
        return f"{key}: length {got.size} != {want.size}"
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    bad = np.flatnonzero(~(np.abs(got - want) <= REL_TOL * scale))  # a NaN is bad
    if bad.size == 0:
        return None
    i = bad[0]
    return (f"{key}: {bad.size} of {want.size} values differ by more than 1e-12 of {scale:.3e}; "
            f"first at [{i}]: {got[i]!r} != {want[i]!r}")


def _compare_value(key: str, got, want) -> str | None:
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        if not (isinstance(want, np.ndarray) and isinstance(got, np.ndarray)):
            return f"{key}: {got!r:.80} != {want!r:.80}"
        return _compare_array(key, got, want)
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return None if _close(float(got), want, abs(want)) else f"{key}: {got!r} != {want!r}"
    return None if got == want else f"{key}: {got!r:.80} != {want!r:.80}"


def compare(obs: dict, want: dict) -> list[str]:
    """Mismatches between observations and reference values, one line each."""
    problems = [f"{key}: missing" for key in want if key not in obs]
    problems += [f"{key}: not in the reference" for key in obs if key not in want]
    for key in want.keys() & obs.keys():
        msg = _compare_value(key, obs[key], want[key])
        if msg:
            problems.append(msg)
    return sorted(problems)


def _quantize(value: float, f_n: int) -> float:
    scale = 2.0 ** f_n
    return math.copysign(math.floor(abs(value) * scale + 0.5), value) / scale


def check_decimation(outdir: str, D: int, rho: float, q: float = 0.79) -> list[str]:
    """Compare decimated.csv with a float convolution of bitstream.bin.

    The cascade polynomial is rebuilt from the inputs: r_k = 1 + 2cos(2^k a),
    a = q pi / rho, rounded to the run's F_n, each stage [1, r_k, r_k, 1]
    spread over delays of 2^k; the output is every D-th sample scaled to
    unit DC gain.  All partial sums are exact in float64 at these widths.
    """
    import numpy as np

    with open(os.path.join(outdir, "config.json")) as fh:
        f_n = json.load(fh)["format"]["f_n"]
    bits = np.fromfile(os.path.join(outdir, "bitstream.bin"), dtype=np.uint8)
    if bits.size == 0 or np.any(bits > 1):
        return ["bitstream.bin: not a sequence of 0x00/0x01 bytes"]
    alpha = q * math.pi / rho
    poly = np.ones(1)
    dc = 1.0
    for k in range(D.bit_length() - 1):
        r_k = 1.0 + 2.0 * math.cos(2.0 ** k * alpha)
        stage = np.zeros(3 * 2 ** k + 1)
        stage[[0, -1]] = 1.0
        stage[[2 ** k, 2 * 2 ** k]] = _quantize(r_k, f_n)
        poly = np.convolve(poly, stage)
        dc *= 2.0 + 2.0 * r_k
    x = 2.0 * bits.astype(float) - 1.0
    want = np.convolve(x, poly)[: x.size][::D][: x.size // D] / dc
    with open(os.path.join(outdir, "decimated.csv"), newline="") as fh:
        got = np.array([float(row[1]) for row in list(csv.reader(fh))[1:]])
    if got.shape != want.shape:
        return [f"decimated.csv: {got.size} samples, expected {want.size}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    if not _close(worst, 0.0, scale):
        return [f"decimated.csv: differs from the convolution of the bitstream by {worst:.3e}"]
    return []


def check(command, outdir: str, exit_code: int, reference: dict | None, seed: int) -> list[str]:
    """Every reason this command's run counts as failed; empty if it passed.

    ``reference`` is the workload's entry of reference.json; ``command`` a
    :class:`workloads.Command` and ``outdir`` the directory it wrote.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if reference is None or command.name not in reference["static"]:
        return ["no reference values recorded for this command"]
    try:
        static, seeded = split(observe(outdir))
        problems = compare(static, reference["static"][command.name])
        recorded = reference["seeded"].get(str(seed), {})
        if command.name in recorded:
            problems += compare(seeded, recorded[command.name])
        if command.name == "simulate":
            problems += check_decimation(
                outdir, int(command.params["decimation-factor"]),
                float(command.params["oversampling-ratio"]),
            )
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
    return problems
