"""Every config ends in a documented exit code (needs hypothesis).

gcfkit.cli.main runs on random values of every DesignConfig field, each
given as its flag, at sizes that keep one run short: D <= 64, response
grids of at most 33 points per band and 512 global points, 1000 Monte
Carlo trials and at most 2**14 modulator samples.  Each run must exit 0, 1,
2 or 3 without a traceback; a config error (exit 2) must leave no artifact
but resolved_config.json, and after exit 0 or 1 every number in every CSV
and JSON artifact must be finite.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gcfkit import cli  # noqa: E402

POWERS = [2, 4, 8, 16, 32, 64]


def in_range(D, n_samples, tolerance):
    """Strategies of in-range flag values, None for a flag left out.

    They depend on D, so that most configs get past the checks into the
    computation, and include the extremes (chi down to 1e-300, y down to
    1e-320, 2**64 as seed).  tolerance names the one of y and prob that is given, if any.
    """
    p = D.bit_length() - 1
    return {
        "decimation_factor": st.just(D),
        "pp_split": st.integers(-1, p - 1),
        "q": st.none() | st.floats(0.0, 1.0),
        "oversampling_ratio": st.floats(D, 100.0 * D, exclude_min=True),
        "chi": st.none() | st.floats(1e-300, 10.0),
        "prob": st.floats(1e-3, 0.999999) if tolerance == "prob" else st.none(),
        "y": st.floats(1e-320, 8.0) if tolerance == "y" else st.none(),
        "input_width": st.none() | st.integers(1, 4),
        "points_per_band": st.integers(2, 33),
        "global_points": st.integers(0, 512),
        "seed": st.none() | st.integers(0, 2 ** 64),
        "trials": st.just(1000),
        "n_samples": st.just(n_samples),
        "amplitude": st.none() | st.floats(0.0, 0.8),
        "sample_rate_hz": st.none() | st.floats(5e-324, 1e308),
        "segment": st.integers(2, n_samples),
        "overlap": st.none() | st.floats(0.0, 0.9),
    }


def out_of_range(D, n_samples):
    """Strategies of flag values that make some subcommand a config error.

    prob 0.95 and y 2.0 are in range, and out of range only next to the
    other one.
    """
    p = D.bit_length() - 1
    return {
        "decimation_factor": st.sampled_from([-1, 0, 1, 3, 48]),
        "pp_split": st.sampled_from([-2, p]),
        "q": st.sampled_from([-0.1, 1.5, math.nan, math.inf]),
        "oversampling_ratio": st.sampled_from([None, 0.0, -1.0, math.nan, math.inf, D / 2, float(D)]),
        "chi": st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e-310, 5e-324]),
        "prob": st.sampled_from([0.0, 1.0, 1e-17, math.nan, 0.95]),
        "y": st.sampled_from([0.0, -1.0, 9.0, math.nan, math.inf, 2.0]),
        "input_width": st.sampled_from([-1, 0]),
        "points_per_band": st.sampled_from([-1, 0, 1]),
        "global_points": st.just(-1),
        "seed": st.just(-1),
        "trials": st.sampled_from([0, 999]),
        "n_samples": st.sampled_from([-1, 0, 1, D]),
        "amplitude": st.sampled_from([-0.1, 0.9, math.nan, math.inf]),
        "sample_rate_hz": st.sampled_from([0.0, -1.0, math.nan, math.inf]),
        "segment": st.sampled_from([-1, 0, 1, n_samples + 1]),
        "overlap": st.sampled_from([-0.1, 0.95, math.nan]),
    }


@st.composite
def configs(draw):
    """Flag values of every field: in range, but for at most two fields that are not."""
    D = draw(st.sampled_from(POWERS))
    n_samples = draw(st.integers(2 * D, 2 ** 14))
    valid = in_range(D, n_samples, draw(st.sampled_from(["y", "prob", "neither"])))
    broken = out_of_range(D, n_samples)
    bad = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    return {name: draw(broken[name] if name in bad else valid[name]) for name in valid}


def test_every_field_but_output_dir_is_drawn():
    names = {f.name for f in fields(cli.DesignConfig)} - {"output_dir"}
    assert set(in_range(16, 64, "y")) == set(out_of_range(16, 64)) == names


def json_numbers(value):
    """Every int and float inside a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in json_numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def artifact_numbers(outdir):
    """(file name, number) of every numeric field of the CSV and JSON artifacts in outdir."""
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name)) as fh:
            if name.endswith(".json"):
                # json.load reads NaN and Infinity as floats
                yield from ((name, x) for x in json_numbers(json.load(fh)))
            elif name.endswith(".csv"):
                next(fh)  # header
                yield from ((name, float(field)) for line in fh for field in line.split(","))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["design", "response", "sensitivity", "validate", "simulate", "compare"]),
    values=configs(),
    sweep=st.booleans(),
)
def test_main_exits_with_a_documented_code(command, values, sweep):
    argv = [command]
    for name, value in values.items():
        if value is not None:
            argv += ["--" + name.replace("_", "-"), repr(value)]
    if command == "design" and sweep:
        argv.append("--sweep-splits")
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--output-dir", outdir])
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 2:
            written = os.listdir(outdir) if os.path.isdir(outdir) else []
            assert set(written) <= {"resolved_config.json"}, (argv, written)
        elif code in (0, 1):
            bad = [(name, x) for name, x in artifact_numbers(outdir) if not math.isfinite(x)]
            assert not bad, (argv, bad[:5])
