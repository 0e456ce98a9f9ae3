"""In-process traced run of one workload, for the per-layer metrics.

Started by run.py in a fresh interpreter with gcfkit on the path:

    python3 bench/layer_trace.py --workload paper-d16 --seed 1 --outdir DIR [--toy]

It imports gcfkit.cli (timing the import and the scipy part of it),
replaces every public function of each layer module with a wrapper that
records a span, and runs the workload's commands through
``gcfkit.cli.main`` once.  The wrappers live here; gcfkit is not changed.
Each span holds a name, start, end, parent and the id of the command it
belongs to; a span's self time is its duration minus its wrapped children.
The tracing overhead is the time each wrapper spends outside the function
it wraps, summed.  The spans are kept in memory and written to
DIR/spans-seed<seed>.json at the end.  The last line of standard output is
a JSON summary that run.py reads.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import hashlib
import inspect
import json
import os
import sys
import time
import traceback

import workloads

clock = time.perf_counter

# Public functions wrapped in each layer module, in the order reported.
LAYER_FUNCTIONS = {
    "cli": ("load_config", "cmd_design", "cmd_response", "cmd_sensitivity", "cmd_compare",
            "cmd_validate", "cmd_simulate"),
    "filters": ("compute_alpha", "stage_coefficients", "polyphase_impulse", "polyphase_decompose",
                "expand_full_polynomial", "normalization_gain", "coefficients_to_csv",
                "coefficients_to_json"),
    "spectral": ("folding_bands", "grid_frequencies", "comb_response", "gcf_response",
                 "response_grid", "worst_case_attenuation", "grid_to_csv"),
    "wordlength": ("cascade_derivative_magnitudes", "sensitivity", "fractional_bits", "integer_bits",
                   "quantize_coefficients", "quantized_response", "quantization_error_response",
                   "monte_carlo_error_std", "monte_carlo_coverage", "design_wordlengths"),
    "sdsim": ("generate_bandlimited_signal", "sd_modulate", "decimate_fixed_point", "welch_psd",
              "run_experiment", "export_run"),
}
# Functions whose distinct argument sets are counted.
KEYED = {"filters.polyphase_impulse", "filters.expand_full_polynomial", "filters.normalization_gain",
         "wordlength.sensitivity", "wordlength.design_wordlengths"}
FILTERS_KEYED = sorted(k for k in KEYED if k.startswith("filters."))

# Per-layer metrics beyond <layer>.<function>.calls / .self_s: (name, unit).
EXTRA_METRICS = (
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("filters.distinct_ratio", "ratio"),
    ("spectral.grid_points", "count"),
    ("spectral.dtft_terms", "count"),
    ("wordlength.sensitivity.distinct_ratio", "ratio"),
    ("wordlength.sensitivity.temp_bytes", "B"),
    ("wordlength.design_wordlengths.distinct_ratio", "ratio"),
    ("wordlength.mc_matrix_bytes", "B"),
    ("sdsim.modulator_msps", "Msample/s"),
    ("sdsim.overload_count", "count"),
    ("trace_overhead_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in the order reported."""
    units = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _arg_key(value):
    import numpy as np

    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return ("ndarray", value.shape, value.dtype.str, hashlib.sha1(data).hexdigest())
    if isinstance(value, (list, tuple)):
        return tuple(_arg_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _arg_key(v)) for k, v in value.items()))
    return repr(value)


class Tracer:
    """Spans, per-function totals and work counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []       # open frames: [span id, child seconds]
        self.next_id = 0
        self.trace_id = None
        self.overhead_s = 0.0
        quals = [f"{layer}.{name}" for layer, names in LAYER_FUNCTIONS.items() for name in names]
        self.calls = dict.fromkeys(quals, 0)
        self.self_s = dict.fromkeys(quals, 0.0)
        self.keys = {name: set() for name in KEYED}
        self.counters = {"grid_points": 0, "dtft_terms": 0, "sensitivity_temp_bytes": 0,
                         "mc_matrix_bytes": 0, "modulated_samples": 0, "overload_count": 0}

    def _open(self):
        frame = [self.next_id, 0.0]
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, layer, t0, t1):
        self.stack.pop()
        self_s = (t1 - t0) - frame[1]
        self.spans.append({"trace": self.trace_id, "id": frame[0], "parent": parent, "name": name,
                           "layer": layer, "start": t0, "end": t1, "self_s": self_s})
        return self_s

    @contextlib.contextmanager
    def command(self, trace_id: int, name: str):
        """Root span of one command; its self time is the unattributed part."""
        self.trace_id = trace_id
        frame, parent = self._open()
        t0 = clock()
        try:
            yield
        finally:
            self._close(frame, parent, f"command.{name}", None, t0, clock())

    def wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        observe = getattr(self, "_observe_" + qual.replace(".", "_"), None)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            # Everything from here to the return, bookkeeping included, is
            # child time of the enclosing span.
            t_book = clock()
            t0 = t1 = t_book
            try:
                if qual in KEYED:
                    self.keys[qual].add((qual, _arg_key(args), _arg_key(kwargs)))
                frame, parent = self._open()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    self.calls[qual] += 1
                    self.self_s[qual] += self._close(frame, parent, qual, layer, t0, t1)
                if observe is not None:
                    observe(signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                t_end = clock()
                self.overhead_s += (t_end - t_book) - (t1 - t0)
                if self.stack:
                    self.stack[-1][1] += t_end - t_book

        return wrapper

    # Work counters, computed from the arguments and results of the calls.

    def _observe_spectral_response_grid(self, a, result):
        self.counters["grid_points"] += len(result.freqs)

    def _observe_spectral_gcf_response(self, a, result):
        spec = a["spec"]
        taps = 3 * spec.D1 - 2 if spec.D1 > 1 else 0
        self.counters["dtft_terms"] += int(getattr(a["f"], "size", 1)) * taps

    def _observe_wordlength_sensitivity(self, a, result):
        if result.case_tag == "partial":
            nbytes = len(result.freqs) * (3 * a["spec"].D1 - 2) * 16
            self.counters["sensitivity_temp_bytes"] = max(self.counters["sensitivity_temp_bytes"], nbytes)

    def _observe_wordlength_monte_carlo_error_std(self, a, result):
        nbytes = a["trials"] * len(result[0]) * 16
        self.counters["mc_matrix_bytes"] = max(self.counters["mc_matrix_bytes"], nbytes)

    def _observe_sdsim_sd_modulate(self, a, result):
        self.counters["modulated_samples"] += len(result.bits)
        self.counters["overload_count"] += int(result.overload_count)


def install(tracer: Tracer) -> list:
    """Replace each listed function, wherever a gcfkit module refers to it.

    A listed function the module no longer has is skipped and reads 0.
    """
    wrappers = {}
    for layer, names in LAYER_FUNCTIONS.items():
        module = sys.modules[f"gcfkit.{layer}"]
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                wrappers[id(fn)] = tracer.wrap(layer, name, fn)
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "gcfkit" and not modname.startswith("gcfkit."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def import_cli():
    """Import gcfkit.cli: (module, total seconds, seconds spent importing scipy)."""
    real_import = builtins.__import__
    scipy_s = 0.0
    depth = 0

    def timed_import(name, *args, **kwargs):
        nonlocal scipy_s, depth
        if depth or not (name == "scipy" or name.startswith("scipy.")):
            return real_import(name, *args, **kwargs)
        depth += 1
        t0 = clock()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            scipy_s += clock() - t0
            depth -= 1

    builtins.__import__ = timed_import
    t0 = clock()
    try:
        import gcfkit.cli as cli
    finally:
        total = clock() - t0
        builtins.__import__ = real_import
    return cli, total, scipy_s


def run_command(cli, cmd, seed: int, outdir: str) -> tuple[int, float]:
    """(exit code, seconds) of one command through gcfkit.cli.main; -1 if it raised."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "cli.log"), "w") as log, contextlib.redirect_stdout(log):
        t0 = clock()
        try:
            code = cli.main(cmd.argv(seed, outdir))
        except Exception:
            traceback.print_exc(file=log)
            code = -1
        return code, clock() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    cli, import_s, import_scipy_s = import_cli()
    tracer = Tracer()
    undo = install(tracer)
    report = []
    try:
        for i, cmd in enumerate(workloads.commands(args.workload, args.toy)):
            with tracer.command(i, cmd.name):
                code, seconds = run_command(cli, cmd, args.seed, os.path.join(args.outdir, f"{i}-{cmd.name}"))
            report.append({"name": cmd.name, "code": code, "seconds": seconds})
    finally:
        uninstall(undo)

    for i, entry in enumerate(report):
        spans = [s for s in tracer.spans if s["trace"] == i]
        entry["layer_self_s"] = {layer: sum((s["self_s"] for s in spans if s["layer"] == layer), 0.0)
                                 for layer in LAYER_FUNCTIONS}
        entry["unattributed_s"] = sum(s["self_s"] for s in spans if s["layer"] is None)

    spans_path = os.path.join(args.outdir, f"spans-seed{args.seed}.json")
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)

    def ratio(names):
        calls = sum(tracer.calls[n] for n in names)
        return len(set().union(*(tracer.keys[n] for n in names))) / calls if calls else 0.0

    c = tracer.counters
    modulate_s = tracer.self_s["sdsim.sd_modulate"]
    values = {}
    for qual in tracer.calls:
        values[f"{qual}.calls"] = tracer.calls[qual]
        values[f"{qual}.self_s"] = tracer.self_s[qual]
    values.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "filters.distinct_ratio": ratio(FILTERS_KEYED),
        "spectral.grid_points": c["grid_points"],
        "spectral.dtft_terms": c["dtft_terms"],
        "wordlength.sensitivity.distinct_ratio": ratio(["wordlength.sensitivity"]),
        "wordlength.sensitivity.temp_bytes": c["sensitivity_temp_bytes"],
        "wordlength.design_wordlengths.distinct_ratio": ratio(["wordlength.design_wordlengths"]),
        "wordlength.mc_matrix_bytes": c["mc_matrix_bytes"],
        "sdsim.modulator_msps": c["modulated_samples"] / modulate_s / 1e6 if modulate_s else 0.0,
        "sdsim.overload_count": c["overload_count"],
        "trace_overhead_s": tracer.overhead_s,
    })
    units = metric_units()
    print(json.dumps({
        "commands": report,
        "spans": spans_path,
        "metrics": {name: [values[name], unit] for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
