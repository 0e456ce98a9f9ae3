"""Command-line front end.

Subcommands: design | response | sensitivity | validate | simulate | compare.
Every command reads an optional JSON config file plus flag overrides (flags
mirror config keys).  main resolves the whole run, the same way for every
command, before it writes anything: the design and the tolerance, the size
check, the response grid with its band index, and one word-length sizing
(F_n from S_T) on the in-band points, so a config error in any of them
leaves no file.  It then writes the resolved config to the output directory
for provenance, and the command builds its own CSV/JSON artifacts from the
sizing report and the grid; the writers of gcfkit.filters write them.
Figure data is emitted as CSV only; plotting is left to external tools.

Exit codes: 0 success, 1 validation failure, 2 config error, 3 runtime
numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ParameterError, StageOverflowError
from .filters import (
    DEFAULT_Q,
    GcfSpec,
    coefficients_to_csv,
    expand_full_polynomial,
    stage_coefficients,
    write_columns,
    write_json,
)
from .spectral import (
    DEFAULT_GLOBAL_POINTS,
    DEFAULT_POINTS_PER_BAND,
    band_index,
    band_peaks,
    cascade_response,
    comb_response,
    folding_bands,
    gcf_response,
    grid_frequencies,
    grid_size,
    grid_to_csv,
    stage_bracket,
    stage_derivative,
    worst_case_attenuation,
)
from .wordlength import (
    DEFAULT_Y,
    ToleranceSpec,
    WordLengthReport,
    design_wordlengths,
    mc_draw_width,
    monte_carlo_run,
    quantization_error_response,
    sensitivity,
)
from .sdsim import run_experiment, export_run

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class DesignConfig:
    """Resolved configuration shared by all subcommands."""

    decimation_factor: int = 16
    pp_split: int = -1
    q: float = DEFAULT_Q
    oversampling_ratio: float | None = None  # f_c = 1/(2 rho)
    chi: float = 1e-4
    y: float = DEFAULT_Y
    input_width: int = 1
    points_per_band: int = DEFAULT_POINTS_PER_BAND
    global_points: int = DEFAULT_GLOBAL_POINTS
    seed: int = 12345
    trials: int = 2000
    n_samples: int = 2 ** 18
    amplitude: float = 0.5
    sample_rate_hz: float | None = None
    segment: int = 4096
    overlap: float = 0.5
    output_dir: str = "out"

    def __post_init__(self):
        if self.global_points < 0:
            raise ParameterError(f"global_points must be >= 0, got {self.global_points}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1000:
            raise ParameterError(f"trials must be >= 1000, got {self.trials}")
        fs = self.sample_rate_hz
        if fs is not None and not (math.isfinite(fs) and fs > 0):
            raise ParameterError(f"sample_rate_hz must be positive and finite, got {fs}")
        for name in ("amplitude", "overlap"):  # their ranges are checked where simulate uses them
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")

    def spec(self) -> GcfSpec:
        if self.oversampling_ratio is None:
            raise ParameterError("oversampling_ratio is required")
        return GcfSpec.from_oversampling(self.decimation_factor, self.oversampling_ratio, self.pp_split, self.q)

    def tolerance(self) -> ToleranceSpec:
        return ToleranceSpec(self.chi, self.y)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _field_type(f) -> type:
    """Type of a DesignConfig field from its annotation: "float | None" gives float."""
    return {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]


def _check_json_value(f, value) -> None:
    """Reject a JSON value of the wrong type: an int passes for a float, a bool for nothing."""
    kind = _field_type(f)
    if value is None:
        ok = f.type.endswith(" | None")
    else:
        ok = not isinstance(value, bool) and (
            isinstance(value, kind) or (kind is float and isinstance(value, int)))
    if not ok:
        raise ParameterError(f"config key {f.name!r} expects {f.type}, got {value!r}")


def load_config(path: str | None, overrides: dict) -> DesignConfig:
    """JSON config plus overrides; unknown keys, mistyped values and a config file
    that cannot be read as one UTF-8 JSON object are rejected."""
    known = {f.name: f for f in fields(DesignConfig)}
    merged: dict = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            raise ParameterError(f"cannot read config file {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParameterError(f"config file {path!r} does not hold a JSON object")
        unknown = set(data) - set(known)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            _check_json_value(known[name], value)
        merged.update(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return DesignConfig(**merged)


SWEEP_CHIS = (5e-3, 1e-3, 1e-4)
SWEEP_YS = (2.0, 1.63)


def _check_sizes(cfg: DesignConfig, spec: GcfSpec, command: str) -> None:
    """Reject, from its size alone, an array of the command that exceeds physical memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    arrays = [("grid", "points", grid_size(spec, cfg.points_per_band, cfg.global_points), 8)]
    if command == "validate":
        arrays.append(("Monte Carlo draw matrix", "draws", cfg.trials * mc_draw_width(spec), 8))
    if command == "simulate":  # the float test signal and its int8 bitstream
        arrays.append(("signal", "samples", cfg.n_samples, 9))
    for name, unit, count, width in arrays:
        if count * width > memory:
            raise ParameterError(f"the {name} of {count} {unit} needs {count * width} bytes, "
                                 f"more than the {memory} bytes of physical memory")


def _write_fn_sweep(base: GcfSpec, in_band: np.ndarray, outdir: str) -> None:
    """F_n over every split of D, the standard chi triple and both working y.

    The folding bands do not depend on the split, so every split is sized
    on the same in-band frequencies; S_T does not depend on chi or y, so
    each split evaluates it once.
    """
    rows = []
    for pp in range(-1, base.p):
        spec = replace(base, p_p=pp)
        sens = sensitivity(spec, in_band)
        for chi in SWEEP_CHIS:
            for y in SWEEP_YS:
                f_n, _ = sens.fraction_bits(ToleranceSpec(chi, y))
                rows.append((spec.D, spec.D1, pp, chi, y, f_n))
    write_columns(os.path.join(outdir, "fn_sweep.csv"),
                  dict(zip(("D", "D1", "pp_split", "chi", "y", "f_n"), zip(*rows))))


def cmd_design(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray,
               sweep_splits: bool = False) -> int:
    outdir, spec = cfg.output_dir, report.spec
    if sweep_splits:
        _write_fn_sweep(spec, freqs[band > 0], outdir)
    write_json(os.path.join(outdir, "report.json"), report.as_dict())
    for name, values in (("cascade_exact", report.r), ("cascade_quantized", report.r_q),
                         ("bank_exact", report.h_p), ("bank_quantized", report.taps_q)):
        coefficients_to_csv(os.path.join(outdir, name + ".csv"), values)
    write_json(os.path.join(outdir, "coefficients.json"), {
        "spec": spec.as_dict(), "cascade": report.r.tolist(), "cascade_quantized": report.r_q.tolist(),
        "bank": report.h_p.tolist(), "expanded": expand_full_polynomial(spec).tolist(),
    })
    print(report.table())
    return EXIT_OK


def cmd_response(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray) -> int:
    outdir, spec = cfg.output_dir, report.spec
    mask = band > 0
    grid_to_csv(os.path.join(outdir, "response_exact.csv"), freqs, gcf_response(spec, freqs), mask)
    quantized, delta_h = quantization_error_response(report, freqs)
    grid_to_csv(os.path.join(outdir, "response_quantized.csv"), freqs, quantized, mask)
    grid_to_csv(os.path.join(outdir, "response_comb.csv"), freqs, comb_response(spec, freqs), mask)
    lo, hi = folding_bands(spec)
    write_columns(os.path.join(outdir, "bands.csv"), {"k": np.arange(1, len(lo) + 1), "low": lo, "high": hi})
    max_dev = float(np.max(np.abs(delta_h[mask])))
    print(f"max in-band |d|H|| at F_n={report.f_n}: {max_dev:.3e} (chi = {report.tolerance.chi:g})")
    return EXIT_OK


def cmd_sensitivity(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray) -> int:
    spec, mask = report.spec, band > 0
    _, delta_h = quantization_error_response(report, freqs)
    result = sensitivity(spec, freqs)
    grid_to_csv(
        os.path.join(cfg.output_dir, "sensitivity.csv"), freqs, gcf_response(spec, freqs), mask,
        extra={"s_t": result.s_t, "sigma_dh": result.sigma_dh(report.f_n), "delta_h": delta_h},
    )
    print(f"S_T grid ({result.case_tag}, {result.n_multipliers} multipliers): "
          f"in-band max {np.max(result.s_t[mask]):.6g}, F_n {report.f_n}")
    return EXIT_OK


def _check_split_invariance(spec: GcfSpec) -> tuple[bool, str]:
    ref = expand_full_polynomial(replace(spec, p_p=-1))
    scale = np.max(np.abs(ref))
    worst = 0.0
    for pp in range(0, spec.p):
        other = expand_full_polynomial(replace(spec, p_p=pp))
        worst = max(worst, float(np.max(np.abs(other - ref)) / scale))
    return worst <= 1e-10, f"split_invariance: max rel diff {worst:.3e} (tol 1e-10)"


def _check_sensitivity_fd(spec: GcfSpec, seed: int) -> tuple[bool, str]:
    caspec = replace(spec, p_p=-1)
    freqs = np.random.default_rng(seed).uniform(0.01, 0.49, size=50)
    ks = np.asarray(caspec.cascade_stages)[:, None]  # row k: stage k and its r_k
    r = np.asarray(stage_coefficients(caspec))[:, None]
    step = 1e-6
    eye = np.eye(len(r))
    # stage k takes the column r_k +/- step I[k], so row u is H(r +/- step e_u)
    hi, lo = (cascade_response(freqs, caspec.cascade_stages, (r + s * eye)[..., None]) for s in (step, -step))
    fd = np.abs((hi - lo) / (2 * step))
    # row u: the other brackets' product (a 1 in place u) times c_u, last, as the details were recorded
    w = 2.0 * np.pi * freqs
    others = np.prod(np.where(eye[..., None], 1.0, stage_bracket(w, ks, r)), axis=1)
    analytic = np.abs(stage_derivative(w, ks) * others)
    worst = float(np.max(np.abs(fd - analytic) / np.maximum(analytic, 1e-30)))
    return worst <= 1e-5, f"sensitivity_fd: max rel err {worst:.3e} (tol 1e-5)"


def _check_mc(report: WordLengthReport, trials: int, seed: int) -> tuple[bool, str]:
    # Model-validity checks that hold for the uniform multiplier-noise model:
    # sigma_dh is an upper bound on the true per-frequency std (10% slack for
    # sampling noise), and coverage at the design y cannot fall far below the
    # Gaussian prediction.  The Monte Carlo runs on the default grid, not the
    # config's: moving it changes validate.json, which the benchmark checks,
    # so that move waits for the reference re-record (ROADMAP item 1b, waiting fix 1).
    spec, tol = report.spec, report.tolerance
    freqs = grid_frequencies(folding_bands(spec), DEFAULT_POINTS_PER_BAND, DEFAULT_GLOBAL_POINTS)
    error_std, sigma_dh, cov = monte_carlo_run(spec, report.f_n, trials, seed, tol.y,
                                               freqs[band_index(spec, freqs) > 0])
    ok_std = bool(np.all(error_std <= 1.1 * sigma_dh + 1e-18))
    floor = tol.prob - 0.03
    ok_cov = cov >= floor
    msg = (f"mc_model: std bound {'ok' if ok_std else 'VIOLATED'}, "
           f"coverage {cov:.4f} >= {floor:.4f} {'ok' if ok_cov else 'VIOLATED'}")
    return ok_std and ok_cov, msg


def cmd_validate(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray) -> int:
    results = {
        "split_invariance": _check_split_invariance(report.spec),
        "sensitivity_fd": _check_sensitivity_fd(report.spec, cfg.seed),
        "mc_model": _check_mc(report, cfg.trials, cfg.seed),
    }
    checks = {name: {"pass": ok, "detail": msg} for name, (ok, msg) in results.items()}
    all_ok = all(c["pass"] for c in checks.values())
    payload = {"pass": all_ok, "checks": checks, "f_n": report.f_n}
    write_json(os.path.join(cfg.output_dir, "validate.json"), payload)
    for name, c in checks.items():
        print(("PASS " if c["pass"] else "FAIL ") + c["detail"])
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_simulate(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray) -> int:
    spec = report.spec
    run = run_experiment(report, cfg.amplitude, cfg.n_samples, cfg.seed,
                         segment=cfg.segment, overlap_fraction=cfg.overlap)
    provenance = {
        "config": {"fx_ratio": spec.f_c, "amplitude": cfg.amplitude, "n_samples": cfg.n_samples,
                   "seed": cfg.seed, "fs": cfg.sample_rate_hz},
        "spec": spec.as_dict(),
        "format": {"i_n": list(report.i_n_k), "f_n": report.f_n, "sign_bits": 1},
    }
    export_run(run, cfg.output_dir, provenance)
    edge = spec.f_c * spec.D
    print(f"decimated {len(run.bitstream)} -> {len(run.decimated)} samples; "
          f"useful band edge {edge:.4f}; overloads {run.overload_count}")
    return EXIT_OK


def cmd_compare(cfg: DesignConfig, report: WordLengthReport, freqs: np.ndarray, band: np.ndarray) -> int:
    spec = report.spec
    gcf_peaks, comb_peaks = band_peaks(spec)
    lo, hi = folding_bands(spec)
    att_c = np.array([worst_case_attenuation(m) for m in comb_peaks])
    att_g = np.array([worst_case_attenuation(m) for m in gcf_peaks])
    write_columns(os.path.join(cfg.output_dir, "comparison.csv"), {
        "band": np.arange(1, len(lo) + 1), "low": lo, "high": hi,
        "comb_attenuation_dB": att_c, "gcf_attenuation_dB": att_g, "improvement_dB": att_g - att_c,
    })
    worst_c, worst_g = att_c.min(), att_g.min()  # the attenuation falls as the peak rises
    print(f"worst-case attenuation: comb {worst_c:.2f} dB, gcf {worst_g:.2f} dB, "
          f"improvement {worst_g - worst_c:.2f} dB")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    """--config plus --field-name per DesignConfig field."""
    parser.add_argument("--config", help="JSON config file")
    for f in fields(DesignConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_field_type(f), dest=f.name)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with each "--flag -value" of a numeric DesignConfig flag joined as "--flag=-value".

    argparse takes a token that starts with "-" as an option's value only
    when it looks like -1 or -.5, so -1e-3 or -inf would stop at a usage
    error instead of reaching the config checks that name the value.
    """
    numeric = {"--" + f.name.replace("_", "-") for f in fields(DesignConfig) if _field_type(f) is not str}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in numeric and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser(commands) -> argparse.ArgumentParser:
    """The gcfkit parser with one subcommand per name in commands."""
    parser = argparse.ArgumentParser(prog="gcfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "design":
            p.add_argument("--sweep-splits", action="store_true",
                           help="also write fn_sweep.csv over all splits, chi and y values")
    return parser


def main(argv=None) -> int:
    handlers = {
        "design": cmd_design,
        "response": cmd_response,
        "sensitivity": cmd_sensitivity,
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
    }
    argv = _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
    overrides = vars(build_parser(handlers).parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    switches = {"sweep_splits": overrides.pop("sweep_splits")} if command == "design" else {}
    try:
        cfg = load_config(path, overrides)
        spec, tol = cfg.spec(), cfg.tolerance()
        _check_sizes(cfg, spec, command)
        freqs = grid_frequencies(folding_bands(spec), cfg.points_per_band, cfg.global_points)
        band = band_index(spec, freqs)  # band > 0 selects the in-band points
        report = design_wordlengths(spec, tol, cfg.input_width, freqs[band > 0])
        try:
            os.makedirs(cfg.output_dir, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cannot create output_dir {cfg.output_dir!r}: {exc.strerror}") from exc
        write_json(os.path.join(cfg.output_dir, "resolved_config.json"), cfg.as_dict())
        return handlers[command](cfg, report, freqs, band, **switches)
    except StageOverflowError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
