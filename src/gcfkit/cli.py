"""Command-line front end.

Subcommands: design | response | sensitivity | validate | simulate | compare.
Every command reads an optional JSON config file plus flag overrides (flags
mirror config keys), writes CSV/JSON artifacts into the output directory and
embeds the resolved config for provenance.  Figure data is emitted as CSV
only; plotting is left to external tools.

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
    GcfSpec,
    coefficients_to_csv,
    coefficients_to_json,
    expand_full_polynomial,
    polyphase_impulse,
    stage_coefficients,
)
from .spectral import (
    DEFAULT_GLOBAL_POINTS,
    DEFAULT_POINTS_PER_BAND,
    FoldingBandSet,
    cascade_response,
    comb_response,
    folding_bands,
    gcf_response,
    grid_frequencies,
    grid_to_csv,
    worst_case_attenuation,
)
from .wordlength import (
    ToleranceSpec,
    cascade_derivative_magnitudes,
    design_wordlengths,
    monte_carlo_run,
    quantization_error_response,
    quantize_coefficients,
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
    q: float = 0.79
    oversampling_ratio: float | None = None  # f_c = 1/(2 rho)
    chi: float = 1e-4
    prob: float | None = None
    y: float | None = None
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
        if self.input_width < 1:
            raise ParameterError(f"input_width must be >= 1, got {self.input_width}")
        if self.points_per_band < 2:
            raise ParameterError(f"points_per_band must be >= 2, got {self.points_per_band}")
        if self.global_points < 0:
            raise ParameterError(f"global_points must be >= 0, got {self.global_points}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1000:
            raise ParameterError(f"trials must be >= 1000, got {self.trials}")
        fs = self.sample_rate_hz
        if fs is not None and not (math.isfinite(fs) and fs > 0):
            raise ParameterError(f"sample_rate_hz must be positive and finite, got {fs}")

    def spec(self) -> GcfSpec:
        if self.oversampling_ratio is None:
            raise ParameterError("oversampling_ratio is required")
        return GcfSpec.from_oversampling(self.decimation_factor, self.oversampling_ratio, self.pp_split, self.q)

    def tolerance(self) -> ToleranceSpec:
        if self.y is not None and self.prob is not None:
            raise ParameterError("give either prob or y, not both")
        if self.y is not None:
            return ToleranceSpec.from_y(self.chi, self.y)
        return ToleranceSpec.from_prob(self.chi, self.prob if self.prob is not None else 0.95)

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


def _write_config_echo(cfg: DesignConfig, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "resolved_config.json"), "w") as fh:
        json.dump(cfg.as_dict(), fh, indent=2)
        fh.write("\n")


SWEEP_CHIS = (5e-3, 1e-3, 1e-4)
SWEEP_YS = (2.0, 1.63)


def _grid(cfg: DesignConfig, spec: GcfSpec):
    """(folding bands, grid frequencies, in-band mask) of spec on the config's grid.

    Each command builds it once; its responses and its sizing all use it.
    """
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands, cfg.points_per_band, cfg.global_points)
    return bands, freqs, bands.contains(freqs)


def _write_fn_sweep(base: GcfSpec, in_band: np.ndarray, outdir: str) -> None:
    """F_n over every split of D, the standard chi triple and both working y.

    The folding bands do not depend on the split, so every split is sized
    on the same in-band frequencies; S_T does not depend on chi or y, so
    each split evaluates it once.
    """
    path = os.path.join(outdir, "fn_sweep.csv")
    with open(path, "w") as fh:
        fh.write("D,D1,pp_split,chi,y,f_n\n")
        for pp in range(-1, base.p):
            spec = replace(base, p_p=pp)
            sens = sensitivity(spec, in_band)
            for chi in SWEEP_CHIS:
                for y in SWEEP_YS:
                    f_n, _ = sens.fraction_bits(ToleranceSpec.from_y(chi, y))
                    fh.write(f"{spec.D},{spec.D1},{pp},{chi!r},{y!r},{f_n}\n")


def cmd_design(cfg: DesignConfig, sweep_splits: bool = False) -> int:
    spec = cfg.spec()
    tol = cfg.tolerance()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    _, freqs, mask = _grid(cfg, spec)
    in_band = freqs[mask]
    report = design_wordlengths(spec, tol, cfg.input_width, in_band)
    if sweep_splits:
        _write_fn_sweep(spec, in_band, outdir)
    report.to_json(os.path.join(outdir, "report.json"))
    r = np.asarray(stage_coefficients(spec))
    h_p = polyphase_impulse(spec)
    coefficients_to_csv(os.path.join(outdir, "cascade_exact.csv"), r)
    coefficients_to_csv(os.path.join(outdir, "cascade_quantized.csv"), quantize_coefficients(r, report.f_n))
    coefficients_to_csv(os.path.join(outdir, "bank_exact.csv"), h_p)
    coefficients_to_csv(
        os.path.join(outdir, "bank_quantized.csv"),
        quantize_coefficients(h_p / h_p.sum(), report.f_n),
    )
    coefficients_to_json(
        os.path.join(outdir, "coefficients.json"), spec,
        cascade=r, cascade_quantized=quantize_coefficients(r, report.f_n),
        bank=h_p, expanded=expand_full_polynomial(spec),
    )
    print(report.table())
    return EXIT_OK


def cmd_response(cfg: DesignConfig) -> int:
    spec = cfg.spec()
    tol = cfg.tolerance()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    bands, freqs, mask = _grid(cfg, spec)
    report = design_wordlengths(spec, tol, cfg.input_width, freqs[mask])
    grid_to_csv(os.path.join(outdir, "response_exact.csv"), freqs, gcf_response(spec, freqs), mask)
    quantized, delta_h = quantization_error_response(spec, report.f_n, freqs)
    grid_to_csv(os.path.join(outdir, "response_quantized.csv"), freqs, quantized, mask)
    grid_to_csv(os.path.join(outdir, "response_comb.csv"), freqs, comb_response(spec, freqs), mask)
    with open(os.path.join(outdir, "bands.csv"), "w") as fh:
        fh.write("k,low,high\n")
        for i, (lo, hi) in enumerate(bands.bands, start=1):
            fh.write(f"{i},{lo!r},{hi!r}\n")
    max_dev = float(np.max(np.abs(delta_h[mask])))
    print(f"max in-band |d|H|| at F_n={report.f_n}: {max_dev:.3e} (chi = {tol.chi:g})")
    return EXIT_OK


def cmd_sensitivity(cfg: DesignConfig) -> int:
    spec = cfg.spec()
    tol = cfg.tolerance()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    _, freqs, mask = _grid(cfg, spec)
    report = design_wordlengths(spec, tol, cfg.input_width, freqs[mask])
    _, delta_h = quantization_error_response(spec, report.f_n, freqs)
    result = sensitivity(spec, freqs)
    grid_to_csv(
        os.path.join(outdir, "sensitivity.csv"), freqs, gcf_response(spec, freqs), mask,
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
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.01, 0.49, size=50)
    analytic = cascade_derivative_magnitudes(caspec, freqs)
    r = np.asarray(stage_coefficients(caspec))
    ks = caspec.cascade_stages
    step = 1e-6
    worst = 0.0
    for u in range(len(r)):
        hi = r.copy(); hi[u] += step
        lo = r.copy(); lo[u] -= step
        fd = np.abs((cascade_response(freqs, ks, hi) - cascade_response(freqs, ks, lo)) / (2 * step))
        rel = np.max(np.abs(fd - analytic[u]) / np.maximum(np.abs(analytic[u]), 1e-30))
        worst = max(worst, float(rel))
    return worst <= 1e-5, f"sensitivity_fd: max rel err {worst:.3e} (tol 1e-5)"


def _check_mc(
    spec: GcfSpec, tol: ToleranceSpec, f_n: int, trials: int, seed: int, bands: FoldingBandSet,
) -> tuple[bool, str]:
    # Model-validity checks that hold for the uniform multiplier-noise model:
    # sigma_dh is an upper bound on the true per-frequency std (10% slack for
    # sampling noise), and coverage at the design y cannot fall far below the
    # Gaussian prediction.  The Monte Carlo runs on the default grid, not the
    # config's: moving it changes validate.json, which the benchmark checks,
    # so that move waits for the reference re-record of ROADMAP item 1.
    freqs = grid_frequencies(bands, DEFAULT_POINTS_PER_BAND, DEFAULT_GLOBAL_POINTS)
    run = monte_carlo_run(spec, f_n, trials, seed, tol.y, freqs[bands.contains(freqs)])
    ok_std = bool(np.all(run.error_std <= 1.1 * run.sigma_dh + 1e-18))
    cov = run.coverage()
    floor = math.erf(tol.y / math.sqrt(2.0)) - 0.03
    ok_cov = cov >= floor
    msg = (f"mc_model: std bound {'ok' if ok_std else 'VIOLATED'}, "
           f"coverage {cov:.4f} >= {floor:.4f} {'ok' if ok_cov else 'VIOLATED'}")
    return ok_std and ok_cov, msg


def cmd_validate(cfg: DesignConfig) -> int:
    spec = cfg.spec()
    tol = cfg.tolerance()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    bands, freqs, mask = _grid(cfg, spec)
    report = design_wordlengths(spec, tol, cfg.input_width, freqs[mask])
    checks = {}
    ok1, msg1 = _check_split_invariance(spec)
    checks["split_invariance"] = {"pass": ok1, "detail": msg1}
    ok2, msg2 = _check_sensitivity_fd(spec, cfg.seed)
    checks["sensitivity_fd"] = {"pass": ok2, "detail": msg2}
    ok3, msg3 = _check_mc(spec, tol, report.f_n, cfg.trials, cfg.seed, bands)
    checks["mc_model"] = {"pass": ok3, "detail": msg3}
    all_ok = all(c["pass"] for c in checks.values())
    payload = {"pass": all_ok, "checks": checks, "f_n": report.f_n}
    with open(os.path.join(outdir, "validate.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, c in checks.items():
        print(("PASS " if c["pass"] else "FAIL ") + c["detail"])
    return EXIT_OK if all_ok else EXIT_VALIDATION


def cmd_simulate(cfg: DesignConfig) -> int:
    spec = cfg.spec()
    tol = cfg.tolerance()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    _, freqs, mask = _grid(cfg, spec)
    report = design_wordlengths(spec, tol, cfg.input_width, freqs[mask])
    run = run_experiment(spec, report.i_n_k, report.f_n, cfg.amplitude, cfg.n_samples, cfg.seed,
                         segment=cfg.segment, overlap_fraction=cfg.overlap)
    provenance = {
        "config": {"fx_ratio": spec.f_c, "amplitude": cfg.amplitude, "n_samples": cfg.n_samples,
                   "seed": cfg.seed, "fs": cfg.sample_rate_hz},
        "spec": spec.as_dict(),
        "format": {"i_n": list(report.i_n_k), "f_n": report.f_n, "sign_bits": 1},
    }
    export_run(run, outdir, provenance)
    edge = spec.f_c * spec.D
    print(f"decimated {len(run.bitstream)} -> {len(run.decimated)} samples; "
          f"useful band edge {edge:.4f}; overloads {run.overload_count}")
    return EXIT_OK


def cmd_compare(cfg: DesignConfig) -> int:
    spec = cfg.spec()
    outdir = cfg.output_dir
    _write_config_echo(cfg, outdir)
    bands, freqs, mask = _grid(cfg, spec)
    gcf_mag = np.abs(gcf_response(spec, freqs))
    comb_mag = np.abs(comb_response(spec, freqs))
    with open(os.path.join(outdir, "comparison.csv"), "w") as fh:
        fh.write("band,low,high,comb_attenuation_dB,gcf_attenuation_dB,improvement_dB\n")
        for i, ((lo, hi), m) in enumerate(zip(bands.bands, bands.band_masks(freqs)), start=1):
            att_g = worst_case_attenuation(gcf_mag[m])
            att_c = worst_case_attenuation(comb_mag[m])
            row = (i, lo, hi, att_c, att_g, att_g - att_c)
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row) + "\n")
    worst_g = worst_case_attenuation(gcf_mag[mask])
    worst_c = worst_case_attenuation(comb_mag[mask])
    print(f"worst-case attenuation: comb {worst_c:.2f} dB, gcf {worst_g:.2f} dB, "
          f"improvement {worst_g - worst_c:.2f} dB")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    """--config plus --field-name per DesignConfig field."""
    parser.add_argument("--config", help="JSON config file")
    for f in fields(DesignConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_field_type(f), dest=f.name)


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
    overrides = vars(build_parser(handlers).parse_args(argv))
    command, path = overrides.pop("command"), overrides.pop("config")
    switches = {"sweep_splits": overrides.pop("sweep_splits")} if command == "design" else {}
    try:
        cfg = load_config(path, overrides)
        return handlers[command](cfg, **switches)
    except StageOverflowError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
