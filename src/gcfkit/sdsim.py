"""End-to-end decimation experiment: 2nd-order sigma-delta front end,
fixed-point GCF cascade, Welch spectra.

The modulator is the standard double-integrator feedback loop with a 2-level
quantizer (both feedback taps unity), giving (1 - z^-1)**2 noise shaping.
All processing runs in normalized frequency; a physical sampling rate is
carried as metadata only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StageOverflowError
from .filters import GcfSpec, normalization_gain, stage_coefficients, write_columns
from .wordlength import FixedPointFormat, quantize_coefficients

# 2-level quantizer with +/-1 output: inputs beyond +/-2 exceed the
# no-overload range (quantization error magnitude > 1).
OVERLOAD_LIMIT = 2.0

GENERATOR_TAPS = 1025


@dataclass(frozen=True)
class SdConfig:
    """Test-signal and run parameters for the decimation experiment."""

    fx_ratio: float
    amplitude: float = 0.5
    n_samples: int = 2 ** 18
    seed: int = 12345
    fs: float | None = None  # Hz, axis labels only

    def __post_init__(self):
        if not 0.0 < self.fx_ratio < 0.5:
            raise ParameterError(f"fx_ratio must be in (0, 0.5), got {self.fx_ratio}")
        if not 0.0 <= self.amplitude <= 0.8:
            raise ParameterError(
                f"amplitude must be in [0, 0.8] (overload guard), got {self.amplitude}"
            )
        if self.n_samples < 1:
            raise ParameterError(f"n_samples must be >= 1, got {self.n_samples}")

    def as_dict(self) -> dict:
        return {
            "fx_ratio": self.fx_ratio, "amplitude": self.amplitude,
            "n_samples": self.n_samples, "seed": self.seed, "fs": self.fs,
        }


@dataclass(frozen=True)
class ModulatorResult:
    """Bitstream (+/-1) and the count of quantizer overload events."""

    bits: np.ndarray
    overload_count: int


@dataclass(frozen=True)
class SimulationRun:
    """One experiment with full provenance; deterministic given config."""

    config: SdConfig
    spec: dict
    fmt: FixedPointFormat
    bitstream: np.ndarray
    decimated: np.ndarray
    psd_in: tuple[np.ndarray, np.ndarray]
    psd_out: tuple[np.ndarray, np.ndarray]
    overload_count: int


def generate_bandlimited_signal(cfg: SdConfig) -> np.ndarray:
    """Band-limited Gaussian test signal, peak-scaled to cfg.amplitude.

    White noise shaped by a Hann windowed-sinc low-pass with cutoff
    fx_ratio (1025 taps); deterministic given cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    white = rng.standard_normal(cfg.n_samples + GENERATOR_TAPS - 1)
    k = np.arange(GENERATOR_TAPS) - (GENERATOR_TAPS - 1) / 2.0
    taps = 2.0 * cfg.fx_ratio * np.sinc(2.0 * cfg.fx_ratio * k) * np.hanning(GENERATOR_TAPS)
    x = np.convolve(white, taps, mode="valid")
    peak = float(np.max(np.abs(x)))
    if peak > 0.0:
        x = x * (cfg.amplitude / peak)
    else:
        x = np.zeros_like(x)
    return x


def sd_modulate(x) -> ModulatorResult:
    """Run the 2nd-order modulator over x, returning the +/-1 bitstream.

    Recurrence (states start at zero, y[-1] = 0):

        v1 <- v1 + (x[n] - y[n-1])
        v2 <- v2 + (v1 - y[n-1])
        y[n] = +1 if v2 >= 0 else -1

    States are bounded for |x| <= 0.8; quantizer inputs beyond the
    no-overload range are counted, never raised.
    """
    v1 = 0.0
    v2 = 0.0
    y_prev = 0.0
    overload = 0
    limit = OVERLOAD_LIMIT
    out = []
    for x_n in np.asarray(x, dtype=float).tolist():
        v1 += x_n - y_prev
        v2 += v1 - y_prev
        if v2 > limit or v2 < -limit:
            overload += 1
        y_prev = 1.0 if v2 >= 0.0 else -1.0
        out.append(y_prev)
    return ModulatorResult(bits=np.array(out, dtype=np.int8), overload_count=overload)


def decimate_fixed_point(bitstream, spec: GcfSpec, fmt: FixedPointFormat) -> np.ndarray:
    """Decimate through the p-stage fixed-point cascade (each stage by 2).

    Every stage applies 1 + r_k (z^-1 + z^-2) + z^-3 at its own rate with
    r_k rounded to fmt.f_n fraction bits, accumulates exactly in integers
    (fraction bits grow by f_n per stage, no truncation), checks the result
    against the sized integer width, and keeps the even samples.  The final
    output is scaled by h_o in floating point.  An input sample with
    |x| >= 2**fmt.i_n[0] does not fit stage 0's register and raises
    StageOverflowError for stage 0.
    """
    if spec.p_p != -1:
        raise ParameterError("fixed-point decimation expects the cascaded form (p_p = -1)")
    if len(fmt.i_n) != spec.p:
        raise ParameterError(f"fmt.i_n must size all {spec.p} stages, got {len(fmt.i_n)}")
    x = np.asarray(bitstream)
    if not np.issubdtype(x.dtype, np.integer):
        raise ParameterError("bitstream must be integer-valued")
    n_in = len(x)
    f_n = fmt.f_n
    # int64 headroom: worst register needs i_n[-1] + p*f_n bits
    if fmt.i_n[-1] + spec.p * f_n > 62:
        raise ParameterError("register widths exceed 64-bit integer arithmetic")
    # an input that does not fit stage 0's register would wrap in the shifts below
    peak_in = max(int(x.max()), -int(x.min())) if n_in else 0
    if peak_in >= 1 << fmt.i_n[0]:
        raise StageOverflowError(0, float(peak_in), float(1 << fmt.i_n[0]))
    r_q = quantize_coefficients(np.asarray(stage_coefficients(spec).r), f_n)
    r_int = np.rint(r_q * 2.0 ** f_n).astype(np.int64)
    v = x.astype(np.int64)
    shift = 0
    for k in range(spec.p):
        x1 = np.concatenate((np.zeros(1, np.int64), v))[: len(v)]
        x2 = np.concatenate((np.zeros(2, np.int64), v))[: len(v)]
        x3 = np.concatenate((np.zeros(3, np.int64), v))[: len(v)]
        v = (v << f_n) + r_int[k] * (x1 + x2) + (x3 << f_n)
        shift += f_n
        peak = int(np.max(np.abs(v))) if len(v) else 0
        limit = 1 << (fmt.i_n[k] + shift)
        if peak >= limit:
            raise StageOverflowError(k, peak / 2.0 ** shift, float(1 << fmt.i_n[k]))
        v = v[::2]
    h_o = normalization_gain(spec).h_o
    out = v.astype(float) * (2.0 ** -shift) * h_o
    return out[: n_in // spec.D]


def welch_psd(x, segment: int = 4096, overlap_fraction: float = 0.5):
    """One-sided Welch PSD normalized so sum(psd) * df equals the variance.

    Welch (1967): segments of `segment` samples at a step of
    segment - int(segment * overlap_fraction), each mean-removed and
    multiplied by the periodic Hann window; the periodograms
    |rfft|**2 / sum(window**2), doubled at every bin but DC and Nyquist,
    are averaged.  Returns (frequencies in cycles/sample, psd).
    """
    x = np.asarray(x, dtype=float)
    if segment < 2:
        raise ParameterError(f"segment must be >= 2 samples, got {segment}")
    if segment > len(x):
        raise ParameterError(f"segment {segment} longer than signal ({len(x)} samples)")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ParameterError(f"overlap_fraction must be in [0, 0.9], got {overlap_fraction}")
    step = segment - int(segment * overlap_fraction)
    segs = np.lib.stride_tricks.sliding_window_view(x, segment)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    power = np.abs(np.fft.rfft((segs - segs.mean(axis=1, keepdims=True)) * window, axis=1)) ** 2
    power /= np.sum(window ** 2)
    power[:, 1:(None if segment % 2 else -1)] *= 2.0
    return np.fft.rfftfreq(segment), power.mean(axis=0)


def run_experiment(
    cfg: SdConfig,
    spec: GcfSpec,
    fmt: FixedPointFormat,
    segment: int = 4096,
    overlap_fraction: float = 0.5,
) -> SimulationRun:
    """Generate, modulate, decimate and measure both spectra."""
    if not math.isclose(cfg.fx_ratio, spec.f_c, rel_tol=1e-9):
        raise ParameterError(
            f"config fx_ratio {cfg.fx_ratio} must equal the filter f_c {spec.f_c}"
        )
    if cfg.n_samples // spec.D < 2:
        raise ParameterError(f"n_samples {cfg.n_samples} gives fewer than 2 output samples at D={spec.D}")
    x = generate_bandlimited_signal(cfg)
    mod = sd_modulate(x)
    decimated = decimate_fixed_point(mod.bits, spec, fmt)
    psd_in = welch_psd(mod.bits.astype(float), segment, overlap_fraction)
    psd_out = welch_psd(decimated, min(segment, len(decimated)), overlap_fraction)
    return SimulationRun(
        config=cfg, spec=spec.as_dict(), fmt=fmt,
        bitstream=mod.bits, decimated=decimated,
        psd_in=psd_in, psd_out=psd_out,
        overload_count=mod.overload_count,
    )


def _psd_to_csv(path, freqs, power):
    floor = 1e-30
    write_columns(path, {"freq": freqs, "power": power,
                         "power_dB": 10.0 * np.log10(np.maximum(power, floor))})


def export_run(run: SimulationRun, outdir) -> None:
    """Write the run directory: config.json, bitstream.bin, CSV artifacts.

    bitstream.bin holds one byte per sample, 0x00 for -1 and 0x01 for +1.
    """
    import os

    os.makedirs(outdir, exist_ok=True)
    provenance = {
        "config": run.config.as_dict(),
        "spec": run.spec,
        "format": {"i_n": list(run.fmt.i_n), "f_n": run.fmt.f_n, "sign_bits": run.fmt.sign_bits},
        "overload_count": run.overload_count,
    }
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        json.dump(provenance, fh, indent=2)
        fh.write("\n")
    raw = ((run.bitstream.astype(np.int16) + 1) // 2).astype(np.uint8)
    raw.tofile(os.path.join(outdir, "bitstream.bin"))
    write_columns(os.path.join(outdir, "decimated.csv"),
                  {"index": np.arange(len(run.decimated)), "value": run.decimated})
    _psd_to_csv(os.path.join(outdir, "psd_in.csv"), *run.psd_in)
    _psd_to_csv(os.path.join(outdir, "psd_out.csv"), *run.psd_out)
