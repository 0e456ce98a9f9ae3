"""End-to-end decimation experiment: 2nd-order sigma-delta front end,
fixed-point GCF cascade, Welch spectra.

The modulator is the standard double-integrator feedback loop with a 2-level
quantizer (both feedback taps unity), giving (1 - z^-1)**2 noise shaping.
All processing runs in normalized frequency; a physical sampling rate is
never used here (`gcfkit simulate` records it in config.json only).  Every
stage walks the signal in blocks of _SAMPLE_BLOCK samples; the test signal
(8 B/sample) is freed once modulated, so only the int8 bitstream spans the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StageOverflowError
from .filters import GcfSpec, normalization_gain, write_columns, write_json, writing_artifact
from .wordlength import rounded_multipliers

# 2-level quantizer with +/-1 output: inputs beyond +/-2 exceed the
# no-overload range (quantization error magnitude > 1).
OVERLOAD_LIMIT = 2.0

GENERATOR_TAPS = 1025

# Samples per block in every stage of the experiment.
_SAMPLE_BLOCK = 1 << 16


@dataclass(frozen=True)
class ModulatorResult:
    """Bitstream (+/-1) and the count of quantizer overload events."""

    bits: np.ndarray
    overload_count: int


@dataclass(frozen=True)
class SimulationRun:
    """One experiment's signals and spectra; deterministic given its inputs."""

    bitstream: np.ndarray
    decimated: np.ndarray
    psd_in: tuple[np.ndarray, np.ndarray]
    psd_out: tuple[np.ndarray, np.ndarray]
    overload_count: int


def generate_bandlimited_signal(f_c: float, amplitude: float, n_samples: int, seed: int) -> np.ndarray:
    """Band-limited Gaussian test signal of n_samples, peak-scaled to amplitude.

    White noise shaped by a Hann windowed-sinc low-pass with cutoff f_c
    (1025 taps); deterministic given seed.  amplitude must lie in [0, 0.8],
    where the modulator does not overload.
    """
    if not 0.0 <= amplitude <= 0.8:
        raise ParameterError(f"amplitude must be in [0, 0.8] (overload guard), got {amplitude}")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    k = np.arange(GENERATOR_TAPS) - (GENERATOR_TAPS - 1) / 2.0
    taps = 2.0 * f_c * np.sinc(2.0 * f_c * k) * np.hanning(GENERATOR_TAPS)
    x = np.empty(n_samples)
    # the noise is drawn in blocks from one stream; each block's "valid"
    # convolution starts on the last GENERATOR_TAPS - 1 draws of the one before
    white = rng.standard_normal(GENERATOR_TAPS - 1)
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, n_samples)
        white = np.concatenate((white[-(GENERATOR_TAPS - 1):], rng.standard_normal(stop - start)))
        x[start:stop] = np.convolve(white, taps, mode="valid")
    peak = max(float(x.max()), -float(x.min()))
    if peak > 0.0:
        x *= amplitude / peak
    else:
        x.fill(0.0)
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
    x = np.asarray(x, dtype=float)
    bits = np.empty(len(x), dtype=np.int8)
    v1 = v2 = y_prev = 0.0
    overload = 0
    for start in range(0, len(x), _SAMPLE_BLOCK):
        trace = []  # the block's quantizer inputs v2
        for x_n in x[start:start + _SAMPLE_BLOCK].tolist():
            v1 += x_n - y_prev
            v2 += v1 - y_prev
            y_prev = 1.0 if v2 >= 0.0 else -1.0
            trace.append(v2)
        v2s = np.array(trace)
        bits[start:start + len(v2s)] = np.where(v2s >= 0.0, 1, -1)
        overload += int(np.count_nonzero(np.abs(v2s) > OVERLOAD_LIMIT))
    return ModulatorResult(bits=bits, overload_count=overload)


def _check_decimator_args(spec: GcfSpec, i_n: tuple[int, ...], f_n: int) -> None:
    """Reject a split or register sizing that the fixed-point decimator cannot run."""
    if spec.p_p != -1:
        raise ParameterError("fixed-point decimation expects the cascaded form (p_p = -1)")
    if len(i_n) != spec.p:
        raise ParameterError(f"i_n must size all {spec.p} stages, got {len(i_n)}")
    if f_n < 0 or any(b < 0 for b in i_n):
        raise ParameterError("bit counts must be non-negative")
    # int64 headroom: worst register needs i_n[-1] + p*f_n bits
    if i_n[-1] + spec.p * f_n > 62:
        raise ParameterError("register widths exceed 64-bit integer arithmetic")


def decimate_fixed_point(bitstream, spec: GcfSpec, i_n: tuple[int, ...], f_n: int) -> np.ndarray:
    """Decimate through the p-stage fixed-point cascade (each stage by 2).

    Every stage applies 1 + r_k (z^-1 + z^-2) + z^-3 at its own rate with
    r_k rounded to f_n fraction bits (the r_q of rounded_multipliers, which
    design exports as cascade_quantized.csv), accumulates exactly in integers
    (fraction bits grow by f_n per stage, no truncation), checks the result
    against its sized integer width i_n[k], and keeps the even samples.  The
    final output is scaled by h_o in floating point.  The input runs through in
    blocks, each stage carrying its last 3 inputs across them; an overflow
    names the lowest stage that overflows anywhere in the signal, with that
    stage's peak over the whole signal.  An input sample with
    |x| >= 2**i_n[0] does not fit stage 0's register and raises
    StageOverflowError for stage 0.
    """
    _check_decimator_args(spec, i_n, f_n)
    x = np.asarray(bitstream)
    if not np.issubdtype(x.dtype, np.integer):
        raise ParameterError("bitstream must be integer-valued")
    n_in = len(x)
    # an input that does not fit stage 0's register would wrap in the shifts below
    peak_in = max(int(x.max()), -int(x.min())) if n_in else 0
    if peak_in >= 1 << i_n[0]:
        raise StageOverflowError(0, float(peak_in), float(1 << i_n[0]))
    r_q = rounded_multipliers(spec, f_n)[3]
    r_int = np.rint(r_q * 2.0 ** f_n).astype(np.int64)
    limits = [1 << (i_n[k] + (k + 1) * f_n) for k in range(spec.p)]
    peaks = [0] * spec.p
    history = [np.zeros(3, np.int64)] * spec.p  # each stage's last 3 inputs
    # lowest stage that has overflowed so far: its peak stays over the limit, so every
    # later block stops there too, before the stages above it could wrap int64
    over = spec.p
    h_o = normalization_gain(spec)
    out = np.empty(n_in // spec.D)
    # blocks are a multiple of D long, so each stage keeps the even samples of the whole signal
    block = max(_SAMPLE_BLOCK // spec.D, 1) * spec.D
    for start in range(0, n_in, block):
        v = x[start:start + block].astype(np.int64)
        for k in range(spec.p):
            n = len(v)
            ext = np.concatenate((history[k], v))
            history[k] = ext[n:]
            v = (v << f_n) + r_int[k] * (ext[2:n + 2] + ext[1:n + 1]) + (ext[:n] << f_n)
            peaks[k] = max(peaks[k], int(np.max(np.abs(v))))
            if peaks[k] >= limits[k]:
                over = k
                break
            v = v[::2]
        if over == spec.p:
            o = start // spec.D
            v = v[: len(out) - o]
            out[o:o + len(v)] = v.astype(float) * (2.0 ** -(spec.p * f_n)) * h_o
    if over < spec.p:
        raise StageOverflowError(over, peaks[over] / 2.0 ** ((over + 1) * f_n), float(1 << i_n[over]))
    return out


def _check_welch_args(segment: int, n_samples: int, overlap_fraction: float) -> None:
    """Reject a Welch segment or overlap that a signal of n_samples cannot use."""
    if segment < 2:
        raise ParameterError(f"segment must be >= 2 samples, got {segment}")
    if segment > n_samples:
        raise ParameterError(f"segment {segment} longer than signal ({n_samples} samples)")
    if not 0.0 <= overlap_fraction <= 0.9:
        raise ParameterError(f"overlap_fraction must be in [0, 0.9], got {overlap_fraction}")


def welch_psd(x, segment: int = 4096, overlap_fraction: float = 0.5):
    """One-sided Welch PSD normalized so sum(psd) * df equals the variance.

    Welch (1967): segments of `segment` samples at a step of
    segment - int(segment * overlap_fraction), each mean-removed and
    multiplied by the periodic Hann window; the periodograms
    |rfft|**2 / sum(window**2), doubled at every bin but DC and Nyquist,
    are averaged.  Returns (frequencies in cycles/sample, psd).
    """
    x = np.asarray(x)
    _check_welch_args(segment, len(x), overlap_fraction)
    step = segment - int(segment * overlap_fraction)
    segs = np.lib.stride_tricks.sliding_window_view(x, segment)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    total = np.zeros(segment // 2 + 1)
    # 64 segments are made float at a time; the periodograms are summed one
    # by one in segment order, the order of mean(axis=0)
    for first in range(0, len(segs), 64):
        chunk = np.asarray(segs[first:first + 64], dtype=float)
        power = np.abs(np.fft.rfft((chunk - chunk.mean(axis=1, keepdims=True)) * window, axis=1)) ** 2
        power /= np.sum(window ** 2)
        power[:, 1:(None if segment % 2 else -1)] *= 2.0
        for row in power:
            total += row
    return np.fft.rfftfreq(segment), total / len(segs)


def run_experiment(
    spec: GcfSpec,
    i_n: tuple[int, ...],
    f_n: int,
    amplitude: float,
    n_samples: int,
    seed: int,
    segment: int = 4096,
    overlap_fraction: float = 0.5,
) -> SimulationRun:
    """Generate a test signal band-limited to spec.f_c, modulate, decimate and measure both spectra.

    The output count, the Welch arguments and the decimator's split and
    register sizes are checked before any work.
    """
    if n_samples // spec.D < 2:
        raise ParameterError(f"n_samples {n_samples} gives fewer than 2 output samples at D={spec.D}")
    _check_welch_args(segment, n_samples, overlap_fraction)
    _check_decimator_args(spec, i_n, f_n)
    mod = sd_modulate(generate_bandlimited_signal(spec.f_c, amplitude, n_samples, seed))  # frees the signal
    decimated = decimate_fixed_point(mod.bits, spec, i_n, f_n)
    psd_in = welch_psd(mod.bits, segment, overlap_fraction)
    psd_out = welch_psd(decimated, min(segment, len(decimated)), overlap_fraction)
    return SimulationRun(
        bitstream=mod.bits, decimated=decimated,
        psd_in=psd_in, psd_out=psd_out,
        overload_count=mod.overload_count,
    )


def _psd_to_csv(path, freqs, power):
    floor = 1e-30
    write_columns(path, {"freq": freqs, "power": power,
                         "power_dB": 10.0 * np.log10(np.maximum(power, floor))})


def export_run(run: SimulationRun, outdir, provenance: dict) -> None:
    """Write the run directory: config.json, bitstream.bin, CSV artifacts.

    config.json holds provenance followed by the run's overload_count.
    bitstream.bin holds one byte per sample, 0x00 for -1 and 0x01 for +1.
    """
    with writing_artifact(outdir):
        os.makedirs(outdir, exist_ok=True)
    write_json(os.path.join(outdir, "config.json"), {**provenance, "overload_count": run.overload_count})
    path = os.path.join(outdir, "bitstream.bin")
    with writing_artifact(path):
        (run.bitstream > 0).astype(np.uint8).tofile(path)
    write_columns(os.path.join(outdir, "decimated.csv"),
                  {"index": np.arange(len(run.decimated)), "value": run.decimated})
    _psd_to_csv(os.path.join(outdir, "psd_in.csv"), *run.psd_in)
    _psd_to_csv(os.path.join(outdir, "psd_out.csv"), *run.psd_out)
