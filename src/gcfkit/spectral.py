"""Frequency-domain evaluation: folding bands, responses, attenuation.

Frequencies are cycles/sample in [0, 1/2] externally; omega = 2*pi*f
internally.  Responses of the linear-phase cascade are evaluated in product
form, stage by stage, which stays finite at the in-band zeros; by split
invariance that one stage kernel (stage_bracket, cascade_response) gives
every cascade response and sensitivity in the toolkit.  The
polyphase section is evaluated from its impulse response h_p by reassembling
the D1 branches h_p(D1*n + k), the architecture the paper evaluates; the
reassembly runs over fixed blocks of frequencies spread across threads, so
its memory does not grow with D1 x grid size, and its result is
bit-identical to the plain per-branch loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .filters import GcfSpec, normalization_gain, polyphase_impulse, stage_coefficients, write_columns

# dB value reported for exact zeros so plots stay finite
ATTENUATION_CAP_DB = 300.0

DEFAULT_POINTS_PER_BAND = 129
DEFAULT_GLOBAL_POINTS = 4096

# Frequencies per block of the branch reassembly.  A block's temporaries are
# (block x D1) complex arrays, 1 MB each at D1 = 1024, which keeps them in
# cache; larger blocks measured slower at D1 = 1024.
_REASSEMBLY_BLOCK = 64


@dataclass(frozen=True)
class FoldingBandSet:
    """Closed intervals [k/D - f_c, k/D + f_c] that alias onto baseband."""

    bands: tuple[tuple[float, float], ...]

    EDGE_EPS = 1e-12  # so that grid points at k/D +/- f_c count as in-band

    def band_masks(self, freqs: np.ndarray):
        """One boolean mask per band, each band widened by EDGE_EPS."""
        freqs = np.asarray(freqs, dtype=float)
        for lo, hi in self.bands:
            yield (freqs >= lo - self.EDGE_EPS) & (freqs <= hi + self.EDGE_EPS)

    def contains(self, freqs: np.ndarray) -> np.ndarray:
        """Boolean mask of frequencies lying inside any folding band."""
        mask = np.zeros(np.shape(freqs), dtype=bool)
        for band in self.band_masks(freqs):
            mask |= band
        return mask


def folding_bands(spec: GcfSpec) -> FoldingBandSet:
    """Folding bands k/D -/+ f_c, k = 1 .. D/2, of the design spec.

    Band points are clipped to [0, 1/2].  GcfSpec holds f_c below 1/(2D),
    so the bands neither overlap nor touch baseband.
    """
    D, f_c = spec.D, spec.f_c
    return FoldingBandSet(bands=tuple((k / D - f_c, min(k / D + f_c, 0.5)) for k in range(1, D // 2 + 1)))


def _sinc_ratio(f: np.ndarray, D: int) -> np.ndarray:
    # sin(pi f D) / (D sin(pi f)) == sinc(f D) / sinc(f); np.sinc resolves the
    # removable singularities (f -> 0 and, for the numerator, f = k/D) exactly.
    return np.sinc(D * f) / np.sinc(f)


def comb_response(spec: GcfSpec, f: np.ndarray) -> np.ndarray:
    """Complex response at the frequencies f of the third-order comb of spec.D, unity gain at DC."""
    f = np.asarray(f, dtype=float)
    return (_sinc_ratio(f, spec.D) * np.exp(-1j * np.pi * f * (spec.D - 1))) ** 3


def stage_bracket(w: np.ndarray, k: int, r_k) -> np.ndarray:
    """Real factor 2(cos(3*2^{k-1}w) + r_k cos(2^{k-1}w)) of full-rate stage k.

    w is in radians/sample.  r_k is a scalar, or a column of shape (m, 1)
    giving one row of factors per value.
    """
    half = 2.0 ** (k - 1)
    return 2.0 * (np.cos(3.0 * half * w) + r_k * np.cos(half * w))


def stage_derivative(w: np.ndarray, k: int) -> np.ndarray:
    """d/dr_k of stage_bracket: 2 cos(2^{k-1}w), w in radians/sample."""
    return 2.0 * np.cos((2.0 ** (k - 1)) * w)


def stage_brackets(f, stage_ks, r) -> np.ndarray:
    """stage_bracket of every stage at frequencies f, one row per stage."""
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.empty((len(r), len(w)))
    for row, (k, r_k) in enumerate(zip(stage_ks, r)):
        out[row] = stage_bracket(w, k, r_k)
    return out


def cascade_response(f, stage_ks, r, start=None) -> np.ndarray:
    """start (default ones) times the stage factors 2 e^{-j3*2^{k-1}w} (cos3x + r_k cosx).

    Each factor is applied as ((out * 2) * exp) * (b / 2) with b from
    stage_bracket; b / 2 is exact, and this order is the one the quantized
    d|H| was recorded with, which cancels two nearly equal magnitudes.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.ones_like(w, dtype=complex) if start is None else start
    for k, r_k in zip(stage_ks, r):
        out = out * 2.0 * np.exp(-3j * 2.0 ** (k - 1) * w) * (0.5 * stage_bracket(w, k, r_k))
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _polyphase_response(f: np.ndarray, h_p: np.ndarray, D1: int) -> np.ndarray:
    """H_P via the branch reassembly sum_k z^-k E_k(z^D1), e_k(n) = h_p(D1*n + k).

    h_p is zero-padded to whole rows of D1, so every branch has as many
    taps.  Bit-identical to the per-branch loop

        out = 0
        for k in range(D1):
            e_k = h_p[k::D1]
            out += exp(-j w k) * sum_n e_k(n) exp(-j w D1 n)

    with the sums in the same order: exp(-j w D1 n) is computed once per
    frequency and shared by all branches, each E_k(e^{j w D1}) is built with
    explicit adds over n left to right, and the branch terms are summed left
    to right by a cumulative sum along the branch axis.  The frequencies are
    processed in blocks of _REASSEMBLY_BLOCK, spread over one thread per
    available CPU (numpy releases the interpreter lock), so the temporaries
    are a few (block x D1) arrays per thread.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    padded = np.zeros(-(-len(h_p) // D1) * D1)
    padded[:len(h_p)] = h_p
    taps = padded.reshape(-1, D1).T  # (D1, taps per branch)
    delays = D1 * np.arange(taps.shape[1])
    k = np.arange(D1)

    def block(start: int) -> np.ndarray:
        wb = w[start:start + _REASSEMBLY_BLOCK]
        e = np.exp(-1j * np.outer(wb, delays))
        ek = e[:, :1] * taps[:, 0]
        for n in range(1, taps.shape[1]):
            ek += e[:, n:n + 1] * taps[:, n]
        terms = np.exp(-1j * wb[:, None] * k) * ek
        # copy, so that the block's cumulative sum is not kept alive
        return np.cumsum(terms, axis=1)[:, -1].copy()

    starts = range(0, len(w), _REASSEMBLY_BLOCK)
    out = np.empty(len(w), dtype=complex)
    with ThreadPoolExecutor(max_workers=max(1, min(len(starts), _cpu_count()))) as pool:
        for start, values in zip(starts, pool.map(block, starts)):
            out[start:start + len(values)] = values
    return out


def gcf_response(spec: GcfSpec, f: np.ndarray) -> np.ndarray:
    """Complex GCF response h_o * H_P * H_N at f (cycles/sample), unity DC gain.

    The cascade part uses the closed-form stage product; the polyphase part
    is evaluated from the reassembled branches of h_p (blocked over frequencies,
    threaded, and bit-identical to the per-branch loop; see
    _polyphase_response).
    """
    out = cascade_response(f, spec.cascade_stages, stage_coefficients(spec))
    if spec.D1 > 1:
        out = out * _polyphase_response(f, polyphase_impulse(spec), spec.D1)
    return out * normalization_gain(spec)


def grid_frequencies(
    band_config: FoldingBandSet,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
) -> np.ndarray:
    """Dense frequency grid over [0, 1/2] with the folding bands refined.

    The grid is global_points uniform samples augmented so every folding
    band carries at least points_per_band samples including both edges and
    the center.
    """
    if points_per_band < 2:
        raise ParameterError(f"points_per_band must be >= 2, got {points_per_band}")
    pieces = [np.linspace(0.0, 0.5, global_points)]
    for lo, hi in band_config.bands:
        seg = np.linspace(lo, hi, points_per_band)
        center = (lo + hi) / 2.0
        pieces.append(seg)
        pieces.append(np.array([center]))
    return np.unique(np.concatenate(pieces))


def worst_case_attenuation(in_band_magnitude) -> float:
    """-20 log10 of the largest in-band magnitude, capped for exact zeros.

    The magnitudes must be of a unit-DC-gain response for the result to be
    an attenuation relative to the passband.
    """
    if not np.size(in_band_magnitude):
        raise ParameterError("grid has no in-band points")
    peak = float(np.max(in_band_magnitude))
    if peak <= 10.0 ** (-ATTENUATION_CAP_DB / 20.0):
        return ATTENUATION_CAP_DB
    return -20.0 * np.log10(peak)


def grid_to_csv(path, freqs, values, in_band_mask, extra: dict | None = None) -> None:
    """CSV export: freq, re, im, magnitude, magnitude_dB, in_band [, extras].

    This is the plot-data format for the response figures: values is the
    complex response at freqs, in_band_mask their folding-band flags, and
    extra maps column names to arrays aligned with freqs.
    """
    mag = np.abs(values)
    floor = 10.0 ** (-ATTENUATION_CAP_DB / 20.0)
    columns = {
        "freq": freqs, "re": values.real, "im": values.imag,
        "magnitude": mag, "magnitude_dB": 20.0 * np.log10(np.maximum(mag, floor)),
        "in_band": in_band_mask.astype(int),
    }
    columns.update({name: np.asarray(col, dtype=float) for name, col in (extra or {}).items()})
    write_columns(path, columns)
