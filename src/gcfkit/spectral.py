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

from .errors import OverlappingBandsError, ParameterError
from .filters import (
    CombSpec, GcfSpec, normalization_gain, polyphase_impulse, stage_coefficients, write_columns,
)

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

    D: int
    f_c: float
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


@dataclass(frozen=True)
class ResponseGrid:
    """Sampled complex response with folding-band membership flags."""

    freqs: np.ndarray
    values: np.ndarray
    in_band_mask: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)


def folding_bands(D: int, f_c: float) -> FoldingBandSet:
    """Folding bands for decimation by D with signal half-width f_c.

    k_M = floor(D/2) for even D, floor((D-1)/2) for odd D; band points are
    clipped to [0, 1/2].  f_c >= 1/(2D) makes adjacent bands touch baseband
    or each other, which is unusable for design.
    """
    if D < 2:
        raise ParameterError(f"D must be >= 2, got {D}")
    if not 0.0 < f_c:
        raise ParameterError(f"f_c must be positive, got {f_c}")
    if f_c >= 1.0 / (2 * D):
        raise OverlappingBandsError(
            f"f_c = {f_c} >= 1/(2D) = {1.0 / (2 * D)}: folding bands overlap"
        )
    k_m = D // 2 if D % 2 == 0 else (D - 1) // 2
    bands = tuple(
        (k / D - f_c, min(k / D + f_c, 0.5)) for k in range(1, k_m + 1)
    )
    return FoldingBandSet(D=D, f_c=f_c, bands=bands)


def _sinc_ratio(f: np.ndarray, D: int) -> np.ndarray:
    # sin(pi f D) / (D sin(pi f)) == sinc(f D) / sinc(f); np.sinc resolves the
    # removable singularities (f -> 0 and, for the numerator, f = k/D) exactly.
    return np.sinc(D * f) / np.sinc(f)


def comb_response(comb: CombSpec, f) -> complex | np.ndarray:
    """Complex response of the classical comb, unity gain at DC."""
    f = np.asarray(f, dtype=float)
    mag = _sinc_ratio(f, comb.D)
    phase = np.exp(-1j * np.pi * f * (comb.D - 1))
    out = (mag * phase) ** comb.n_c
    return out if out.ndim else complex(out)


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


def gcf_response(spec: GcfSpec, f, normalized: bool = False) -> complex | np.ndarray:
    """Complex GCF response H_P * H_N at f (cycles/sample).

    The cascade part uses the closed-form stage product; the polyphase part
    is evaluated from the reassembled branches of h_p (blocked over frequencies,
    threaded, and bit-identical to the per-branch loop; see
    _polyphase_response).  With normalized set the result is scaled by h_o
    (unity DC gain).
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    out = cascade_response(f_arr, spec.cascade_stages, stage_coefficients(spec))
    if spec.D1 > 1:
        out = out * _polyphase_response(f_arr, polyphase_impulse(spec), spec.D1)
    if normalized:
        out = out * normalization_gain(spec)
    return out if np.ndim(f) else complex(out[0])


def response_grid(
    spec_or_comb,
    band_config: FoldingBandSet,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
) -> ResponseGrid:
    """Dense response grid over [0, 1/2] with folding bands refined, unit DC gain.

    The grid is global_points uniform samples augmented so every folding
    band carries at least points_per_band samples including both edges and
    the center.
    """
    if points_per_band < 2:
        raise ParameterError(f"points_per_band must be >= 2, got {points_per_band}")
    freqs = grid_frequencies(band_config, points_per_band, global_points)
    if isinstance(spec_or_comb, CombSpec):
        values = comb_response(spec_or_comb, freqs)
    elif isinstance(spec_or_comb, GcfSpec):
        values = gcf_response(spec_or_comb, freqs, normalized=True)
    else:
        raise ParameterError(f"expected GcfSpec or CombSpec, got {type(spec_or_comb)!r}")
    return ResponseGrid(freqs=freqs, values=np.asarray(values), in_band_mask=band_config.contains(freqs))


def grid_frequencies(
    band_config: FoldingBandSet,
    points_per_band: int = DEFAULT_POINTS_PER_BAND,
    global_points: int = DEFAULT_GLOBAL_POINTS,
) -> np.ndarray:
    """Frequency samples of :func:`response_grid` without evaluating a filter."""
    pieces = [np.linspace(0.0, 0.5, global_points)]
    for lo, hi in band_config.bands:
        seg = np.linspace(lo, hi, points_per_band)
        center = (lo + hi) / 2.0
        pieces.append(seg)
        pieces.append(np.array([center]))
    return np.unique(np.concatenate(pieces))


def worst_case_attenuation(grid: ResponseGrid) -> float:
    """-20 log10 of the largest in-band magnitude, capped for exact zeros.

    The grid must be normalized (DC gain 1) for the result to be an
    attenuation relative to the passband.
    """
    if not np.any(grid.in_band_mask):
        raise ParameterError("grid has no in-band points")
    peak = float(np.max(grid.magnitude[grid.in_band_mask]))
    if peak <= 10.0 ** (-ATTENUATION_CAP_DB / 20.0):
        return ATTENUATION_CAP_DB
    return -20.0 * np.log10(peak)


def grid_to_csv(path, grid: ResponseGrid, extra: dict | None = None) -> None:
    """CSV export: freq, re, im, magnitude, magnitude_dB, in_band [, extras].

    This is the plot-data format for the response figures; extra maps column
    names to arrays aligned with the grid.
    """
    mag = grid.magnitude
    floor = 10.0 ** (-ATTENUATION_CAP_DB / 20.0)
    columns = {
        "freq": grid.freqs, "re": grid.values.real, "im": grid.values.imag,
        "magnitude": mag, "magnitude_dB": 20.0 * np.log10(np.maximum(mag, floor)),
        "in_band": grid.in_band_mask.astype(int),
    }
    columns.update({name: np.asarray(col, dtype=float) for name, col in (extra or {}).items()})
    write_columns(path, columns)
