"""Frequency-domain evaluation: folding bands, responses, attenuation.

Frequencies are cycles/sample in [0, 1/2] externally; omega = 2*pi*f
internally.  Responses of the linear-phase cascade are evaluated in product
form, stage by stage, which stays finite at the in-band zeros; by split
invariance that one stage kernel (stage_bracket, cascade_response) gives
every cascade response and sensitivity in the toolkit.  The
polyphase section is evaluated from its impulse response h_p by reassembling
the D1 branches h_p(D1*n + k), the architecture the paper evaluates, in
one loop over the branches; its memory is O(grid size x taps per branch)
and does not grow with D1.  The per-band peaks of compare
(band_peaks) are found by bracketing each peak with the pure-cascade form,
which is the same filter, and reassembling only there; the reassembly stays
the only source of the reported values, so they equal the band maxima of
the whole grid.

The folding bands are two arrays (lo, hi); band_index and band_maxima
treat every band at once, so nothing loops over the bands.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ParameterError
from .filters import GcfSpec, normalization_gain, polyphase_impulse, stage_coefficients, write_columns

# dB value reported for exact zeros so plots stay finite
ATTENUATION_CAP_DB = 300.0

DEFAULT_POINTS_PER_BAND = 129
DEFAULT_GLOBAL_POINTS = 4096
EDGE_EPS = 1e-12  # grid points this close outside a folding band count as in it


def folding_bands(spec: GcfSpec) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the folding bands k/D -/+ f_c, k = 1 .. D/2, of spec; hi is clipped to 1/2.

    GcfSpec holds f_c below 1/(2D), so the bands neither overlap nor touch baseband.
    """
    centers = np.arange(1, spec.D // 2 + 1) / spec.D
    return centers - spec.f_c, np.minimum(centers + spec.f_c, 0.5)


def band_index(spec: GcfSpec, freqs: np.ndarray) -> np.ndarray:
    """Folding band k = 1 .. D/2 of each frequency, 0 outside every band.

    k = rint(f D) when |f - k/D| <= f_c + EDGE_EPS and f <= 1/2 + EDGE_EPS.
    Where the widened bands touch (rho - D < 2e-12 D^2), a point in both
    belongs to its nearest band.
    """
    f = np.asarray(freqs, dtype=float)
    k = np.rint(f * spec.D)
    inside = (k >= 1) & (f <= 0.5 + EDGE_EPS) & (np.abs(f - k / spec.D) <= spec.f_c + EDGE_EPS)
    return np.where(inside, k, 0).astype(np.int32)  # a D with 2**31 bands could not hold its grid


def band_maxima(values: np.ndarray, band: np.ndarray, D: int) -> np.ndarray:
    """Largest of values over the points of each band k = 1 .. D/2 (their band_index; -inf if none)."""
    out = np.full(D // 2 + 1, -np.inf)
    np.maximum.at(out, band, values)
    return out[1:]


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

    w is in radians/sample.  k and r_k are scalars, or columns of shape
    (m, 1) giving one row of factors per entry.
    """
    half = 2.0 ** (k - 1)
    return 2.0 * (np.cos(3.0 * half * w) + r_k * np.cos(half * w))


def stage_derivative(w: np.ndarray, k: int) -> np.ndarray:
    """d/dr_k of stage_bracket: 2 cos(2^{k-1}w), w in radians/sample, k as in stage_bracket."""
    return 2.0 * np.cos((2.0 ** (k - 1)) * w)


def cascade_response(f, stage_ks, r, start=None) -> np.ndarray:
    """start (default ones) times the stage factors 2 e^{-j3*2^{k-1}w} (cos3x + r_k cosx).

    Each factor is applied as ((out * 2) * exp) * (b / 2) with b from
    stage_bracket; b / 2 is exact, and this order is the one the quantized
    d|H| was recorded with, which cancels two nearly equal magnitudes.  An
    entry of r may be an (m, 1) column, which gives m rows.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.ones_like(w, dtype=complex) if start is None else start
    for k, r_k in zip(stage_ks, r):
        out = out * 2.0 * np.exp(-3j * 2.0 ** (k - 1) * w) * (0.5 * stage_bracket(w, k, r_k))
    return out


def _polyphase_response(f: np.ndarray, h_p: np.ndarray, D1: int) -> np.ndarray:
    """H_P via the branch reassembly sum_k z^-k E_k(z^D1), e_k(n) = h_p(D1*n + k).

    h_p is zero-padded to whole rows of D1, so every branch has as many
    taps.  exp(-j w D1 n) is computed once and shared by all branches; each
    E_k(e^{j w D1}) is built with explicit adds over n left to right, and
    the branch terms exp(-j w k) E_k are added in k order, starting from the
    k = 0 term (a sum started from zeros would turn a -0.0 into 0.0).  The
    temporaries are a few arrays of grid size x taps per branch, whatever
    D1 is.
    """
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    padded = np.zeros(-(-len(h_p) // D1) * D1)
    padded[:len(h_p)] = h_p
    taps = padded.reshape(-1, D1)  # row n holds e_k(n) of every branch k
    e = np.exp(-1j * np.outer(w, D1 * np.arange(taps.shape[0])))
    for k in range(D1):
        ek = e[:, 0] * taps[0, k]
        for n in range(1, taps.shape[0]):
            ek += e[:, n] * taps[n, k]
        term = np.exp(-1j * w * k) * ek
        if k == 0:
            out = term
        else:
            out += term
    return out


def gcf_response(spec: GcfSpec, f: np.ndarray) -> np.ndarray:
    """Complex GCF response h_o * H_P * H_N at f (cycles/sample), unity DC gain.

    The cascade part uses the closed-form stage product; the polyphase part
    is evaluated from the reassembled branches of h_p, one branch at a time
    (see _polyphase_response).
    """
    out = cascade_response(f, spec.cascade_stages, stage_coefficients(spec))
    if spec.D1 > 1:
        # bank times cascade, in that order at every grid size: numpy would
        # compute out * bank as bank *= out for large temporaries only, and
        # the complex product is not bitwise commutative
        bank = _polyphase_response(f, polyphase_impulse(spec), spec.D1)
        bank *= out
        out = bank
    return out * normalization_gain(spec)


def _form_gap_bound(spec: GcfSpec) -> float:
    """Bound eps on the gap between |gcf_response| of spec and of its pure-cascade form.

    eps = ((pi + 1) L + 16 p) 2**-53, L = 3 D1 - 2: the terms bound the
    phase rounding of fl(w m) over the L taps, the L-term sum and the stage
    product, relative to the unit DC gain.  They scale with sum|h_p| /
    |sum h_p|, which is 1: h_p is a product of stages 1, r_k, r_k, 1 with
    r_k > 1 (2**k alpha < pi/2), so every tap is positive.
    """
    L = 3 * spec.D1 - 2
    return ((np.pi + 1.0) * L + 16.0 * spec.p) * 2.0 ** -53


def band_peaks(spec: GcfSpec, freqs: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Largest |gcf_response(spec, freqs)| over the points of each band (band_index(spec, freqs)).

    The values are those of the whole-grid reassembly, but it runs only
    where a band's peak can lie.  By split invariance the pure-cascade form
    of the design is the same filter; its |H| is cheap (no reassembly) and
    within eps = _form_gap_bound(spec) of the reassembled one.  So each
    band's peak lies among the points whose cascade-form magnitude is within
    2 eps of the band's cascade-form maximum (a band whose peak is below
    2 eps keeps all its points), and gcf_response, which gives every point
    the same value on any subset of the grid, is evaluated there only.
    """
    freqs = np.asarray(freqs, dtype=float)
    slack = 2.0 * _form_gap_bound(spec)
    cascade = np.abs(gcf_response(replace(spec, p_p=-1), freqs))
    floor = band_maxima(cascade, band, spec.D) - slack
    kept = np.flatnonzero((band > 0) & (cascade >= floor[band - 1]))
    return band_maxima(np.abs(gcf_response(spec, freqs[kept])), band[kept], spec.D)


def grid_frequencies(bands: tuple[np.ndarray, np.ndarray], points_per_band: int = DEFAULT_POINTS_PER_BAND,
                     global_points: int = DEFAULT_GLOBAL_POINTS) -> np.ndarray:
    """Dense frequency grid over [0, 1/2] with the folding bands (lo, hi) refined.

    The grid is global_points uniform samples augmented so every folding
    band carries at least points_per_band samples including both edges and
    the center.
    """
    if points_per_band < 2:
        raise ParameterError(f"points_per_band must be >= 2, got {points_per_band}")
    lo, hi = bands
    return np.unique(np.concatenate([
        np.linspace(0.0, 0.5, global_points),
        np.linspace(lo, hi, points_per_band, axis=1).ravel(),
        (lo + hi) / 2.0,
    ]))


def grid_size(spec: GcfSpec, points_per_band: int, global_points: int) -> int:
    """Points grid_frequencies(folding_bands(spec), ...) concatenates, before np.unique merges repeats."""
    return global_points + spec.D // 2 * (points_per_band + 1)


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
