"""Frequency-domain evaluation: folding bands, responses, attenuation.

Frequencies are cycles/sample in [0, 1/2] externally; omega = 2*pi*f
internally.  Responses of the linear-phase cascade are evaluated in product
form, stage by stage, which stays finite at the in-band zeros; by split
invariance that one stage kernel (stage_bracket, cascade_response and the
real stage_amplitude) gives every cascade response and sensitivity.  The
polyphase section is evaluated from its impulse response h_p by reassembling
the D1 branches h_p(D1*n + k), the architecture the paper evaluates, in
one loop over the branches; its memory is O(grid size x taps per branch)
and does not grow with D1.  compare's per-band peaks (band_peaks) come
from the closed-form zeros k/D and k/D -/+ q f_c of each band, between
which |H| has one critical point each: bisection on the slope of
stage_amplitude over spec.multipliers finds them, and the response is
evaluated only there and at the band edges, with no grid.

The folding bands are two arrays (lo, hi); band_index and band_peaks
treat every band at once, so nothing loops over the bands.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .filters import GcfSpec, normalization_gain, polyphase_impulse, stage_coefficients, write_columns

# dB value reported for exact zeros so plots stay finite
ATTENUATION_CAP_DB = 300.0

DEFAULT_POINTS_PER_BAND = 129
DEFAULT_GLOBAL_POINTS = 4096
EDGE_EPS = 1e-12  # grid points this close outside a folding band count as in it
PEAK_BISECTIONS = 32  # halving a peak's bracket (<= f_c wide) 32 times leaves |H| within roundoff of the peak


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


def stage_amplitude(f: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """A = prod_k stage_bracket(w, k, r_k) / (2 + 2 r_k), k < len(r), at f, and A dA/dw (> 0 where |A| rises).

    Over spec.multipliers A is the filter's real amplitude, over their first p_p + 1 the bank's about its centre.
    """
    w = 2.0 * np.pi * f
    amp, slope = np.ones_like(w), np.zeros_like(w)
    for k, r_k in enumerate(r):
        half, gain = 2.0 ** (k - 1), 2.0 + 2.0 * r_k
        factor = stage_bracket(w, k, r_k) / gain
        rate = -2.0 * half * (3.0 * np.sin(3.0 * half * w) + r_k * np.sin(half * w)) / gain
        amp, slope = amp * factor, slope * factor + amp * rate  # the product rule stays finite at the zeros
    return amp, amp * slope


def band_peaks(spec: GcfSpec) -> tuple[np.ndarray, np.ndarray]:
    """(gcf, comb): the largest |gcf_response| and |comb_response| of spec over each folding band.

    In band k the pure-cascade amplitude A of spec has the zeros c - q f_c,
    c and c + q f_c (c = k/D) and one critical point between adjacent
    zeros: at each inner lobe's peak, and between an edge and its outer
    zero where the slope at that edge points into the band.  PEAK_BISECTIONS
    halvings on the sign of d|A|/df find them, and gcf_response is evaluated
    at the edges and at the points whose |A| beats both.  The comb, whose
    three zeros meet at c, is largest at an edge.
    """
    lo, hi = folding_bands(spec)
    n = len(lo)
    centers = np.arange(1, n + 1) / spec.D
    r = spec.multipliers
    left, right = centers - spec.q * spec.f_c, np.minimum(centers + spec.q * spec.f_c, hi)  # hi = c at 1/2
    edge_amp, rise = stage_amplitude(np.concatenate([lo, hi]), r)
    a, b = np.concatenate([lo, left, centers, right]), np.concatenate([left, centers, right, hi])
    inward = np.concatenate([rise[:n] > 0.0, np.ones(2 * n, bool), rise[n:] < 0.0]) & (a < b)
    band, a, b = np.tile(np.arange(n), 4)[inward], a[inward], b[inward]
    for _ in range(PEAK_BISECTIONS):
        mid = 0.5 * (a + b)
        rising = stage_amplitude(mid, r)[1] > 0.0
        a, b = np.where(rising, mid, a), np.where(rising, b, mid)
    kept = np.abs(stage_amplitude(a, r)[0]) > np.maximum(np.abs(edge_amp[:n]), np.abs(edge_amp[n:]))[band]
    gcf = np.abs(gcf_response(spec, np.concatenate([lo, hi, a[kept]])))
    peaks = np.maximum(gcf[:n], gcf[n:2 * n])
    np.maximum.at(peaks, band[kept], gcf[2 * n:])
    comb = np.abs(comb_response(spec, np.concatenate([lo, hi])))
    return peaks, np.maximum(comb[:n], comb[n:])


def grid_frequencies(bands: tuple[np.ndarray, np.ndarray], points_per_band: int = DEFAULT_POINTS_PER_BAND,
                     global_points: int = DEFAULT_GLOBAL_POINTS) -> np.ndarray:
    """Dense frequency grid over [0, 1/2] with the folding bands (lo, hi) refined.

    The grid is global_points uniform samples augmented so every folding
    band carries at least points_per_band samples including both edges and
    the center.  Sorted, it keeps the first of equal points (np.unique's result, without its numpy.ma import).
    """
    if points_per_band < 2:
        raise ParameterError(f"points_per_band must be >= 2, got {points_per_band}")
    lo, hi = bands
    grid = np.sort(np.concatenate([
        np.linspace(0.0, 0.5, global_points),
        np.linspace(lo, hi, points_per_band, axis=1).ravel(),
        (lo + hi) / 2.0,
    ]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def grid_size(spec: GcfSpec, points_per_band: int, global_points: int) -> int:
    """Points grid_frequencies(folding_bands(spec), ...) concatenates, before it drops repeats."""
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
