"""A 40-digit evaluation of the generalized comb filter, the oracle of the accuracy tests.

Every float64 value the code sees is taken as exact: w = 2 pi f, the
multipliers r_k, the bank taps and the drawn errors.  Cosines are exact
unless the caller passes float ones.  Two pieces build every quantity: the
stage factor b_k = 2 (cos 3x + r_k cos x), x = 2^(k-1) w, from (cos 3x,
cos x, r_k), and the tap DTFT about a centre c, from the cosines and sines
of w (n - c).  Arrays run over the points w, with one row per stage or tap;
exact values are object arrays of mpmath numbers.  This is the only test
module that imports mpmath: without it, only the tests that import it skip.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 40  # every evaluation here, and any sum of its exact values


def exact(values):
    """The float64 values, or mpmath numbers, as an object array of mpmath numbers, unrounded."""
    return np.frompyfunc(mpmath.mpmathify, 1, 1)(np.asarray(values, dtype=object))


def stage_multipliers(alpha, ks):
    """r_k = 1 + 2 cos(2^k alpha) of the float64 alpha, for each k."""
    alpha = mpmath.mpf(alpha)
    return [1 + 2 * mpmath.cos(2 ** k * alpha) for k in ks]


def stage_polynomial(r):
    """Coefficients of prod_k (1 + r_k z^-d + r_k z^-2d + z^-3d), d = 2^k for the k-th entry of r."""
    poly = exact([1])
    for d, r_k in zip(2 ** np.arange(len(r)), r):
        out = exact(np.zeros(len(poly) + 3 * d))
        for shift, c in ((3 * d, 1), (2 * d, r_k), (d, r_k), (0, 1)):
            out[shift:shift + len(poly)] += c * poly
        poly = out
    return poly.astype(float)


def stage_cosines(w, ks):
    """(cos 3x, cos x), x = 2^(k-1) w, at each float64 w: two arrays with one row per k."""
    x = np.outer([mpmath.mpf(2) ** (k - 1) for k in ks], exact(w)).reshape(len(ks), len(w))
    cos = np.frompyfunc(mpmath.cos, 1, 1)
    return cos(3 * x), cos(x)


def tap_phases(w, n_taps, centre):
    """(cos, sin) of w (n - centre) for n < n_taps at each float64 w: two arrays with one row per tap."""
    cos_t, sin_t = np.empty((n_taps, len(w)), dtype=object), np.empty((n_taps, len(w)), dtype=object)
    for i, x in enumerate(exact(w)):
        z, phasor = mpmath.expj(x), mpmath.expj(-x * mpmath.mpf(centre))
        for n in range(n_taps):
            cos_t[n, i], sin_t[n, i] = phasor.real, phasor.imag
            phasor *= z
    return cos_t, sin_t


def stage_factor(cos3, cos1, r_k):
    """b_k = 2 (cos 3x + r_k cos x)."""
    return 2 * (cos3 + r_k * cos1)


def tap_dtft(taps, cos_t, sin_t):
    """sum_n t_n (cos theta_n - j sin theta_n) at each point, theta_n the phases of cos_t and sin_t."""
    t = exact(taps)
    return np.array([mpmath.mpc(mpmath.fdot(t, c), -mpmath.fdot(t, s))
                     for c, s in zip(exact(cos_t).T, exact(sin_t).T)], dtype=object)


def amplitude(cos3, cos1, r):
    """prod_k b_k / (2 + 2 r_k) at each point, from exact cosines: the real amplitude of the stages, unit DC gain."""
    out = mpmath.mpf(1)
    for c3, c1, r_k in zip(cos3, cos1, exact(r)):
        out = out * stage_factor(c3, c1, r_k) / (2 + 2 * r_k)
    return out


def draw_delta_h(bank, cos_t, sin_t, cos3, cos1, r, dc, draws):
    """d|H| = (|bank + E| prod_k |b_k(r_k + e_k)| - |bank| prod_k |b_k(r_k)|) / dc at each point, as float64.

    draws is one row of errors: the tap errors e_n first, whose DTFT E has
    the phases of cos_t and sin_t, then one error e_k per cascade stage.
    bank is the unperturbed bank at each point: a tap DTFT, an amplitude or
    1.  dc is the DC gain both magnitudes are taken over.
    """
    e = exact(draws)
    n_taps = len(e) - len(r)
    bank = exact(bank)
    mag, mag_q = np.abs(bank), np.abs(bank + tap_dtft(e[:n_taps], cos_t[:n_taps], sin_t[:n_taps]))
    for c3, c1, r_k, e_k in zip(exact(cos3), exact(cos1), exact(r), e[n_taps:]):
        mag, mag_q = mag * np.abs(stage_factor(c3, c1, r_k)), mag_q * np.abs(stage_factor(c3, c1, r_k + e_k))
    return ((mag_q - mag) / mpmath.mpf(dc)).astype(float)


def stage_factors(cos3, cos1, r):
    """b_k at each point, one row per stage, rounded to float64 from its exact value."""
    return np.array([stage_factor(c3, c1, r_k) for c3, c1, r_k in zip(cos3, cos1, exact(r))],
                    dtype=float).reshape(np.shape(cos3))


def unit_dc_magnitude(bank, cos3, cos1, taps, r):
    """|bank| prod_k |b_k| / (sum(taps) prod_k (2 + 2 r_k)) at each point: |H| at unit DC gain."""
    r = exact(r)
    out = np.abs(bank) / (mpmath.fsum(exact(taps)) * np.prod(2 + 2 * r))
    for c3, c1, r_k in zip(cos3, cos1, r):
        out = out * np.abs(stage_factor(c3, c1, r_k))
    return out


def response(bank, w, ks, r):
    """H = bank prod_k e^(-j3x) b_k, x = 2^(k-1) w, at each float64 w, as complex128."""
    out = bank
    expj = np.frompyfunc(mpmath.expj, 1, 1)
    for k, c3, c1, r_k in zip(ks, *stage_cosines(w, ks), exact(r)):
        out = out * expj(-3 * mpmath.mpf(2) ** (k - 1) * exact(w)) * stage_factor(c3, c1, r_k)
    return out.astype(complex)


def sensitivity(w, r, first_cascade, n_taps):
    """S_T = n_taps |H_N|^2 + sum_u |dH/dr_u|^2 at each float64 w, from exact derivatives.

    r holds every stage's multiplier, stage k at entry k; the stages from
    first_cascade on are the cascade H_N.  Each factor is over its DC gain
    2 + 2 r_k, and dH/dr_u has 2 cos x_u in place of b_u.
    """
    r = exact(r)
    cos3, cos1 = stage_cosines(w, range(len(r)))
    b = [stage_factor(c3, c1, r_k) / (2 + 2 * r_k) for c3, c1, r_k in zip(cos3, cos1, r)]
    out = n_taps * np.prod(b[first_cascade:] or [1], axis=0) ** 2
    for u in range(first_cascade, len(r)):
        out = out + (2 * cos1[u] / (2 + 2 * r[u])) ** 2 * np.prod(b[:u] + b[u + 1:] or [1], axis=0) ** 2
    return np.broadcast_to(out, len(w)).astype(float)


def cascade_magnitude(w, r):
    """|prod_k b_k / (2 + 2 r_k)| at the angle w, k < len(r): the |H| at unit DC gain of the stages of r.

    With c = cos x, x = 2^(k-1) w, b_k = 2 (4 c^3 - 3 c + r_k c) = 2 c (4 c^2 + r_k - 3), and the next
    stage's c is the double angle 2 c^2 - 1, so one cosine serves every stage.  r holds exact values.
    """
    c, out = mpmath.cos(w / 2), mpmath.mpf(1)
    for r_k in r:
        out *= 2 * c * (4 * c * c + r_k - 3) / (2 + 2 * r_k)
        c = 2 * c * c - 1
    return abs(out)


def band_maxima(w_lo, w_hi, D, alpha, r, steps=60):
    """(peak, w_peak): the largest cascade_magnitude(w, r) over each band [w_lo, w_hi] and where it lies, as float64.

    Band k = 1, 2, ... holds the closed-form zeros 2 pi k / D and 2 pi k / D -/+ alpha of H, and |H| has
    one critical point between adjacent zeros, so it is unimodal on each piece of the band between its
    edges and the zeros inside.  A golden-section search of `steps` steps finds each piece's largest
    |H|; the edges are evaluated as they are.  The float64 w_lo, w_hi, alpha and r are exact.
    """
    r, alpha, shrink = exact(r), mpmath.mpf(alpha), (mpmath.sqrt(5) - 1) / 2
    peaks, where = [], []
    for k, (lo, hi) in enumerate(zip(exact(w_lo), exact(w_hi)), start=1):
        centre = 2 * mpmath.pi * k / D
        cuts = [lo, *(z for z in (centre - alpha, centre, centre + alpha) if lo < z < hi), hi]
        best = max((cascade_magnitude(w, r), w) for w in (lo, hi))
        for a, b in zip(cuts, cuts[1:]):
            x1, x2 = b - shrink * (b - a), a + shrink * (b - a)
            f1, f2 = cascade_magnitude(x1, r), cascade_magnitude(x2, r)
            for _ in range(steps):
                if f1 < f2:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + shrink * (b - a)
                    f2 = cascade_magnitude(x2, r)
                else:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - shrink * (b - a)
                    f1 = cascade_magnitude(x1, r)
            best = max(best, (f1, x1), (f2, x2))
        peaks.append(best[0])
        where.append(best[1])
    return np.array(peaks, dtype=float), np.array(where, dtype=float)
