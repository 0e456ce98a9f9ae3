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
