"""Roundoff bounds of the response, S_T, the quantized d|H| and the Monte Carlo rows, against tests/mp_gcf.py.

Each kernel's error at 16 random in-band points must lie within MULTIPLE
units of 2**-53 times a condition number times its value, both computed here
from the kernel's inputs.  Every factor contributes its roundoff scale: a
stage factor b_k = 2 (cos 3x + r_k cos x), x = 2^(k-1) w, contributes
2 (1 + |3x| + |r_k| (1 + |x|)), for the rounding of each cosine's argument and
of its value, and a tap DTFT about a centre c contributes
sum_n |t_n| (1 + |w (n - c)|).  A product's scale is
sum_k scale_k prod_{j != k} |f_j|, so the condition number of b_k is its
scale over |b_k| and that of a tap DTFT H is sum_n |t_n| (1 + |w (n - c)|) / |H|.
A few more units per point cover the sums, products and divisions.
"""

import numpy as np
import pytest

import mp_gcf  # skips this module without mpmath

from gcf_helpers import in_band
from gcfkit import GcfSpec, ToleranceSpec, gcf_response, quantization_error_response, sensitivity
from gcfkit.filters import normalization_gain, polyphase_impulse, stage_coefficients, stage_multiplier
from gcfkit.wordlength import _mc_delta_h, _mc_draws, rounded_multipliers
from test_mc_kernel_accuracy import designed_filter

EPS = 2.0 ** -53
MULTIPLE = 8
SPLITS = [(D, pp) for D in (16, 64, 256, 1024) for pp in range(-1, D.bit_length() - 1)]
MC_SPLITS = [(16, -1), (64, 1), (256, -1), (256, 3), (256, 7), (1024, 5), (1024, 9)]


def points(D, pp):
    """spec at rho = 2D, its F_n at chi = 1e-4, y = 2, and 16 random in-band points of its default grid."""
    spec = GcfSpec.from_oversampling(D, 2 * D, p_p=pp)
    freqs = in_band(spec)
    f_n, _ = sensitivity(spec, freqs).fraction_bits(ToleranceSpec(1e-4, 2.0))
    return spec, f_n, np.sort(np.random.default_rng(D + pp).choice(freqs, 16, replace=False))


def stage_arguments(w, ks):
    """|x| = |2^(k-1) w|: one row per stage k."""
    return np.abs(np.outer(2.0 ** (np.array(ks, dtype=float) - 1), w))


def stage_scale(w, ks, r):
    """2 (1 + |3x| + |r_k| (1 + |x|)), x = 2^(k-1) w: one row per stage."""
    x = stage_arguments(w, ks)
    return 2.0 * (1.0 + 3.0 * x + np.abs(np.asarray(r, dtype=float))[:, None] * (1.0 + x))


def dtft_scale(taps, w, centre):
    """sum_n |t_n| (1 + |w (n - centre)|)."""
    return np.abs(taps) @ (1.0 + np.abs(np.outer(np.arange(len(taps)) - centre, w)))


def product_scale(factors, scales):
    """sum_k scales_k prod_{j != k} |factors_j|: the scale of prod_k factors_k, one row per factor."""
    factors = np.abs(np.asarray(factors, dtype=float))
    return sum(s * np.prod(np.delete(factors, k, axis=0), axis=0) for k, s in enumerate(scales))


def assert_within(got, exact, scale, what):
    ratio = np.abs(got - exact) / (EPS * scale)
    print(f"{what}: largest error {np.max(np.abs(got - exact)):.3g}, {np.max(ratio):.3g} of the bound's units")
    assert np.max(ratio) <= MULTIPLE


@pytest.mark.parametrize("D,pp", SPLITS, ids=[f"D{D}-pp{pp}" for D, pp in SPLITS])
def test_response_is_within_its_roundoff_bound(D, pp):
    # the stage product at D1 = 1; at a bank split, the branch reassembly of h_p times the cascade
    spec, _, freqs = points(D, pp)
    w, ks, r = 2.0 * np.pi * freqs, spec.cascade_stages, stage_coefficients(spec)
    taps = polyphase_impulse(spec)
    h_o = normalization_gain(spec)
    bank = mp_gcf.tap_dtft(taps, *mp_gcf.tap_phases(w, len(taps), 0))
    exact = mp_gcf.response(bank, w, ks, r) * h_o
    b = mp_gcf.stage_factors(*mp_gcf.stage_cosines(w, ks), r)
    scale = h_o * product_scale([np.abs(bank).astype(float), *b], [dtft_scale(taps, w, 0), *stage_scale(w, ks, r)])
    # the phase of each stage is off by the rounding of its argument 3x
    scale += np.abs(exact) * (3.0 * np.sum(stage_arguments(w, ks), axis=0) + spec.p + 4)
    assert_within(gcf_response(spec, freqs), exact, scale, "H")


@pytest.mark.parametrize("D,pp", SPLITS, ids=[f"D{D}-pp{pp}" for D, pp in SPLITS])
def test_sensitivity_is_within_its_roundoff_bound(D, pp):
    spec, _, freqs = points(D, pp)
    w, ks = 2.0 * np.pi * freqs, range(spec.p)
    r = np.array([stage_multiplier(spec.alpha, k) for k in ks])
    n_taps = 3 * spec.D1 - 2 if spec.D1 > 1 else 0
    exact = mp_gcf.sensitivity(w, r, spec.p_p + 1, n_taps)
    cos3, cos1 = mp_gcf.stage_cosines(w, ks)
    dc = 2.0 + 2.0 * r[:, None]
    b, sb = mp_gcf.stage_factors(cos3, cos1, r) / dc, stage_scale(w, ks, r) / dc
    # c_u = 2 cos x_u / (2 + 2 r_u), whose argument x_u is exact
    c, sc = 2.0 * cos1.astype(float) / dc, 2.0 * (1.0 + stage_arguments(w, ks)) / dc
    # each term is a product of squares, a square f**2 of scale 2 |f| s
    cascade = slice(spec.p_p + 1, spec.p)
    scale = n_taps * product_scale(b[cascade] ** 2, 2.0 * np.abs(b[cascade]) * sb[cascade])
    for u in range(spec.p_p + 1, spec.p):
        f = np.vstack((c[u], np.delete(b, u, axis=0)))
        s = np.vstack((sc[u], np.delete(sb, u, axis=0)))
        scale = scale + product_scale(f ** 2, 2.0 * np.abs(f) * s)
    scale = scale + exact * (2 * spec.p + 4)
    assert_within(sensitivity(spec, freqs).s_t, exact, scale, "S_T")


@pytest.mark.parametrize("D,pp", SPLITS, ids=[f"D{D}-pp{pp}" for D, pp in SPLITS])
def test_quantized_delta_h_is_within_its_roundoff_bound(D, pp):
    spec, f_n, freqs = points(D, pp)
    w, ks = 2.0 * np.pi * freqs, spec.cascade_stages
    taps, r, taps_q, r_q = rounded_multipliers(spec, f_n)
    cos3, cos1 = mp_gcf.stage_cosines(w, ks)
    cos_t, sin_t = mp_gcf.tap_phases(w, len(taps), 0)
    mags, scale = [], 0.0
    for t, rv in ((taps, r), (taps_q, r_q)):
        bank = mp_gcf.tap_dtft(t, cos_t, sin_t)
        mags.append(mp_gcf.unit_dc_magnitude(bank, cos3, cos1, t, rv))
        factors = [np.abs(bank).astype(float), *mp_gcf.stage_factors(cos3, cos1, rv)]
        dc = t.sum() * np.prod(2.0 + 2.0 * rv)
        scale = scale + product_scale(factors, [dtft_scale(t, w, 0), *stage_scale(w, ks, rv)]) / dc
        scale = scale + mags[-1].astype(float) * (len(t) + 2 * len(rv) + 4)  # the DC sums, products and division
    exact = (mags[1] - mags[0]).astype(float)
    assert_within(quantization_error_response(spec, f_n, freqs)[1], exact, scale, "d|H|")


@pytest.mark.parametrize("D,pp", MC_SPLITS, ids=[f"D{D}-pp{pp}" for D, pp in MC_SPLITS])
def test_monte_carlo_rows_are_within_their_roundoff_bound(D, pp):
    spec, f_n, freqs = points(D, pp)
    w, ks, r = 2.0 * np.pi * freqs, spec.cascade_stages, np.asarray(stage_coefficients(spec))
    draws = _mc_draws(spec, f_n, 2, 3)  # two rows, so that the products are those of a run
    rows = next(_mc_delta_h(spec, draws, freqs))
    filt, dc = designed_filter(spec, w)
    amplitude, cos_t, sin_t, cos3, cos1 = filt
    bank_ks = range(spec.p_p + 1)
    r_bank = np.array([stage_multiplier(spec.alpha, k) for k in bank_ks])
    cb3, cb1 = mp_gcf.stage_cosines(w, bank_ks)
    # the amplitude A = prod b_k / (2 + 2 r_k) over the bank stages
    scale_a = product_scale(mp_gcf.stage_factors(cb3, cb1, r_bank) / (2.0 + 2.0 * r_bank[:, None]),
                            stage_scale(w, bank_ks, r_bank) / (2.0 + 2.0 * r_bank[:, None]))
    a = np.abs(amplitude * np.ones(len(w))).astype(float)
    n_taps = draws.shape[1] - len(ks)
    for row, got in zip(draws, rows):
        exact = mp_gcf.draw_delta_h(*filt, r, dc, row)
        e, e_r = row[:n_taps], row[n_taps:]
        a_q = np.abs(amplitude + mp_gcf.tap_dtft(e, cos_t, sin_t)).astype(float)
        scale = 0.0
        for bank, bank_scale, rv in ((a, scale_a, r), (a_q, scale_a + dtft_scale(e, w, (n_taps - 1) / 2), r + e_r)):
            b = mp_gcf.stage_factors(cos3, cos1, rv)
            scale = scale + product_scale([bank, *b], [bank_scale, *stage_scale(w, ks, rv)]) / dc
            scale = scale + bank * np.prod(np.abs(b), axis=0) / dc * (2 * spec.p + 8)
        assert_within(got, exact, scale, "Monte Carlo d|H|")
