"""The Monte Carlo d|H| kernel against a 40-digit evaluation of the same trial.

At 40 random in-band points, tests/mp_gcf.py evaluates |H_q| - |H| from the
float64 inputs the kernel sees (w = 2 pi f, the multipliers, the draws and the
DC divisor), about the unit-DC float taps of rounded_multipliers or about the
designed filter, whose bank is the stage product of stages 0..p_p.

Each kernel must be at least as accurate as the one it replaced, in its
largest and median absolute error, stored as numbers: ``old_mc_delta_h``
(tests/test_stage_kernel.py), whose complex tap matrix the pair-folded bank
replaced, and ``old_pair_folded_mc_delta_h``, whose rounded r_k + e_k the
multiplied-out stage product replaced.  For the stage product, the largest
error against exact cosines is set by the rounding of 3 * 2**(k-1) * w in
np.cos, which both kernels share (2e-16 at the paper point, against their own
1e-18), so it is compared against the designed filter from the float cosines
both kernels take; the median is compared against both.  Neither kernel wins
at every point, so no pointwise claim is made.
"""

import numpy as np
import pytest

import mp_gcf  # skips this module without mpmath

from gcf_helpers import in_band
from gcfkit import GcfSpec, ToleranceSpec, sensitivity, stage_coefficients
from gcfkit.filters import stage_dc_gain, stage_multiplier
from gcfkit.spectral import stage_bracket
from gcfkit.wordlength import _mc_delta_h, _mc_draws, mc_draw_width, rounded_multipliers

POINTS = [(64, 1, 256), (256, 3, 512), (1024, 9, 2048)]
# the float-tap oracle keeps the ids of the points; the designed filter's add a suffix
CASES = [(*point, oracle) for oracle in ("float-taps", "designed") for point in POINTS]
IDS = [f"D{D}-pp{pp}" + ("-designed" if oracle == "designed" else "") for D, pp, _, oracle in CASES]
OLD_PAIR_ERRORS = {  # (largest, median) |old_mc_delta_h - oracle| of one trial (seed 7)
    (64, "float-taps"): (1.966132877166682e-16, 1.6549961508496752e-21),
    (256, "float-taps"): (1.991730212832707e-16, 1.4066723304347081e-21),
    (1024, "float-taps"): (7.012464475200306e-14, 2.273046795274805e-16),
    (64, "designed"): (1.8924071294376676e-16, 1.6545260149937124e-21),
    (256, "designed"): (1.9020463643774216e-16, 1.834273008336339e-21),
    (1024, "designed"): (7.012596612340077e-14, 2.2731738502168933e-16),
}


def design_points(spec):
    """F_n at chi = 1e-4, y = 2 over the default grid, and 40 of its in-band points, sorted."""
    freqs = in_band(spec)
    f_n, _ = sensitivity(spec, freqs).fraction_bits(ToleranceSpec(1e-4, 2.0))
    return f_n, np.sort(np.random.default_rng(spec.D).choice(freqs, 40, replace=False))


def float_taps_filter(spec, w):
    """The unit-DC float taps as a bank about n = 0, exact cosines, and the kernel's float DC divisor."""
    taps, r, _, _ = rounded_multipliers(spec, 0)
    cos_t, sin_t = mp_gcf.tap_phases(w, len(taps), 0)
    filt = (mp_gcf.tap_dtft(taps, cos_t, sin_t), cos_t, sin_t, *mp_gcf.stage_cosines(w, spec.cascade_stages))
    return filt, taps.sum() * stage_dc_gain(r)


def designed_filter(spec, w):
    """The amplitude of stages 0..p_p, the tap phases about their centre and the cascade cosines, all exact,
    and the cascade's float DC gain."""
    bank_ks, n_taps = range(spec.p_p + 1), mc_draw_width(spec) - len(spec.cascade_stages)
    bank = mp_gcf.amplitude(*mp_gcf.stage_cosines(w, bank_ks), [stage_multiplier(spec.alpha, k) for k in bank_ks])
    filt = (bank, *mp_gcf.tap_phases(w, n_taps, (n_taps - 1) / 2), *mp_gcf.stage_cosines(w, spec.cascade_stages))
    return filt, stage_dc_gain(stage_coefficients(spec))


def float_cosine_filter(spec, w):
    """designed_filter from the float64 values the kernels take: stage_bracket, and np.cos and np.sin of
    theta = w (n - c) for the pairs n < L / 2, mirrored to every tap, and of the stage arguments."""
    ks = list(spec.cascade_stages)
    n_taps = mc_draw_width(spec) - len(ks)
    amplitude = np.ones(len(w))
    for k in range(spec.p_p + 1):
        r_k = stage_multiplier(spec.alpha, k)
        amplitude *= stage_bracket(w, k, r_k) / (2.0 + 2.0 * r_k)
    theta = np.outer(np.arange(n_taps // 2) - (n_taps - 1) / 2.0, w)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    x = np.outer(2.0 ** (np.array(ks, dtype=float) - 1), w)
    phases = mp_gcf.exact([np.vstack((cos_t, cos_t[::-1])), np.vstack((sin_t, -sin_t[::-1]))])
    return (amplitude, *phases, np.cos(3.0 * x), np.cos(x)), stage_dc_gain(stage_coefficients(spec))


def oracle_rows(spec, filt, dc, draws):
    """d|H| of each draw row about filt, over dc, from tests/mp_gcf.py."""
    return np.concatenate([mp_gcf.draw_delta_h(*filt, stage_coefficients(spec), dc, row) for row in draws])


@pytest.mark.parametrize("D,pp,rho,oracle", CASES, ids=IDS)
def test_pair_folded_kernel_is_at_least_as_accurate(D, pp, rho, oracle):
    spec = GcfSpec.from_oversampling(D, rho, p_p=pp)
    f_n, freqs = design_points(spec)
    draws = _mc_draws(spec, f_n, 1, 7)
    filt = {"float-taps": float_taps_filter, "designed": designed_filter}[oracle]
    exact = oracle_rows(spec, *filt(spec, 2.0 * np.pi * freqs), draws)
    new = next(_mc_delta_h(spec, draws, freqs))[0]
    err_new = np.abs(new - exact)
    old_max, old_median = OLD_PAIR_ERRORS[D, oracle]
    print(f"D={D} p_p={pp} F_n={f_n} ({oracle}): max {old_max:.2g} -> {err_new.max():.2g}, "
          f"median {old_median:.2g} -> {np.median(err_new):.2g}")
    assert err_new.max() <= old_max
    assert np.median(err_new) <= old_median


STAGE_POINTS = [(16, -1, 64), (64, -1, 256), (256, -1, 512), *POINTS]  # D=256, p_p=-1 has two stage groups
# (largest, median) |old_pair_folded_mc_delta_h - oracle| of two trials (seed 7), exact and float cosines
OLD_STAGE_ERRORS = {
    (16, -1): ((2.163057449491466e-16, 8.480917384383682e-20), (2.868053559403061e-18, 6.982727858927638e-20)),
    (64, -1): ((1.0761426539923798e-16, 4.674087448807452e-21), (2.036267205199338e-18, 1.4233710390506224e-21)),
    (256, -1): ((4.653618864549827e-19, 1.2221593550470984e-22), (4.612259833922176e-19, 6.484320520591469e-23)),
    (64, 1): ((5.342406204922323e-17, 1.7023926305966833e-21), (3.1459266882167744e-18, 8.891351479635423e-22)),
    (256, 3): ((9.043940184423616e-17, 8.85755339679439e-22), (3.024863015305351e-19, 3.2822268212162715e-23)),
    (1024, 9): ((4.865357249028701e-18, 9.0801931945661e-19), (1.3552527156068805e-19, 1.3552527156068805e-20)),
}


@pytest.mark.parametrize("D,pp,rho", STAGE_POINTS, ids=[f"D{D}-pp{pp}" for D, pp, _ in STAGE_POINTS])
def test_stage_product_kernel_is_at_least_as_accurate(D, pp, rho):
    spec = GcfSpec.from_oversampling(D, rho, p_p=pp)
    f_n, freqs = design_points(spec)
    w = 2.0 * np.pi * freqs
    # two trials, so that every product takes the gemm path of the Monte Carlo's
    # blocks; a one-row product goes through gemv, which no run uses
    draws = _mc_draws(spec, f_n, 2, 7)
    new = next(_mc_delta_h(spec, draws, freqs)).ravel()
    exact = oracle_rows(spec, *designed_filter(spec, w), draws)
    from_floats = oracle_rows(spec, *float_cosine_filter(spec, w), draws)
    old_errors = OLD_STAGE_ERRORS[D, pp]
    for name, oracle, (old_max, old_median) in zip(("exact cosines", "float cosines"), (exact, from_floats), old_errors):
        err_new = np.abs(new - oracle)
        print(f"D={D} p_p={pp} F_n={f_n} ({name}): max {old_max:.3g} -> {err_new.max():.3g}, "
              f"median {old_median:.2g} -> {np.median(err_new):.2g}")
        assert np.median(err_new) <= old_median
    assert err_new.max() <= old_max  # against the float cosines
