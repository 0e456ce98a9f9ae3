"""The Monte Carlo d|H| kernel against a 40-digit evaluation of the same trial.

For trials of multiplier errors at 40 random in-band points, the oracle
evaluates |H_q| - |H| in mpmath from the float64 inputs the kernel sees:
w = 2 pi f, the cascade multipliers, the drawn errors and the DC divisor.
H is the filter the errors perturb, taken two ways: the unit-DC float taps
of rounded_multipliers, or the designed filter, whose bank is the stage
product of the float r_k of stages 0..p_p, at unit DC gain.

Each kernel must be at least as accurate as the one it replaced, in its
largest and in its median absolute error: the pair-folded bank as the
complex tap matrix (``old_mc_delta_h``) against either filter, and the
multiplied-out stage product as the pair-folded kernel with rounded
r_k + e_k (``old_pair_folded_mc_delta_h``) against the designed filter.
For the stage product, the largest error against exact cosines is set by
the rounding of the argument 3 * 2**(k-1) * w in np.cos, which both kernels
share (2e-16 at the paper point, against their own 1e-18), so it is
compared against the designed filter evaluated from the float cosines both
kernels take; the median is compared against both.  Neither kernel wins at
every point, so no pointwise claim is made.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from gcfkit import GcfSpec, ToleranceSpec, sensitivity, stage_coefficients
from gcfkit.filters import stage_dc_gain, stage_multiplier
from gcfkit.spectral import band_index, folding_bands, grid_frequencies, stage_bracket
from gcfkit.wordlength import _mc_delta_h, _mc_draws, rounded_multipliers
from test_stage_kernel import old_mc_delta_h, old_pair_folded_mc_delta_h

POINTS = [(64, 1, 256), (256, 3, 512), (1024, 9, 2048)]
# the float-tap oracle keeps the ids of the points; the designed filter's add a suffix
CASES = [(*point, oracle) for oracle in ("float-taps", "designed") for point in POINTS]
IDS = [f"D{D}-pp{pp}" + ("-designed" if oracle == "designed" else "") for D, pp, _, oracle in CASES]


def oracle_delta_h(spec, f_n, draws, freqs):
    """|H_q| - |H| of the float taps over the kernel's DC divisor, 40 digits, for one row of draws."""
    taps, r, _, _ = rounded_multipliers(spec, f_n)
    ks = list(spec.cascade_stages)
    n_taps = len(draws) - len(ks)
    with mpmath.workdps(40):
        dc = mpmath.mpf(float(taps.sum() * stage_dc_gain(r)))
        t = [mpmath.mpf(float(x)) for x in taps]
        # the unit tap of D1 = 1 is wiring and draws no error
        tq = [a + mpmath.mpf(float(b)) for a, b in zip(t, draws[:n_taps])] if n_taps else t
        rv = [mpmath.mpf(float(x)) for x in r]
        rq = [a + mpmath.mpf(float(b)) for a, b in zip(rv, draws[n_taps:])]
        out = []
        for f in freqs:
            w = mpmath.mpf(float(2.0 * np.pi * f))
            z, phasor = mpmath.expj(-w), mpmath.mpc(1)
            bank, bank_q = mpmath.mpc(0), mpmath.mpc(0)
            for a, b in zip(t, tq):
                bank += a * phasor
                bank_q += b * phasor
                phasor *= z
            mag, mag_q = abs(bank), abs(bank_q)
            for k, a, b in zip(ks, rv, rq):
                half = mpmath.mpf(2) ** (k - 1)
                cos3, cos1 = mpmath.cos(3 * half * w), mpmath.cos(half * w)
                mag *= abs(2 * (cos3 + a * cos1))
                mag_q *= abs(2 * (cos3 + b * cos1))
            out.append(float((mag_q - mag) / dc))
    return np.array(out)


def float_cosine_oracle_delta_h(spec, draws, freqs):
    """designed_oracle_delta_h from the float cosines the kernels take, 40 digits, for one row of draws.

    The kernels' float64 A = prod_{k <= p_p} stage_bracket / (2 + 2 r_k), pair
    cosines and sines of theta = w (n - c), and stage cosines
    cos(2^{k-1} w) and cos(3 2^{k-1} w) are taken as exact; the rest is
    evaluated in 40 digits.
    """
    ks = list(spec.cascade_stages)
    r = np.asarray(stage_coefficients(spec))
    n_taps = len(draws) - len(ks)
    half = n_taps // 2
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    amplitude = np.ones(len(w))
    for k in range(spec.p_p + 1):
        r_k = stage_multiplier(spec.alpha, k)
        amplitude *= stage_bracket(w, k, r_k) / (2.0 + 2.0 * r_k)
    theta = np.outer(np.arange(half) - (n_taps - 1) / 2.0, w)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cos1 = [np.cos(2.0 ** (k - 1) * w) for k in ks]
    cos3 = [np.cos(3.0 * 2.0 ** (k - 1) * w) for k in ks]
    mp = mpmath.mpf
    with mpmath.workdps(40):
        dc = mp(float(stage_dc_gain(r)))
        e = [mp(float(x)) for x in draws]
        out = []
        for i in range(len(w)):
            re, im = mp(float(amplitude[i])), mp(0)
            for n in range(half):
                re += (e[n] + e[n_taps - 1 - n]) * mp(float(cos_t[n, i]))
                im += (e[n] - e[n_taps - 1 - n]) * mp(float(sin_t[n, i]))
            mag, mag_q = abs(mp(float(amplitude[i]))), mpmath.sqrt(re * re + im * im)
            for j, r_k in enumerate(r):
                c1, c3 = mp(float(cos1[j][i])), mp(float(cos3[j][i]))
                mag *= abs(2 * (c3 + mp(float(r_k)) * c1))
                mag_q *= abs(2 * (c3 + (mp(float(r_k)) + e[n_taps + j]) * c1))
            out.append(float((mag_q - mag) / dc))
    return np.array(out)


def designed_oracle_delta_h(spec, f_n, draws, freqs):
    """|H_q| - |H| of the designed filter over its cascade's DC gain, 40 digits, for one row of draws.

    The bank is prod_{k <= p_p} 2 (cos(3 2^{k-1} w) + r_k cos(2^{k-1} w)) / (2 + 2 r_k)
    about its centre c = (L - 1) / 2, plus the DTFT of the tap errors about c.
    """
    r = np.asarray(stage_coefficients(spec))
    ks = list(spec.cascade_stages)
    n_taps = len(draws) - len(ks)
    with mpmath.workdps(40):
        dc = mpmath.mpf(float(stage_dc_gain(r)))
        r_bank = [mpmath.mpf(stage_multiplier(spec.alpha, k)) for k in range(spec.p_p + 1)]
        errors = [mpmath.mpf(float(b)) for b in draws[:n_taps]]
        rv = [mpmath.mpf(float(x)) for x in r]
        rq = [a + mpmath.mpf(float(b)) for a, b in zip(rv, draws[n_taps:])]
        out = []
        for f in freqs:
            w = mpmath.mpf(float(2.0 * np.pi * f))
            amplitude = mpmath.mpf(1)
            for k, a in enumerate(r_bank):
                half = mpmath.mpf(2) ** (k - 1)
                amplitude *= 2 * (mpmath.cos(3 * half * w) + a * mpmath.cos(half * w)) / (2 + 2 * a)
            z, phasor = mpmath.expj(-w), mpmath.expj(w * (n_taps - 1) / 2)
            error_sum = mpmath.mpc(0)
            for e in errors:
                error_sum += e * phasor
                phasor *= z
            mag, mag_q = abs(amplitude), abs(amplitude + error_sum)
            for k, a, b in zip(ks, rv, rq):
                half = mpmath.mpf(2) ** (k - 1)
                cos3, cos1 = mpmath.cos(3 * half * w), mpmath.cos(half * w)
                mag *= abs(2 * (cos3 + a * cos1))
                mag_q *= abs(2 * (cos3 + b * cos1))
            out.append(float((mag_q - mag) / dc))
    return np.array(out)


@pytest.mark.parametrize("D,pp,rho,oracle", CASES, ids=IDS)
def test_pair_folded_kernel_is_at_least_as_accurate(D, pp, rho, oracle):
    spec = GcfSpec.from_oversampling(D, rho, p_p=pp)
    grid = grid_frequencies(folding_bands(spec), 129, 4096)
    in_band = grid[band_index(spec, grid) > 0]
    f_n, _ = sensitivity(spec, in_band).fraction_bits(ToleranceSpec(1e-4, 2.0))
    freqs = np.sort(np.random.default_rng(D).choice(in_band, 40, replace=False))
    draws = _mc_draws(spec, f_n, 1, 7)
    exact = {"float-taps": oracle_delta_h, "designed": designed_oracle_delta_h}[oracle](spec, f_n, draws[0], freqs)
    new = next(_mc_delta_h(spec, draws, freqs))[0]
    old = old_mc_delta_h(spec, f_n, 1, 7, freqs)[0]
    err_new, err_old = np.abs(new - exact), np.abs(old - exact)
    print(f"D={D} p_p={pp} F_n={f_n} ({oracle}): max {err_old.max():.2g} -> {err_new.max():.2g}, "
          f"median {np.median(err_old):.2g} -> {np.median(err_new):.2g}, "
          f"new no worse at {np.mean(err_new <= err_old):.0%} of points")
    assert err_new.max() <= err_old.max()
    assert np.median(err_new) <= np.median(err_old)


STAGE_POINTS = [(16, -1, 64), (64, -1, 256), (256, -1, 512), *POINTS]  # D=256, p_p=-1 has two stage groups


@pytest.mark.parametrize("D,pp,rho", STAGE_POINTS, ids=[f"D{D}-pp{pp}" for D, pp, _ in STAGE_POINTS])
def test_stage_product_kernel_is_at_least_as_accurate(D, pp, rho):
    spec = GcfSpec.from_oversampling(D, rho, p_p=pp)
    grid = grid_frequencies(folding_bands(spec), 129, 4096)
    in_band = grid[band_index(spec, grid) > 0]
    f_n, _ = sensitivity(spec, in_band).fraction_bits(ToleranceSpec(1e-4, 2.0))
    freqs = np.sort(np.random.default_rng(D).choice(in_band, 40, replace=False))
    # two trials, so that every product takes the gemm path of the Monte Carlo's
    # blocks; a one-row product goes through gemv, which no run uses
    draws = _mc_draws(spec, f_n, 2, 7)
    new = next(_mc_delta_h(spec, draws, freqs)).ravel()
    old = old_pair_folded_mc_delta_h(spec, draws, freqs).ravel()
    exact = np.concatenate([designed_oracle_delta_h(spec, f_n, row, freqs) for row in draws])
    from_floats = np.concatenate([float_cosine_oracle_delta_h(spec, row, freqs) for row in draws])
    for name, oracle in (("exact cosines", exact), ("float cosines", from_floats)):
        err_new, err_old = np.abs(new - oracle), np.abs(old - oracle)
        print(f"D={D} p_p={pp} F_n={f_n} ({name}): max {err_old.max():.3g} -> {err_new.max():.3g}, "
              f"median {np.median(err_old):.2g} -> {np.median(err_new):.2g}")
        assert np.median(err_new) <= np.median(err_old)
    assert err_new.max() <= err_old.max()  # against the float cosines
