"""The Monte Carlo d|H| kernel against a 40-digit evaluation of the same trial.

For one trial of multiplier errors at 40 random in-band points, the oracle
evaluates |H_q| - |H| in mpmath from the float64 inputs the kernel sees:
w = 2 pi f, the cascade multipliers, the drawn errors and the DC divisor.
H is the filter the errors perturb, taken two ways: the unit-DC float taps
of rounded_multipliers, or the designed filter, whose bank is the stage
product of the float r_k of stages 0..p_p, at unit DC gain.  The
pair-folded kernel must be at least as accurate as the complex tap matrix
it replaced (``old_mc_delta_h``) against either, in its largest and in its
median absolute error.  It does not win at every point, so no pointwise
claim is made.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from gcfkit import GcfSpec, ToleranceSpec, sensitivity, stage_coefficients
from gcfkit.filters import stage_dc_gain, stage_multiplier
from gcfkit.spectral import band_index, folding_bands, grid_frequencies
from gcfkit.wordlength import _mc_delta_h, _mc_draws, rounded_multipliers
from test_stage_kernel import old_mc_delta_h

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
    new = np.vstack(list(_mc_delta_h(spec, draws, freqs)))[0]
    old = old_mc_delta_h(spec, f_n, 1, 7, freqs)[0]
    err_new, err_old = np.abs(new - exact), np.abs(old - exact)
    print(f"D={D} p_p={pp} F_n={f_n} ({oracle}): max {err_old.max():.2g} -> {err_new.max():.2g}, "
          f"median {np.median(err_old):.2g} -> {np.median(err_new):.2g}, "
          f"new no worse at {np.mean(err_new <= err_old):.0%} of points")
    assert err_new.max() <= err_old.max()
    assert np.median(err_new) <= np.median(err_old)
