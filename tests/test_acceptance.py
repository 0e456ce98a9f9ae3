"""Acceptance suite: every release-gate criterion, with its numeric target
pinned in the assert.  Each test prints one `criterion N: PASS/FAIL` line
(visible with -s, or in the captured output of failing tests).

Known-red statistical checks.  The Gaussian-window targets of criteria
6a/6b/6c and the y-bump majority clause of criterion 2 are kept asserted at
their original targets although the uniform coefficient-noise model provably
cannot meet them for the cascade architecture: within each folding band a
single multiplier dominates the response derivative, so the magnitude error
there is a scaled uniform variable, not Gaussian.  Coverage of +/-2 sigma is
then ~1.0 (a uniform variable never exceeds 2 of its own sigmas), coverage
of +/-1 sigma ~0.58, and the per-frequency std dips ~2x below the model near
the rotated zeros, where |H| falls under the error scale and the error
distribution folds.  Likewise the y=2 vs y=1.63 sizing difference is +1 bit
only when the fractional part of the pre-ceiling size falls in a 0.295-wide
window, which happens in about a third of the swept configurations, not
half.  The failing tests report the measured values; weakening the targets
would hide a real property of the error model, so they stay red.
"""

import math
import time

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    StageOverflowError,
    ToleranceSpec,
    comb_response,
    decimate_fixed_point,
    design_wordlengths,
    expand_full_polynomial,
    gcf_response,
    integer_bits,
    monte_carlo_run,
    quantization_error_response,
    run_experiment,
    sd_modulate,
    sensitivity,
    welch_psd,
    worst_case_attenuation,
)

from gcf_helpers import comb_coefficients, in_band, rounded_report
from test_wordlength import fd_sensitivity_terms

PAPER_SPEC = GcfSpec.from_oversampling(16, 64)  # D=16, D1=1, f_c=1/128
PAPER_TOL = ToleranceSpec(1e-4, 2.0)
SEED = 20240917


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# 1. word-length reproduction
# --------------------------------------------------------------------------
def test_criterion_1_wordlength_reproduction():
    t0 = time.perf_counter()
    rep = design_wordlengths(PAPER_SPEC, PAPER_TOL, 1, in_band(PAPER_SPEC))
    elapsed = time.perf_counter() - t0
    ok = abs(rep.f_n - 7) <= 1 and elapsed < 1.0
    detail = (f"F_n = {rep.f_n} (target 7 +/- 1; exact-match mode: section-normalized "
              f"S_T, y=2), runtime {elapsed:.3f}s")
    report(1, ok, detail)
    assert abs(rep.f_n - 7) <= 1, detail
    assert rep.f_n == 7, detail  # exact in the documented convention
    assert elapsed < 1.0, detail


# --------------------------------------------------------------------------
# 2. F_n trends over (D, D1, chi, y)
# --------------------------------------------------------------------------
SWEEP_DS = (8, 16, 32, 64)
SWEEP_CHIS = (5e-3, 1e-3, 1e-4)


@pytest.fixture(scope="module")
def fn_table():
    t0 = time.perf_counter()
    table = {}
    for D in SWEEP_DS:
        p = D.bit_length() - 1
        for pp in range(-1, p):
            spec = GcfSpec.from_oversampling(D, 4 * D, p_p=pp)
            freqs = in_band(spec)
            for chi in SWEEP_CHIS:
                for y in (2.0, 1.63):
                    tol = ToleranceSpec(chi, y)
                    table[(D, pp, chi, y)] = sensitivity(spec, freqs).fraction_bits(tol)[0]
    return table, time.perf_counter() - t0


def test_criterion_2_trends(fn_table):
    table, elapsed = fn_table
    mono_ok = True
    chi_ok = True
    diff_ok = True
    for D in SWEEP_DS:
        p = D.bit_length() - 1
        pps = list(range(-1, p))
        for chi in SWEEP_CHIS:
            seq = [table[(D, pp, chi, 2.0)] for pp in pps]
            mono_ok &= seq == sorted(seq)
        for pp in pps:
            by_chi = [table[(D, pp, chi, 2.0)] for chi in SWEEP_CHIS]
            chi_ok &= by_chi[0] < by_chi[1] < by_chi[2]
            for chi in SWEEP_CHIS:
                diff_ok &= table[(D, pp, chi, 2.0)] - table[(D, pp, chi, 1.63)] in (0, 1)
    ok = mono_ok and chi_ok and diff_ok and elapsed < 30.0
    detail = (f"monotone in D1: {mono_ok}, strictly increasing as chi falls: {chi_ok}, "
              f"y-diff in {{0,1}}: {diff_ok}, sweep runtime {elapsed:.1f}s")
    report("2 (trends)", ok, detail)
    assert mono_ok and chi_ok and diff_ok, detail
    assert elapsed < 30.0, detail


def test_criterion_2_y_bump_majority(fn_table):
    table, _ = fn_table
    bumps = 0
    total = 0
    for (D, pp, chi, y), fn in table.items():
        if y != 2.0:
            continue
        total += 1
        bumps += fn - table[(D, pp, chi, 1.63)]
    ok = bumps >= total / 2
    detail = (f"F_n(y=2) - F_n(y=1.63) = 1 in {bumps}/{total} configurations "
              f"(target: at least half; exact evaluation of the ceil formula "
              f"yields a bump only when frac(log2(sqrt(S_T_max)/chi...)) falls in a "
              f"0.295-wide window)")
    report("2 (y-bump majority)", ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# 3. split invariance
# --------------------------------------------------------------------------
def test_criterion_3_split_invariance():
    worst = 0.0
    for D in (4, 8, 16):
        p = D.bit_length() - 1
        ref = expand_full_polynomial(GcfSpec.from_oversampling(D, 4 * D, p_p=-1))
        scale = np.max(np.abs(ref))
        for pp in range(0, p):
            poly = expand_full_polynomial(GcfSpec.from_oversampling(D, 4 * D, p_p=pp))
            worst = max(worst, float(np.max(np.abs(poly - ref)) / scale))
    ok = worst <= 1e-10
    detail = f"max rel diff across splits {worst:.2e} (tol 1e-10)"
    report(3, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# 4. comb degeneration at alpha = 0
# --------------------------------------------------------------------------
def test_criterion_4_comb_degeneration():
    ok = True
    for D in (2, 4, 8, 16):
        spec = GcfSpec(D=D, f_c=1 / (8 * D), q=0.0)
        got = expand_full_polynomial(spec)
        ref = comb_coefficients(D)
        ok &= np.array_equal(np.rint(got), ref) and np.max(np.abs(got - ref)) < 1e-9
    detail = "expanded polynomial equals integer comb^3 coefficients for D in {2,4,8,16}"
    report(4, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# 5. sensitivity correctness
# --------------------------------------------------------------------------
def test_criterion_5_sensitivity_correctness():
    # S_T against central differences over every multiplier, bank taps and
    # cascade r_k, at the pure-cascade and partial points and every bank split
    worst = 0.0
    rng = np.random.default_rng(SEED)
    bank_splits = [(D, pp) for D in (8, 16, 32, 64) for pp in range(D.bit_length() - 1)]
    for D, pp in [(8, -1), (16, -1), (32, -1), (16, 0), (16, 2)] + bank_splits:
        spec = GcfSpec.from_oversampling(D, 4 * D, p_p=pp)
        freqs = rng.uniform(0.005, 0.495, 50)
        analytic = sensitivity(spec, freqs).s_t
        fd = fd_sensitivity_terms(spec, freqs, step=1e-6).sum(axis=0)
        rel = np.max(np.abs(fd - analytic) / np.maximum(analytic, 1e-30))
        worst = max(worst, float(rel))
    fd_ok = worst <= 1e-5

    poly_ok = True
    for D1 in (4, 16, 64):
        spec = GcfSpec(D=D1, f_c=1 / (8 * D1), p_p=int(math.log2(D1)) - 1)
        st = sensitivity(spec, np.linspace(0, 0.5, 257)).s_t
        poly_ok &= bool(np.all(st == float(3 * D1 - 2)))

    ok = fd_ok and poly_ok
    detail = (f"finite-difference max rel err {worst:.2e} (tol 1e-5); "
              f"full-polyphase S_T == 3*D1-2 exactly: {poly_ok}")
    report(5, ok, detail)
    assert fd_ok, detail
    assert poly_ok, detail


# --------------------------------------------------------------------------
# 6. statistical model validation (Gaussian-model windows)
# --------------------------------------------------------------------------
def test_criterion_6a_coverage_y2():
    cov = monte_carlo_run(PAPER_SPEC, 7, trials=2000, seed=SEED, y=2.0, freqs=in_band(PAPER_SPEC))[2]
    ok = 0.93 <= cov <= 0.97
    detail = (f"coverage at y=2: {cov:.4f} (target window [0.93, 0.97]; the single "
              f"dominant multiplier per band makes the error uniform, whose +/-2 sigma "
              f"coverage is 1)")
    report("6a (coverage y=2)", ok, detail)
    assert ok, detail


def test_criterion_6b_coverage_y1():
    cov = monte_carlo_run(PAPER_SPEC, 7, trials=2000, seed=SEED, y=1.0, freqs=in_band(PAPER_SPEC))[2]
    ok = 0.66 <= cov <= 0.71
    detail = (f"coverage at y=1: {cov:.4f} (target window [0.66, 0.71]; a uniform "
              f"variable lies within 1 sigma with probability 1/sqrt(3) ~= 0.577)")
    report("6b (coverage y=1)", ok, detail)
    assert ok, detail


@pytest.mark.parametrize("f_n", [6, 7])
def test_criterion_6c_per_frequency_std(f_n):
    emp, model, _ = monte_carlo_run(PAPER_SPEC, f_n, trials=2000, seed=SEED, y=2.0, freqs=in_band(PAPER_SPEC))
    live = model > 1e-18
    ratio = emp[live] / model[live]
    n_bad = int(np.sum(np.abs(ratio - 1.0) > 0.10))
    zeros_ok = bool(np.all(emp[~live] <= 1e-15))
    ok = n_bad == 0 and zeros_ok
    detail = (f"f_n={f_n}: {n_bad}/{live.sum()} in-band points outside 10% of "
              f"sigma_dm*sqrt(S_T) (min ratio {ratio.min():.2f}; dips cluster at the "
              f"rotated zeros where |H| < sigma and the error folds)")
    report(f"6c (std, f_n={f_n})", ok, detail)
    assert ok, detail


def test_criterion_6_model_upper_bound_holds():
    # the defensible half of the model: sigma_dm*sqrt(S_T) bounds the true std
    emp, model, _ = monte_carlo_run(PAPER_SPEC, 7, trials=2000, seed=SEED, y=2.0, freqs=in_band(PAPER_SPEC))
    ok = bool(np.all(emp <= 1.1 * model + 1e-18))
    detail = f"empirical std <= 1.1 * model everywhere: {ok} (max ratio {np.max(np.where(model>0, emp/np.maximum(model,1e-300), 0)):.3f})"
    report("6 (upper bound)", ok, detail)
    assert ok, detail


def test_criterion_6_known_red_measures_are_pinned():
    # the values the known-red 6a-6c tests print, pinned so that a change to
    # the Monte Carlo cannot move them unnoticed; the d|H| rows come from BLAS
    # products, which round them, but no count or printed digit moves
    runs = {(f_n, y): monte_carlo_run(PAPER_SPEC, f_n, trials=2000, seed=SEED, y=y, freqs=in_band(PAPER_SPEC))
            for f_n, y in ((7, 2.0), (7, 1.0), (6, 2.0))}
    assert f"{runs[7, 2.0][2]:.4f}" == "0.9985"
    assert f"{runs[7, 1.0][2]:.4f}" == "0.6045"
    for f_n, n_bad in ((6, 523), (7, 361)):
        emp, model, _ = runs[f_n, 2.0]
        live = model > 1e-18
        ratio = emp[live] / model[live]
        outside = int(np.sum(np.abs(ratio - 1.0) > 0.10))
        assert (outside, int(live.sum()), f"{ratio.min():.2f}") == (n_bad, 1983, "0.50")


# --------------------------------------------------------------------------
# 7. quantized-response fidelity
# --------------------------------------------------------------------------
def test_criterion_7_quantized_fidelity():
    freqs = in_band(PAPER_SPEC)
    rep = design_wordlengths(PAPER_SPEC, PAPER_TOL, 1, freqs)
    in_band_dh = np.abs(quantization_error_response(rep, freqs)[1])
    worst = float(np.max(in_band_dh))
    exceed_frac = float(np.mean(in_band_dh > PAPER_TOL.chi))
    ok = worst <= PAPER_TOL.chi or exceed_frac < 0.05
    detail = (f"max in-band |d|H|| = {worst:.3e} at F_n={rep.f_n} "
              f"(chi = {PAPER_TOL.chi:g}, exceedance fraction {exceed_frac:.3f})")
    report(7, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# 8. GCF vs comb rejection
# --------------------------------------------------------------------------
def test_criterion_8_gcf_vs_comb():
    in_band_freqs = in_band(PAPER_SPEC)
    att_gcf = worst_case_attenuation(np.abs(gcf_response(PAPER_SPEC, in_band_freqs)))
    att_comb = worst_case_attenuation(np.abs(comb_response(PAPER_SPEC, in_band_freqs)))
    gain = att_gcf - att_comb
    ok = abs(gain - 8.0) <= 2.0
    detail = (f"worst-case folding-band attenuation: comb {att_comb:.2f} dB, "
              f"gcf {att_gcf:.2f} dB, improvement {gain:.2f} dB (target 8 +/- 2)")
    report(8, ok, detail)
    assert ok, detail


# --------------------------------------------------------------------------
# 9. dynamic range
# --------------------------------------------------------------------------
def test_criterion_9_dynamic_range():
    growth_ok = True
    for D in (2, 4, 8, 16, 32, 64):
        for q in (0.0, 0.25, 0.5, 0.79, 1.0):
            for fc_scale in (4, 8, 64):
                spec = GcfSpec(D=D, f_c=1 / (2 * fc_scale * D), q=q)
                g, _ = integer_bits(spec, input_width=1)
                growth_ok &= all(g_k <= 3.0 for g_k in g)

    overflow_ok = True
    rng = np.random.default_rng(SEED)
    for D in (2, 4, 8):
        spec = GcfSpec.from_oversampling(D, 4 * D)
        rounded = rounded_report(spec, 7)  # the widths of a 1-bit input
        h = expand_full_polynomial(spec)
        n = 512
        sign_matched = np.sign(h[::-1]).astype(np.int64)
        sign_matched[sign_matched == 0] = 1
        patterns = [
            np.ones(n, dtype=np.int64),
            np.tile([1, -1], n // 2).astype(np.int64),
            np.concatenate([sign_matched, np.ones(n - len(sign_matched), dtype=np.int64)]),
            rng.choice([-1, 1], size=n).astype(np.int64),
        ]
        for x in patterns:
            try:
                decimate_fixed_point(x, rounded)
            except StageOverflowError as exc:
                overflow_ok = False
                print(f"  overflow at D={D}: {exc}")
    ok = growth_ok and overflow_ok
    detail = (f"g_k <= 3 for all stages/alphas: {growth_ok}; no overflow with sized "
              f"widths on adversarial +/-1 patterns at D <= 8: {overflow_ok}")
    report(9, ok, detail)
    assert growth_ok, detail
    assert overflow_ok, detail


# --------------------------------------------------------------------------
# 10. sigma-delta experiment (qualitative)
# --------------------------------------------------------------------------
def test_criterion_10_sigma_delta_experiment():
    t0 = time.perf_counter()
    n = 2 ** 18

    # (a) noise-shaping slope, measured on a busy single-tone run: the
    # band-limited experiment signal itself occupies [0, 4e-3] and would
    # mask the fit band
    tone = 0.5 * np.sin(2 * np.pi * (82 / 4096) * np.arange(n))
    bits = sd_modulate(tone).bits
    f, psd = welch_psd(bits.astype(float), segment=4096)
    sel = (f >= 1e-3) & (f <= 1e-2)
    slope = float(np.polyfit(np.log10(f[sel]), 10 * np.log10(np.maximum(psd[sel], 1e-300)), 1)[0])
    slope_ok = abs(slope - 40.0) <= 6.0

    # (b) paper experiment: band edge and in-band vs out-of-band power
    spec = GcfSpec.from_oversampling(16, 128)  # f_c = 1/256
    rounded = rounded_report(spec, 7)  # the widths of a 1-bit input
    run = run_experiment(rounded, 0.5, n, SEED)
    edge = spec.f_c * spec.D
    edge_ok = abs(edge - 0.063) <= 1e-3
    fo, po = run.psd_out
    sig_power = float(np.median(po[(fo > 0.005) & (fo < edge)]))
    noise_power = float(np.median(po[(fo > edge * 1.2) & (fo < 0.45)]))
    suppression_db = 10 * math.log10(sig_power / noise_power)
    suppressed_ok = suppression_db >= 30.0

    # (c) noise floors, measured on a DC-pedestal run (the band-limited
    # signal fills the whole decimated baseband, leaving no signal-free
    # region to read a floor from)
    rng = np.random.default_rng(SEED)
    pedestal = 0.5 + 1e-5 * rng.standard_normal(n)
    bits_dc = sd_modulate(pedestal).bits
    dec_dc = decimate_fixed_point(bits_dc.astype(np.int64), rounded)
    fb, pb = welch_psd(bits_dc.astype(float), segment=4096)
    fd, pd = welch_psd(dec_dc, segment=1024)
    floor_bits = float(np.median(pb[(fb >= 0.1) & (fb <= 0.4)]))
    floor_base = float(np.median(pd[(fd >= 0.01) & (fd <= 0.055)]))
    margin_db = 10 * math.log10(floor_bits / floor_base)
    floor_ok = margin_db >= 40.0

    elapsed = time.perf_counter() - t0
    time_ok = elapsed < 60.0
    ok = slope_ok and edge_ok and suppressed_ok and floor_ok and time_ok
    detail = (f"slope {slope:.1f} dB/dec (40 +/- 6), band edge {edge:.4f} (~0.063), "
              f"in-band vs above-edge power {suppression_db:.1f} dB, baseband floor "
              f"{margin_db:.1f} dB below bitstream out-of-band floor (>= 40), "
              f"runtime {elapsed:.1f}s (< 60)")
    report(10, ok, detail)
    assert slope_ok, detail
    assert edge_ok, detail
    assert suppressed_ok, detail
    assert floor_ok, detail
    assert time_ok, detail
