import json
import math
import tracemalloc

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    ParameterError,
    ToleranceSpec,
    cascade_derivative_magnitudes,
    design_wordlengths,
    folding_bands,
    grid_frequencies,
    integer_bits,
    monte_carlo_run,
    quantization_error_response,
    quantize_coefficients,
    sensitivity,
    stage_coefficients,
    y_from_p,
)
from gcfkit import wordlength
from gcfkit.filters import polyphase_impulse, stage_dc_gain
from gcfkit.spectral import cascade_response
from gcfkit.wordlength import (
    _mc_delta_h,
    _mc_draws,
    _quantized_multiplier_sets,
    _response_from_multipliers,
)


def spec_for(D, p_p=-1, q=0.79, rho_factor=4):
    return GcfSpec.from_oversampling(D, rho_factor * D, p_p=p_p, q=q)


PAPER_SPEC = GcfSpec.from_oversampling(16, 64)  # D=16, D1=1, f_c = 1/128
PAPER_TOL = ToleranceSpec.from_y(1e-4, 2.0)


class TestYFromP:
    def test_one_sigma(self):
        assert y_from_p(0.6827) == pytest.approx(1.0, abs=1e-3)

    def test_95(self):
        assert y_from_p(0.95) == pytest.approx(1.95996, abs=1e-5)

    def test_90(self):
        assert y_from_p(0.90) == pytest.approx(1.64485, abs=1e-5)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(ParameterError):
            y_from_p(p)

    def test_roundtrip(self):
        for y in (0.5, 1.0, 2.0, 3.1):
            assert y_from_p(math.erf(y / math.sqrt(2))) == pytest.approx(y, abs=1e-9)

    def test_prob_next_to_one(self):
        # (1 + prob) / 2 rounds to 1 here; erfc(y / sqrt(2)) = 1.1e-16 at y = 8.29
        assert y_from_p(math.nextafter(1.0, 0.0)) == pytest.approx(8.2924, abs=1e-3)


class TestToleranceSpec:
    def test_from_prob_derives_y(self):
        tol = ToleranceSpec.from_prob(1e-4, 0.95)
        assert tol.y == pytest.approx(1.95996, abs=1e-5)
        assert math.erf(tol.y / math.sqrt(2)) == pytest.approx(tol.prob, abs=1e-10)

    def test_from_y_keeps_rounded_value(self):
        tol = ToleranceSpec.from_y(1e-3, 1.63)
        assert tol.y == 1.63
        assert tol.prob == pytest.approx(0.8968, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ToleranceSpec.from_y(-1.0, 2.0)
        with pytest.raises(ParameterError):
            ToleranceSpec.from_prob(1e-4, 1.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError):
            ToleranceSpec.from_y(bad, 2.0)
        with pytest.raises(ParameterError):
            ToleranceSpec.from_y(1e-4, bad)
        with pytest.raises(ParameterError):
            ToleranceSpec.from_prob(1e-4, bad)
        with pytest.raises(ParameterError):
            ToleranceSpec(chi=1e-4, prob=0.95, y=bad)


class TestSensitivity:
    @pytest.mark.parametrize("D1", [2, 8, 16])
    def test_full_polyphase_is_exact_constant(self, D1):
        s = GcfSpec(D=D1, f_c=1 / (8 * D1), p_p=int(math.log2(D1)) - 1)
        freqs = np.linspace(0, 0.5, 301)
        res = sensitivity(s, freqs)
        assert res.case_tag == "full-polyphase"
        assert np.all(res.s_t == float(3 * D1 - 2))

    def test_single_stage_dc_unnormalized(self):
        # one stage, alpha=0: the bare dH/dr = 2 cos(w/2) e^{-j3w/2} -> |dH/dr|**2 = 4 at DC
        s = GcfSpec(D=2, f_c=1 / 16, q=0.0, p_p=-1)
        d = cascade_derivative_magnitudes(s, np.array([0.0]))
        assert d[0, 0] ** 2 == pytest.approx(4.0, rel=1e-12)
        # referenced to the DC gain 2 + 2 r = 8 of the stage
        assert sensitivity(s, np.array([0.0])).s_t[0] == pytest.approx(4.0 / 64.0, rel=1e-12)

    def test_case_tags_and_counts(self):
        assert sensitivity(spec_for(16, -1), np.array([0.1])).case_tag == "full-cascade"
        assert sensitivity(spec_for(16, 1), np.array([0.1])).case_tag == "partial"
        res = sensitivity(spec_for(16, 1), np.array([0.1]))
        assert res.n_multipliers == (3 * 4 - 2) + 2

    @pytest.mark.parametrize("D", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_polyphase_magnitude_matches_dtft(self, D):
        # S_T = L |H_N|**2 + |H_P|**2 sum_u |dH_N/dr_u|**2 with |H_P| from a
        # direct DTFT of h_p: the stage product over k <= p_p that the one
        # pass uses in its place is the polyphase section (split invariance)
        freqs = np.linspace(0.0, 0.5, 257)
        for p_p in range(D.bit_length() - 1):
            s = spec_for(D, p_p=p_p)
            h_p = polyphase_impulse(s)
            dtft = np.abs(np.exp(-2j * np.pi * np.outer(freqs, np.arange(len(h_p)))) @ h_p)
            r = np.asarray(stage_coefficients(s))
            hn = np.abs(cascade_response(freqs, s.cascade_stages, r))
            hp, dc = dtft / h_p.sum(), stage_dc_gain(r)
            d = cascade_derivative_magnitudes(s, freqs) / dc
            want = (3 * s.D1 - 2) * (hn / dc) ** 2 + hp ** 2 * np.sum(d * d, axis=0)
            got = sensitivity(s, freqs).s_t
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(want))

    @pytest.mark.parametrize("D,p_p", [(8, -1), (16, -1), (16, 1), (32, 2)])
    def test_product_form_matches_finite_differences(self, D, p_p):
        s = spec_for(D, p_p=p_p)
        rng = np.random.default_rng(99)
        freqs = rng.uniform(0.01, 0.49, 50)
        analytic = cascade_derivative_magnitudes(s, freqs)
        r = np.asarray(stage_coefficients(s))
        ks = list(s.cascade_stages)
        w = 2 * np.pi * freqs
        step = 1e-6

        def cascade(rv):
            out = np.ones_like(w, dtype=complex)
            for k, r_k in zip(ks, rv):
                half = 2.0 ** (k - 1)
                out = out * 2.0 * np.exp(-3j * half * w) * (np.cos(3 * half * w) + r_k * np.cos(half * w))
            return out

        for u in range(len(r)):
            hi, lo = r.copy(), r.copy()
            hi[u] += step
            lo[u] -= step
            fd = np.abs((cascade(hi) - cascade(lo)) / (2 * step))
            np.testing.assert_allclose(fd, analytic[u], rtol=1e-5)

    def test_product_and_quotient_forms_agree_off_zeros(self):
        s = PAPER_SPEC
        freqs = np.linspace(0.003, 0.497, 1500)
        w = 2 * np.pi * freqs
        r = np.asarray(stage_coefficients(s))
        product = cascade_derivative_magnitudes(s, freqs)
        brackets = np.array([
            2.0 * (np.cos(3 * 2.0 ** (k - 1) * w) + r_k * np.cos(2.0 ** (k - 1) * w))
            for k, r_k in zip(s.cascade_stages, r)
        ])
        hn = np.abs(np.prod(brackets, axis=0))
        for u, k in enumerate(s.cascade_stages):
            half = 2.0 ** (k - 1)
            denom = np.cos(3 * half * w) + r[u] * np.cos(half * w)
            ok = np.abs(denom) > 1e-3
            quotient = hn[ok] * np.abs(np.cos(half * w[ok]) / denom[ok])
            np.testing.assert_allclose(product[u][ok], quotient, rtol=1e-8)

    @pytest.mark.parametrize("p_p,case", [(-1, "full-cascade"), (0, "partial"), (3, "full-polyphase")])
    def test_total_sensitivity_matches_multiplier_finite_differences(self, p_p, case):
        # independent oracle over every stored multiplier, normalizer held fixed
        s = spec_for(16, p_p=p_p)
        freqs = np.array([0.0371, 0.0625, 0.1843, 0.3211, 0.4999])
        taps, r, _, _ = _quantized_multiplier_sets(s, 8)
        dc = taps.sum() * np.prod(2.0 + 2.0 * r)
        step = 1e-7

        def mag(t, rv):
            return np.abs(_response_from_multipliers(s, freqs, t, rv)) / dc

        total = np.zeros(len(freqs))
        if s.D1 > 1:
            for i in range(len(taps)):
                hi, lo = taps.copy(), taps.copy()
                hi[i] += step
                lo[i] -= step
                fd = (_response_from_multipliers(s, freqs, hi, r)
                      - _response_from_multipliers(s, freqs, lo, r)) / (2 * step * dc)
                total += np.abs(fd) ** 2
        for u in range(len(r)):
            hi, lo = r.copy(), r.copy()
            hi[u] += step
            lo[u] -= step
            fd = (_response_from_multipliers(s, freqs, taps, hi)
                  - _response_from_multipliers(s, freqs, taps, lo)) / (2 * step * dc)
            total += np.abs(fd) ** 2
        res = sensitivity(s, freqs)
        assert res.case_tag == case
        np.testing.assert_allclose(res.s_t, total, rtol=2e-4)


def default_grid(spec):
    """spec's default response-grid frequencies and their in-band mask."""
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands)
    return freqs, bands.contains(freqs)


def in_band(spec):
    freqs, mask = default_grid(spec)
    return freqs[mask]


class TestFractionalBits:
    def test_paper_design_point(self):
        f_n, binding_freq = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC)).fraction_bits(PAPER_TOL)
        assert f_n == 7
        fb = folding_bands(PAPER_SPEC)
        assert fb.contains(np.array([binding_freq]))[0]

    def test_halving_chi_adds_one_bit(self):
        sens = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC))
        base, _ = sens.fraction_bits(PAPER_TOL)
        halved, _ = sens.fraction_bits(ToleranceSpec.from_y(0.5e-4, 2.0))
        assert halved == base + 1

    def test_non_decreasing_in_polyphase_share(self):
        fns = []
        for p_p in range(-1, 4):
            s = spec_for(16, p_p=p_p)
            fns.append(sensitivity(s, in_band(s)).fraction_bits(PAPER_TOL)[0])
        assert fns == sorted(fns)

    def test_monotone_in_chi_and_y(self):
        sens = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC))
        for chi_lo, chi_hi in ((1e-4, 5e-4), (1e-3, 5e-3)):
            assert (sens.fraction_bits(ToleranceSpec.from_y(chi_lo, 2.0))[0]
                    >= sens.fraction_bits(ToleranceSpec.from_y(chi_hi, 2.0))[0])
        assert (sens.fraction_bits(ToleranceSpec.from_y(1e-4, 2.0))[0]
                >= sens.fraction_bits(ToleranceSpec.from_y(1e-4, 1.63))[0])


class TestIntegerBits:
    def test_growth_exact_for_comb_case(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        g, i_n = integer_bits(s, input_width=1)
        assert g == (3.0, 3.0, 3.0, 3.0)
        assert i_n == (4, 7, 10, 13)

    def test_growth_below_three_with_rotation(self):
        g, i_n = integer_bits(PAPER_SPEC, input_width=1)
        assert all(g_k < 3.0 for g_k in g)
        assert all(g_k > 2.9 for g_k in g)
        assert i_n == (4, 7, 10, 13)

    def test_requires_input_width(self):
        with pytest.raises(ParameterError):
            integer_bits(PAPER_SPEC, input_width=0)


class TestQuantize:
    def test_representable_passthrough(self):
        assert quantize_coefficients([0.5], 1)[0] == 0.5

    def test_paper_coefficient_rounds_up(self):
        # 2.998496 * 128 = 383.807... -> 384 -> 3.0
        assert quantize_coefficients([2.998496], 7)[0] == 384 / 128

    def test_tie_away_from_zero(self):
        assert quantize_coefficients([0.375], 1)[0] == 0.5
        assert quantize_coefficients([-0.375], 1)[0] == -0.5

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-4, 4, 100)
        q1 = quantize_coefficients(v, 6)
        np.testing.assert_array_equal(quantize_coefficients(q1, 6), q1)

    def test_error_bound(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(-4, 4, 1000)
        for f_n in (0, 3, 9):
            q = quantize_coefficients(v, f_n)
            assert np.max(np.abs(q - v)) <= 2.0 ** -f_n / 2 + 1e-15


class TestQuantizationErrorResponse:
    def test_integer_coefficients_are_exact(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        freqs, _ = default_grid(s)
        _, delta_h = quantization_error_response(s, 7, freqs)
        np.testing.assert_array_equal(delta_h, np.zeros(len(freqs)))

    def test_fine_quantization_vanishes(self):
        _, delta_h = quantization_error_response(PAPER_SPEC, 40, default_grid(PAPER_SPEC)[0])
        assert np.max(np.abs(delta_h)) <= 1e-10

    def test_paper_design_within_tolerance(self):
        freqs, mask = default_grid(PAPER_SPEC)
        _, delta_h = quantization_error_response(PAPER_SPEC, 7, freqs)
        assert np.max(np.abs(delta_h[mask])) <= 1e-4

    def test_sigma_scaling_is_exactly_binary(self):
        sens = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC))
        np.testing.assert_array_equal(sens.sigma_dh(6), 2.0 * sens.sigma_dh(7))
        np.testing.assert_array_equal(sens.sigma_dh(0), 2.0 ** 7 * sens.sigma_dh(7))


def mc_rows(spec, f_n, trials, seed, freqs):
    return np.vstack(list(_mc_delta_h(spec, f_n, _mc_draws(spec, f_n, trials, seed), freqs)))


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC)).coverage()
        b = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC)).coverage()
        c = monte_carlo_run(PAPER_SPEC, 7, 1000, 12, y=2.0, freqs=in_band(PAPER_SPEC)).coverage()
        assert a == b
        assert a != c

    def test_trials_floor(self):
        with pytest.raises(ParameterError):
            monte_carlo_run(PAPER_SPEC, 7, 10, 1, y=2.0, freqs=in_band(PAPER_SPEC)).coverage()

    def test_vanishing_interval(self):
        cov = monte_carlo_run(PAPER_SPEC, 7, 1000, 3, y=1e-6, freqs=in_band(PAPER_SPEC)).coverage()
        assert cov <= 0.05

    def test_model_std_is_upper_bound(self):
        run = monte_carlo_run(PAPER_SPEC, 7, 1500, 21, y=2.0, freqs=in_band(PAPER_SPEC))
        assert np.all(run.error_std <= 1.1 * run.sigma_dh + 1e-18)

    def test_full_polyphase_coverage_near_gaussian(self):
        s = GcfSpec(D=16, f_c=1 / 128, p_p=3)
        cov = monte_carlo_run(s, 12, 1000, 8, y=2.0, freqs=in_band(s)).coverage()
        assert 0.93 <= cov <= 1.0

    def test_trial_substreams_independent_of_total(self):
        # trial t draws from the (seed, t) substream, so a shorter run is a
        # prefix of a longer one regardless of how trials are scheduled
        freqs = np.linspace(0.05, 0.08, 40)
        short = mc_rows(PAPER_SPEC, 7, trials=20, seed=31, freqs=freqs)
        long = mc_rows(PAPER_SPEC, 7, trials=60, seed=31, freqs=freqs)
        np.testing.assert_array_equal(short, long[:20])

    @pytest.mark.parametrize("block", [7, 8])  # 50 trials leave a last block of 1 and of 2
    @pytest.mark.parametrize("p_p", [-1, 1, 3])
    def test_trial_blocks_match_one_block(self, p_p, block, monkeypatch):
        s = spec_for(16, p_p=p_p)
        freqs = np.linspace(0.05, 0.45, 301)
        monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", 10 ** 6)
        whole = mc_rows(s, 9, trials=50, seed=5, freqs=freqs)
        monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", block)
        assert np.array_equal(mc_rows(s, 9, trials=50, seed=5, freqs=freqs), whole)

    def test_memory_does_not_grow_with_trials(self):
        s = GcfSpec.from_oversampling(256, 512, p_p=3)
        trials = 2000
        nf = len(in_band(s))
        tracemalloc.start()
        try:
            monte_carlo_run(s, 16, trials, 1, y=2.0, freqs=in_band(s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < trials * nf * 8 / 4

    def test_memory_does_not_grow_with_grid_times_taps(self):
        s = GcfSpec.from_oversampling(256, 512, p_p=7)
        nf = len(in_band(s))
        n_taps = 3 * s.D1 - 2
        tracemalloc.start()
        try:
            monte_carlo_run(s, 16, 64, 1, y=2.0, freqs=in_band(s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nf * n_taps * 16 / 4

    def test_one_run_gives_std_and_coverage(self):
        run = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC))
        rows = mc_rows(PAPER_SPEC, 7, 1000, 11, run.freqs)
        assert run.trials == 1000
        assert np.max(np.abs(run.error_std - rows.std(axis=0))) <= 1e-12 * np.max(rows.std(axis=0))
        assert run.coverage() == np.mean(np.abs(rows) <= 2.0 * run.sigma_dh[None, :])


class TestReport:
    def test_report_roundtrip(self, tmp_path):
        rep = design_wordlengths(PAPER_SPEC, PAPER_TOL, 1, in_band(PAPER_SPEC))
        assert rep.f_n == 7
        assert rep.i_n_k == (4, 7, 10, 13)
        assert rep.case_tag == "full-cascade"
        path = tmp_path / "report.json"
        rep.to_json(path)
        data = json.loads(path.read_text())
        assert data["f_n"] == 7
        assert data["spec"]["D"] == 16
        assert data["tolerance"]["y"] == 2.0
        assert data["coefficient_width"] == 1 + 13 + 7
        table = rep.table()
        assert "F_n" in table and " 7" in table
