import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    InternalError,
    ParameterError,
    SensitivityResult,
    ToleranceSpec,
    band_index,
    design_wordlengths,
    integer_bits,
    monte_carlo_run,
    quantization_error_response,
    quantize_coefficients,
    rounded_multipliers,
    sensitivity,
    stage_coefficients,
)
from gcfkit import wordlength
from gcfkit.filters import stage_dc_gain, write_json
from gcfkit.spectral import cascade_response, stage_bracket, stage_derivative
from gcfkit.wordlength import (
    _mc_delta_h,
    _mc_draws,
    _response_from_multipliers,
    mc_draw_width,
)

from gcf_helpers import banded_grid, in_band, spec_for


def fd_sensitivity_terms(spec, freqs, step):
    """|dH/dm|**2 of every multiplier m from central differences, one row per multiplier.

    H is the unit-DC response over the fixed DC gain of the exact design: a
    direct tap DTFT of the L = 3 D1 - 2 unit-DC bank taps (none at D1 = 1)
    times the cascade.  The rows are the bank taps, then the cascade r_k, so
    S_T is their sum.  H is affine in every multiplier, so the differences
    have no truncation error at any step.
    """
    taps, r, _, _ = rounded_multipliers(spec, 0)
    ks, dc = spec.cascade_stages, stage_dc_gain(r)
    bank, rows = None, []
    if spec.D1 > 1:
        phasors = np.exp(-2j * np.pi * np.outer(np.arange(len(taps)), freqs))
        eye = np.eye(len(taps))  # row u of (taps +/- step eye) @ phasors is the bank of taps +/- step e_u
        hi, lo = (cascade_response(freqs, ks, r, start=(taps + s * eye) @ phasors) for s in (step, -step))
        rows.append((hi - lo) / (2 * step * dc))
        bank = taps @ phasors
    if len(r):
        eye = np.eye(len(r))  # stage k takes the column r_k +/- step I[k], so row u is H(r +/- step e_u)
        hi, lo = (cascade_response(freqs, ks, (r[:, None] + s * eye)[..., None], start=bank) for s in (step, -step))
        rows.append((hi - lo) / (2 * step * dc))
    return np.abs(np.concatenate(rows)) ** 2


PAPER_SPEC = GcfSpec.from_oversampling(16, 64)  # D=16, D1=1, f_c = 1/128
PAPER_TOL = ToleranceSpec(1e-4, 2.0)


class TestToleranceSpec:
    def test_default_y_is_the_95_percent_point(self):
        assert wordlength.DEFAULT_Y == statistics.NormalDist().inv_cdf(0.975)
        assert math.erf(wordlength.DEFAULT_Y / math.sqrt(2)) == 0.95
        assert ToleranceSpec(1e-4, wordlength.DEFAULT_Y).prob == 0.95

    @pytest.mark.parametrize("y", [1e-320, 0.5, 1.0, 1.63, 2.0, 3.1, 8.0])
    def test_prob_is_derived_from_y(self, y):
        tol = ToleranceSpec(1e-4, y)
        assert tol.prob == math.erf(y / math.sqrt(2))
        assert tol.as_dict() == {"chi": 1e-4, "prob": tol.prob, "y": y}

    def test_from_y_keeps_rounded_value(self):
        tol = ToleranceSpec(1e-3, 1.63)
        assert tol.y == 1.63
        assert tol.prob == pytest.approx(0.8968, abs=1e-4)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ToleranceSpec(-1.0, 2.0)
        with pytest.raises(ParameterError, match="y must be positive"):
            ToleranceSpec(1e-4, 0.0)
        # erf(9 / sqrt(2)) rounds to 1
        with pytest.raises(ParameterError, match=r"y = 9 is out of range"):
            ToleranceSpec(1e-4, 9.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError):
            ToleranceSpec(bad, 2.0)
        with pytest.raises(ParameterError):
            ToleranceSpec(1e-4, bad)


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
        dc = stage_dc_gain(stage_coefficients(s))
        assert fd_sensitivity_terms(s, [0.0], 1.0)[0, 0] * dc ** 2 == pytest.approx(4.0, rel=1e-12)
        # referenced to the DC gain 2 + 2 r = 8 of the stage
        assert sensitivity(s, np.array([0.0])).s_t[0] == pytest.approx(4.0 / 64.0, rel=1e-12)

    def test_case_tags_and_counts(self):
        assert sensitivity(spec_for(16, -1), np.array([0.1])).case_tag == "full-cascade"
        assert sensitivity(spec_for(16, 1), np.array([0.1])).case_tag == "partial"
        res = sensitivity(spec_for(16, 1), np.array([0.1]))
        assert res.n_multipliers == (3 * 4 - 2) + 2

    @pytest.mark.parametrize("D", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_matches_central_differences_at_every_split(self, D):
        # S_T is the sum of |dH/dm|**2 over every multiplier of the split: the
        # bank taps through a direct DTFT (the stage product over k <= p_p that
        # the one pass uses in its place is the bank, by split invariance) and
        # each cascade r_k; the grid holds the zeros at 0 and 1/2
        freqs = np.concatenate((np.linspace(0.0, 0.5, 257), np.random.default_rng(D).uniform(0.0, 0.5, 60)))
        for p_p in range(-1, D.bit_length() - 1):
            s = spec_for(D, p_p=p_p)
            terms = fd_sensitivity_terms(s, freqs, step=1.0)
            got = sensitivity(s, freqs).s_t
            np.testing.assert_allclose(got, terms.sum(axis=0), rtol=1e-11, atol=1e-14 * np.max(got))
            # every multiplier's term is at least half its share of S_T somewhere, so
            # leaving one out would fail the comparison above
            assert np.all(np.max(terms / np.maximum(got, 1e-300), axis=1) >= 0.5 / len(terms))

    def test_product_and_quotient_forms_agree_off_zeros(self):
        # pure cascade: S_T = |H_N|**2 sum_u (c_u / b_u)**2 where no b_u vanishes
        s = PAPER_SPEC
        freqs = np.linspace(0.003, 0.497, 1500)
        w = 2 * np.pi * freqs
        ks = np.asarray(s.cascade_stages)[:, None]
        brackets = stage_bracket(w, ks, np.asarray(stage_coefficients(s))[:, None])
        ok = np.all(np.abs(brackets) > 2e-3, axis=0)
        hn2 = np.prod(brackets[:, ok], axis=0) ** 2
        quotient = hn2 * np.sum((stage_derivative(w[ok], ks) / brackets[:, ok]) ** 2, axis=0)
        dc = stage_dc_gain(stage_coefficients(s))
        np.testing.assert_allclose(sensitivity(s, freqs[ok]).s_t, quotient / dc ** 2, rtol=1e-8)

    @pytest.mark.parametrize("p_p,case", [(-1, "full-cascade"), (0, "partial"), (3, "full-polyphase")])
    def test_total_sensitivity_matches_multiplier_finite_differences(self, p_p, case):
        # independent oracle over every stored multiplier, normalizer held fixed
        s = spec_for(16, p_p=p_p)
        freqs = np.array([0.0371, 0.0625, 0.1843, 0.3211, 0.4999])
        taps, r, _, _ = rounded_multipliers(s, 8)
        dc = taps.sum() * np.prod(2.0 + 2.0 * r)
        step = 1e-7
        total = np.zeros(len(freqs))
        if s.D1 > 1:
            for i in range(len(taps)):
                hi, lo = taps.copy(), taps.copy()
                hi[i] += step
                lo[i] -= step
                fd = np.subtract(*_response_from_multipliers(s, freqs, (hi, r), (lo, r))) / (2 * step * dc)
                total += np.abs(fd) ** 2
        for u in range(len(r)):
            hi, lo = r.copy(), r.copy()
            hi[u] += step
            lo[u] -= step
            fd = np.subtract(*_response_from_multipliers(s, freqs, (taps, hi), (taps, lo))) / (2 * step * dc)
            total += np.abs(fd) ** 2
        res = sensitivity(s, freqs)
        assert res.case_tag == case
        np.testing.assert_allclose(res.s_t, total, rtol=2e-4)



class TestFractionalBits:
    def test_paper_design_point(self):
        f_n, binding_freq = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC)).fraction_bits(PAPER_TOL)
        assert f_n == 7
        assert band_index(PAPER_SPEC, np.array([binding_freq]))[0] > 0

    def test_halving_chi_adds_one_bit(self):
        sens = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC))
        base, _ = sens.fraction_bits(PAPER_TOL)
        halved, _ = sens.fraction_bits(ToleranceSpec(0.5e-4, 2.0))
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
            assert (sens.fraction_bits(ToleranceSpec(chi_lo, 2.0))[0]
                    >= sens.fraction_bits(ToleranceSpec(chi_hi, 2.0))[0])
        assert (sens.fraction_bits(ToleranceSpec(1e-4, 2.0))[0]
                >= sens.fraction_bits(ToleranceSpec(1e-4, 1.63))[0])

    def test_bound_beyond_the_largest_double_needs_no_bits(self):
        # sqrt(12) chi / (y sqrt(S_T)) overflows for a subnormal y; with
        # numpy warnings as errors, a numpy scalar product would raise here
        s = GcfSpec.from_oversampling(4, 5.0, p_p=1)  # S_T = L = 10
        assert sensitivity(s, in_band(s)).fraction_bits(ToleranceSpec(1e-4, 2.2250738585e-313))[0] == 0

    def test_no_frequencies_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="no frequencies"):
            sensitivity(PAPER_SPEC, np.array([])).fraction_bits(PAPER_TOL)
        with pytest.raises(ParameterError, match="no frequencies"):
            design_wordlengths(PAPER_SPEC, PAPER_TOL, 1, np.array([]))

    def test_vanishing_sensitivity_is_an_internal_error(self):
        sens = SensitivityResult(freqs=np.array([0.1, 0.2]), s_t=np.zeros(2), case_tag="full-cascade",
                                 n_multipliers=4)
        with pytest.raises(InternalError, match="vanished"):
            sens.fraction_bits(PAPER_TOL)


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

    def test_overflowing_scale_keeps_the_values(self):
        # at f_n = 1023, |v| * 2**f_n overflows for |v| >= 2, where v is a multiple of 2**-f_n
        v = np.array([2.998496374942524, -2.0, 1.5, -0.1, 5e-324, 1e308])
        q = quantize_coefficients(v, 1023)
        assert np.array_equal(q, [2.998496374942524, -2.0, 1.5, -0.1, 0.0, 1e308])


class TestQuantizationErrorResponse:
    def test_integer_coefficients_are_exact(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        freqs, _ = banded_grid(s)
        _, delta_h = quantization_error_response(s, 7, freqs)
        np.testing.assert_array_equal(delta_h, np.zeros(len(freqs)))

    def test_fine_quantization_vanishes(self):
        _, delta_h = quantization_error_response(PAPER_SPEC, 40, banded_grid(PAPER_SPEC)[0])
        assert np.max(np.abs(delta_h)) <= 1e-10

    def test_paper_design_within_tolerance(self):
        freqs, band = banded_grid(PAPER_SPEC)
        _, delta_h = quantization_error_response(PAPER_SPEC, 7, freqs)
        assert np.max(np.abs(delta_h[band > 0])) <= 1e-4

    def test_memory_holds_one_block_of_phasors(self):
        # building a block's phasors takes two complex (block x taps) arrays;
        # the previous block's phasors kept alive meanwhile would be a third
        s = GcfSpec.from_oversampling(256, 512, p_p=7)
        freqs = np.linspace(0.0, 0.5, 3 * wordlength._FREQ_BLOCK)
        block_bytes = wordlength._FREQ_BLOCK * (3 * s.D1 - 2) * 16
        tracemalloc.start()
        try:
            quantization_error_response(s, 16, freqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * block_bytes

    def test_sigma_scaling_is_exactly_binary(self):
        sens = sensitivity(PAPER_SPEC, in_band(PAPER_SPEC))
        np.testing.assert_array_equal(sens.sigma_dh(6), 2.0 * sens.sigma_dh(7))
        np.testing.assert_array_equal(sens.sigma_dh(0), 2.0 ** 7 * sens.sigma_dh(7))


def mc_rows(spec, f_n, trials, seed, freqs):
    # each yielded block is a view of a buffer that the next block overwrites
    return np.vstack([block.copy() for block in _mc_delta_h(spec, _mc_draws(spec, f_n, trials, seed), freqs)])


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC))[2]
        b = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC))[2]
        c = monte_carlo_run(PAPER_SPEC, 7, 1000, 12, y=2.0, freqs=in_band(PAPER_SPEC))[2]
        assert a == b
        assert a != c

    def test_trials_floor(self):
        with pytest.raises(ParameterError):
            monte_carlo_run(PAPER_SPEC, 7, 10, 1, y=2.0, freqs=in_band(PAPER_SPEC))

    @pytest.mark.parametrize("trials,freqs,message", [
        (999, in_band(PAPER_SPEC), "trials must be >= 1000, got 999"),
        (1000, np.array([]), "at least one in-band frequency"),
    ], ids=["999-trials", "no-freqs"])
    def test_rejected_before_any_draw(self, trials, freqs, message, monkeypatch):
        def drew(*args):
            raise AssertionError("the Monte Carlo drew before checking its arguments")

        monkeypatch.setattr(wordlength, "_mc_draws", drew)
        with pytest.raises(ParameterError, match=message):
            monte_carlo_run(PAPER_SPEC, 7, trials, 1, y=2.0, freqs=freqs)

    @pytest.mark.parametrize("D", [2, 16, 64])
    def test_draw_width_is_the_draw_columns(self, D):
        # the unit tap of D1 = 1 is wiring and draws nothing; a bank of D1 > 1 draws its 3 D1 - 2 taps
        for p_p in range(-1, D.bit_length() - 1):
            s = spec_for(D, p_p=p_p)
            taps = 3 * s.D1 - 2 if s.D1 > 1 else 0
            assert mc_draw_width(s) == _mc_draws(s, 7, 2, 1).shape[1] == taps + len(s.cascade_stages)

    def test_vanishing_interval(self):
        cov = monte_carlo_run(PAPER_SPEC, 7, 1000, 3, y=1e-6, freqs=in_band(PAPER_SPEC))[2]
        assert cov <= 0.05

    def test_model_std_is_upper_bound(self):
        error_std, sigma_dh, _ = monte_carlo_run(PAPER_SPEC, 7, 1500, 21, y=2.0, freqs=in_band(PAPER_SPEC))
        assert np.all(error_std <= 1.1 * sigma_dh + 1e-18)

    def test_full_polyphase_coverage_near_gaussian(self):
        s = GcfSpec(D=16, f_c=1 / 128, p_p=3)
        cov = monte_carlo_run(s, 12, 1000, 8, y=2.0, freqs=in_band(s))[2]
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
            monte_carlo_run(s, 16, 1025, 1, y=2.0, freqs=in_band(s))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nf * n_taps * 8 / 4

    def test_memory_grows_with_trials_only_by_the_draws(self):
        # the bases and work rows are made once per tile and the coefficient
        # rows once per block, so 3000 more trials add only their draws; the
        # 1 MiB allows for one-time allocations, which moved the growth by
        # 0.74 MB between test orders (a per-run coefficient matrix adds 9.2 MB)
        s = GcfSpec.from_oversampling(256, 512, p_p=7)
        freqs = in_band(s, 17, 512)[:wordlength._FREQ_BLOCK]
        peaks = []
        for trials in (1000, 4000):
            tracemalloc.start()
            try:
                monte_carlo_run(s, 16, trials, 1, y=2.0, freqs=freqs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3000 * (3 * s.D1 - 2) * 8 + 2 ** 20

    def test_split_point_measures_are_pinned(self):
        # D1 > 1, so BLAS products round the d|H| rows; the coverage count,
        # the largest std / sigma_dh and the points above the model std
        s = GcfSpec.from_oversampling(256, 512, p_p=3)
        error_std, sigma_dh, cov = monte_carlo_run(s, 16, 2000, 1, y=2.0, freqs=in_band(s))
        nf = len(in_band(s))
        assert (round(cov * 2000 * nf), 2000 * nf) == (36_864_218, 37_102_000)
        assert f"{np.max(error_std / sigma_dh):.4f}" == "1.0032"
        assert int(np.sum(error_std > sigma_dh)) == 27

    def test_one_run_gives_std_and_coverage(self):
        error_std, sigma_dh, cov = monte_carlo_run(PAPER_SPEC, 7, 1000, 11, y=2.0, freqs=in_band(PAPER_SPEC))
        rows = mc_rows(PAPER_SPEC, 7, 1000, 11, in_band(PAPER_SPEC))
        assert np.max(np.abs(error_std - rows.std(axis=0))) <= 1e-12 * np.max(rows.std(axis=0))
        assert cov == np.mean(np.abs(rows) <= 2.0 * sigma_dh[None, :])

    def test_bank_split_builds_no_tap_vector(self, monkeypatch):
        # the draws perturb the designed filter, whose bank is the stage product
        def forbidden(*args):
            raise AssertionError("the Monte Carlo built the taps")

        s = GcfSpec.from_oversampling(64, 256, p_p=1)
        monkeypatch.setattr(wordlength, "polyphase_impulse", forbidden)
        monkeypatch.setattr(wordlength, "rounded_multipliers", forbidden)
        error_std, _, _ = monte_carlo_run(s, 15, 1000, 3, y=2.0, freqs=in_band(s))
        assert np.all(np.isfinite(error_std))


class TestReport:
    def test_report_roundtrip(self, tmp_path):
        rep = design_wordlengths(PAPER_SPEC, PAPER_TOL, 1, in_band(PAPER_SPEC))
        assert rep.f_n == 7
        assert rep.i_n_k == (4, 7, 10, 13)
        assert rep.case_tag == "full-cascade"
        path = tmp_path / "report.json"
        write_json(path, rep.as_dict())
        data = json.loads(path.read_text())
        assert data["f_n"] == 7
        assert data["spec"]["D"] == 16
        assert data["tolerance"]["y"] == 2.0
        assert data["coefficient_width"] == 1 + 13 + 7
        table = rep.table()
        assert "F_n" in table and " 7" in table
