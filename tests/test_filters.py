import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    ParameterError,
    expand_full_polynomial,
    normalization_gain,
    polyphase_impulse,
    stage_coefficients,
)
from gcfkit.filters import _xt_sequence, coefficients_to_csv, stage_multiplier, write_json

from gcf_helpers import comb_coefficients, spec_for


class TestAlpha:
    def test_paper_setup_value(self):
        # 0.79 * 2*pi/128 = 0.79*pi/64 = 0.0387790...
        assert GcfSpec(D=16, f_c=1 / 128, q=0.79).alpha == pytest.approx(0.79 * math.pi / 64, rel=1e-12)
        assert GcfSpec(D=16, f_c=1 / 128, q=0.79).alpha == pytest.approx(0.038779, abs=1e-6)

    def test_zero_rotation(self):
        assert GcfSpec(D=2, f_c=0.123, q=0.0).alpha == 0.0

    def test_linear_in_bandwidth(self):
        half = GcfSpec(D=16, f_c=1 / 256, q=0.79).alpha
        assert half == pytest.approx(GcfSpec(D=16, f_c=1 / 128, q=0.79).alpha / 2, rel=1e-12)

    @pytest.mark.parametrize("q,f_c", [(-0.1, 0.01), (1.1, 0.01), (0.5, 0.0), (0.5, 0.5)])
    def test_out_of_range(self, q, f_c):
        with pytest.raises(ParameterError):
            GcfSpec(D=2, f_c=f_c, q=q)


class TestGcfSpec:
    def test_derived_fields(self):
        s = GcfSpec(D=16, f_c=1 / 128, p_p=1)
        assert (s.p, s.D1, s.D2) == (4, 4, 4)
        assert s.D == s.D1 * s.D2
        assert s.alpha == s.q * 2.0 * math.pi * s.f_c
        assert 0 <= s.alpha < math.pi / s.D

    @pytest.mark.parametrize("D", [3, 6, 1, 0])
    def test_rejects_non_power_of_two(self, D):
        with pytest.raises(ParameterError):
            GcfSpec(D=D, f_c=1e-3)

    def test_rejects_bad_split(self):
        with pytest.raises(ParameterError):
            GcfSpec(D=16, f_c=1 / 128, p_p=4)
        with pytest.raises(ParameterError):
            GcfSpec(D=16, f_c=1 / 128, p_p=-2)

    def test_rejects_wide_band(self):
        with pytest.raises(ParameterError):
            GcfSpec(D=16, f_c=1 / 32)


class TestStageCoefficients:
    def test_zero_alpha_gives_threes(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        assert stage_coefficients(s) == (3.0, 3.0, 3.0, 3.0)

    def test_paper_first_stage(self):
        s = spec_for(16)  # rho = 64
        assert stage_coefficients(s)[0] == pytest.approx(2.998496, abs=1e-6)

    def test_ascending_stage_order_and_delays(self):
        s = GcfSpec(D=32, f_c=1 / 256, p_p=1)
        coeffs = stage_coefficients(s)
        assert len(coeffs) == s.p - s.p_p - 1
        expected = [1 + 2 * math.cos((2 ** k) * s.alpha) for k in (2, 3, 4)]
        assert list(coeffs) == pytest.approx(expected)

    def test_empty_cascade_is_valid(self):
        s = GcfSpec(D=8, f_c=1 / 64, p_p=2)
        assert stage_coefficients(s) == ()

    @pytest.mark.parametrize("D", [2, 4, 8, 16, 32, 64])
    def test_r_at_most_three(self, D):
        s = spec_for(D)
        r = stage_coefficients(s)
        assert all(r_k <= 3.0 for r_k in r)
        assert all(r_k < 3.0 for r_k in r)  # alpha != 0 here


def literal_triple_sum(D1, alpha):
    # direct O(D1**3) evaluation of the nested modulated sums
    L = 3 * D1 - 2
    r = 1 + 2 * math.cos(alpha * D1)
    x_t = np.zeros(L)
    for idx, val in ((0, 1.0), (D1, -r), (2 * D1, r), (3 * D1, -1.0)):
        if idx < L:
            x_t[idx] = val
    h = np.zeros(L, dtype=complex)
    for n in range(L):
        acc3 = 0.0j
        for k3 in range(n + 1):
            acc2 = 0.0j
            for k2 in range(k3 + 1):
                acc1 = sum(x_t[k1] for k1 in range(k2 + 1))
                acc2 += np.exp(1j * alpha * k2) * acc1
            acc3 += np.exp(-2j * alpha * k3) * acc2
        h[n] = np.exp(1j * alpha * n) * acc3
    return h.real


def geometric_factor_bank(D1, alpha):
    # conv of the three length-D1 geometric sequences (1, e^{j a k}, e^{-j a k})
    k = np.arange(D1)
    h = np.convolve(np.convolve(np.ones(D1, complex), np.exp(1j * alpha * k)), np.exp(-1j * alpha * k))
    return h.real


class TestPolyphaseImpulse:
    def test_degenerate_single_tap(self):
        s = GcfSpec(D=2, f_c=1 / 16, p_p=-1)
        assert polyphase_impulse(s).tolist() == [1.0]

    def test_binomial_reduction(self):
        s = GcfSpec(D=2, f_c=1 / 16, p_p=0, q=0.0)
        assert polyphase_impulse(s).tolist() == [1.0, 3.0, 3.0, 1.0]

    def test_boxcar_cubed(self):
        s = GcfSpec(D=4, f_c=1 / 32, p_p=1, q=0.0)
        assert polyphase_impulse(s).tolist() == [1, 3, 6, 10, 12, 12, 10, 6, 3, 1]

    @pytest.mark.parametrize("D1_exp", [0, 1, 2, 3])
    def test_matches_literal_triple_sum(self, D1_exp):
        D = 16
        s = GcfSpec(D=D, f_c=1 / 128, p_p=D1_exp - 1)
        got = polyphase_impulse(s)
        ref = literal_triple_sum(s.D1, s.alpha)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("D", [4, 16, 64])
    def test_matches_geometric_factorization(self, D):
        s = spec_for(D, p_p=int(math.log2(D)) - 1)
        np.testing.assert_allclose(
            polyphase_impulse(s), geometric_factor_bank(s.D1, s.alpha), rtol=1e-11
        )

    @pytest.mark.parametrize("D,p_p", [(8, 1), (16, 3), (64, 4)])
    def test_palindromic_and_real(self, D, p_p):
        h = polyphase_impulse(spec_for(D, p_p=p_p))
        assert len(h) == 3 * 2 ** (p_p + 1) - 2
        np.testing.assert_allclose(h, h[::-1], rtol=1e-12)

    def test_r_block_uses_doubled_cosine(self):
        s = spec_for(16, p_p=3)
        x_t = _xt_sequence(s.D1, s.alpha, 3 * s.D1 + 1)
        assert x_t[0] == 1.0
        assert x_t[s.D1] == pytest.approx(-(1 + 2 * math.cos(s.alpha * s.D1)))


def old_expand_full_polynomial(spec):
    """The bank convolved with every zero-padded dense stage array (the quadratic expansion)."""
    poly = polyphase_impulse(spec)
    for k in spec.cascade_stages:
        r_k = stage_multiplier(spec.alpha, k)
        stage = np.zeros(3 * 2 ** k + 1)
        stage[0] = 1.0
        stage[2 ** k] = r_k
        stage[2 * 2 ** k] = r_k
        stage[3 * 2 ** k] = 1.0
        poly = np.convolve(poly, stage)
    return poly


@lru_cache(maxsize=None)
def exact_stage_product(D):
    """The p stage polynomials of spec_for(D), with r_k of its double alpha, multiplied out in 40 digits."""
    import mp_gcf  # skips the calling test without mpmath
    spec = spec_for(D)
    return mp_gcf.stage_polynomial(mp_gcf.stage_multipliers(spec.alpha, range(spec.p)))


SPLIT_POINTS = [(D, pp) for D in (16, 32, 64, 256, 1024) for pp in range(-1, D.bit_length() - 1)]
MP_POINTS = [(D, pp) for D, pp in SPLIT_POINTS if D in (16, 256, 1024)]


class TestExpandedPolynomial:
    def test_single_stage_cube(self):
        s = GcfSpec(D=2, f_c=1 / 16, q=0.0)
        assert expand_full_polynomial(s).tolist() == [1.0, 3.0, 3.0, 1.0]

    @pytest.mark.parametrize("D", [2, 4, 8, 16])
    def test_comb_degeneration_exact(self, D):
        s = GcfSpec(D=D, f_c=1 / (16 * D), q=0.0)
        got = expand_full_polynomial(s)
        ref = comb_coefficients(D)
        assert len(got) == 3 * (D - 1) + 1
        np.testing.assert_array_equal(np.round(got), ref)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    @pytest.mark.parametrize("D", [2, 4, 8, 16])
    def test_split_invariance(self, D):
        p = int(math.log2(D))
        polys = [expand_full_polynomial(spec_for(D, p_p=pp)) for pp in range(-1, p)]
        scale = np.max(np.abs(polys[0]))
        for poly in polys[1:]:
            assert np.max(np.abs(poly - polys[0])) / scale <= 1e-10

    @pytest.mark.parametrize("D", [4, 8, 16])
    def test_roots_on_unit_circle(self, D):
        s = spec_for(D)
        poly = expand_full_polynomial(s)
        scale = np.sum(np.abs(poly))
        angles = []
        for k in range(1, D):
            base = 2 * np.pi * k / D
            angles += [base, base + s.alpha, base - s.alpha]
        for theta in angles:
            z = np.exp(1j * theta)
            val = np.sum(poly * z ** (-np.arange(len(poly))))
            assert abs(val) / scale <= 1e-8

    @pytest.mark.parametrize("rho_factor", [2, 4, 8])
    @pytest.mark.parametrize("D,p_p", SPLIT_POINTS, ids=[f"D{D}-pp{pp}" for D, pp in SPLIT_POINTS])
    def test_matches_the_dense_convolution(self, D, p_p, rho_factor):
        s = spec_for(D, p_p=p_p, rho_factor=rho_factor)
        got, want = expand_full_polynomial(s), old_expand_full_polynomial(s)
        assert len(got) == len(want) == 3 * (D - 1) + 1
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("D", [2 ** 14, 2 ** 16])
    def test_matches_the_dense_convolution_at_large_d(self, D):
        s = spec_for(D)
        want = old_expand_full_polynomial(s)
        assert np.max(np.abs(expand_full_polynomial(s) - want)) <= 4e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("D,p_p", MP_POINTS, ids=[f"D{D}-pp{pp}" for D, pp in MP_POINTS])
    def test_both_expansions_are_within_rounding_of_the_exact_product(self, D, p_p):
        # no ordering between the two: each is closer to the 40-digit product at some designs
        s = spec_for(D, p_p=p_p)
        exact = exact_stage_product(D)
        tol = 8 * s.p * 2.0 ** -53 * np.max(np.abs(exact))
        assert np.max(np.abs(expand_full_polynomial(s) - exact)) <= tol
        assert np.max(np.abs(old_expand_full_polynomial(s) - exact)) <= tol

    def test_linear_in_the_length(self):
        # each stage costs O(length): 24 ms on a 2-CPU VM, where the dense convolution took 46 s
        s = spec_for(2 ** 18)
        start = time.perf_counter()
        poly = expand_full_polynomial(s)
        assert time.perf_counter() - start < 1.0
        assert len(poly) == 3 * (2 ** 18 - 1) + 1


class TestNormalizationGain:
    def test_d2_comb(self):
        assert normalization_gain(GcfSpec(D=2, f_c=1 / 16, q=0.0)) == pytest.approx(1 / 8)

    def test_d16_comb(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        assert normalization_gain(s) == pytest.approx(1 / 4096, rel=1e-12)

    def test_unity_gain_identity(self):
        s = spec_for(16)
        h_o = normalization_gain(s)
        total = np.sum(expand_full_polynomial(s))
        assert h_o * total == pytest.approx(1.0, abs=1e-12)


class TestExports:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        values = stage_coefficients(spec_for(16))
        coefficients_to_csv(path, values)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,value"
        parsed = [float(line.split(",")[1]) for line in lines[1:]]
        assert parsed == pytest.approx(list(values), abs=0)

    def test_json_is_what_json_dump_writes_plus_a_newline(self, tmp_path):
        value = {"spec": {"D": 16, "rho": None, "alpha": 0.0387787, "normalized": True},
                 "checks": [{"pass": False, "name": "split_invariance"}, 1e-300, -0.0, 2**70],
                 "expanded": [0.1 * k for k in range(100)], "empty": [], "unicode": "\u03c7 = 1e-4"}
        with open(tmp_path / "want.json", "w", newline="") as fh:
            json.dump(value, fh, indent=2)
            fh.write("\n")
        write_json(tmp_path / "got.json", value)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
