import math

import numpy as np
import pytest

from gcfkit import (
    CombSpec,
    GcfSpec,
    OverlappingBandsError,
    ParameterError,
    ResponseGrid,
    comb_response,
    expand_full_polynomial,
    folding_bands,
    gcf_response,
    response_grid,
    worst_case_attenuation,
)
from gcfkit.filters import polyphase_impulse
from gcfkit.spectral import ATTENUATION_CAP_DB, _REASSEMBLY_BLOCK, _polyphase_response, grid_to_csv


def spec_for(D, p_p=-1, q=0.79):
    return GcfSpec.from_oversampling(D, 4 * D, p_p=p_p, q=q)


class TestFoldingBands:
    def test_paper_bands(self):
        fb = folding_bands(16, 1 / 128)
        assert len(fb.bands) == 8
        for k, (lo, hi) in enumerate(fb.bands, start=1):
            assert lo == pytest.approx(k / 16 - 1 / 128)
            assert hi == pytest.approx(min(k / 16 + 1 / 128, 0.5))

    def test_odd_decimation(self):
        assert len(folding_bands(5, 0.01).bands) == 2

    def test_nyquist_clipping(self):
        fb = folding_bands(2, 0.01)
        assert len(fb.bands) == 1
        assert fb.bands[0] == pytest.approx((0.49, 0.5))

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingBandsError):
            folding_bands(16, 1 / 32)

    @pytest.mark.parametrize("D", range(2, 65))
    def test_band_count_parity_rule(self, D):
        fb = folding_bands(D, 1 / (4 * D))
        expected = D // 2 if D % 2 == 0 else (D - 1) // 2
        assert len(fb.bands) == expected

    def test_disjoint_bands(self):
        fb = folding_bands(8, 1 / 64)
        for (lo1, hi1), (lo2, hi2) in zip(fb.bands, fb.bands[1:]):
            assert hi1 < lo2


class TestCombResponse:
    def test_dc_gain(self):
        assert comb_response(CombSpec(16, 3), 0.0) == pytest.approx(1.0)

    def test_zero_at_folding_center(self):
        assert abs(comb_response(CombSpec(16, 3), 1 / 16)) == pytest.approx(0.0, abs=1e-15)

    def test_first_order_half_band(self):
        # closed form sin(pi f D)/(D sin(pi f)) at D=2, f=1/4
        assert abs(comb_response(CombSpec(2, 1), 0.25)) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_conjugate_symmetry(self):
        comb = CombSpec(16, 3)
        f = np.linspace(0.01, 0.49, 17)
        np.testing.assert_allclose(
            comb_response(comb, -f), np.conj(comb_response(comb, f)), rtol=1e-12
        )


class TestGcfResponse:
    def test_normalized_dc(self):
        for p_p in (-1, 1, 3):
            assert gcf_response(spec_for(16, p_p=p_p), 0.0, normalized=True) == pytest.approx(1.0, abs=1e-12)

    def test_comb_degeneration_zero(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        assert abs(gcf_response(s, 1 / 16, normalized=True)) <= 1e-14

    def test_rotated_zero_location(self):
        s = spec_for(16)
        f_zero = 1 / 16 - s.alpha / (2 * math.pi)
        assert abs(gcf_response(s, f_zero, normalized=True)) <= 1e-10

    @pytest.mark.parametrize("p_p", [-1, 0, 2, 3])
    def test_agrees_with_expanded_polynomial(self, p_p):
        s = spec_for(16, p_p=p_p)
        poly = expand_full_polynomial(s)
        rng = np.random.default_rng(42)
        f = rng.uniform(0.0, 0.5, 200)
        direct = np.array([np.sum(poly * np.exp(-2j * np.pi * fi * np.arange(len(poly)))) for fi in f])
        got = gcf_response(s, f)
        np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-10 * np.max(np.abs(direct)))

    def test_conjugate_symmetry(self):
        s = spec_for(8)
        f = np.linspace(0.02, 0.48, 11)
        np.testing.assert_allclose(gcf_response(s, -f), np.conj(gcf_response(s, f)), rtol=1e-12)


def _reassembly_loop(f, branches, D1):
    # The plain per-branch reassembly sum_k z^-k E_k(z^D1): the reference the
    # blocked, threaded version must reproduce bit for bit.
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.zeros_like(w, dtype=complex)
    for k, e_k in enumerate(branches):
        n = np.arange(len(e_k))
        ek_of_zD1 = (e_k[None, :] * np.exp(-1j * np.outer(w, D1 * n))).sum(axis=1)
        out += np.exp(-1j * w * k) * ek_of_zD1
    return out


class TestPolyphaseReassembly:
    @pytest.mark.parametrize("nf", [1, _REASSEMBLY_BLOCK - 3, 3 * _REASSEMBLY_BLOCK + 7])
    @pytest.mark.parametrize("D", [16, 64, 256])
    def test_bit_identical_to_branch_loop(self, D, nf):
        f = np.random.default_rng(D + nf).uniform(0.0, 0.5, nf)
        for p_p in range(D.bit_length() - 1):
            s = spec_for(D, p_p=p_p)
            h_p = polyphase_impulse(s)
            want = _reassembly_loop(f, [h_p[k::s.D1] for k in range(s.D1)], s.D1)
            assert np.array_equal(_polyphase_response(f, h_p, s.D1), want), p_p

    # Branch k holds e_k(n) = h_p(D1*n + k), zero-padded to equal length.
    F = np.linspace(0.0, 0.5, 9)

    def test_two_branch_example(self):
        h = np.array([1.0, 3.0, 3.0, 1.0])
        want = _reassembly_loop(self.F, [np.array([1.0, 3.0]), np.array([3.0, 1.0])], 2)
        assert np.array_equal(_polyphase_response(self.F, h, 2), want)

    def test_single_branch_identity(self):
        assert np.array_equal(_polyphase_response(self.F, np.array([1.0]), 1), np.ones(len(self.F)))

    def test_four_branch_zero_padding(self):
        h = np.array([1, 3, 6, 10, 12, 12, 10, 6, 3, 1], dtype=float)
        branches = [np.array(e, dtype=float) for e in ([1, 12, 3], [3, 12, 1], [6, 10, 0], [10, 6, 0])]
        assert np.array_equal(_polyphase_response(self.F, h, 4), _reassembly_loop(self.F, branches, 4))


class TestResponseGrid:
    def test_construction_contract(self):
        s = spec_for(16)
        fb = folding_bands(s.D, s.f_c)
        grid = response_grid(s, fb, points_per_band=65, global_points=4096)
        assert len(grid.freqs) >= 4096
        assert np.all(np.diff(grid.freqs) > 0)
        for lo, hi in fb.bands:
            inside = (grid.freqs >= lo) & (grid.freqs <= hi)
            assert inside.sum() >= 65
            assert np.any(np.isclose(grid.freqs, lo))
            assert np.any(np.isclose(grid.freqs, hi))
            assert np.any(np.isclose(grid.freqs, (lo + hi) / 2))
        assert np.array_equal(grid.in_band_mask, fb.contains(grid.freqs))

    def test_comb_grid_same_freqs(self):
        s = spec_for(16)
        fb = folding_bands(s.D, s.f_c)
        g1 = response_grid(s, fb)
        g2 = response_grid(CombSpec(16, 3), fb)
        np.testing.assert_array_equal(g1.freqs, g2.freqs)

    def test_folding_centres_are_zeros_for_comb_case(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        fb = folding_bands(s.D, s.f_c)
        grid = response_grid(s, fb)
        for k in range(1, len(fb.bands) + 1):
            # k/D, not the interval midpoint: the last band is clipped at Nyquist
            idx = np.argmin(np.abs(grid.freqs - k / 16))
            assert grid.freqs[idx] == pytest.approx(k / 16, abs=1e-12)
            assert grid.magnitude[idx] <= 1e-13

    def test_rejects_sparse_bands(self):
        s = spec_for(16)
        with pytest.raises(ParameterError):
            response_grid(s, folding_bands(s.D, s.f_c), points_per_band=1)


class TestWorstCaseAttenuation:
    def test_comb_reference_value(self):
        # independent oracle: |comb| is largest at the innermost band edge
        comb = CombSpec(16, 3)
        fb = folding_bands(16, 1 / 128)
        grid = response_grid(comb, fb)
        f_edge = 1 / 16 - 1 / 128
        ratio = math.sin(math.pi * f_edge * 16) / (16 * math.sin(math.pi * f_edge))
        expected = -20 * math.log10(abs(ratio) ** 3)
        assert worst_case_attenuation(grid) == pytest.approx(expected, abs=1e-9)
        assert worst_case_attenuation(grid) == pytest.approx(51.25, abs=0.1)

    def test_gcf_improvement_about_8db(self):
        s = spec_for(16)  # rho = 64
        fb = folding_bands(16, 1 / 128)
        att_gcf = worst_case_attenuation(response_grid(s, fb))
        att_comb = worst_case_attenuation(response_grid(CombSpec(16, 3), fb))
        assert att_gcf - att_comb == pytest.approx(8.0, abs=2.0)

    def test_zero_band_capped(self):
        grid = ResponseGrid(
            freqs=np.array([0.0, 0.25]),
            values=np.array([1.0 + 0j, 0.0 + 0j]),
            in_band_mask=np.array([False, True]),
        )
        assert worst_case_attenuation(grid) == ATTENUATION_CAP_DB

    def test_empty_mask_rejected(self):
        grid = ResponseGrid(
            freqs=np.array([0.0]), values=np.array([1.0 + 0j]), in_band_mask=np.array([False])
        )
        with pytest.raises(ParameterError):
            worst_case_attenuation(grid)


class TestGridCsv:
    def test_schema_and_extras(self, tmp_path):
        s = spec_for(8)
        fb = folding_bands(s.D, s.f_c)
        grid = response_grid(s, fb, points_per_band=5, global_points=32)
        path = tmp_path / "grid.csv"
        grid_to_csv(path, grid, extra={"s_t": np.arange(len(grid.freqs), dtype=float)})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq,re,im,magnitude,magnitude_dB,in_band,s_t"
        assert len(lines) == len(grid.freqs) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(1.0)  # normalized DC
