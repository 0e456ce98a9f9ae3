import math
import tracemalloc

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    ParameterError,
    band_index,
    comb_response,
    expand_full_polynomial,
    folding_bands,
    gcf_response,
    grid_frequencies,
    worst_case_attenuation,
)
from gcfkit.filters import normalization_gain, polyphase_impulse
from gcfkit.spectral import (
    ATTENUATION_CAP_DB,
    EDGE_EPS,
    _form_gap_bound,
    _polyphase_response,
    band_peaks,
    grid_size,
    grid_to_csv,
)
from gcf_helpers import banded_grid, comb_coefficients, in_band, spec_for
from test_stage_kernel import OldFoldingBandSet

PAPER_SPEC = GcfSpec(D=16, f_c=1 / 128)


class TestFoldingBands:
    def test_paper_bands(self):
        lo_hi = np.column_stack(folding_bands(PAPER_SPEC))
        assert len(lo_hi) == 8
        for k, (lo, hi) in enumerate(lo_hi, start=1):
            assert lo == pytest.approx(k / 16 - 1 / 128)
            assert hi == pytest.approx(min(k / 16 + 1 / 128, 0.5))

    def test_nyquist_clipping(self):
        lo, hi = folding_bands(GcfSpec(D=2, f_c=0.01))
        assert len(lo) == 1
        assert (lo[0], hi[0]) == pytest.approx((0.49, 0.5))

    @pytest.mark.parametrize("D", range(2, 65))
    def test_band_count_parity_rule(self, D):
        # a design's D is a power of two, with D/2 folding bands; no other D makes a design
        if D & (D - 1):
            with pytest.raises(ParameterError):
                GcfSpec(D=D, f_c=1 / (4 * D))
            return
        assert [len(edge) for edge in folding_bands(GcfSpec(D=D, f_c=1 / (4 * D)))] == [D // 2] * 2

    def test_disjoint_bands(self):
        lo, hi = folding_bands(GcfSpec(D=8, f_c=1 / 64))
        assert np.all(hi[:-1] < lo[1:])


class TestBandIndex:
    def test_edges_centres_and_gaps(self):
        lo, hi = folding_bands(PAPER_SPEC)
        k = np.arange(1, 9)
        for f in (lo, hi, (lo + hi) / 2, lo - EDGE_EPS / 2, hi + EDGE_EPS / 2):
            assert np.array_equal(band_index(PAPER_SPEC, f), k)
        for f in (lo - 2 * EDGE_EPS, hi[:-1] + 2 * EDGE_EPS, (k - 0.5) / 16, [0.0, 0.5 + 2 * EDGE_EPS]):
            assert not np.any(band_index(PAPER_SPEC, f))

    def test_touching_bands_give_a_point_its_nearest_band(self):
        # rho - D < 2e-12 D^2: the widened bands k and k + 1 overlap around (k + 1/2)/D
        D = 2 ** 20
        s = GcfSpec(D=D, f_c=(1 - 1e-9) / (2 * D))
        k = np.arange(1, 6)
        lo, hi = folding_bands(s)
        for f, nearest in (((k + 0.5) / D - 0.4 * EDGE_EPS, k), ((k + 0.5) / D + 0.4 * EDGE_EPS, k + 1)):
            assert np.all((f <= hi[k - 1] + EDGE_EPS) & (f >= lo[k] - EDGE_EPS))  # in both widened bands
            assert np.array_equal(band_index(s, f), nearest)


class TestCombResponse:
    def test_dc_gain(self):
        assert comb_response(PAPER_SPEC, np.array([0.0]))[0] == pytest.approx(1.0)

    def test_zero_at_folding_center(self):
        assert abs(comb_response(PAPER_SPEC, np.array([1 / 16]))[0]) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("D", [2 ** p for p in range(1, 7)])
    def test_matches_comb_coefficients_dtft(self, D):
        # the taps' DTFT over their DC gain D**3 is the unit-DC third-order comb of D
        f = np.random.default_rng(D).uniform(0.0, 0.5, 50)
        taps = comb_coefficients(D)
        direct = np.exp(-2j * np.pi * np.outer(f, np.arange(len(taps)))) @ taps / D ** 3
        np.testing.assert_allclose(comb_response(GcfSpec(D=D, f_c=1 / (4 * D)), f), direct, rtol=0, atol=1e-12)

    def test_conjugate_symmetry(self):
        f = np.linspace(0.01, 0.49, 17)
        np.testing.assert_allclose(
            comb_response(PAPER_SPEC, -f), np.conj(comb_response(PAPER_SPEC, f)), rtol=1e-12
        )


class TestGcfResponse:
    def test_normalized_dc(self):
        for p_p in (-1, 1, 3):
            assert gcf_response(spec_for(16, p_p=p_p), np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_comb_degeneration_zero(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        assert abs(gcf_response(s, np.array([1 / 16]))[0]) <= 1e-14

    def test_rotated_zero_location(self):
        s = spec_for(16)
        f_zero = 1 / 16 - s.alpha / (2 * math.pi)
        assert abs(gcf_response(s, np.array([f_zero]))[0]) <= 1e-10

    @pytest.mark.parametrize("p_p", [-1, 0, 2, 3])
    def test_agrees_with_expanded_polynomial(self, p_p):
        s = spec_for(16, p_p=p_p)
        poly = expand_full_polynomial(s)
        rng = np.random.default_rng(42)
        f = rng.uniform(0.0, 0.5, 200)
        direct = np.array([np.sum(poly * np.exp(-2j * np.pi * fi * np.arange(len(poly)))) for fi in f])
        direct *= normalization_gain(s)
        got = gcf_response(s, f)
        np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-10 * np.max(np.abs(direct)))

    def test_conjugate_symmetry(self):
        s = spec_for(8)
        f = np.linspace(0.02, 0.48, 11)
        np.testing.assert_allclose(gcf_response(s, -f), np.conj(gcf_response(s, f)), rtol=1e-12)


def _reassembly_loop(f, branches, D1):
    # The plain per-branch reassembly sum_k z^-k E_k(z^D1), written
    # independently of the package: _polyphase_response must reproduce it
    # bit for bit.
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.zeros_like(w, dtype=complex)
    for k, e_k in enumerate(branches):
        n = np.arange(len(e_k))
        ek_of_zD1 = (e_k[None, :] * np.exp(-1j * np.outer(w, D1 * n))).sum(axis=1)
        out += np.exp(-1j * w * k) * ek_of_zD1
    return out


class TestPolyphaseReassembly:
    @pytest.mark.parametrize("nf", [1, 61, 199])
    @pytest.mark.parametrize("D", [16, 64, 256, 1024])
    def test_bit_identical_to_branch_loop(self, D, nf):
        f = np.random.default_rng(D + nf).uniform(0.0, 0.5, nf)
        for p_p in range(D.bit_length() - 1) if D < 1024 else (7, 8, 9):
            s = spec_for(D, p_p=p_p)
            h_p = polyphase_impulse(s)
            want = _reassembly_loop(f, [h_p[k::s.D1] for k in range(s.D1)], s.D1)
            assert np.array_equal(_polyphase_response(f, h_p, s.D1), want), p_p

    def test_memory_does_not_grow_with_branches_times_grid(self):
        # one (grid x D1) complex array would be 1.15 GB here
        s = GcfSpec.from_oversampling(1024, 2048, p_p=9)
        f = grid_frequencies(folding_bands(s))
        tracemalloc.start()
        try:
            gcf_response(s, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(f) == 70143
        assert peak < 16 * len(f) * 16

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


# Every split but the pure cascade (the same form on both sides) at D = 16,
# 64 and 256, and the three bank-heaviest splits of D = 1024, at rho = 2D and 8D.
GAP_POINTS = [(D, pp, m * D) for D in (16, 64, 256) for pp in range(D.bit_length() - 1) for m in (2, 8)]
GAP_POINTS += [(1024, pp, m * 1024) for pp in (7, 8, 9) for m in (2, 8)]


class TestBandPeaks:
    def test_subset_of_grid_gives_the_full_grid_values(self):
        # numpy evaluates a product of large temporaries in place, with its
        # operands swapped; the response must not depend on the grid size
        s = GcfSpec.from_oversampling(256, 512, p_p=3)
        f, _ = banded_grid(s)
        idx = np.sort(np.random.default_rng(3).choice(len(f), 302, replace=False))
        assert np.array_equal(gcf_response(s, f)[idx], gcf_response(s, f[idx]))

    @pytest.mark.parametrize("D,pp,rho", GAP_POINTS, ids=[f"D{D}-pp{pp}-rho{rho}" for D, pp, rho in GAP_POINTS])
    def test_cascade_form_is_within_the_gap_bound(self, D, pp, rho):
        s = GcfSpec.from_oversampling(D, rho, p_p=pp)
        f, band = banded_grid(s)
        f = f[band > 0]
        cascade = GcfSpec.from_oversampling(D, rho)
        gap = np.abs(np.abs(gcf_response(s, f)) - np.abs(gcf_response(cascade, f)))
        assert np.max(gap) <= _form_gap_bound(s)

    # at D = 1024, rho = 8D, 18 band peaks are missed when the points kept are
    # only those at each band's cascade-form maximum
    @pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (16, 2, 64), (64, 1, 512), (256, 3, 512), (256, 7, 2048),
                                          (1024, 8, 8192)])
    def test_equal_to_the_whole_grid_band_maxima(self, D, pp, rho):
        s = GcfSpec.from_oversampling(D, rho, p_p=pp)
        f, band = banded_grid(s)
        mag = np.abs(gcf_response(s, f))
        want = [np.max(mag[m]) for m in OldFoldingBandSet(s).band_masks(f)]
        assert np.array_equal(band_peaks(s, f, band), want)


class TestResponseGrid:
    def test_construction_contract(self):
        s = spec_for(16)
        freqs = grid_frequencies(folding_bands(s), 65, 4096)
        assert len(freqs) >= 4096
        assert np.all(np.diff(freqs) > 0)
        for lo, hi in zip(*folding_bands(s)):
            inside = (freqs >= lo) & (freqs <= hi)
            assert inside.sum() >= 65
            assert np.any(np.isclose(freqs, lo))
            assert np.any(np.isclose(freqs, hi))
            assert np.any(np.isclose(freqs, (lo + hi) / 2))

    def test_comb_grid_same_freqs(self):
        # both responses come back aligned with the grid they are given
        s = spec_for(16)
        freqs = grid_frequencies(folding_bands(s))
        assert gcf_response(s, freqs).shape == comb_response(s, freqs).shape == freqs.shape

    def test_folding_centres_are_zeros_for_comb_case(self):
        s = GcfSpec(D=16, f_c=1 / 128, q=0.0)
        freqs = grid_frequencies(folding_bands(s))
        magnitude = np.abs(gcf_response(s, freqs))
        for k in range(1, 16 // 2 + 1):
            # k/D, not the interval midpoint: the last band is clipped at Nyquist
            idx = np.argmin(np.abs(freqs - k / 16))
            assert freqs[idx] == pytest.approx(k / 16, abs=1e-12)
            assert magnitude[idx] <= 1e-13

    @pytest.mark.parametrize("D,points_per_band,global_points", [(2, 2, 0), (16, 65, 4096), (256, 129, 7)])
    def test_grid_size_counts_the_concatenated_points(self, monkeypatch, D, points_per_band, global_points):
        # grid_size is the length of the grid before np.unique merges its repeats
        s = spec_for(D)
        n = grid_size(s, points_per_band, global_points)
        assert len(grid_frequencies(folding_bands(s), points_per_band, global_points)) <= n
        monkeypatch.setattr(np, "unique", lambda a: a)
        assert len(grid_frequencies(folding_bands(s), points_per_band, global_points)) == n

    def test_rejects_sparse_bands(self):
        s = spec_for(16)
        with pytest.raises(ParameterError):
            grid_frequencies(folding_bands(s), points_per_band=1)


class TestWorstCaseAttenuation:
    def test_comb_reference_value(self):
        # independent oracle: |comb| is largest at the innermost band edge
        mag = np.abs(comb_response(PAPER_SPEC, in_band(PAPER_SPEC)))
        f_edge = 1 / 16 - 1 / 128
        ratio = math.sin(math.pi * f_edge * 16) / (16 * math.sin(math.pi * f_edge))
        expected = -20 * math.log10(abs(ratio) ** 3)
        assert worst_case_attenuation(mag) == pytest.approx(expected, abs=1e-9)
        assert worst_case_attenuation(mag) == pytest.approx(51.25, abs=0.1)

    def test_gcf_improvement_about_8db(self):
        s = spec_for(16)  # rho = 64
        att_gcf = worst_case_attenuation(np.abs(gcf_response(s, in_band(PAPER_SPEC))))
        att_comb = worst_case_attenuation(np.abs(comb_response(PAPER_SPEC, in_band(PAPER_SPEC))))
        assert att_gcf - att_comb == pytest.approx(8.0, abs=2.0)

    def test_zero_band_capped(self):
        assert worst_case_attenuation(np.array([0.0])) == ATTENUATION_CAP_DB

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            worst_case_attenuation(np.array([]))


class TestGridCsv:
    def test_schema_and_extras(self, tmp_path):
        s = spec_for(8)
        freqs = grid_frequencies(folding_bands(s), 5, 32)
        path = tmp_path / "grid.csv"
        grid_to_csv(path, freqs, gcf_response(s, freqs), band_index(s, freqs) > 0,
                    extra={"s_t": np.arange(len(freqs), dtype=float)})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "freq,re,im,magnitude,magnitude_dB,in_band,s_t"
        assert len(lines) == len(freqs) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == pytest.approx(1.0)  # normalized DC
