"""The shared stage kernel against the copies of it that it replaced.

The functions prefixed ``old_`` are the stage-factor loops as they were
written out in spectral, wordlength and cli before the kernel existed, and
the earlier forms of rewritten outputs: the whole-grid Monte Carlo and its
pair-folded kernel, the csv.writer export, the per-band magnitudes of
comparison.csv and the folding bands held as tuples, with one full-grid pass
per band.  They are kept here, frozen, as oracles.  Every quantity that
feeds a sized word length or an artifact must be bit-identical to them.  The
Monte Carlo's d|H| is the exception: its kernel multiplies out the perturbed
stage product and perturbs the designed filter, whose bank is the stage
product, with pair-folded tap errors.  So it may differ from old_mc_delta_h,
which perturbs the float taps and rounds r_k + e_k, at roundoff (within
1e-11 of the largest |d|H|), because tests/test_mc_kernel_accuracy.py shows
it to be at least as close to a 40-digit evaluation as the kernels it
replaced.
"""

import csv
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from gcfkit import GcfSpec, ToleranceSpec, gcf_response, sensitivity, stage_coefficients
from gcfkit import cli, spectral, wordlength
from gcfkit.filters import (
    normalization_gain,
    polyphase_impulse,
    stage_dc_gain,
    stage_multiplier,
    write_columns,
    write_json,
)
from gcfkit.spectral import (
    band_index,
    cascade_response,
    folding_bands,
    grid_frequencies,
    stage_bracket,
    stage_derivative,
)
from gcfkit.wordlength import (
    _mc_delta_h,
    _mc_draws,
    _response_from_multipliers,
    quantization_error_response,
)

from gcf_helpers import banded_grid, rounded_report

SPLITS = [(16, -1, 64), (64, -1, 256), (64, 1, 256), (64, 5, 256), (256, 3, 512)]
IDS = [f"D{D}-pp{pp}" for D, pp, _ in SPLITS]


def old_cascade_response(f, stage_ks, r):
    w = 2.0 * np.pi * np.asarray(f, dtype=float)
    out = np.ones_like(w, dtype=complex)
    for k, r_k in zip(stage_ks, r):
        half = 2.0 ** (k - 1)
        out *= 2.0 * np.exp(-3j * half * w) * (np.cos(3 * half * w) + r_k * np.cos(half * w))
    return out


def old_stage_brackets(freqs, stage_ks, r):
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    out = np.empty((len(r), len(w)))
    for row, (k, r_k) in enumerate(zip(stage_ks, r)):
        half = 2.0 ** (k - 1)
        out[row] = 2.0 * (np.cos(3.0 * half * w) + r_k * np.cos(half * w))
    return out


def old_response_from_multipliers(spec, freqs, taps, r):
    w = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    n = np.arange(len(taps))
    out = (taps[None, :] * np.exp(-1j * np.outer(w, n))).sum(axis=1)
    for k, r_k in zip(spec.cascade_stages, r):
        half = 2.0 ** (k - 1)
        out = out * 2.0 * np.exp(-3j * half * w) * (np.cos(3 * half * w) + r_k * np.cos(half * w))
    return out


def old_fd_resp(freqs, stage_ks, rv):
    w = 2.0 * np.pi * freqs
    out = np.ones_like(w, dtype=complex)
    for k, r_k in zip(stage_ks, rv):
        half = 2.0 ** (k - 1)
        out = out * 2.0 * np.exp(-3j * half * w) * (np.cos(3 * half * w) + r_k * np.cos(half * w))
    return out


def old_mc_delta_h(spec, f_n, trials, seed, freqs):
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    exact = rounded_report(spec, f_n)
    taps, r = exact.taps, exact.r
    ks = list(spec.cascade_stages)
    half_lsb = 2.0 ** -f_n / 2.0
    n_taps = len(taps) if spec.D1 > 1 else 0
    n_r = len(ks)
    draws = np.empty((trials, n_taps + n_r))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        draws[t] = rng.uniform(-half_lsb, half_lsb, size=n_taps + n_r)
    n = np.arange(len(taps))
    E = np.exp(-1j * np.outer(w, n))
    hp0 = E @ taps
    brackets = old_stage_brackets(freqs, ks, r) if ks else np.empty((0, len(freqs)))
    dc = taps.sum() * np.prod(2.0 + 2.0 * r)
    base = np.abs(hp0) * np.abs(np.prod(brackets, axis=0)) if ks else np.abs(hp0)
    base = base / dc
    cosines = []
    for k in ks:
        half = 2.0 ** (k - 1)
        cosines.append((np.cos(3 * half * w), np.cos(half * w)))
    out = np.empty((trials, len(freqs)))
    starts = list(range(0, trials, wordlength._MC_TRIAL_BLOCK))
    if len(starts) > 1 and trials - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [trials]):
        block = draws[lo:hi]
        hp_q = hp0[None, :] + block[:, :n_taps] @ E.T if n_taps else hp0[None, :]
        quant = np.abs(hp_q)
        if n_r:
            r_q = r[None, :] + block[:, n_taps:]
            amp = np.ones((len(block), len(freqs)))
            for j, (cos3, cos1) in enumerate(cosines):
                amp *= 2.0 * (cos3[None, :] + r_q[:, j:j + 1] * cos1[None, :])
            quant = quant * np.abs(amp)
        out[lo:hi] = quant / dc - base[None, :]
    return out


def old_pair_folded_mc_delta_h(spec, draws, freqs):
    """d|H| rows of the kernel that rounded r_k + e_k and multiplied the stage factors one by one."""
    nf = len(freqs)
    w = np.zeros(-(-nf // 16) * 16)
    w[:nf] = 2.0 * np.pi * np.asarray(freqs, dtype=float)
    ks = list(spec.cascade_stages)
    r = np.asarray(stage_coefficients(spec))
    n_taps = draws.shape[1] - len(ks)
    half = n_taps // 2
    amplitude = np.ones(len(w))
    for k in range(spec.p_p + 1):
        r_k = stage_multiplier(spec.alpha, k)
        amplitude *= stage_bracket(w, k, r_k) / (2.0 + 2.0 * r_k)
    theta = np.outer(np.arange(half) - (n_taps - 1) / 2.0, w)
    cos_t, sin_t = np.cos(theta), np.sin(theta, out=theta)
    stage_cos = [(np.cos(3.0 * 2.0 ** (k - 1) * w), np.cos(2.0 ** (k - 1) * w)) for k in ks]
    dc = stage_dc_gain(r) / 2.0 ** len(ks)
    stops = [*range(wordlength._MC_TRIAL_BLOCK, len(draws) - 1, wordlength._MC_TRIAL_BLOCK), len(draws)]
    blocks = [draws[lo:hi] for lo, hi in zip([0, *stops], stops)]

    def magnitude(block):
        if n_taps:
            errors = block[:, :n_taps]
            head, tail = errors[:, :half], errors[:, ::-1][:, :half]
            mag = (head + tail) @ cos_t
            mag += amplitude
            im = (head - tail) @ sin_t
            mag *= mag
            im *= im
            mag += im
            np.sqrt(mag, out=mag)
        else:
            mag = np.ones((len(block), len(w)))
        for (cos3, cos1), r_q in zip(stage_cos, (r[None, :] + block[:, n_taps:]).T):
            mag *= r_q[:, None] * cos1 + cos3
        np.abs(mag, out=mag)
        mag /= dc
        return mag

    base = magnitude(np.zeros((1, draws.shape[1])))
    return np.vstack([magnitude(block) - base for block in blocks])[:, :nf]


def old_stage_magnitude(spec, freqs, ks, normalized):
    r = np.array([stage_multiplier(spec.alpha, k) for k in ks])
    mag = np.abs(np.prod(old_stage_brackets(freqs, ks, r), axis=0))
    return mag / np.prod(2.0 + 2.0 * r) if normalized else mag


def old_cascade_derivative_magnitudes(spec, freqs):
    """|dH_N / dr_u| of the bare cascade for every stage, product form, shape (stages, nf)."""
    freqs = np.asarray(freqs, dtype=float)
    w = 2.0 * np.pi * freqs
    ks = list(spec.cascade_stages)
    brackets = [stage_bracket(w, k, r_k) for k, r_k in zip(ks, stage_coefficients(spec))]
    out = np.empty((len(ks), len(w)))
    for u, k in enumerate(ks):
        others = np.prod(brackets[:u] + brackets[u + 1:], axis=0)  # 1.0 for a single stage
        out[u] = np.abs(stage_derivative(w, k) * others)
    return out


def old_sensitivity(spec, freqs, normalized):
    """S_T by architecture case: a constant, the cascade sum, or L |H_N|**2 + |H_P|**2 x the cascade sum."""
    freqs = np.asarray(freqs, dtype=float)
    L = 3 * spec.D1 - 2
    if spec.p_p == spec.p - 1:
        return np.full(len(freqs), float(L))
    d = old_cascade_derivative_magnitudes(spec, freqs)
    if normalized:
        d = d / stage_dc_gain(stage_coefficients(spec))
    cascade_term = np.sum(d * d, axis=0)
    if spec.p_p == -1:
        return cascade_term
    hn_mag = old_stage_magnitude(spec, freqs, spec.cascade_stages, normalized)
    hp_mag = old_stage_magnitude(spec, freqs, range(spec.p_p + 1), normalized)
    return L * hn_mag ** 2 + (hp_mag ** 2) * cascade_term


def old_check_sensitivity_fd(spec, seed):
    """cli._check_sensitivity_fd with one pair of cascade responses per stage."""
    caspec = replace(spec, p_p=-1)
    rng = np.random.default_rng(seed)
    freqs = rng.uniform(0.01, 0.49, size=50)
    analytic = old_cascade_derivative_magnitudes(caspec, freqs)
    r = np.asarray(stage_coefficients(caspec))
    ks = caspec.cascade_stages
    step = 1e-6
    worst = 0.0
    for u in range(len(r)):
        hi = r.copy(); hi[u] += step
        lo = r.copy(); lo[u] -= step
        fd = np.abs((cascade_response(freqs, ks, hi) - cascade_response(freqs, ks, lo)) / (2 * step))
        rel = np.max(np.abs(fd - analytic[u]) / np.maximum(np.abs(analytic[u]), 1e-30))
        worst = max(worst, float(rel))
    return worst <= 1e-5, f"sensitivity_fd: max rel err {worst:.3e} (tol 1e-5)"


def spec_of(D, pp, rho):
    return GcfSpec.from_oversampling(D, rho, p_p=pp)


class OldFoldingBandSet:
    """The folding bands of spec as tuples (lo, hi), one full-grid pass per band."""

    EDGE_EPS = 1e-12  # so that grid points at k/D +/- f_c count as in-band

    def __init__(self, spec):
        D, f_c = spec.D, spec.f_c
        self.bands = tuple((k / D - f_c, min(k / D + f_c, 0.5)) for k in range(1, D // 2 + 1))

    def band_masks(self, freqs):
        """One boolean mask per band, each band widened by EDGE_EPS."""
        freqs = np.asarray(freqs, dtype=float)
        for lo, hi in self.bands:
            yield (freqs >= lo - self.EDGE_EPS) & (freqs <= hi + self.EDGE_EPS)

    def contains(self, freqs):
        """Boolean mask of frequencies lying inside any folding band."""
        mask = np.zeros(np.shape(freqs), dtype=bool)
        for band in self.band_masks(freqs):
            mask |= band
        return mask

    def grid_frequencies(self, points_per_band, global_points):
        """The response grid, refined band by band."""
        pieces = [np.linspace(0.0, 0.5, global_points)]
        for lo, hi in self.bands:
            seg = np.linspace(lo, hi, points_per_band)
            center = (lo + hi) / 2.0
            pieces.append(seg)
            pieces.append(np.array([center]))
        return np.unique(np.concatenate(pieces))


BAND_GRIDS = [(129, 4096), (17, 512), (2, 0), (5, 4097), (129, 1)]


@pytest.mark.parametrize("rho_per_D", [1 + 1e-7, 1.5, 2, 3.3, 4, 8, 100.7])
@pytest.mark.parametrize("D", [2 ** p for p in range(1, 13)])
def test_band_arrays_match_old_loops(D, rho_per_D):
    spec = spec_of(D, -1, rho_per_D * D)
    old = OldFoldingBandSet(spec)
    bands = folding_bands(spec)
    assert np.array_equal(np.column_stack(bands), np.reshape(old.bands, (-1, 2)))
    for grid in BAND_GRIDS:
        freqs = grid_frequencies(bands, *grid)
        assert np.array_equal(freqs, old.grid_frequencies(*grid))
        # band k of every point of old mask k, so want_band > 0 is old.contains
        want_band = np.zeros(len(freqs), dtype=np.intp)
        for k, m in enumerate(old.band_masks(freqs), start=1):
            idx = np.flatnonzero(m)
            assert not np.any(want_band[idx])  # no point lies in two bands
            want_band[idx] = k
        assert np.array_equal(band_index(spec, freqs), want_band)


def in_band_freqs(spec, points_per_band=17, global_points=512):
    freqs, band = banded_grid(spec, points_per_band, global_points)
    return freqs, freqs[band > 0]


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_stage_brackets_match_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    w = 2.0 * np.pi * freqs
    r = np.asarray(stage_coefficients(spec))
    ks = list(spec.cascade_stages)
    bank_ks = range(spec.p_p + 1)
    r_bank = np.array([stage_multiplier(spec.alpha, k) for k in bank_ks])
    for stage_ks, rv in ((ks, r), (bank_ks, r_bank)):
        old = old_stage_brackets(freqs, stage_ks, rv)
        for row, (k, r_k) in enumerate(zip(stage_ks, rv)):
            assert np.array_equal(stage_bracket(w, k, r_k), old[row])


def test_stage_bracket_accepts_columns():
    spec = spec_of(64, 1, 256)
    freqs, _ = in_band_freqs(spec)
    w = 2.0 * np.pi * freqs
    ks = list(spec.cascade_stages)
    rows = np.asarray(stage_coefficients(spec)) + np.linspace(-1e-3, 1e-3, 5)[:, None]
    for j, k in enumerate(ks):
        got = stage_bracket(w, k, rows[:, j:j + 1])
        assert got.shape == (5, len(freqs))
        for i, r_row in enumerate(rows):
            assert np.array_equal(got[i], old_stage_brackets(freqs, ks, r_row)[j])


def test_cascade_response_accepts_columns():
    spec = spec_of(64, 1, 256)
    freqs, _ = in_band_freqs(spec)
    ks = spec.cascade_stages
    r = np.asarray(stage_coefficients(spec))
    rows = r + 1e-6 * np.eye(len(r))  # row u: r + 1e-6 e_u
    got = cascade_response(freqs, ks, rows.T[..., None])
    assert got.shape == (len(r), len(freqs))
    for u, r_row in enumerate(rows):
        assert np.array_equal(got[u], cascade_response(freqs, ks, r_row))


@pytest.mark.parametrize("rho_per_D", [2, 4])
@pytest.mark.parametrize("D", [2, 16, 32, 256, 1024])
def test_sensitivity_fd_check_matches_old(D, rho_per_D):
    # the check differentiates the pure-cascade form at any split; at D=32,
    # rho=64, seed 11 the detail string depends on multiplying c_u last
    spec = spec_of(D, D.bit_length() - 2, rho_per_D * D)
    for seed in range(21):
        assert cli._check_sensitivity_fd(spec, seed) == old_check_sensitivity_fd(spec, seed)


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_response_from_multipliers_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    rounded = rounded_report(spec, 9)
    taps, r, taps_q, r_q = rounded.taps, rounded.r, rounded.taps_q, rounded.r_q
    sets = ((taps, r), (taps_q, r_q))
    for got, (t, rv) in zip(_response_from_multipliers(spec, freqs, *sets), sets, strict=True):
        assert np.array_equal(got, old_response_from_multipliers(spec, freqs, t, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_blocked_tap_dtft_matches_old(D, pp, rho, monkeypatch):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    rounded = rounded_report(spec, 9)
    taps, r, taps_q, r_q = rounded.taps, rounded.r, rounded.taps_q, rounded.r_q
    sets = ((taps, r), (taps_q, r_q))
    n_taps = len(taps)
    # frequencies per block: a last block of one frequency, a ragged last
    # block, and one frequency per block from a limit below one row of taps
    for phasors, block in ((len(freqs) * n_taps - 1, len(freqs) - 1), (7 * n_taps, 7), (n_taps - 1, 1)):
        monkeypatch.setattr(wordlength, "_PHASOR_BLOCK", phasors)
        assert max(phasors // n_taps, 1) == block < len(freqs)
        for got, (t, rv) in zip(_response_from_multipliers(spec, freqs, *sets), sets, strict=True):
            assert np.array_equal(got, old_response_from_multipliers(spec, freqs, t, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_quantized_response_and_delta_h_match_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    f_n = 9
    rounded = rounded_report(spec, f_n)
    taps, r, taps_q, r_q = rounded.taps, rounded.r, rounded.taps_q, rounded.r_q
    exact = old_response_from_multipliers(spec, freqs, taps, r)
    quant = old_response_from_multipliers(spec, freqs, taps_q, r_q)
    dc_exact = taps.sum() * np.prod(2.0 + 2.0 * r)
    dc_quant = taps_q.sum() * np.prod(2.0 + 2.0 * r_q)
    quantized, delta_h = quantization_error_response(rounded, freqs=freqs)
    assert np.array_equal(quantized, quant / dc_quant)
    assert np.array_equal(delta_h, np.abs(quant) / dc_quant - np.abs(exact) / dc_exact)


def stack_rows(blocks):
    """The yielded d|H| blocks as one array; each block is copied before the next overwrites it."""
    return np.vstack([block.copy() for block in blocks])


def assert_matches_old_mc(rows, old):
    """Within 1e-11 of the rows' largest |d|H|.

    The multiplied-out stage product, and with a bank the stage-product
    amplitude plus the pair-folded real sums of the tap errors, replace the
    rounded r_k + e_k and the complex tap matrix of the float taps, which
    moves d|H| at roundoff; tests/test_mc_kernel_accuracy.py shows the new
    values to be at least as close to a 40-digit evaluation.
    """
    assert np.max(np.abs(rows - old)) <= 1e-11 * np.max(np.abs(old))


@pytest.mark.parametrize("trials", [65, 70])  # a last block of one trial, and of six
@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_mc_delta_h_matches_old(D, pp, rho, trials):
    spec = spec_of(D, pp, rho)
    _, fi = in_band_freqs(spec)
    draws = _mc_draws(spec, 9, trials, 4)
    rows = stack_rows(_mc_delta_h(spec, draws, fi))
    assert_matches_old_mc(rows, old_mc_delta_h(spec, 9, trials, 4, fi))
    assert_matches_old_mc(rows, old_pair_folded_mc_delta_h(spec, draws, fi))


@pytest.mark.parametrize("trials,block", [(1000, 37), (1002, 40)])  # a last block of 1, and of 2
@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256), (256, 3, 512)], ids=["D16-pp-1", "D64-pp1", "D256-pp3"])
def test_streamed_monte_carlo_matches_stacked_blocks(D, pp, rho, trials, block, monkeypatch):
    spec = spec_of(D, pp, rho)
    draws = _mc_draws(spec, 9, trials, 4)
    monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", trials)
    one_block = stack_rows(_mc_delta_h(spec, draws, in_band_freqs(spec)[1]))
    monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", block)
    freqs = in_band_freqs(spec)[1]
    error_std, sigma_dh, cov = wordlength.monte_carlo_run(spec, 9, trials, 4, 2.0, freqs)
    rows = stack_rows(_mc_delta_h(spec, draws, freqs))
    assert np.array_equal(rows, one_block)  # trial-block streaming is exact
    assert_matches_old_mc(rows, old_mc_delta_h(spec, 9, trials, 4, freqs))
    std = rows.std(axis=0)
    assert np.all(np.abs(error_std - std) <= 1e-12 * std)
    assert cov == np.mean(np.abs(rows) <= 2.0 * sigma_dh[None, :])


def old_monte_carlo_run(spec, f_n, trials, seed, y, points_per_band, global_points):
    """(error_std, covered) of the whole-grid Monte Carlo: one pass of trial blocks over every in-band point."""
    sens = sensitivity(spec, in_band_freqs(spec, points_per_band, global_points)[1])
    bound = y * (2.0 ** -f_n / math.sqrt(12.0)) * np.sqrt(sens.s_t)
    rows = old_mc_delta_h(spec, f_n, trials, seed, sens.freqs)
    count, mean, m2, covered = 0, 0.0, 0.0, 0
    starts = list(range(0, trials, wordlength._MC_TRIAL_BLOCK))
    if len(starts) > 1 and trials - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [trials]):
        block = rows[lo:hi]
        b = len(block)
        b_mean = block.mean(axis=0)
        b_m2 = ((block - b_mean) ** 2).sum(axis=0)
        delta = b_mean - mean
        mean = mean + delta * (b / (count + b))
        m2 = m2 + b_m2 + delta ** 2 * (count * b / (count + b))
        count += b
        covered += int(np.count_nonzero(np.abs(block) <= bound))
    return np.sqrt(m2 / count), covered


MC_SPLITS = [(16, -1, 64), (64, 1, 256), (64, 5, 256), (256, 3, 512), (256, 7, 512)]
# (points_per_band, global_points) per D: 1735, 2331 and 2430 in-band points,
# so that tiles of 300 and 1024 leave a last tile narrower than the others
MC_GRIDS = {16: (97, 4096), 64: (65, 1024), 256: (17, 512)}


@pytest.mark.parametrize("D,pp,rho", MC_SPLITS, ids=[f"D{D}-pp{pp}" for D, pp, _ in MC_SPLITS])
def test_tiled_monte_carlo_matches_whole_grid(D, pp, rho, monkeypatch):
    spec = spec_of(D, pp, rho)
    grid = MC_GRIDS[D]
    std, covered = old_monte_carlo_run(spec, 9, 1025, 4, 2.0, *grid)  # a last trial block of 65
    nf = len(std)
    tiles = []
    tile_delta_h = wordlength._mc_delta_h

    def recording(*args):  # (spec, draws, freqs of one tile)
        tiles.append(len(args[-1]))
        return tile_delta_h(*args)

    monkeypatch.setattr(wordlength, "_mc_delta_h", recording)
    ragged = (nf - 100) // 2  # three tiles, the last of about 100 columns
    for size in (nf, ragged, 300, 1024):
        tiles.clear()
        monkeypatch.setattr(wordlength, "_FREQ_BLOCK", size)
        error_std, _, cov = wordlength.monte_carlo_run(spec, 9, 1025, 4, 2.0, in_band_freqs(spec, *grid)[1])
        if size == nf:
            whole = error_std
            # the kernel moves d|H| at roundoff (see assert_matches_old_mc)
            assert np.all(np.abs(whole - std) <= 1e-12 * std)
        assert sum(tiles) == nf
        assert np.array_equal(error_std, whole)  # tiling is exact
        assert cov == covered / (1025 * nf)


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_fd_response_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs = np.random.default_rng(3).uniform(0.01, 0.49, size=50)
    ks = spec.cascade_stages
    r = np.asarray(stage_coefficients(spec))
    for rv in (r, r + 1e-6, r - 1e-6):
        assert np.array_equal(cascade_response(freqs, ks, rv), old_fd_resp(freqs, ks, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_gcf_response_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    old = old_cascade_response(freqs, spec.cascade_stages, stage_coefficients(spec))
    if spec.D1 > 1:
        old = old * spectral._polyphase_response(freqs, polyphase_impulse(spec), spec.D1)
    old = old * normalization_gain(spec)
    new = gcf_response(spec, freqs)
    assert np.max(np.abs(new.real - old.real)) <= 1e-12 * np.max(np.abs(old.real))
    assert np.max(np.abs(new.imag - old.imag)) <= 1e-12 * np.max(np.abs(old.imag))


# sensitivity has the oracle's normalized mode only
@pytest.mark.parametrize("normalized", [True])
@pytest.mark.parametrize("D", [2 ** p for p in range(1, 11)])
def test_one_pass_sensitivity_matches_three_cases(D, normalized):
    for pp in range(-1, D.bit_length() - 1):
        spec = spec_of(D, pp, 2 * D)
        freqs, _ = in_band_freqs(spec)
        got = sensitivity(spec, freqs).s_t
        want = old_sensitivity(spec, freqs, normalized)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        if pp == spec.p - 1:
            assert np.all(got == float(3 * spec.D1 - 2))


@pytest.mark.parametrize("rho_per_D", [2, 4])
@pytest.mark.parametrize("D", [16, 32, 64, 256, 1024])
def test_one_pass_sensitivity_sizes_as_three_cases(D, rho_per_D):
    spec = spec_of(D, -1, rho_per_D * D)
    freqs = grid_frequencies(folding_bands(spec))
    freqs = freqs[band_index(spec, freqs) > 0]
    for pp in range(-1, D.bit_length() - 1):
        spec = spec_of(D, pp, rho_per_D * D)
        new = sensitivity(spec, freqs)
        old = wordlength.SensitivityResult(freqs, old_sensitivity(spec, freqs, True), new.case_tag, new.n_multipliers)
        for chi in cli.SWEEP_CHIS:
            for y in cli.SWEEP_YS:
                tol = ToleranceSpec(chi, y)
                assert new.fraction_bits(tol) == old.fraction_bits(tol)


def old_fractional_bits(spec, tol, points_per_band, global_points):
    bands = OldFoldingBandSet(spec)
    freqs = bands.grid_frequencies(points_per_band, global_points)
    mask = bands.contains(freqs)
    st = sensitivity(spec, freqs[mask]).s_t
    with np.errstate(divide="ignore"):
        ratio = np.where(st > 0.0, tol.chi / (tol.y * np.sqrt(st)), np.inf)
    idx = int(np.argmin(ratio))
    return int(math.ceil(-math.log2(math.sqrt(12.0) * ratio[idx])))


def old_fn_sweep(cfg, path):
    """fn_sweep.csv as written by one full F_n sizing per (split, chi, y)."""
    base = cfg.spec()
    with open(path, "w") as fh:
        fh.write("D,D1,pp_split,chi,y,f_n\n")
        for pp in range(-1, base.p):
            spec = GcfSpec(D=base.D, f_c=base.f_c, p_p=pp, q=base.q, rho=base.rho)
            for chi in cli.SWEEP_CHIS:
                for y in cli.SWEEP_YS:
                    f_n = old_fractional_bits(
                        spec, ToleranceSpec(chi, y), cfg.points_per_band, cfg.global_points,
                    )
                    fh.write(f"{spec.D},{spec.D1},{pp},{chi!r},{y!r},{f_n}\n")


@pytest.mark.parametrize("D,rho,grid", [
    (16, 64, {}),
    (64, 256, {"points_per_band": 33, "global_points": 1024}),
    (256, 512, {"points_per_band": 17, "global_points": 512}),
])
def test_fn_sweep_matches_one_design_per_row(tmp_path, D, rho, grid):
    cfg = cli.DesignConfig(decimation_factor=D, oversampling_ratio=rho, **grid)
    spec = cfg.spec()
    freqs = grid_frequencies(folding_bands(spec), cfg.points_per_band, cfg.global_points)
    cli._write_fn_sweep(spec, freqs[band_index(spec, freqs) > 0], str(tmp_path))
    old_fn_sweep(cfg, tmp_path / "old.csv")
    assert (tmp_path / "fn_sweep.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_cmd_sensitivity_csv(cfg, path):
    """sensitivity.csv as written with its own S_T evaluation for each column."""
    spec = cfg.spec()
    bands = OldFoldingBandSet(spec)
    freqs = bands.grid_frequencies(cfg.points_per_band, cfg.global_points)
    mask = bands.contains(freqs)
    result = sensitivity(spec, freqs)
    sigma_dh = sensitivity(spec, freqs).sigma_dh
    rep = wordlength.design_wordlengths(spec, cfg.tolerance(), cfg.input_width, freqs[mask])
    _, delta_h = quantization_error_response(rep, freqs)
    spectral.grid_to_csv(path, freqs, gcf_response(spec, freqs), mask,
                         extra={"s_t": result.s_t, "sigma_dh": sigma_dh(rep.f_n), "delta_h": delta_h})


@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256)], ids=["D16-pp-1", "D64-pp1"])
def test_sensitivity_csv_matches_separate_evaluation(tmp_path, D, pp, rho):
    cfg = cli.DesignConfig(
        decimation_factor=D, pp_split=pp, oversampling_ratio=rho,
        points_per_band=17, global_points=512, output_dir=str(tmp_path),
    )
    write_json(tmp_path / "config.json", cfg.as_dict())
    assert cli.main(["sensitivity", "--config", str(tmp_path / "config.json")]) == 0
    old_cmd_sensitivity_csv(cfg, tmp_path / "old.csv")
    assert (tmp_path / "sensitivity.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_write_columns(path, columns):
    values = [np.asarray(col).tolist() for col in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        writer.writerows(zip(*values))


def test_write_columns_matches_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500)
    x[:8] = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.2e-308, 1.0]
    columns = {"freq": np.linspace(0.0, 0.5, 500), "value": x,
               "in_band": rng.integers(0, 2, 500), "index": np.arange(500)}
    write_columns(tmp_path / "new.csv", columns)
    old_write_columns(tmp_path / "old.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_comparison_csv(cfg, path):
    """comparison.csv as written with the grid magnitudes recomputed per band."""
    spec = cfg.spec()
    bands = OldFoldingBandSet(spec)
    freqs = bands.grid_frequencies(cfg.points_per_band, cfg.global_points)
    gcf = gcf_response(spec, freqs)
    comb = spectral.comb_response(spec, freqs)
    with open(path, "w") as fh:
        fh.write("band,low,high,comb_attenuation_dB,gcf_attenuation_dB,improvement_dB\n")
        for i, ((lo, hi), m) in enumerate(zip(bands.bands, bands.band_masks(freqs)), start=1):
            att_g = -20 * np.log10(max(np.max(np.abs(gcf)[m]), 1e-15))
            att_c = -20 * np.log10(max(np.max(np.abs(comb)[m]), 1e-15))
            row = (i, lo, hi, att_c, att_g, att_g - att_c)
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row) + "\n")


COARSE, DEFAULT = (17, 512), (spectral.DEFAULT_POINTS_PER_BAND, spectral.DEFAULT_GLOBAL_POINTS)
COMPARE_POINTS = [(16, -1, 64, COARSE), (64, 1, 256, COARSE), (256, 7, 512, COARSE),
                  (256, 3, 512, DEFAULT), (1024, 9, 2048, DEFAULT)]


@pytest.mark.parametrize("D,pp,rho,grid", COMPARE_POINTS,
                         ids=["D16-pp-1", "D64-pp1", "D256-pp7", "D256-pp3-default", "D1024-pp9-default"])
def test_comparison_csv_matches_per_band_magnitudes(tmp_path, D, pp, rho, grid):
    cfg = cli.DesignConfig(
        decimation_factor=D, pp_split=pp, oversampling_ratio=rho,
        points_per_band=grid[0], global_points=grid[1], output_dir=str(tmp_path),
    )
    write_json(tmp_path / "config.json", cfg.as_dict())
    assert cli.main(["compare", "--config", str(tmp_path / "config.json")]) == 0
    old_comparison_csv(cfg, tmp_path / "old.csv")
    assert (tmp_path / "comparison.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_compare_evaluates_no_more_than_two_points_per_band(tmp_path, monkeypatch):
    # the band edges and the few lobe peaks that beat them: no grid reaches a response
    sizes = []

    def counting(original, at, *args):
        sizes.append(np.size(args[at]))
        return original(*args)

    for name, at in (("gcf_response", 1), ("cascade_response", 0), ("_polyphase_response", 0)):
        monkeypatch.setattr(spectral, name, partial(counting, getattr(spectral, name), at))
    argv = ["compare", "--decimation-factor", "1024", "--pp-split", "9", "--oversampling-ratio", "2048",
            "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert sizes and max(sizes) <= 2 * 1024


def test_comparison_csv_does_not_depend_on_the_grid(tmp_path):
    # at q = 0.9 the inner lobes beat the band edges, where a grid's maxima fall short
    argv = ["compare", "--decimation-factor", "64", "--pp-split", "1", "--oversampling-ratio", "256", "--q", "0.9"]
    assert cli.main(argv + ["--output-dir", str(tmp_path / "default")]) == 0
    assert cli.main(argv + ["--points-per-band", "17", "--global-points", "512",
                            "--output-dir", str(tmp_path / "coarse")]) == 0
    default, coarse = (tmp_path / grid / "comparison.csv" for grid in ("default", "coarse"))
    assert default.read_bytes() == coarse.read_bytes()
