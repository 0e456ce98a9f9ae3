"""The shared stage kernel against the copies of it that it replaced.

The functions prefixed ``old_`` are the stage-factor loops as they were
written out in spectral, wordlength and cli before the kernel existed, and
the earlier forms of rewritten outputs: the whole-grid Monte Carlo, the
csv.writer export and the per-band magnitudes of comparison.csv.  They are
kept here, frozen, as oracles.  Every quantity that feeds a sized word
length, a Monte Carlo statistic or an artifact must be bit-identical to them.
"""

import csv
import math

import numpy as np
import pytest

from gcfkit import GcfSpec, ToleranceSpec, gcf_response, sensitivity, stage_coefficients
from gcfkit import cli, spectral, wordlength
from gcfkit.filters import normalization_gain, polyphase_impulse, stage_dc_gain, stage_multiplier, write_columns
from gcfkit.spectral import (
    cascade_response,
    folding_bands,
    grid_frequencies,
    stage_bracket,
    stage_brackets,
)
from gcfkit.wordlength import (
    _mc_delta_h,
    _mc_draws,
    _quantized_multiplier_sets,
    _response_from_multipliers,
    quantization_error_response,
)

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
    taps, r, _, _ = _quantized_multiplier_sets(spec, f_n)
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


def old_stage_magnitude(spec, freqs, ks, normalized):
    r = np.array([stage_multiplier(spec.alpha, k) for k in ks])
    mag = np.abs(np.prod(old_stage_brackets(freqs, ks, r), axis=0))
    return mag / np.prod(2.0 + 2.0 * r) if normalized else mag


def old_sensitivity(spec, freqs, normalized):
    """S_T by architecture case: a constant, the cascade sum, or L |H_N|**2 + |H_P|**2 x the cascade sum."""
    freqs = np.asarray(freqs, dtype=float)
    L = 3 * spec.D1 - 2
    if spec.p_p == spec.p - 1:
        return np.full(len(freqs), float(L))
    d = wordlength.cascade_derivative_magnitudes(spec, freqs)
    if normalized:
        d = d / stage_dc_gain(stage_coefficients(spec))
    cascade_term = np.sum(d * d, axis=0)
    if spec.p_p == -1:
        return cascade_term
    hn_mag = old_stage_magnitude(spec, freqs, spec.cascade_stages, normalized)
    hp_mag = old_stage_magnitude(spec, freqs, range(spec.p_p + 1), normalized)
    return L * hn_mag ** 2 + (hp_mag ** 2) * cascade_term


def spec_of(D, pp, rho):
    return GcfSpec.from_oversampling(D, rho, p_p=pp)


def in_band_freqs(spec, points_per_band=17, global_points=512):
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands, points_per_band, global_points)
    return freqs, freqs[bands.contains(freqs)]


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_stage_brackets_match_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    r = np.asarray(stage_coefficients(spec))
    ks = list(spec.cascade_stages)
    assert np.array_equal(stage_brackets(freqs, ks, r), old_stage_brackets(freqs, ks, r))
    bank_ks = range(spec.p_p + 1)
    r_bank = np.array([stage_multiplier(spec.alpha, k) for k in bank_ks])
    assert np.array_equal(stage_brackets(freqs, bank_ks, r_bank), old_stage_brackets(freqs, bank_ks, r_bank))


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


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_response_from_multipliers_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    taps, r, taps_q, r_q = _quantized_multiplier_sets(spec, 9)
    for t, rv in ((taps, r), (taps_q, r_q)):
        assert np.array_equal(_response_from_multipliers(spec, freqs, t, rv),
                              old_response_from_multipliers(spec, freqs, t, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_blocked_tap_dtft_matches_old(D, pp, rho, monkeypatch):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    for block in (len(freqs) - 1, 7):  # a last block of one frequency, and a ragged one
        monkeypatch.setattr(wordlength, "_FREQ_BLOCK", block)
        assert len(freqs) % block != 0
        taps, r, taps_q, r_q = _quantized_multiplier_sets(spec, 9)
        for t, rv in ((taps, r), (taps_q, r_q)):
            assert np.array_equal(_response_from_multipliers(spec, freqs, t, rv),
                                  old_response_from_multipliers(spec, freqs, t, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_quantized_response_and_delta_h_match_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    f_n = 9
    taps, r, taps_q, r_q = _quantized_multiplier_sets(spec, f_n)
    exact = old_response_from_multipliers(spec, freqs, taps, r)
    quant = old_response_from_multipliers(spec, freqs, taps_q, r_q)
    dc_exact = taps.sum() * np.prod(2.0 + 2.0 * r)
    dc_quant = taps_q.sum() * np.prod(2.0 + 2.0 * r_q)
    quantized, delta_h = quantization_error_response(spec, f_n, freqs=freqs)
    assert np.array_equal(quantized, quant / dc_quant)
    assert np.array_equal(delta_h, np.abs(quant) / dc_quant - np.abs(exact) / dc_exact)


@pytest.mark.parametrize("trials", [65, 70])  # a last block of one trial, and of six
@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_mc_delta_h_matches_old(D, pp, rho, trials):
    spec = spec_of(D, pp, rho)
    _, fi = in_band_freqs(spec)
    rows = np.vstack(list(_mc_delta_h(spec, 9, _mc_draws(spec, 9, trials, 4), fi)))
    assert np.array_equal(rows, old_mc_delta_h(spec, 9, trials, 4, fi))


@pytest.mark.parametrize("trials,block", [(1000, 37), (1002, 40)])  # a last block of 1, and of 2
@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256), (256, 3, 512)], ids=["D16-pp-1", "D64-pp1", "D256-pp3"])
def test_streamed_monte_carlo_matches_stacked_blocks(D, pp, rho, trials, block, monkeypatch):
    monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", block)
    spec = spec_of(D, pp, rho)
    run = wordlength.monte_carlo_run(spec, 9, trials, 4, 2.0, in_band_freqs(spec)[1])
    rows = np.vstack(list(_mc_delta_h(spec, 9, _mc_draws(spec, 9, trials, 4), run.freqs)))
    assert np.array_equal(rows, old_mc_delta_h(spec, 9, trials, 4, run.freqs))
    std = rows.std(axis=0)
    assert np.all(np.abs(run.error_std - std) <= 1e-12 * std)
    assert run.coverage() == np.mean(np.abs(rows) <= 2.0 * run.sigma_dh[None, :])


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
# so that tiles of 300 and 1024 leave no tile under 200 columns
MC_GRIDS = {16: (97, 4096), 64: (65, 1024), 256: (17, 512)}


@pytest.mark.parametrize("D,pp,rho", MC_SPLITS, ids=[f"D{D}-pp{pp}" for D, pp, _ in MC_SPLITS])
def test_tiled_monte_carlo_matches_whole_grid(D, pp, rho, monkeypatch):
    spec = spec_of(D, pp, rho)
    grid = MC_GRIDS[D]
    std, covered = old_monte_carlo_run(spec, 9, 129, 4, 2.0, *grid)  # trial blocks of 64 and 65
    nf = len(std)
    tiles = []
    tile_delta_h = wordlength._mc_delta_h

    def recording(*args):  # (spec, f_n, draws, freqs of one tile)
        tiles.append(len(args[-1]))
        return tile_delta_h(*args)

    monkeypatch.setattr(wordlength, "_mc_delta_h", recording)
    join = (nf - 100) // 2  # three tiles, the last of about 100 columns, which joins the second
    for size in (join, 300, 1024, nf):
        tiles.clear()
        monkeypatch.setattr(wordlength, "_FREQ_BLOCK", size)
        run = wordlength.monte_carlo_run(spec, 9, 129, 4, 2.0, in_band_freqs(spec, *grid)[1])
        if size == join:
            assert tiles == [join, nf - join]
        assert sum(tiles) == nf
        # narrower products go through gemv or OpenBLAS's small-matrix path,
        # whose rounding is not the whole product's
        assert min(tiles) >= 200
        assert np.array_equal(run.error_std, std)
        assert run.covered == covered


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
    bands = folding_bands(spec_of(D, -1, rho_per_D * D))
    freqs = grid_frequencies(bands)
    freqs = freqs[bands.contains(freqs)]
    for pp in range(-1, D.bit_length() - 1):
        spec = spec_of(D, pp, rho_per_D * D)
        new = sensitivity(spec, freqs)
        old = wordlength.SensitivityResult(freqs, old_sensitivity(spec, freqs, True), new.case_tag, new.n_multipliers)
        for chi in cli.SWEEP_CHIS:
            for y in cli.SWEEP_YS:
                tol = ToleranceSpec.from_y(chi, y)
                assert new.fraction_bits(tol) == old.fraction_bits(tol)


def old_fractional_bits(spec, tol, points_per_band, global_points):
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands, points_per_band, global_points)
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
                        spec, ToleranceSpec.from_y(chi, y), cfg.points_per_band, cfg.global_points,
                    )
                    fh.write(f"{spec.D},{spec.D1},{pp},{chi!r},{y!r},{f_n}\n")


@pytest.mark.parametrize("D,rho,grid", [
    (16, 64, {}),
    (64, 256, {"points_per_band": 33, "global_points": 1024}),
    (256, 512, {"points_per_band": 17, "global_points": 512}),
])
def test_fn_sweep_matches_one_design_per_row(tmp_path, D, rho, grid):
    cfg = cli.DesignConfig(decimation_factor=D, oversampling_ratio=rho, **grid)
    _, freqs, mask = cli._grid(cfg, cfg.spec())
    cli._write_fn_sweep(cfg.spec(), freqs[mask], str(tmp_path))
    old_fn_sweep(cfg, tmp_path / "old.csv")
    assert (tmp_path / "fn_sweep.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_cmd_sensitivity_csv(cfg, path):
    """sensitivity.csv as written with its own S_T evaluation for each column."""
    spec = cfg.spec()
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands, cfg.points_per_band, cfg.global_points)
    mask = bands.contains(freqs)
    result = sensitivity(spec, freqs)
    sigma_dh = sensitivity(spec, freqs).sigma_dh
    f_n = wordlength.design_wordlengths(spec, cfg.tolerance(), cfg.input_width, freqs[mask]).f_n
    _, delta_h = quantization_error_response(spec, f_n, freqs)
    spectral.grid_to_csv(path, freqs, gcf_response(spec, freqs), mask,
                         extra={"s_t": result.s_t, "sigma_dh": sigma_dh(f_n), "delta_h": delta_h})


@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256)], ids=["D16-pp-1", "D64-pp1"])
def test_sensitivity_csv_matches_separate_evaluation(tmp_path, D, pp, rho):
    cfg = cli.DesignConfig(
        decimation_factor=D, pp_split=pp, oversampling_ratio=rho,
        points_per_band=17, global_points=512, output_dir=str(tmp_path),
    )
    assert cli.cmd_sensitivity(cfg) == 0
    old_cmd_sensitivity_csv(cfg, tmp_path / "old.csv")
    assert (tmp_path / "sensitivity.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_write_columns(path, columns):
    values = [np.asarray(col).tolist() for col in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
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
    bands = folding_bands(spec)
    freqs = grid_frequencies(bands, cfg.points_per_band, cfg.global_points)
    gcf = gcf_response(spec, freqs)
    comb = spectral.comb_response(spec, freqs)
    with open(path, "w") as fh:
        fh.write("band,low,high,comb_attenuation_dB,gcf_attenuation_dB,improvement_dB\n")
        for i, ((lo, hi), m) in enumerate(zip(bands.bands, bands.band_masks(freqs)), start=1):
            att_g = -20 * np.log10(max(np.max(np.abs(gcf)[m]), 1e-15))
            att_c = -20 * np.log10(max(np.max(np.abs(comb)[m]), 1e-15))
            row = (i, lo, hi, att_c, att_g, att_g - att_c)
            fh.write(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row) + "\n")


@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256), (256, 7, 512)], ids=["D16-pp-1", "D64-pp1", "D256-pp7"])
def test_comparison_csv_matches_per_band_magnitudes(tmp_path, D, pp, rho):
    cfg = cli.DesignConfig(
        decimation_factor=D, pp_split=pp, oversampling_ratio=rho,
        points_per_band=17, global_points=512, output_dir=str(tmp_path),
    )
    assert cli.cmd_compare(cfg) == 0
    old_comparison_csv(cfg, tmp_path / "old.csv")
    assert (tmp_path / "comparison.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
