"""The shared stage kernel against the copies of it that it replaced.

The functions prefixed ``old_`` are the stage-factor loops as they were
written out in spectral, wordlength and cli before the kernel existed; they
are kept here, frozen, as oracles.  Every quantity that feeds a sized word
length or a Monte Carlo statistic must be bit-identical to them.
"""

import math

import numpy as np
import pytest

from gcfkit import GcfSpec, ToleranceSpec, gcf_response, sensitivity, stage_coefficients
from gcfkit import cli, spectral, wordlength
from gcfkit.filters import normalization_gain, polyphase_impulse, stage_multiplier
from gcfkit.spectral import (
    cascade_response,
    folding_bands,
    grid_frequencies,
    stage_bracket,
    stage_brackets,
)
from gcfkit.wordlength import (
    _mc_delta_h,
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


def spec_of(D, pp, rho):
    return GcfSpec.from_oversampling(D, rho, p_p=pp)


def in_band_freqs(spec, points_per_band=17, global_points=512):
    bands = folding_bands(spec.D, spec.f_c)
    freqs = grid_frequencies(bands, points_per_band, global_points)
    return freqs, freqs[bands.contains(freqs)]


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_stage_brackets_match_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    r = np.asarray(stage_coefficients(spec).r)
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
    rows = np.asarray(stage_coefficients(spec).r) + np.linspace(-1e-3, 1e-3, 5)[:, None]
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
        monkeypatch.setattr(wordlength, "_DTFT_FREQ_BLOCK", block)
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
    err = quantization_error_response(spec, f_n, freqs=freqs)
    assert np.array_equal(err.quantized, quant / dc_quant)
    assert np.array_equal(err.delta_h, np.abs(quant) / dc_quant - np.abs(exact) / dc_exact)


@pytest.mark.parametrize("trials", [65, 70])  # a last block of one trial, and of six
@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_mc_delta_h_matches_old(D, pp, rho, trials):
    spec = spec_of(D, pp, rho)
    _, fi = in_band_freqs(spec)
    rows = np.vstack(list(_mc_delta_h(spec, 9, trials, 4, fi)))
    assert np.array_equal(rows, old_mc_delta_h(spec, 9, trials, 4, fi))


@pytest.mark.parametrize("trials,block", [(1000, 37), (1002, 40)])  # a last block of 1, and of 2
@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256), (256, 3, 512)], ids=["D16-pp-1", "D64-pp1", "D256-pp3"])
def test_streamed_monte_carlo_matches_stacked_blocks(D, pp, rho, trials, block, monkeypatch):
    monkeypatch.setattr(wordlength, "_MC_TRIAL_BLOCK", block)
    spec = spec_of(D, pp, rho)
    run = wordlength.monte_carlo_run(spec, 9, trials, 4, 2.0, points_per_band=17, global_points=512)
    rows = np.vstack(list(_mc_delta_h(spec, 9, trials, 4, run.freqs)))
    assert np.array_equal(rows, old_mc_delta_h(spec, 9, trials, 4, run.freqs))
    std = rows.std(axis=0)
    assert np.all(np.abs(run.error_std - std) <= 1e-12 * std)
    assert run.coverage() == np.mean(np.abs(rows) <= 2.0 * run.sigma_dh[None, :])


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_fd_response_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs = np.random.default_rng(3).uniform(0.01, 0.49, size=50)
    ks = spec.cascade_stages
    r = np.asarray(stage_coefficients(spec).r)
    for rv in (r, r + 1e-6, r - 1e-6):
        assert np.array_equal(cascade_response(freqs, ks, rv), old_fd_resp(freqs, ks, rv))


@pytest.mark.parametrize("D,pp,rho", SPLITS, ids=IDS)
def test_gcf_response_matches_old(D, pp, rho):
    spec = spec_of(D, pp, rho)
    freqs, _ = in_band_freqs(spec)
    old = old_cascade_response(freqs, spec.cascade_stages, stage_coefficients(spec).r)
    if spec.D1 > 1:
        old = old * spectral._polyphase_response(freqs, polyphase_impulse(spec).branches, spec.D1)
    old = old * normalization_gain(spec).h_o
    new = gcf_response(spec, freqs, normalized=True)
    assert np.max(np.abs(new.real - old.real)) <= 1e-12 * np.max(np.abs(old.real))
    assert np.max(np.abs(new.imag - old.imag)) <= 1e-12 * np.max(np.abs(old.imag))


def old_fractional_bits(spec, tol, points_per_band, global_points, normalized):
    bands = folding_bands(spec.D, spec.f_c)
    freqs = grid_frequencies(bands, points_per_band, global_points)
    mask = bands.contains(freqs)
    st = sensitivity(spec, freqs[mask], normalized=normalized).s_t
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
                        spec, ToleranceSpec.from_y(chi, y),
                        cfg.points_per_band, cfg.global_points, cfg.normalized,
                    )
                    fh.write(f"{spec.D},{spec.D1},{pp},{chi!r},{y!r},{f_n}\n")


@pytest.mark.parametrize("D,rho,grid,normalized", [
    (16, 64, {}, True),
    (16, 64, {}, False),
    (64, 256, {"points_per_band": 33, "global_points": 1024}, True),
    (256, 512, {"points_per_band": 17, "global_points": 512}, True),
])
def test_fn_sweep_matches_one_design_per_row(tmp_path, D, rho, grid, normalized):
    cfg = cli.DesignConfig(decimation_factor=D, oversampling_ratio=rho, normalized=normalized, **grid)
    cli._write_fn_sweep(cfg, str(tmp_path))
    old_fn_sweep(cfg, tmp_path / "old.csv")
    assert (tmp_path / "fn_sweep.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def old_cmd_sensitivity_csv(cfg, path):
    """sensitivity.csv as written with its own S_T evaluation in both modes."""
    spec = cfg.spec()
    bands = folding_bands(spec.D, spec.f_c)
    grid = spectral.response_grid(spec, bands, cfg.points_per_band, cfg.global_points)
    result = sensitivity(spec, grid.freqs, normalized=cfg.normalized)
    f_n = cli._design(cfg, spec, cfg.tolerance()).f_n
    err = quantization_error_response(spec, f_n, bands=bands, freqs=grid.freqs)
    spectral.grid_to_csv(path, grid, extra={"s_t": result.s_t, "sigma_dh": err.sigma_dh, "delta_h": err.delta_h})


@pytest.mark.parametrize("normalized", [True, False])
@pytest.mark.parametrize("D,pp,rho", [(16, -1, 64), (64, 1, 256)], ids=["D16-pp-1", "D64-pp1"])
def test_sensitivity_csv_matches_separate_evaluation(tmp_path, D, pp, rho, normalized):
    cfg = cli.DesignConfig(
        decimation_factor=D, pp_split=pp, oversampling_ratio=rho, normalized=normalized,
        points_per_band=17, global_points=512, output_dir=str(tmp_path),
    )
    assert cli.cmd_sensitivity(cfg) == 0
    old_cmd_sensitivity_csv(cfg, tmp_path / "old.csv")
    assert (tmp_path / "sensitivity.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
