import numpy as np
import pytest

from gcfkit import (
    FixedPointFormat,
    GcfSpec,
    ParameterError,
    SdConfig,
    StageOverflowError,
    decimate_fixed_point,
    expand_full_polynomial,
    export_run,
    generate_bandlimited_signal,
    integer_bits,
    run_experiment,
    sd_modulate,
    stage_coefficients,
    welch_psd,
)

PAPER_SPEC = GcfSpec.from_oversampling(16, 128)  # simulation setup: f_c = 1/256


def paper_format(f_n=7):
    return FixedPointFormat(i_n=integer_bits(PAPER_SPEC, 1).i_n, f_n=f_n)


class TestSdConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SdConfig(fx_ratio=0.0)
        with pytest.raises(ParameterError):
            SdConfig(fx_ratio=1 / 256, amplitude=0.9)

    def test_zero_amplitude_allowed(self):
        assert SdConfig(fx_ratio=1 / 256, amplitude=0.0).amplitude == 0.0


class TestGenerator:
    def test_deterministic(self):
        cfg = SdConfig(fx_ratio=1 / 256, n_samples=4096, seed=7)
        np.testing.assert_array_equal(
            generate_bandlimited_signal(cfg), generate_bandlimited_signal(cfg)
        )

    def test_zero_amplitude_is_silent(self):
        cfg = SdConfig(fx_ratio=1 / 256, amplitude=0.0, n_samples=2048)
        assert np.all(generate_bandlimited_signal(cfg) == 0.0)

    def test_peak_scaling(self):
        cfg = SdConfig(fx_ratio=1 / 256, amplitude=0.5, n_samples=8192, seed=3)
        x = generate_bandlimited_signal(cfg)
        assert np.max(np.abs(x)) == pytest.approx(0.5)

    def test_out_of_band_rejection(self):
        cfg = SdConfig(fx_ratio=1 / 256, amplitude=0.5, n_samples=2 ** 16, seed=42)
        x = generate_bandlimited_signal(cfg)
        f, psd = welch_psd(x, segment=4096)
        in_band = psd[f <= cfg.fx_ratio].mean()
        out_band = psd[f > 2 * cfg.fx_ratio].mean()
        assert 10 * np.log10(in_band / out_band) >= 60.0


def old_sd_modulate(x):
    """The modulator loop as written before it iterated over x.tolist(), kept as an oracle."""
    x = np.asarray(x, dtype=float)
    bits = np.empty(len(x), dtype=np.int8)
    v1 = 0.0
    v2 = 0.0
    y_prev = 0.0
    overload = 0
    for n in range(len(x)):
        v1 += x[n] - y_prev
        v2 += v1 - y_prev
        if v2 > 2.0 or v2 < -2.0:
            overload += 1
        y_prev = 1.0 if v2 >= 0.0 else -1.0
        bits[n] = 1 if v2 >= 0.0 else -1
    return bits, overload


class TestModulator:
    @pytest.mark.parametrize("amplitude", [0.0, 0.5, 0.8, 1.5, 4.0])  # the last two overload
    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_matches_old_loop(self, n, amplitude):
        x = amplitude * np.random.default_rng(n).uniform(-1.0, 1.0, n)
        res = sd_modulate(x)
        bits, overload = old_sd_modulate(x)
        assert res.bits.dtype == np.int8
        assert np.array_equal(res.bits, bits)
        assert res.overload_count == overload
        if amplitude > 1.0 and n > 1:
            assert overload > 0

    def test_zero_input_balance(self):
        res = sd_modulate(np.zeros(2 ** 16))
        assert set(np.unique(res.bits)) <= {-1, 1}
        assert abs(res.bits.mean()) <= 0.01

    def test_tracks_dc(self):
        res = sd_modulate(np.full(2 ** 16, 0.5))
        assert res.bits.mean() == pytest.approx(0.5, abs=0.01)

    def test_overload_counter_reported(self):
        quiet = sd_modulate(np.zeros(4096))
        assert quiet.overload_count >= 0
        hot = sd_modulate(np.full(4096, 0.79))
        assert hot.overload_count >= quiet.overload_count


class TestFixedPointDecimator:
    def test_dc_gain(self):
        out = decimate_fixed_point(np.ones(2048, dtype=np.int64), PAPER_SPEC, paper_format())
        steady = out[len(out) // 2:]
        np.testing.assert_allclose(steady, 1.0, atol=2.0 ** -7)

    def test_impulse_matches_expanded_polynomial(self):
        s = GcfSpec(D=16, f_c=1 / 256, q=0.0)
        x = np.zeros(256, dtype=np.int64)
        x[0] = 1
        out = decimate_fixed_point(x, s, paper_format())
        h = expand_full_polynomial(s)
        expected = h[::16] / h.sum()
        np.testing.assert_allclose(out[: len(expected)], expected, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 100, 163])
    def test_output_length(self, n):
        out = decimate_fixed_point(np.ones(n, dtype=np.int64), PAPER_SPEC, paper_format())
        assert len(out) == n // 16

    def test_requires_cascade_form(self):
        s = GcfSpec(D=16, f_c=1 / 256, p_p=1)
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64, dtype=np.int64), s, paper_format())

    def test_rejects_float_input(self):
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64), PAPER_SPEC, paper_format())

    def test_overflow_names_stage(self):
        fmt = FixedPointFormat(i_n=(1, 1, 1, 1), f_n=7)
        with pytest.raises(StageOverflowError) as err:
            decimate_fixed_point(np.ones(512, dtype=np.int64), PAPER_SPEC, fmt)
        assert err.value.stage == 0
        assert "stage 0" in str(err.value)

    def test_input_beyond_stage_register_rejected(self):
        # +/-2**58 wraps int64 in the stage shifts; it must not come out as zeros
        x = np.where(np.arange(256) % 2 == 0, 2 ** 58, -2 ** 58).astype(np.int64)
        with pytest.raises(StageOverflowError) as err:
            decimate_fixed_point(x, PAPER_SPEC, paper_format())
        assert err.value.stage == 0
        assert err.value.value == 2.0 ** 58

    def test_widths_beyond_int64_rejected(self):
        fmt = FixedPointFormat(i_n=integer_bits(PAPER_SPEC, 1).i_n, f_n=20)
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64, dtype=np.int64), PAPER_SPEC, fmt)

    def test_tracks_floating_point_reference(self):
        bits = sd_modulate(generate_bandlimited_signal(
            SdConfig(fx_ratio=1 / 256, n_samples=2 ** 14, seed=9)
        )).bits
        out = decimate_fixed_point(bits.astype(np.int64), PAPER_SPEC, paper_format())
        r = np.asarray(stage_coefficients(PAPER_SPEC).r)
        v = bits.astype(float)
        for r_k in r:
            x1 = np.concatenate(([0.0], v))[: len(v)]
            x2 = np.concatenate(([0.0, 0.0], v))[: len(v)]
            x3 = np.concatenate(([0.0, 0.0, 0.0], v))[: len(v)]
            v = (v + r_k * (x1 + x2) + x3)[::2]
        ref = v[: len(out)] / np.prod(2 + 2 * r)
        assert np.max(np.abs(out - ref)) <= 1e-2


class TestWelch:
    def test_sinusoid_peak_bin(self):
        n = 2 ** 15
        f0 = 100 / 4096
        x = np.sin(2 * np.pi * f0 * np.arange(n))
        f, psd = welch_psd(x, segment=4096)
        assert f[np.argmax(psd)] == pytest.approx(f0, abs=1 / 4096)

    def test_parseval_normalization(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(2 ** 16)
        f, psd = welch_psd(x, segment=2048)
        total = np.sum(psd) * (f[1] - f[0])
        assert total == pytest.approx(np.var(x), rel=0.02)

    def test_white_noise_flat(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(2 ** 18)
        f, psd = welch_psd(x, segment=2048)
        sel = (f >= 0.01) & (f <= 0.49)
        level = 10 * np.log10(psd[sel] / 2.0)  # one-sided density of unit variance
        assert np.max(np.abs(level)) <= 1.5

    def test_segment_validation(self):
        with pytest.raises(ParameterError):
            welch_psd(np.ones(100), segment=200)
        with pytest.raises(ParameterError):
            welch_psd(np.ones(100), segment=50, overlap_fraction=0.95)
        for segment in (1, 0, -5):
            with pytest.raises(ParameterError):
                welch_psd(np.ones(100), segment=segment)

    @pytest.mark.parametrize("kind,n,segment,overlap", [
        ("bits", 2 ** 20, 4096, 0.5), ("noise", 65536, 4096, 0.5), ("noise", 4097, 4096, 0.5),
        ("noise", 50000, 1000, 0.3), ("noise", 30000, 1001, 0.9), ("noise", 30000, 2048, 0.0),
    ])
    def test_matches_scipy_welch(self, kind, n, segment, overlap):
        signal = pytest.importorskip("scipy.signal")
        x = np.random.default_rng(n).standard_normal(n)
        if kind == "bits":
            x = np.where(x >= 0.0, 1.0, -1.0)
        f, psd = welch_psd(x, segment=segment, overlap_fraction=overlap)
        f_ref, psd_ref = signal.welch(
            x, fs=1.0, window="hann", nperseg=segment,
            noverlap=int(segment * overlap), detrend="constant",
        )
        np.testing.assert_array_equal(f, f_ref)
        assert np.max(np.abs(psd - psd_ref)) <= 1e-12 * np.max(np.abs(psd_ref))


class TestExperiment:
    def make_run(self, n=2 ** 14, seed=5, amplitude=0.5):
        cfg = SdConfig(fx_ratio=1 / 256, amplitude=amplitude, n_samples=n, seed=seed)
        return run_experiment(cfg, PAPER_SPEC, paper_format(), segment=1024)

    def test_deterministic(self):
        a = self.make_run()
        b = self.make_run()
        np.testing.assert_array_equal(a.bitstream, b.bitstream)
        np.testing.assert_array_equal(a.decimated, b.decimated)
        np.testing.assert_array_equal(a.psd_out[1], b.psd_out[1])

    def test_output_length_invariant(self):
        run = self.make_run()
        assert len(run.decimated) == run.config.n_samples // 16
        assert set(np.unique(run.bitstream)) <= {-1, 1}

    def test_config_mismatch_rejected(self):
        cfg = SdConfig(fx_ratio=1 / 128, n_samples=4096)
        with pytest.raises(ParameterError):
            run_experiment(cfg, PAPER_SPEC, paper_format())

    def test_too_few_output_samples_rejected(self):
        cfg = SdConfig(fx_ratio=1 / 256, n_samples=31)
        with pytest.raises(ParameterError, match="fewer than 2 output samples"):
            run_experiment(cfg, PAPER_SPEC, paper_format(), segment=2)

    def test_silent_input(self):
        run = self.make_run(amplitude=0.0)
        # residual limit-cycle leakage only
        assert np.max(np.abs(run.decimated)) <= 0.05

    def test_export_layout(self, tmp_path):
        run = self.make_run()
        outdir = tmp_path / "run"
        export_run(run, outdir)
        names = {p.name for p in outdir.iterdir()}
        assert names == {"config.json", "bitstream.bin", "decimated.csv", "psd_in.csv", "psd_out.csv"}
        raw = np.fromfile(outdir / "bitstream.bin", dtype=np.uint8)
        assert set(np.unique(raw)) <= {0, 1}
        np.testing.assert_array_equal(raw.astype(np.int16) * 2 - 1, run.bitstream)
        header = (outdir / "psd_out.csv").read_text().splitlines()[0]
        assert header == "freq,power,power_dB"

    def test_export_is_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_run(self.make_run(), d1)
        export_run(self.make_run(), d2)
        for name in ("bitstream.bin", "decimated.csv", "psd_in.csv", "psd_out.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
