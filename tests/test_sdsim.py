import json
import weakref

import numpy as np
import pytest

from gcfkit import (
    GcfSpec,
    ParameterError,
    StageOverflowError,
    decimate_fixed_point,
    expand_full_polynomial,
    export_run,
    generate_bandlimited_signal,
    integer_bits,
    normalization_gain,
    quantize_coefficients,
    run_experiment,
    sd_modulate,
    stage_coefficients,
    welch_psd,
)
from gcfkit import sdsim

from gcf_helpers import rounded_report

PAPER_SPEC = GcfSpec.from_oversampling(16, 128)  # simulation setup: f_c = 1/256
PAPER_I_N = integer_bits(PAPER_SPEC, 1)[1]
PAPER_REPORT = rounded_report(PAPER_SPEC, 7)  # the widths PAPER_I_N


class TestGenerator:
    @pytest.mark.parametrize("amplitude,n_samples,message", [
        (0.9, 64, "amplitude"), (-0.1, 64, "amplitude"), (float("nan"), 64, "amplitude"),
        (0.5, 0, "n_samples"), (0.5, -1, "n_samples"),
    ])
    def test_validation(self, amplitude, n_samples, message):
        with pytest.raises(ParameterError, match=message):
            generate_bandlimited_signal(1 / 256, amplitude, n_samples, 0)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            generate_bandlimited_signal(1 / 256, 0.5, 4096, 7),
            generate_bandlimited_signal(1 / 256, 0.5, 4096, 7),
        )

    def test_zero_amplitude_is_silent(self):
        assert np.all(generate_bandlimited_signal(1 / 256, 0.0, 2048, 12345) == 0.0)

    def test_peak_scaling(self):
        x = generate_bandlimited_signal(1 / 256, 0.5, 8192, 3)
        assert np.max(np.abs(x)) == pytest.approx(0.5)

    def test_out_of_band_rejection(self):
        f_c = 1 / 256
        x = generate_bandlimited_signal(f_c, 0.5, 2 ** 16, 42)
        f, psd = welch_psd(x, segment=4096)
        in_band = psd[f <= f_c].mean()
        out_band = psd[f > 2 * f_c].mean()
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
    # 1.5 and 4.0 overload; inf gives +/-inf inputs whose states soon turn NaN
    @pytest.mark.parametrize("amplitude", [0.0, 0.5, 0.8, 1.5, 4.0, np.inf, np.nan])
    @pytest.mark.parametrize("n", [0, 1, 5000])
    def test_matches_old_loop(self, n, amplitude):
        x = amplitude * np.random.default_rng(n).uniform(-1.0, 1.0, n)
        res = sd_modulate(x)
        with np.errstate(invalid="ignore"):  # inf - inf in the oracle's numpy scalars
            bits, overload = old_sd_modulate(x)
        assert res.bits.dtype == np.int8
        assert np.array_equal(res.bits, bits)
        assert res.overload_count == overload
        if amplitude > 1.0 and n > 1:
            assert overload > 0
        if np.isnan(amplitude):  # a NaN quantizer input is no overload and quantizes to -1
            assert np.all(bits == -1) and overload == 0

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
        out = decimate_fixed_point(np.ones(2048, dtype=np.int64), PAPER_REPORT)
        steady = out[len(out) // 2:]
        np.testing.assert_allclose(steady, 1.0, atol=2.0 ** -7)

    def test_impulse_matches_expanded_polynomial(self):
        s = GcfSpec(D=16, f_c=1 / 256, q=0.0)
        x = np.zeros(256, dtype=np.int64)
        x[0] = 1
        out = decimate_fixed_point(x, rounded_report(s, 7, PAPER_I_N))
        h = expand_full_polynomial(s)
        expected = h[::16] / h.sum()
        np.testing.assert_allclose(out[: len(expected)], expected, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 100, 163])
    def test_output_length(self, n):
        out = decimate_fixed_point(np.ones(n, dtype=np.int64), PAPER_REPORT)
        assert len(out) == n // 16

    def test_requires_cascade_form(self):
        s = GcfSpec(D=16, f_c=1 / 256, p_p=1)
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64, dtype=np.int64), rounded_report(s, 7, PAPER_I_N))

    def test_rejects_float_input(self):
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64), PAPER_REPORT)

    @pytest.mark.parametrize("i_n,f_n,message", [
        ((4, 7, 10), 7, "all 4 stages"), ((4, 7, 10, 13), -1, "f_n must be >= 0"),
        ((4, -1, 10, 13), 7, "non-negative"),
    ])
    def test_rejects_bad_bit_counts(self, i_n, f_n, message):
        # a negative f_n is rejected where the report rounds its filter
        with pytest.raises(ParameterError, match=message):
            decimate_fixed_point(np.ones(64, dtype=np.int64), rounded_report(PAPER_SPEC, f_n, i_n))

    def test_overflow_names_stage(self):
        with pytest.raises(StageOverflowError) as err:
            decimate_fixed_point(np.ones(512, dtype=np.int64), rounded_report(PAPER_SPEC, 7, (1, 1, 1, 1)))
        assert err.value.stage == 0
        assert "stage 0" in str(err.value)

    def test_input_beyond_stage_register_rejected(self):
        # +/-2**58 wraps int64 in the stage shifts; it must not come out as zeros
        x = np.where(np.arange(256) % 2 == 0, 2 ** 58, -2 ** 58).astype(np.int64)
        with pytest.raises(StageOverflowError) as err:
            decimate_fixed_point(x, PAPER_REPORT)
        assert err.value.stage == 0
        assert err.value.value == 2.0 ** 58

    def test_widths_beyond_int64_rejected(self):
        with pytest.raises(ParameterError):
            decimate_fixed_point(np.ones(64, dtype=np.int64), rounded_report(PAPER_SPEC, 20))

    def test_tracks_floating_point_reference(self):
        bits = sd_modulate(generate_bandlimited_signal(1 / 256, 0.5, 2 ** 14, 9)).bits
        out = decimate_fixed_point(bits.astype(np.int64), PAPER_REPORT)
        r = np.asarray(stage_coefficients(PAPER_SPEC))
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
        return run_experiment(PAPER_REPORT, amplitude, n, seed, segment=1024)

    def test_deterministic(self):
        a = self.make_run()
        b = self.make_run()
        np.testing.assert_array_equal(a.bitstream, b.bitstream)
        np.testing.assert_array_equal(a.decimated, b.decimated)
        np.testing.assert_array_equal(a.psd_out[1], b.psd_out[1])

    def test_output_length_invariant(self):
        run = self.make_run()
        assert len(run.decimated) == 2 ** 14 // 16
        assert set(np.unique(run.bitstream)) <= {-1, 1}

    def test_too_few_output_samples_rejected(self):
        with pytest.raises(ParameterError, match="fewer than 2 output samples"):
            run_experiment(PAPER_REPORT, 0.5, 31, 12345, segment=2)

    @pytest.mark.parametrize("spec,f_n,message", [
        (GcfSpec.from_oversampling(16, 128, p_p=1), 7, "cascaded form"),
        # i_n[-1] + p * f_n = 13 + 4 * 20 bits do not fit int64
        (PAPER_SPEC, 20, "64-bit"),
    ], ids=["pp1", "fn20"])
    def test_decimator_args_checked_before_generating(self, monkeypatch, spec, f_n, message):
        def generator_ran(*a, **k):
            raise AssertionError("the test signal was generated before the decimator arguments were checked")

        monkeypatch.setattr(sdsim, "generate_bandlimited_signal", generator_ran)
        with pytest.raises(ParameterError, match=message):
            run_experiment(rounded_report(spec, f_n, PAPER_I_N), 0.5, 2 ** 14, 5, segment=1024)

    def test_signal_is_freed_once_modulated(self, monkeypatch):
        # only the int8 bitstream, not the 8 B/sample test signal, lives on
        # through decimation and Welch
        signals = []
        generate, decimate = sdsim.generate_bandlimited_signal, sdsim.decimate_fixed_point

        def generating(*args):
            x = generate(*args)
            signals.append(weakref.ref(x))
            return x

        def decimating(*args):
            assert signals and signals[0]() is None, "the test signal outlived the modulator"
            return decimate(*args)

        monkeypatch.setattr(sdsim, "generate_bandlimited_signal", generating)
        monkeypatch.setattr(sdsim, "decimate_fixed_point", decimating)
        run = self.make_run()
        assert len(signals) == 1 and len(run.decimated) == 2 ** 14 // 16

    def test_silent_input(self):
        run = self.make_run(amplitude=0.0)
        # residual limit-cycle leakage only
        assert np.max(np.abs(run.decimated)) <= 0.05

    def test_export_layout(self, tmp_path):
        run = self.make_run()
        outdir = tmp_path / "run"
        export_run(run, outdir, {"spec": {"D": 16}})
        names = {p.name for p in outdir.iterdir()}
        assert names == {"config.json", "bitstream.bin", "decimated.csv", "psd_in.csv", "psd_out.csv"}
        config = json.loads((outdir / "config.json").read_text())
        assert config == {"spec": {"D": 16}, "overload_count": run.overload_count}
        raw = np.fromfile(outdir / "bitstream.bin", dtype=np.uint8)
        assert set(np.unique(raw)) <= {0, 1}
        np.testing.assert_array_equal(raw.astype(np.int16) * 2 - 1, run.bitstream)
        header = (outdir / "psd_out.csv").read_text().splitlines()[0]
        assert header == "freq,power,power_dB"

    def test_export_is_reproducible(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        export_run(self.make_run(), d1, {})
        export_run(self.make_run(), d2, {})
        for name in ("bitstream.bin", "decimated.csv", "psd_in.csv", "psd_out.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# Frozen oracles: the experiment's stages as written when each one held the
# whole signal at once.  The modulator's oracle is old_sd_modulate above.

def whole_signal_generator(f_c, amplitude, n_samples, seed):
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(n_samples + sdsim.GENERATOR_TAPS - 1)
    k = np.arange(sdsim.GENERATOR_TAPS) - (sdsim.GENERATOR_TAPS - 1) / 2.0
    taps = 2.0 * f_c * np.sinc(2.0 * f_c * k) * np.hanning(sdsim.GENERATOR_TAPS)
    x = np.convolve(white, taps, mode="valid")
    peak = float(np.max(np.abs(x)))
    if peak > 0.0:
        x = x * (amplitude / peak)
    else:
        x = np.zeros_like(x)
    return x


def whole_signal_decimator(bitstream, spec, i_n, f_n):
    x = np.asarray(bitstream)
    n_in = len(x)
    peak_in = max(int(x.max()), -int(x.min())) if n_in else 0
    if peak_in >= 1 << i_n[0]:
        raise StageOverflowError(0, float(peak_in), float(1 << i_n[0]))
    r_q = quantize_coefficients(np.asarray(stage_coefficients(spec)), f_n)
    r_int = np.rint(r_q * 2.0 ** f_n).astype(np.int64)
    v = x.astype(np.int64)
    shift = 0
    for k in range(spec.p):
        x1 = np.concatenate((np.zeros(1, np.int64), v))[: len(v)]
        x2 = np.concatenate((np.zeros(2, np.int64), v))[: len(v)]
        x3 = np.concatenate((np.zeros(3, np.int64), v))[: len(v)]
        v = (v << f_n) + r_int[k] * (x1 + x2) + (x3 << f_n)
        shift += f_n
        peak = int(np.max(np.abs(v))) if len(v) else 0
        limit = 1 << (i_n[k] + shift)
        if peak >= limit:
            raise StageOverflowError(k, peak / 2.0 ** shift, float(1 << i_n[k]))
        v = v[::2]
    h_o = normalization_gain(spec)
    out = v.astype(float) * (2.0 ** -shift) * h_o
    return out[: n_in // spec.D]


def whole_signal_welch(x, segment, overlap_fraction):
    x = np.asarray(x, dtype=float)
    step = segment - int(segment * overlap_fraction)
    segs = np.lib.stride_tricks.sliding_window_view(x, segment)[::step]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    power = np.abs(np.fft.rfft((segs - segs.mean(axis=1, keepdims=True)) * window, axis=1)) ** 2
    power /= np.sum(window ** 2)
    power[:, 1:(None if segment % 2 else -1)] *= 2.0
    return np.fft.rfftfreq(segment), power.mean(axis=0)


# 1,000 is not a multiple of D, 4,096 is, and 2**20 holds every signal in one block
@pytest.fixture(params=[1000, 4096, 1 << 20])
def sample_block(request, monkeypatch):
    monkeypatch.setattr(sdsim, "_SAMPLE_BLOCK", request.param)
    return request.param


class TestBlockedMatchesWholeSignal:
    @pytest.mark.parametrize("n", [1, 999, 10007])
    @pytest.mark.parametrize("amplitude", [0.0, 0.5])
    def test_generator(self, sample_block, n, amplitude):
        args = (1 / 256, amplitude, n, 11)
        assert np.array_equal(generate_bandlimited_signal(*args), whole_signal_generator(*args))

    @pytest.mark.parametrize("gain", [1.0, 3.0])  # 3.0 overloads the quantizer
    def test_modulator(self, sample_block, gain):
        x = gain * whole_signal_generator(1 / 256, 0.5, 10007, 4)
        res = sd_modulate(x)
        bits, overload = old_sd_modulate(x)
        assert res.bits.dtype == np.int8
        assert np.array_equal(res.bits, bits)
        assert res.overload_count == overload
        if gain > 1.0:
            assert overload > 0

    @pytest.mark.parametrize("D", [2, 16, 64])
    @pytest.mark.parametrize("n", [64, 1001, 10007])
    def test_decimator(self, sample_block, D, n):
        spec = GcfSpec.from_oversampling(D, 2 * D)
        i_n = integer_bits(spec, 1)[1]
        bits = np.where(np.random.default_rng(n + D).random(n) < 0.5, -1, 1).astype(np.int8)
        assert np.array_equal(decimate_fixed_point(bits, rounded_report(spec, 7, i_n)),
                              whole_signal_decimator(bits, spec, i_n, 7))

    def test_experiment(self, sample_block):
        run = run_experiment(PAPER_REPORT, 0.5, 10007, 5, segment=1001, overlap_fraction=0.9)
        x = whole_signal_generator(1 / 256, 0.5, 10007, 5)
        bits, overload = old_sd_modulate(x)
        decimated = whole_signal_decimator(bits, PAPER_SPEC, PAPER_I_N, 7)
        assert np.array_equal(run.bitstream, bits)
        assert run.overload_count == overload
        assert np.array_equal(run.decimated, decimated)
        for got, want in ((run.psd_in, whole_signal_welch(bits, 1001, 0.9)),
                          (run.psd_out, whole_signal_welch(decimated, 625, 0.9))):
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("segment,overlap", [(1001, 0.9), (256, 0.5), (2048, 0.0)])
def test_welch_segment_chunks_match_whole_signal(segment, overlap):
    # several hundred segments, so the 64-segment chunks end mid-signal
    rng = np.random.default_rng(segment)
    bits = np.where(rng.random(30011) < 0.5, -1, 1).astype(np.int8)
    noise = rng.standard_normal(30011)
    for x in (bits, noise):
        f, psd = welch_psd(x, segment, overlap)
        f_ref, psd_ref = whole_signal_welch(x, segment, overlap)
        assert np.array_equal(f, f_ref)
        assert np.array_equal(psd, psd_ref)


# Stage 2 (8 integer bits) overflows on the +/-1 noise in the first block; a
# burst of 7s in a later block overflows stage 0 (4 bits) or stage 1 (7 bits)
# as well.  The error must name the lowest stage with its peak over the whole
# signal, as the whole-signal decimator does.
@pytest.mark.parametrize("i_n,burst_start,lowest", [
    ((4, 12, 8, 20), 1500, 0),
    ((4, 12, 8, 20), 2990, 0),
    ((12, 7, 8, 20), 1500, 1),
    ((12, 12, 8, 20), 1500, 2),
])
def test_overflow_names_lowest_stage_over_all_blocks(monkeypatch, i_n, burst_start, lowest):
    monkeypatch.setattr(sdsim, "_SAMPLE_BLOCK", 1000)
    x = np.where(np.random.default_rng(3).random(3000) < 0.5, -1, 1).astype(np.int8)
    x[burst_start:burst_start + 8] = 7
    with pytest.raises(StageOverflowError) as first_block:
        whole_signal_decimator(x[:992], PAPER_SPEC, i_n, 7)
    assert first_block.value.stage == 2
    with pytest.raises(StageOverflowError) as want:
        whole_signal_decimator(x, PAPER_SPEC, i_n, 7)
    with pytest.raises(StageOverflowError) as got:
        decimate_fixed_point(x, rounded_report(PAPER_SPEC, 7, i_n))
    assert want.value.stage == lowest
    assert (got.value.stage, got.value.value, got.value.limit) == (
        want.value.stage, want.value.value, want.value.limit)
