import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gcfkit
from gcfkit import (
    GcfSpec,
    StageOverflowError,
    ToleranceSpec,
    decimate_fixed_point,
    design_wordlengths,
    expand_full_polynomial,
    normalization_gain,
    rounded_multipliers,
    stage_coefficients,
)
from gcfkit.cli import main
from gcfkit.wordlength import DEFAULT_Y

from gcf_helpers import in_band


def write_config(tmp_path, **extra):
    cfg = {
        "decimation_factor": 16,
        "oversampling_ratio": 64,
        "chi": 1e-4,
        "y": 2.0,
        "input_width": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def files_in(outdir):
    """Names of the files in outdir; none if it was never made."""
    return os.listdir(outdir) if os.path.isdir(outdir) else []


def read_coefficients(path):
    """The value column of a coefficient CSV written by design."""
    return np.array([float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]])


class TestDesign:
    def test_paper_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["f_n"] == 7
        assert report["i_n_k"] == [4, 7, 10, 13]
        assert report["spec"]["D"] == 16
        assert "F_n" in capsys.readouterr().out
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["chi"] == 1e-4

    def test_default_coverage_is_given_as_y(self, tmp_path):
        cfg = write_config(tmp_path)
        data = json.loads(cfg.read_text())
        del data["y"]
        cfg.write_text(json.dumps(data))
        assert main(["design", "--config", str(cfg)]) == 0
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert "prob" not in resolved and resolved["y"] == DEFAULT_Y
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tolerance"] == {"chi": 1e-4, "prob": 0.95, "y": DEFAULT_Y}

    def test_zero_rotation_quantizes_exactly(self, tmp_path):
        cfg = write_config(tmp_path, q=0.0)
        assert main(["design", "--config", str(cfg)]) == 0
        exact = (tmp_path / "out" / "cascade_exact.csv").read_text()
        quant = (tmp_path / "out" / "cascade_quantized.csv").read_text()
        assert exact == quant

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--chi", "5e-5"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["tolerance"]["chi"] == 5e-5
        assert report["f_n"] == 8

    def test_coefficients_json_echoes_spec(self, tmp_path):
        assert main(["design", "--config", str(write_config(tmp_path))]) == 0
        data = json.loads((tmp_path / "out" / "coefficients.json").read_text())
        assert data["spec"]["D"] == 16
        assert data["cascade"] == list(stage_coefficients(GcfSpec.from_oversampling(16, 64)))

    def test_simulated_filter_is_the_exported_one(self, tmp_path):
        # at q = 0.79 rounding moves every r_k, so this tells the rounded cascade from the exact one
        assert main(["design", "--config", str(write_config(tmp_path, q=0.79))]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        f_n = report["f_n"]
        r_int = read_coefficients(out / "cascade_quantized.csv") * 2.0 ** f_n
        assert np.array_equal(r_int, np.rint(r_int))
        assert not np.array_equal(read_coefficients(out / "cascade_exact.csv") * 2.0 ** f_n, r_int)
        poly = np.ones(1, np.int64)
        for k, r_k in enumerate(r_int.astype(np.int64)):
            stage = np.zeros(3 * 2 ** k + 1, np.int64)
            stage[[0, 3 * 2 ** k]] = 1 << f_n
            stage[[2 ** k, 2 * 2 ** k]] = r_k
            poly = np.convolve(poly, stage)
        spec = GcfSpec.from_oversampling(16, 64, q=0.79)
        x = np.zeros(256, np.int64)
        x[0] = 1
        got = decimate_fixed_point(x, spec, tuple(report["i_n_k"]), f_n)
        expected = poly[::16] * 2.0 ** -(spec.p * f_n) * normalization_gain(spec)
        assert np.array_equal(got[:len(expected)], expected)
        assert not np.any(got[len(expected):])

    def test_exported_bank_is_the_rounded_design(self, tmp_path):
        assert main(["design", "--config", str(write_config(tmp_path, pp_split=1))]) == 0
        out = tmp_path / "out"
        f_n = json.loads((out / "report.json").read_text())["f_n"]
        _, _, taps_q, r_q = rounded_multipliers(GcfSpec.from_oversampling(16, 64, 1), f_n)
        assert np.array_equal(read_coefficients(out / "bank_quantized.csv"), taps_q)
        assert np.array_equal(read_coefficients(out / "cascade_quantized.csv"), r_q)

    def test_split_sweep_table_is_monotone(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--sweep-splits"]) == 0
        rows = (tmp_path / "out" / "fn_sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "D,D1,pp_split,chi,y,f_n"
        fns = {}
        for row in rows[1:]:
            D, D1, pp, chi, y, fn = row.split(",")
            fns[(int(D1), float(chi), float(y))] = int(fn)
        assert len(fns) == 5 * 3 * 2  # splits x chi x y
        for chi in (5e-3, 1e-3, 1e-4):
            seq = [fns[(d1, chi, 2.0)] for d1 in (1, 2, 4, 8, 16)]
            assert seq == sorted(seq)
        for d1 in (1, 2, 4, 8, 16):
            assert fns[(d1, 5e-3, 2.0)] < fns[(d1, 1e-3, 2.0)] < fns[(d1, 1e-4, 2.0)]
            assert fns[(d1, 1e-4, 2.0)] - fns[(d1, 1e-4, 1.63)] in (0, 1)


class TestResponse:
    def test_emits_grids(self, tmp_path, capsys):
        cfg = write_config(tmp_path, points_per_band=33, global_points=512)
        assert main(["response", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("response_exact.csv", "response_quantized.csv", "response_comb.csv", "bands.csv"):
            assert (out / name).exists()
        text = capsys.readouterr().out
        assert "max in-band" in text
        bands = (out / "bands.csv").read_text().strip().splitlines()
        assert len(bands) == 9  # header + 8 bands


class TestSensitivity:
    def test_dump(self, tmp_path, capsys):
        cfg = write_config(tmp_path, points_per_band=17, global_points=256)
        assert main(["sensitivity", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
        assert lines[0] == "freq,re,im,magnitude,magnitude_dB,in_band,s_t,sigma_dh,delta_h"
        assert "full-cascade" in capsys.readouterr().out


class TestValidate:
    def test_paper_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trials=1000)
        assert main(["validate", "--config", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert payload["pass"] is True
        assert set(payload["checks"]) == {"split_invariance", "sensitivity_fd", "mc_model"}
        assert capsys.readouterr().out.count("PASS") == 3

    def test_corrupted_coefficient_fails_named_check(self, tmp_path, capsys, monkeypatch):
        from gcfkit import cli

        def corrupted(spec):
            out = expand_full_polynomial(spec)
            if spec.p_p == -1:  # the reference of the split-invariance check
                out[1] += 1e-6
            return out

        monkeypatch.setattr(cli, "expand_full_polynomial", corrupted)
        cfg = write_config(tmp_path, trials=1000)
        assert main(["validate", "--config", str(cfg)]) == 1
        payload = json.loads((tmp_path / "out" / "validate.json").read_text())
        assert payload["pass"] is False
        assert payload["checks"]["split_invariance"]["pass"] is False
        assert "FAIL split_invariance" in capsys.readouterr().out


CLI = "import sys; from gcfkit.cli import main; sys.exit(main())"
# Runs argv[2:] with its output in the file argv[1] and prints its exit code
# and ru_maxrss in KiB.  A child's ru_maxrss starts at the resident size of
# the process that spawned it (vfork shares that memory until exec), so
# gcfkit is spawned from this small interpreter, not from the test process.
RSS_PROBE = """
import os, subprocess, sys
with open(sys.argv[1], "w") as log:
    proc = subprocess.Popen(sys.argv[2:], stdout=log, stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
print(proc.returncode, usage.ru_maxrss)
"""


def gcfkit_peak_rss(args, workdir):
    """Run gcfkit with args in a fresh interpreter: (exit code, peak RSS in MB).

    ru_maxrss counts the BLAS and numpy buffers too, which tracemalloc does
    not see.  gcfkit's output goes to workdir/cli.log.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gcfkit.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, os.path.join(workdir, "cli.log"), sys.executable, "-c", CLI, *args],
        env=env, cwd=workdir, capture_output=True, text=True, check=True,
    )
    code, kib = out.stdout.split()
    return int(code), int(kib) / 1024.0


def test_validate_memory_does_not_grow_with_grid_times_taps(tmp_path):
    # 18,551 in-band points x 766 taps: the whole-grid Monte Carlo peaked at 478 MB
    code, rss = gcfkit_peak_rss(
        ["validate", "--decimation-factor", "256", "--pp-split", "7", "--oversampling-ratio", "512",
         "--chi", "1e-4", "--y", "2", "--input-width", "1", "--trials", "1000",
         "--output-dir", str(tmp_path / "out")],
        tmp_path,
    )
    assert code == 0, (tmp_path / "cli.log").read_text()
    assert rss < 200


def test_simulate_memory_does_not_grow_with_whole_signal_temporaries(tmp_path):
    # 2**22 modulator samples: whole-signal temporaries at 64 B/sample peaked at 299 MB
    code, rss = gcfkit_peak_rss(
        ["simulate", "--decimation-factor", "16", "--oversampling-ratio", "64",
         "--chi", "1e-4", "--y", "2", "--input-width", "1", "--n-samples", "4194304",
         "--output-dir", str(tmp_path / "out")],
        tmp_path,
    )
    assert code == 0, (tmp_path / "cli.log").read_text()
    assert rss < 150


class TestSimulate:
    def test_small_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, oversampling_ratio=128, n_samples=2 ** 13, segment=512, seed=77
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "bitstream.bin").exists()
        prov = json.loads((out / "config.json").read_text())
        assert prov["config"]["seed"] == 77
        assert prov["format"]["f_n"] >= 1
        assert "band edge" in capsys.readouterr().out

    def test_config_json_records_the_run(self, tmp_path):
        cfg = write_config(tmp_path, oversampling_ratio=128, n_samples=2 ** 12, segment=256, seed=77)
        assert main(["simulate", "--config", str(cfg), "--sample-rate-hz", "48000"]) == 0
        prov = json.loads((tmp_path / "out" / "config.json").read_text())
        assert list(prov) == ["config", "spec", "format", "overload_count"]
        assert list(prov["config"]) == ["fx_ratio", "amplitude", "n_samples", "seed", "fs"]
        assert list(prov["spec"]) == ["D", "D1", "D2", "p", "p_p", "q", "f_c", "alpha", "rho"]
        assert list(prov["format"]) == ["i_n", "f_n", "sign_bits"]
        spec = GcfSpec.from_oversampling(16, 128)
        assert prov["config"] == {"fx_ratio": spec.f_c, "amplitude": 0.5, "n_samples": 2 ** 12,
                                  "seed": 77, "fs": 48000.0}
        assert prov["spec"] == spec.as_dict()
        report = design_wordlengths(spec, ToleranceSpec(1e-4, 2.0), 1, in_band(spec))
        assert prov["format"] == {"i_n": list(report.i_n_k), "f_n": report.f_n, "sign_bits": 1}
        assert isinstance(prov["overload_count"], int)

    def test_seed_repeat_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_config(
                tmp_path, oversampling_ratio=128, n_samples=2 ** 12, segment=256,
                output_dir=str(out),
            )
            assert main(["simulate", "--config", str(cfg)]) == 0
            outs.append(out)
        for fname in ("bitstream.bin", "decimated.csv", "psd_out.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_silent_amplitude(self, tmp_path):
        cfg = write_config(
            tmp_path, oversampling_ratio=128, n_samples=2 ** 12, segment=256, amplitude=0.0
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        rows = (tmp_path / "out" / "decimated.csv").read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(values)) <= 0.05

    def test_overflow_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        import gcfkit.cli as cli_mod

        def boom(*args, **kwargs):
            raise StageOverflowError(2, 99.0, 8.0)

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        cfg = write_config(tmp_path, oversampling_ratio=128, n_samples=2 ** 12)
        assert main(["simulate", "--config", str(cfg)]) == 3
        assert "stage 2" in capsys.readouterr().err
        assert (tmp_path / "out" / "resolved_config.json").exists()

    def test_type_error_in_a_command_propagates(self, tmp_path, monkeypatch):
        # an internal bug is a traceback, not a config error
        import gcfkit.cli as cli_mod

        def wrong_arity(*args, **kwargs):
            raise TypeError("wrong_arity() takes 2 positional arguments but 3 were given")

        monkeypatch.setattr(cli_mod, "export_run", wrong_arity)
        cfg = write_config(tmp_path, oversampling_ratio=128, n_samples=2 ** 12, segment=256)
        with pytest.raises(TypeError, match="wrong_arity"):
            main(["simulate", "--config", str(cfg)])

    @pytest.mark.parametrize("segment", ["0", "-5", "1"])
    def test_short_segment_is_config_error(self, tmp_path, capsys, segment):
        cfg = write_config(tmp_path, oversampling_ratio=128, n_samples=2 ** 12)
        assert main(["simulate", "--config", str(cfg), "--segment", segment]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "segment" in err

    @pytest.mark.parametrize("args", [
        ["--segment", "1"], ["--segment", "8192"], ["--overlap", "0.95"],
    ], ids=["segment-1", "segment-over-n", "overlap-0.95"])
    def test_bad_welch_argument_rejected_before_generating(self, tmp_path, monkeypatch, capsys, args):
        import gcfkit.sdsim as sdsim_mod

        def generator_ran(*a, **k):
            raise AssertionError("the test signal was generated before the Welch arguments were checked")

        monkeypatch.setattr(sdsim_mod, "generate_bandlimited_signal", generator_ran)
        cfg = write_config(tmp_path, oversampling_ratio=128, n_samples=2 ** 12)
        assert main(["simulate", "--config", str(cfg), *args]) == 2
        assert capsys.readouterr().err.startswith("config error")

    def test_bank_split_rejected_before_generating(self, tmp_path, monkeypatch, capsys):
        import gcfkit.sdsim as sdsim_mod

        def generator_ran(*a, **k):
            raise AssertionError("the test signal was generated before the decimator arguments were checked")

        monkeypatch.setattr(sdsim_mod, "generate_bandlimited_signal", generator_ran)
        cfg = write_config(tmp_path, n_samples=2 ** 20)
        assert main(["simulate", "--config", str(cfg), "--pp-split", "2"]) == 2
        assert "expects the cascaded form" in capsys.readouterr().err
        assert files_in(tmp_path / "out") == ["resolved_config.json"]


class TestCompare:
    def test_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, points_per_band=65, global_points=1024)
        assert main(["compare", "--config", str(cfg)]) == 0
        lines = (tmp_path / "out" / "comparison.csv").read_text().strip().splitlines()
        assert lines[0].startswith("band,low,high,comb_attenuation_dB")
        assert len(lines) == 9
        assert "np." not in "".join(lines)
        improvement = float(capsys.readouterr().out.split("improvement")[1].split("dB")[0])
        assert improvement == pytest.approx(8.4, abs=0.5)


# Contents of a --config file that is not one readable UTF-8 JSON object.
BAD_CONFIG_FILES = {
    "missing": None, "directory": None, "bad-json": b"{", "not-utf8": b'{"chi": "\xff"}',
    "list": b"[]", "string": b'"x"', "number": b"5", "null": b"null",
}


@pytest.mark.parametrize("command", ["design", "response", "sensitivity"])
def test_largest_fraction_width_writes_finite_artifacts(tmp_path, command):
    # chi = 2e-310 sizes F_n = 1023, where |r_k| * 2**F_n overflows
    cfg = write_config(tmp_path, chi=2e-310)
    assert main([command, "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    for name in files_in(out):
        text = (out / name).read_text()
        if name.endswith(".json"):
            json.loads(text, parse_constant=lambda c: pytest.fail(f"{name} holds {c}"))
        else:
            assert np.all(np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1))), name
    spec = GcfSpec.from_oversampling(16, 64)
    _, r, _, r_q = rounded_multipliers(spec, 1023)
    assert np.array_equal(r_q, r)
    if command == "design":
        assert json.loads((out / "report.json").read_text())["f_n"] == 1023
        assert np.array_equal(read_coefficients(out / "cascade_quantized.csv"), r)
    elif command == "response":
        assert (out / "response_quantized.csv").read_bytes() == (out / "response_exact.csv").read_bytes()
    else:
        assert np.all(np.loadtxt(out / "sensitivity.csv", delimiter=",", skiprows=1)[:, -1] == 0.0)


COMMANDS = ["design", "response", "sensitivity", "validate", "simulate", "compare"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_sizes_once_before_it_writes(tmp_path, monkeypatch, command):
    calls = []  # per call: whether output_dir existed yet

    def counting(*args, **kwargs):
        calls.append((tmp_path / "out").exists())
        return design_wordlengths(*args, **kwargs)

    monkeypatch.setattr("gcfkit.cli.design_wordlengths", counting)
    cfg = write_config(tmp_path, points_per_band=17, global_points=256, oversampling_ratio=128,
                       trials=1000, n_samples=2 ** 13, segment=512)
    assert main([command, "--config", str(cfg)]) == 0
    assert calls == [False]


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"decimation_factor": 16, "bogus": 1}))
        assert main(["design", "--config", str(path)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("args,quantity", [
        (["design", "--decimation-factor", "1099511627776", "--oversampling-ratio", "2.2e12"], "grid"),
        (["design", "--decimation-factor", "4611686018427387904", "--oversampling-ratio", "1e19"], "grid"),
        (["compare", "--points-per-band", "100000000000"], "grid"),
        (["design", "--global-points", "100000000000000"], "grid"),
        (["validate", "--trials", "1000000000000000"], "Monte Carlo draw matrix"),
        (["simulate", "--n-samples", "1152921504606846976"], "signal"),
    ], ids=["design-D2^40", "design-D2^62", "compare-points-per-band", "design-global-points",
            "validate-trials", "simulate-n-samples"])
    def test_array_larger_than_memory_is_config_error(self, tmp_path, capsys, args, quantity):
        # main rejects it from its size, before anything is allocated or written;
        # a later flag overrides the D=16, rho=64 default of this test
        outdir = tmp_path / "out"
        command, *flags = args
        base = ["--decimation-factor", "16", "--oversampling-ratio", "64", "--output-dir", str(outdir)]
        assert main([command, *base, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: the {quantity} of ") and "bytes of physical memory" in err, err
        assert not outdir.exists()

    @pytest.mark.parametrize("command,size", [("design", 8 * (4096 + 8 * 130)),
                                              ("validate", 8 * 2000 * 4), ("simulate", 9 * 2 ** 18)])
    def test_largest_array_is_checked_against_physical_memory(self, tmp_path, monkeypatch, capsys, command, size):
        # at D=16, rho=64: 4096 + 8 x 130 grid points, 2000 trials of the 4
        # cascade multipliers, 2**18 samples of 9 bytes
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": size - 1}
        monkeypatch.setattr("gcfkit.cli.os.sysconf", pages.get)
        argv = [command, "--decimation-factor", "16", "--oversampling-ratio", "64",
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert f"needs {size} bytes, more than the {size - 1} bytes" in capsys.readouterr().err
        pages["SC_PHYS_PAGES"] = size
        assert main(argv) == 0

    @pytest.mark.parametrize("kind", list(BAD_CONFIG_FILES))
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind != "missing":
            path.write_bytes(BAD_CONFIG_FILES[kind])
        assert main(["design", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(path) in err, err
        assert not (tmp_path / "out").exists()

    def test_missing_bandwidth(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"decimation_factor": 16}))
        assert main(["design", "--config", str(path)]) == 2

    def test_overlapping_bands(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oversampling_ratio=10)
        assert main(["design", "--config", str(cfg)]) == 2
        assert "oversampling ratio must be finite and above D = 16, got 10" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["nan", "inf", "16", "-1", "0"])
    def test_bad_oversampling_ratio_is_named(self, tmp_path, capsys, rho):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--oversampling-ratio", rho]) == 2
        err = capsys.readouterr().err
        assert f"oversampling ratio must be finite and above D = 16, got {float(rho)}" in err, err
        assert "f_c" not in err
        assert set(files_in(tmp_path / "out")) <= {"resolved_config.json"}

    def test_zero_oversampling_ratio_above_a_negative_d_is_named(self, tmp_path, capsys):
        assert main(["design", "--decimation-factor", "-1", "--oversampling-ratio", "0",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "oversampling ratio must be finite and above D = -1, got 0.0" in capsys.readouterr().err

    def test_prob_flag_is_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["design", "--config", str(cfg), "--prob", "0.95"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prob" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--chi", "nan"), ("--chi", "inf"), ("--y", "nan"), ("--points-per-band", "1"),
        ("--seed", "-1"), ("--global-points", "-1"), ("--trials", "999"), ("--sample-rate-hz", "-5"),
        ("--sample-rate-hz", "0"), ("--sample-rate-hz", "inf"), ("--input-width", "0"),
        ("--chi", "1e-310"), ("--y", "9"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), flag, value]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert re.search(rf"\b{flag[2:].replace('-', '_')}\b", err), err
        assert set(files_in(tmp_path / "out")) <= {"resolved_config.json"}

    @pytest.mark.parametrize("command,flag,value,message", [
        ("compare", "--chi", "-1e-3", "chi must be positive and finite, got -0.001"),
        ("compare", "--q", "-inf", "q must be in [0, 1], got -inf"),
        ("design", "--y", "-2E0", "y must be positive and finite, got -2.0"),
        ("design", "--oversampling-ratio", "-6.4e1", "above D = 16, got -64.0"),
        ("design", "--sample-rate-hz", "-Infinity", "sample_rate_hz must be positive and finite, got -inf"),
        ("design", "--amplitude", "-inf", "amplitude must be finite, got -inf"),
        ("simulate", "--overlap", "-5e-1", "overlap_fraction must be in [0, 0.9], got -0.5"),
    ], ids=["chi", "q", "y", "oversampling-ratio", "sample-rate-hz", "amplitude", "overlap"])
    def test_spaced_negative_exponent_is_config_error(self, tmp_path, capsys, command, flag, value, message):
        # argparse alone reads "-1e-3" or "-inf" after a flag as an unknown option
        cfg = write_config(tmp_path)
        assert main([command, "--config", str(cfg), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err, err
        assert set(files_in(tmp_path / "out")) <= {"resolved_config.json"}

    def test_loose_tolerance_needs_no_fraction_bits(self, tmp_path):
        cfg = write_config(tmp_path)
        # with y = 1e-320, y * sqrt(S_T) underflows to 0 and the bound chi / (y sqrt(S_T)) is inf
        for chi, y in (("1", "2"), ("1e-4", "1e-320")):
            assert main(["design", "--config", str(cfg), "--chi", chi, "--y", y]) == 0
            assert json.loads((tmp_path / "out" / "report.json").read_text())["f_n"] == 0

    @pytest.mark.parametrize("args", [
        ["response", "--input-width", "0"],
        ["design", "--sweep-splits", "--input-width", "0"],
        ["design", "--chi", "1e-310"],
        ["response", "--chi", "1e-310"],
        ["sensitivity", "--chi", "1e-310"],
        ["validate", "--chi", "1e-310", "--trials", "1000"],
        # F_n = 1, at which every unit-DC polyphase tap rounds to 0
        ["design", "--pp-split", "1", "--chi", "1", "--y", "2"],
        ["response", "--pp-split", "1", "--chi", "1", "--y", "2"],
        # compare resolves the tolerance like every command
        ["compare", "--y", "nan", "--chi", "-1"],
        ["compare", "--chi", "-1"],
        # simulate alone uses them, but every command rejects a non-finite float
        ["design", "--amplitude", "nan"],
        ["design", "--overlap", "inf"],
    ], ids=lambda args: "-".join(a.lstrip("-") for a in args))
    def test_config_error_leaves_only_resolved_config(self, tmp_path, capsys, args):
        cfg = write_config(tmp_path, points_per_band=17, global_points=256)
        assert main([args[0], "--config", str(cfg), *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err
        assert set(files_in(tmp_path / "out")) <= {"resolved_config.json"}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("args,message", [
        (["--chi", "1e-310"], "chi = 1e-310 needs more than 1023 fraction bits"),
        # F_n = 1, at which every unit-DC polyphase tap rounds to 0
        (["--pp-split", "1", "--chi", "1", "--y", "2"], "chi = 1 sizes F_n = 1, at which the polyphase taps round"),
        (["--input-width", "0"], "input_width must be >= 1, got 0"),
        (["--points-per-band", "1"], "points_per_band must be >= 2, got 1"),
    ], ids=["chi-needs-1024-bits", "taps-round-to-zero", "input-width", "points-per-band"])
    def test_sizing_and_grid_errors_leave_no_output_dir(self, tmp_path, capsys, command, args, message):
        # main builds the grid and sizes F_n before it makes output_dir
        cfg = write_config(tmp_path, points_per_band=17, global_points=256)
        assert main([command, "--config", str(cfg), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["empty", "regular-file", "below-regular-file"])
    def test_unusable_output_dir_is_config_error(self, tmp_path, capsys, kind):
        (tmp_path / "file").write_text("")
        output_dir = {"empty": "", "regular-file": tmp_path / "file",
                      "below-regular-file": tmp_path / "file" / "out"}[kind]
        cfg = write_config(tmp_path)
        assert main(["design", "--config", str(cfg), "--oversampling-ratio", "64", "--output-dir", str(output_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "output_dir" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("command,artifact", [("design", "report.json"), ("compare", "comparison.csv")])
    def test_unwritable_artifact_is_config_error(self, tmp_path, capsys, command, artifact):
        (tmp_path / "out" / artifact).mkdir(parents=True)
        cfg = write_config(tmp_path, points_per_band=17, global_points=256)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and artifact in err and "Traceback" not in err, err
        # the artifact written before the failure stays
        assert set(files_in(tmp_path / "out")) == {"resolved_config.json", artifact}

    @pytest.mark.parametrize("key,value", [
        ("signal_bandwidth", 1 / 128), ("normalized", True), ("comb_order", 3), ("prob", 0.95),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["design", "--config", str(cfg)]) == 2
        assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("chi", True), ("chi", "1e-4"),
        ("decimation_factor", 16.0), ("seed", None), ("input_width", False), ("output_dir", 3),
    ])
    def test_mistyped_json_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["design", "--config", str(cfg)]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("q", 0), ("amplitude", 0), ("sample_rate_hz", None), ("global_points", 0),
        ("global_points", 1),
    ])
    def test_well_typed_json_value_is_accepted(self, tmp_path, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["design", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "out" / "resolved_config.json").read_text())[key] == value


COMMON_OPTIONS = [
    "--config", "--decimation-factor", "--pp-split", "--q",
    "--oversampling-ratio", "--chi", "--y", "--input-width", "--points-per-band",
    "--global-points", "--seed", "--trials", "--n-samples", "--amplitude",
    "--sample-rate-hz", "--segment", "--overlap", "--output-dir",
]
COMMAND_OPTIONS = {
    "design": COMMON_OPTIONS + ["--sweep-splits"],
    "response": COMMON_OPTIONS,
    "sensitivity": COMMON_OPTIONS,
    "validate": COMMON_OPTIONS,
    "simulate": COMMON_OPTIONS,
    "compare": COMMON_OPTIONS,
}


def subparsers():
    from gcfkit import cli

    parser = cli.build_parser(COMMAND_OPTIONS)
    return parser, parser._subparsers._group_actions[0].choices


class TestParser:
    def test_options_per_command(self):
        _, subs = subparsers()
        assert set(subs) == set(COMMAND_OPTIONS)
        for name, expected in COMMAND_OPTIONS.items():
            got = [s for a in subs[name]._actions for s in a.option_strings if s not in ("-h", "--help")]
            assert got == expected, name

    def test_every_config_field_has_a_flag(self):
        from dataclasses import fields

        from gcfkit.cli import DesignConfig

        _, subs = subparsers()
        for sub in subs.values():
            dests = {a.dest for a in sub._actions}
            assert {f.name for f in fields(DesignConfig)} <= dests

    def test_flag_types_and_unnormalized(self, capsys):
        parser, _ = subparsers()
        args = parser.parse_args([
            "design", "--decimation-factor", "32", "--q", "0.5",
            "--output-dir", "x", "--oversampling-ratio", "128",
        ])
        assert args.decimation_factor == 32 and isinstance(args.decimation_factor, int)
        assert args.q == 0.5 and args.oversampling_ratio == 128.0
        assert isinstance(args.oversampling_ratio, float)
        assert args.output_dir == "x"
        assert parser.parse_args(["design"]).q is None
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["design", "--unnormalized"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unnormalized" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--output-dir" in capsys.readouterr().out


def test_import_loads_only_numpy_outside_the_stdlib():
    # compared with a bare interpreter in the same environment, whose site
    # hooks may load third-party modules of their own
    probe = "import sys{}; print(*{{m.split('.')[0] for m in sys.modules}} - set(sys.stdlib_module_names))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gcfkit.__file__)))

    def top_level(imports):
        out = subprocess.run([sys.executable, "-c", probe.format(imports)], env=env,
                             capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    assert top_level(", gcfkit.cli") - top_level("") == {"gcfkit", "numpy"}
