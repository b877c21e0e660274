"""Command-line interface: config handling, exit codes, output format,
byte-level determinism."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
import types
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cowsim
import cowsim.cli
import cowsim.simulation
from cowsim import (AttackConfig, AttackKind, ExperimentConfig, OpticsConfig,
                    OptimizationSpec, PnsModel, Protocol, ProtocolParams, RateMode)
from cowsim.cli import main
from cowsim.config import DEFAULTS, ConfigError, RunConfig
from cowsim.experiment import DETECTORS

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cowsim", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def table(stdout):
    rows = [l for l in stdout.splitlines() if l and not l.startswith("#")]
    header = rows[0].split(",")
    return header, [r.split(",") for r in rows[1:]]


class TestRunConfig:
    def test_defaults_and_overrides(self):
        cfg = RunConfig.from_sources(None, ["mu=0.7", "seed=99"])
        assert cfg["mu"] == 0.7
        assert cfg["seed"] == 99

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, ["nope=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, ["mu=abc"])

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment line\nmu = 0.25  # inline comment\n\nseed=7\n")
        cfg = RunConfig.from_sources(str(path), [])
        assert cfg["mu"] == 0.25
        assert cfg["seed"] == 7

    def test_file_then_set_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mu = 0.25\n")
        cfg = RunConfig.from_sources(str(path), ["mu=0.5"])
        assert cfg["mu"] == 0.5

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(str(path), [])


# every key away from its default, except frame_pattern: D010 is the only pattern
EVERY_KEY = """
mu = 0.3
loss_db = 7.0
f = 0.2
t_b = 0.8
eta = 0.3
p_d = 2e-5
v = 0.95
pulse_period_ns = 2.0
insertion_loss = 0.25
gate_ns = 30.0
deadtime_ns = 5.0
background = 1e-6
protocol = bb84
protocols = cow, bb84
pns_model = alt
rate_mode = exact
n_symbols = 5000
seed = 7
attack = intercept-resend
p_ir = 0.4
tolerance_sigmas = 4.0
mu_min = 1e-3
mu_max = 0.9
grid_points = 500
refine_tolerance = 1e-5
loss_grid = 0, 10
visibilities = 0.9
n_frames = 1000
frame_period_ns = 2000.0
frame_pattern = D010
"""


class _Called(Exception):
    """Stops a command at the call it makes, carrying that call's arguments."""


class TestBuild:
    PARAMS = ProtocolParams(mu=0.3, loss_db=7.0, f=0.2, t_b=0.8, eta=0.3, p_d=2e-5,
                            v=0.95, pulse_period_ns=2.0)
    SPEC = OptimizationSpec(mu_min=1e-3, mu_max=0.9, grid_points=500,
                            refine_tolerance=1e-5)

    def called(self, monkeypatch, tmp_path, command, target):
        """The (args, kwargs) with which the command calls cli.<target>,
        configured from EVERY_KEY alone."""
        def stop(*args, **kwargs):
            raise _Called(args, kwargs)
        monkeypatch.setattr(cowsim.cli, target, stop)
        path = tmp_path / "every.cfg"
        path.write_text(EVERY_KEY)
        with pytest.raises(_Called) as caught:
            main([command, "--config", str(path)])
        return caught.value.args

    def test_every_key_differs_from_its_default(self, tmp_path):
        path = tmp_path / "every.cfg"
        path.write_text(EVERY_KEY)
        cfg = RunConfig.from_sources(str(path))
        assert [k for k in DEFAULTS if cfg[k] == DEFAULTS[k][0]] == ["frame_pattern"]

    def test_analysis_commands_build_every_key(self, monkeypatch, tmp_path):
        args, kwargs = self.called(monkeypatch, tmp_path, "keyrate", "secret_key_rate")
        assert args == (self.PARAMS, Protocol.BB84_PLAIN, PnsModel.DETECTABLE_ALT, RateMode.EXACT)
        args, kwargs = self.called(monkeypatch, tmp_path, "optimize", "optimize_mu")
        assert args == (self.PARAMS, Protocol.BB84_PLAIN, PnsModel.DETECTABLE_ALT, self.SPEC,
                        RateMode.EXACT)
        args, kwargs = self.called(monkeypatch, tmp_path, "curve", "sweep_loss")
        assert args == (self.PARAMS, [Protocol.COW, Protocol.BB84_PLAIN], [0.0, 10.0],
                        PnsModel.DETECTABLE_ALT, self.SPEC)
        assert kwargs == {"visibilities": [0.9], "mode": RateMode.EXACT}

    def test_simulate_builds_every_key(self, monkeypatch, tmp_path):
        args, kwargs = self.called(monkeypatch, tmp_path, "simulate", "run_protocol")
        optics = OpticsConfig(params=self.PARAMS, insertion_loss=0.25, deadtime_ns=5.0,
                              background=1e-6)
        assert args == (optics, 5000, 7)
        assert kwargs == {"attack": AttackConfig(kind=AttackKind.INTERCEPT_RESEND, p_ir=0.4),
                          "tolerance_sigmas": 4.0, "protocol": Protocol.BB84_PLAIN,
                          "model": PnsModel.DETECTABLE_ALT}

    def test_experiment_builds_every_key(self, monkeypatch, tmp_path):
        # the file overrides every key of the experiment preset
        args, kwargs = self.called(monkeypatch, tmp_path, "experiment", "run_experiment")
        config = ExperimentConfig(params=self.PARAMS, insertion_loss=0.25, deadtime_ns=5.0,
                                  background=1e-6, gate_ns=30.0, frame_period_ns=2000.0,
                                  n_frames=1000, pattern="D010")
        assert (args, kwargs) == ((config, 7), {})

    def test_build_is_strict(self):
        @dataclass
        class Unkeyed:
            mu: float
            no_such_key: float = 0.0

        cfg = RunConfig()
        assert cfg.build(AttackConfig, kind=AttackKind.NONE) == AttackConfig()
        with pytest.raises(TypeError):
            cfg.build(AttackConfig, kind=AttackKind.NONE, stray=1)
        with pytest.raises(KeyError):
            cfg.build(Unkeyed)


class TestKeyrateCommand:
    def test_reference_row(self):
        code, out, _ = run_cli("keyrate", "--set", "t_b=1.0")
        assert code == 0
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["protocol"] == "cow"
        assert row["r_sk"] == "0.0336447938"
        assert row["r_s"] == "0.0450171"

    def test_metadata_block(self):
        code, out, _ = run_cli("keyrate")
        assert out.startswith("# cowsim 0.1.0\n# command = keyrate\n")
        assert "# mu = 0.5" in out

    def test_unknown_key_exits_1(self):
        code, _, err = run_cli("keyrate", "--set", "bogus=1")
        assert code == 1
        assert "unknown configuration key" in err

    def test_invalid_params_exit_1(self):
        code, _, err = run_cli("keyrate", "--set", "mu=-1")
        assert code == 1

    def test_saturated_information_row(self):
        # r clamps to 1 at 10 dB with the as-printed model: clamped rate is
        # zero while the raw column stays negative
        code, out, _ = run_cli("keyrate", "--set", "loss_db=10", "--set",
                               "mu=1.0", "--set", "v=0.9", "--set", "t_b=1.0")
        assert code == 0
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["r_sk"] == "0"
        assert float(row["r_sk_raw"]) < 0.0
        assert row["i_eve"] == "1"

    def test_dead_source_all_zero_row(self):
        code, out, _ = run_cli("keyrate", "--set", "mu=0", "--set", "p_d=0")
        assert code == 0
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["r_s"] == "0" and row["q_total"] == "0"
        assert row["r_sk"] == "0" and row["r_sk_raw"] == "0"


class TestCurveCommand:
    def test_columns_and_ordering(self):
        code, out, _ = run_cli(
            "curve", "--set", "loss_grid=0,10", "--set", "visibilities=1.0,0.9",
            "--set", "protocols=cow,bb84", "--set", "t_b=1.0")
        assert code == 0
        header, rows = table(out)
        assert header == ["protocol", "V", "loss_db", "mu_star", "r_sk"]
        key = [(r[0], r[1], r[2]) for r in rows]
        assert key == [("cow", "1", "0"), ("cow", "1", "10"),
                       ("cow", "0.9", "0"), ("cow", "0.9", "10"),
                       ("bb84", "1", "0"), ("bb84", "1", "10"),
                       ("bb84", "0.9", "0"), ("bb84", "0.9", "10")]

    def test_v1_identity_in_output(self):
        code, out, _ = run_cli(
            "curve", "--set", "loss_grid=0,5,10", "--set", "visibilities=1.0",
            "--set", "protocols=cow,bb84-decoy", "--set", "t_b=1.0")
        header, rows = table(out)
        cow = [float(r[4]) for r in rows if r[0] == "cow"]
        dec = [float(r[4]) for r in rows if r[0] == "bb84-decoy"]
        for a, b in zip(cow, dec):
            assert abs(a - b) <= 1e-9 * max(a, b, 1e-30)

    @pytest.mark.parametrize("key", ["loss_grid", "protocols", "visibilities"])
    def test_empty_grid_exits_1(self, key):
        # a list key with no items is a bad value, not an empty curve
        code, out, err = run_cli("curve", "--set", f"{key}=")
        assert code == 1 and out == ""
        assert err.startswith(f"cowsim: error: bad value for {key}: ")
        assert err.count("\n") == 1


class TestSimulateCommand:
    def test_clean_run_exit_0(self):
        code, out, _ = run_cli("simulate", "--set", "n_symbols=20000",
                               "--seed", "3")
        assert code == 0
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["abort"] == "false"

    def test_full_attack_aborts_exit_2(self):
        code, out, _ = run_cli(
            "simulate", "--set", "n_symbols=200000", "--seed", "5",
            "--set", "attack=intercept-resend", "--set", "p_ir=1.0",
            "--set", "t_b=0.5", "--set", "eta=0.25", "--set", "f=0.3",
            "--set", "p_d=0.0", "--set", "insertion_loss=0.0")
        assert code == 2
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["abort"] == "true"
        assert row["n_secret"] == "0"

    def test_measured_class_visibility_survives_an_abort(self):
        # without decoys the run aborts for want of decoy statistics, but the
        # 1-0 class was measured (16 D_M1 clicks, no D_M2 click): v_10 is 1
        code, out, _ = run_cli("simulate", "--set", "f=0", "--set", "n_symbols=20000",
                               "--seed", "5")
        assert code == 2
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert row["abort_reason"] == "no-decoy-statistics"
        assert row["v_10"] == "1" and row["v_d"] == "nan"

    @pytest.mark.parametrize("settings_, seed, code, nan_columns", [
        # t_b = 1e-9 leaves D_B dark while both monitor classes are measured:
        # nothing is sifted, yet the run does not abort
        (["n_symbols=5000", "t_b=1e-9", "mu=1", "eta=1", "p_d=0"], 1, 0,
         ["qber", "qber_lo", "qber_hi"]),
        (["n_symbols=3"], 12345, 2, ["qber", "qber_lo", "qber_hi", "v_10", "v_d"]),
        (["f=0", "n_symbols=20000"], 5, 2, ["v_d"]),
    ])
    def test_nan_columns(self, settings_, seed, code, nan_columns):
        # the QBER columns read nan exactly when n_sifted is 0, and a
        # visibility when its class has no clicks, which aborts the run
        args = [a for kv in settings_ for a in ("--set", kv)]
        exit_code, out, _ = run_cli("simulate", *args, "--seed", str(seed))
        header, rows = table(out)
        row = dict(zip(header, rows[0]))
        assert exit_code == code and row["abort"] == ("true" if code else "false")
        assert [c for c in header if row[c] == "nan"] == nan_columns
        assert (row["qber"] == "nan") == (row["n_sifted"] == "0")

    def test_gate_is_not_read(self):
        # only the framed mode gates its detectors, so only experiment checks gate_ns
        code, out, err = run_cli("simulate", "--set", "n_symbols=20000", "--seed", "3",
                                 "--set", "gate_ns=-5")
        assert code == 0 and err == ""
        _, plain, _ = run_cli("simulate", "--set", "n_symbols=20000", "--seed", "3")
        assert table(out) == table(plain)

    def test_unknown_attack_is_one_error_line(self):
        # intercept-resend is the only attack that acts on the stream
        code, out, err = run_cli("simulate", "--set", "attack=pns-counting")
        assert code == 1 and out == ""
        assert err.startswith("cowsim: error: ") and err.count("\n") == 1
        assert "none|intercept-resend" in err

    @pytest.mark.parametrize("link", ["same-path", "symlink", "hardlink"])
    def test_out_and_dump_on_one_file_is_one_error_line(self, tmp_path, link):
        # the event dump would overwrite the summary
        out = tmp_path / "same.csv"
        dump = out if link == "same-path" else tmp_path / "link.csv"
        if link == "symlink":
            dump.symlink_to(out)
        if link == "hardlink":  # a hard link needs the file: it must keep its bytes
            out.write_text("kept\n")
            os.link(out, dump)
        code, stdout, err = run_cli("simulate", "--set", "n_symbols=20000",
                                    "--out", str(out), "--dump-events", str(dump))
        assert code == 1 and stdout == "" and (
            out.read_text() == "kept\n" if link == "hardlink" else not out.exists())
        assert err == "cowsim: error: --out and --dump-events name the same file\n"

    def test_dump_to_a_directory_is_one_error_line(self, tmp_path):
        # the output paths are opened before the run: no summary comes first
        code, out, err = run_cli("simulate", "--set", "n_symbols=2000",
                                 "--dump-events", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("cowsim: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_failed_run_leaves_the_outputs_as_they_were(self, tmp_path, monkeypatch,
                                                        capsys, existing):
        # opening them before the run truncates nothing, and a file it made is
        # removed again when the run fails
        out, dump = tmp_path / "out.csv", tmp_path / "events.csv"
        if existing:
            out.write_text("kept\n")
            dump.write_text("kept\n")

        def fail(*args, **kwargs):
            raise MemoryError("out of memory")

        monkeypatch.setattr(cowsim.cli, "run_protocol", fail)
        assert main(["simulate", "--out", str(out), "--dump-events", str(dump)]) == 1
        assert capsys.readouterr() == ("", "cowsim: error: out of memory\n")
        for path in (out, dump):
            assert path.read_text() == "kept\n" if existing else not path.exists()

    def test_event_dump(self, tmp_path):
        dump = tmp_path / "events.csv"
        code, _, _ = run_cli("simulate", "--set", "n_symbols=100000",
                             "--seed", "3", "--dump-events", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "detector,sequence_index,slot_index"

    def test_event_dump_is_the_reported_run(self, tmp_path, monkeypatch):
        calls = []
        simulate_stream = cowsim.simulation.simulate_stream

        def counted(*args, **kwargs):
            calls.append(1)
            return simulate_stream(*args, **kwargs)

        monkeypatch.setattr(cowsim.simulation, "simulate_stream", counted)
        out, dump = tmp_path / "out.csv", tmp_path / "events.csv"
        code = main(["simulate", "--set", "n_symbols=20000", "--set", "mu=1.0",
                     "--set", "eta=0.5", "--set", "p_d=5e-3", "--seed", "3",
                     "--out", str(out), "--dump-events", str(dump)])
        assert code in (0, 2)
        assert len(calls) == 1
        header, rows = table(out.read_text())
        row = dict(zip(header, rows[0]))
        per_symbol = Counter(line.split(",")[1] for line in dump.read_text().splitlines()
                             if line.startswith("D_B,"))
        assert int(row["n_ambiguous"]) > 0
        assert len(per_symbol) == int(row["n_detected"])
        assert sum(n > 1 for n in per_symbol.values()) == int(row["n_ambiguous"])


class TestEventLines:
    """The event dump's byte writer against one f-string per click."""

    # slots 0 and 1, both slots of each sequence index 10**k - 1 and 10**k,
    # and the largest int64 slot
    EDGES = [0, 1] + [2 * (10 ** k + d) + b for k in range(1, 19)
                      for d in (-1, 0) for b in (0, 1)] + [2 ** 63 - 1]

    @settings(max_examples=300, deadline=None)
    @given(clicks=st.lists(st.lists(st.one_of(st.sampled_from(EDGES),
                                              st.integers(0, 10 ** 6),
                                              st.integers(4 * 10 ** 9, 2 ** 63 - 1)),
                                    max_size=30),
                           min_size=3, max_size=3))
    @example(clicks=[[], [0, 1], EDGES])
    def test_bytes_match_per_line_formatting(self, clicks):
        slots = [np.array(sorted(c), dtype=np.int64) for c in clicks]
        expected = "".join(f"{name},{s >> 1},{s & 1}\n"
                           for name, g in zip(DETECTORS, slots) for s in g.tolist())
        got = b"".join(cowsim.cli._event_lines(cowsim.simulation.DetectionRecord(*slots)))
        assert got == expected.encode()


class TestExperimentCommand:
    def test_histogram_and_summary(self):
        code, out, _ = run_cli("experiment", "--set", "n_frames=50000",
                               "--seed", "5")
        assert code == 0
        assert "# raw_rate_hz = " in out
        assert "# data_qber = " in out
        header, rows = table(out)
        assert header == ["slot_time_ns", "detector", "count"]
        assert {r[1] for r in rows} == {"D_B", "D_M1", "D_M2"}

    def test_preset_metadata(self):
        code, out, _ = run_cli("experiment", "--set", "n_frames=1000")
        assert "# loss_db = 5.0" in out
        assert "# deadtime_ns = 10000.0" in out
        assert "# p_d = 4.25" in out
        assert "# v = 0.92" in out

    def test_explicit_v_wins(self):
        code, out, _ = run_cli("experiment", "--set", "n_frames=1000",
                               "--set", "v=0.95")
        assert "# v = 0.95" in out

    def test_deadtime_override_increases_rate(self):
        def rate(*extra):
            _, out, _ = run_cli("experiment", "--set", "n_frames=50000",
                                "--seed", "5", *extra)
            line = [l for l in out.splitlines() if l.startswith("# raw_rate_hz")][0]
            return float(line.split("=")[1])
        assert rate("--set", "deadtime_ns=0") > rate()


class TestInputValidation:
    @pytest.mark.parametrize("command, setting", [
        ("keyrate", "loss_db=inf"),
        ("keyrate", "loss_db=5000"),
        ("keyrate", "mu=inf"),
        ("keyrate", "pulse_period_ns=inf"),
        ("curve", "loss_grid=0,inf"),
        ("simulate", "tolerance_sigmas=-1"),
        ("simulate", "tolerance_sigmas=nan"),
        ("simulate", "tolerance_sigmas=inf"),
        ("experiment", "background=2"),
        ("experiment", "insertion_loss=1.5"),
        ("experiment", "deadtime_ns=-1"),
        ("experiment", "gate_ns=-5"),
        ("experiment", "frame_period_ns=nan"),
        ("experiment", "gate_ns=1e15"),
        ("experiment", "gate_ns=2000"),
        ("simulate", "seed=-1"),
        ("simulate", f"seed={2 ** 64}"),
        ("experiment", "seed=-1"),
        ("optimize", "mu_max=inf"),
        ("curve", "mu_max=inf"),
        # 10**8 grid points would take about 14 GB for the mu scan
        ("optimize", "grid_points=100000000"),
        ("curve", "grid_points=100000000"),
        # each key is checked when it is set, whether or not the command reads it
        ("keyrate", "attack=nope"),
        ("simulate", "rate_mode=bogus"),
        ("keyrate", "loss_grid=a,b"),
        ("experiment", "protocol=zzz"),
        ("keyrate", "frame_pattern=XYZ"),
        # a line break in a list would break the metadata block that echoes it
        ("curve", "protocols=cow,\nbb84"),
        ("curve", "loss_grid=0,\n5"),
        ("curve", "visibilities=1.0,\r0.8"),
    ])
    def test_out_of_range_is_one_error_line(self, command, setting):
        code, out, err = run_cli(command, "--set", setting,
                                 "--set", "n_symbols=2000", "--set", "n_frames=100")
        assert code == 1
        assert out == ""
        assert err.startswith("cowsim: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unallocatable_request_is_one_error_line(self):
        # a 1e17 ns gate asks for about 4 PiB of candidate slots: more than a
        # 64-bit process can address, so numpy refuses it before allocating
        code, out, err = run_cli("experiment", "--set", "n_frames=1", "--set", "gate_ns=1e17",
                                 "--set", "frame_period_ns=1e18")
        assert code == 1 and out == ""
        assert err.startswith("cowsim: error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("keyrate", "--protocol", "xyz"),
        ("keyrate", "--seed", "abc"),
        ("keyrate", "--seed"),
        ("keyrate", "--bogus"),
        ("nosuch",),
        (),
    ], ids=lambda args: " ".join(args) or "no arguments")
    def test_usage_error_is_one_error_line(self, args):
        code, out, err = run_cli(*args)
        assert code == 1 and out == ""
        assert err.startswith("cowsim: error: ") and err.count("\n") == 1

    def test_one_parser_per_process_keeps_no_arguments(self, tmp_path, capsys, monkeypatch):
        # the parser is built by the first main call, not at import, and kept:
        # a later call sees neither an earlier --set list nor its flags
        proc = subprocess.run([sys.executable, "-c", "import cowsim.cli as c; print(c._PARSER)"],
                              capture_output=True, text=True)
        assert proc.stdout == "[]\n"
        monkeypatch.setattr(cowsim.cli, "_PARSER", [])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["keyrate", "--set", "mu=0.7", "--seed", "5", "--out", str(first)]) == 0
        assert main(["keyrate", "--out", str(second)]) == 0
        assert "# mu = 0.7\n" in first.read_text() and "# seed = 5\n" in first.read_text()
        meta = [line for line in second.read_text().splitlines() if line.startswith("# ")]
        assert meta[2:] == RunConfig().metadata_lines()  # after the version and command
        assert main(["keyrate", "--seed"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "cowsim: error: argument --seed: expected one argument\n"
        assert len(cowsim.cli._PARSER) == 1

    def test_version_and_help_exit_0(self):
        assert run_cli("--version") == (0, "cowsim 0.1.0\n", "")
        code, out, err = run_cli("keyrate", "--help")
        assert code == 0 and out.startswith("usage: cowsim keyrate") and err == ""

    @pytest.mark.parametrize("args", [
        ("keyrate", "--set", "mu=12"),
        ("optimize", "--set", "mu_max=20", "--pns-model", "error-free"),
        ("curve", "--set", "mu_max=20", "--pns-model", "error-free"),
    ])
    def test_linearized_domain_is_one_error_line(self, args):
        # mu t t_B eta above 1 leaves the linearized model, for one mu and
        # for an optimizer's grid alike
        code, out, err = run_cli(*args)
        assert code == 1 and out == ""
        assert err.startswith("cowsim: error: mu = ") and err.count("\n") == 1
        assert "rate_mode" in err and "Traceback" not in err

    def test_tolerance_below_float_spacing_ends(self):
        # the golden-section bracket cannot shrink below one ulp of mu*
        proc = subprocess.run([sys.executable, "-m", "cowsim", "optimize",
                               "--set", "refine_tolerance=1e-300"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        header, rows = table(proc.stdout)
        assert len(rows) == 1 and float(dict(zip(header, rows[0]))["mu_star"]) > 0.0


# keys that size a run's arrays or loops, drawn small enough to stay cheap
_BAD = st.sampled_from(["", "nan", "inf", "-1", "0", "abc"])
_SIZING = {
    "n_symbols": st.integers(-2, 3000).map(str) | _BAD,
    "n_frames": st.integers(-2, 300).map(str) | _BAD,
    "grid_points": st.integers(90, 300).map(str) | _BAD,
    "gate_ns": st.floats(-1.0, 100.0).map(repr) | _BAD,
    "pulse_period_ns": st.floats(0.1, 10.0).map(repr) | _BAD,
}
_TEXT = st.one_of(
    st.sampled_from(["", "0", "1", "-1", "2", "0.5", "nan", "inf", "-inf", "1e-300",
                     "1e300", "true", "no", "0,10", "1,0.9", "cow,bb84", "net",
                     "intercept-resend", "pns-counting", "exact", "alt", "D0"]),
    st.integers().map(str), st.floats().map(repr), st.text(max_size=8))
_SETTING = st.sampled_from(sorted(DEFAULTS) + ["bogus"]).flatmap(
    lambda key: st.tuples(st.just(key), _SIZING.get(key, _TEXT)))


class TestAnySetting:
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["keyrate", "curve", "optimize", "simulate", "experiment"]),
           settings_=st.lists(_SETTING, max_size=3))
    def test_exits_0_1_or_2_without_traceback(self, command, settings_):
        argv = [command, "--set=n_symbols=2000", "--set=n_frames=200", "--set=grid_points=100"]
        argv += [f"--set={key}={value}" for key, value in settings_]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("cowsim: error: ")
            assert err.getvalue().count("\n") == 1
        else:
            # every echoed value is one its key's parser accepts
            for line in out.getvalue().splitlines():
                key, _, value = line[2:].partition(" = ")
                if line.startswith("# ") and key in DEFAULTS:
                    RunConfig.from_sources(None, [f"{key}={value}"])


class TestPackage:
    def test_public_names_are_the_modules_all(self):
        modules = [cowsim.rates, cowsim.optimize, cowsim.simulation,
                   cowsim.attacks, cowsim.protocol, cowsim.experiment]
        names = {n for n, v in vars(cowsim).items()
                 if not n.startswith("_") and not isinstance(v, types.ModuleType)}
        assert names == set().union(*(m.__all__ for m in modules))
        assert len(names) == 52

    def test_readme_python_blocks_run(self):
        # a name the package no longer exports cannot linger in the docs
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
        assert blocks
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for code in blocks:
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr

    def test_readme_commands_run(self, tmp_path, monkeypatch):
        # every cowsim line of README's sh blocks, \ continuations joined
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M)
        lines = "".join(blocks).replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.startswith("cowsim ")]
        assert commands
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv[1:])
            assert code in (0, 2) and err.getvalue() == "", (argv, err.getvalue())
            for flag in ("--out", "--dump-events"):
                if flag in argv:
                    assert (tmp_path / argv[argv.index(flag) + 1]).is_file(), argv


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("keyrate", "--set", "t_b=1.0"),
        ("curve", "--set", "loss_grid=0,10", "--set", "visibilities=1.0"),
        ("simulate", "--set", "n_symbols=20000", "--seed", "9"),
        ("experiment", "--set", "n_frames=20000", "--seed", "9"),
    ])
    def test_byte_identical_rerun(self, args, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _, _ = run_cli(*args, "--out", str(out1))
        code2, _, _ = run_cli(*args, "--out", str(out2))
        assert code1 == code2
        assert out1.read_bytes() == out2.read_bytes()
