"""Golden outputs: SHA-256 of CLI output files for fixed configurations and
seeds. A change to any hash means the RNG draw layout or the arithmetic
changed; such a change must say so and show the statistical acceptance
criteria still pass.

The six Monte Carlo cases were regenerated when detection changed from one
uniform per slot to the sparse draw (geometric gaps to candidate slots, one
uniform per candidate); keyrate and curve draw nothing and kept their hashes.
The exit code of simulate_dump_events depends on the seed: its full
intercept-resend attack aborts on about 4 seeds in 10 (22 of 60 with the
per-slot draw, 24 of 60 with the sparse one), and seed 3 now runs through.

simulate_dump_events was regenerated once more when attacked streams began
drawing candidates per window class: slots touching a window Eve resent
brighter than Alice's pulses at the bound of that brightness, all others at
the bound of Alice's pulses. Clean streams draw as before, so every other case
kept its hash. simulate_no_decoy_abort pins the bytes of an aborted run.

simulate_bb84_intercept_resend pins the predicted signature of an attacked
BB84 run (predicted_v = 0.8625): there the intercept-resend relation is the
interferometric one, I = (1 - r) p_ir / 2 and 1 - V = I, where every other
attacked case is time-basis COW with 1 - V = I xi.

Both attacked cases, simulate_dump_events and simulate_bb84_intercept_resend,
were regenerated when the attack stopped drawing a phase and two detection
uniforms for every window: after the dense attack mask it now draws Eve's
detections as one Bernoulli(1 - exp(-mu t)) process over the pulses of the
attacked windows, and one phase per resent window. The distribution of the
attacked stream is unchanged (a two-sample test in test_attacks.py compares
it with the dense draw); the exit codes stay 0 and 2. Clean streams draw
nothing from the attack stage, so every other case kept its hash."""

import hashlib

import pytest

from cowsim.cli import main

CONFIG_FILE = "n_symbols = 20000  # short run\np_d = 1e-4\nv = 0.95\n"

# name -> (argv, exit code, {output file: sha256})
GOLDEN = {
    "keyrate": (
        ["keyrate", "--set", "t_b=1.0"], 0,
        {"out.csv": "343e533af6861167a7e7231a3bd950a8a36430b278f963201ff7f5a345836a8c"}),
    "curve": (
        ["curve", "--set", "loss_grid=0,10,20", "--set", "visibilities=1.0,0.8"], 0,
        {"out.csv": "5ee1bd5ffd63489d491f15da349d106a0db050240da2197407732a9f6a1959f2"}),
    "simulate": (
        ["simulate", "--set", "n_symbols=50000", "--seed", "7"], 0,
        {"out.csv": "a844615264e9efac220b1b33fd3e6ae056ebb1b6fe75b5f078a406aa5c6a61af"}),
    "experiment": (
        ["experiment", "--set", "n_frames=50000", "--seed", "7"], 0,
        {"out.csv": "e13c9538fe9a4e3a9cedd3cf0ec7653d9acc11d27a2f3f039280ffbdfcfb5d36"}),
    "simulate_dump_events": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "3",
         "--set", "attack=intercept-resend", "--set", "p_ir=1.0",
         "--set", "t_b=0.5", "--set", "eta=0.25", "--set", "f=0.3",
         "--set", "p_d=1e-4", "--dump-events", "{tmp}/events.csv"], 0,
        {"out.csv": "475f562de8b1314ad83a43dc3c0f66c93d09dc730e8b05836083173afee6cb1e",
         "events.csv": "5e89c5e3b7be629e6e82e612d90a6023ee7a081a90f0c7779ec930eb16f6bdcb"}),
    "simulate_deadtime": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "4",
         "--set", "mu=2.0", "--set", "eta=0.5", "--set", "p_d=1e-3",
         "--set", "deadtime_ns=5"], 0,
        {"out.csv": "d3e3eaf72c29bdf18b784dc90a75317de7cdc3fcddb451c56e76b82d442e9ac8"}),
    "experiment_no_deadtime": (
        ["experiment", "--set", "n_frames=30000", "--seed", "8",
         "--set", "deadtime_ns=0"], 0,
        {"out.csv": "6bd5ac98ddddd6741363bc6ef1d9eb0af3001fee26d5bc48631c7cc575f4f3fe"}),
    "config_file_flags": (
        ["simulate", "--config", "{tmp}/run.cfg", "--seed", "11",
         "--protocol", "bb84-decoy", "--pns-model", "alt"], 0,
        {"out.csv": "48f81bcc301381125c45dd4929bb7e7e420b433b95148d56139218aa2dd00941"}),
    "simulate_no_decoy_abort": (
        ["simulate", "--set", "f=0", "--set", "n_symbols=20000", "--seed", "5"], 2,
        {"out.csv": "6a74f1dbcabd846b630dd8688411db33218469f60e3c17d6d1c268ad3a170a4c"}),
    "simulate_bb84_intercept_resend": (
        ["simulate", "--set", "n_symbols=20000", "--seed", "5", "--protocol", "bb84",
         "--pns-model", "alt", "--set", "attack=intercept-resend", "--set", "p_ir=0.5",
         "--set", "loss_db=10"], 2,
        {"out.csv": "eda37bf8923ea635eab0d32bdf88ed93bb13998b25e2861aae2c7d20540b4aae"}),
}


def run_case(name, tmp_path):
    argv, _, _ = GOLDEN[name]
    (tmp_path / "run.cfg").write_text(CONFIG_FILE)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out.csv")])
    return code, {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                  for f in GOLDEN[name][2]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, tmp_path):
    _, expected_code, expected = GOLDEN[name]
    code, digests = run_case(name, tmp_path)
    assert code == expected_code
    assert digests == expected
