"""Golden outputs: SHA-256 of CLI output files for fixed configurations and
seeds. A change to any hash means the RNG draw layout or the arithmetic
changed; such a change must say so and show the statistical acceptance
criteria still pass."""

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
        {"out.csv": "8c6e5bf053d0ae0a762133d499d1bfab88e159015b72f55e6a7d84acaefd3e6e"}),
    "experiment": (
        ["experiment", "--set", "n_frames=50000", "--seed", "7"], 0,
        {"out.csv": "ffe8087b1ffc1e39c95477c8b035bf46d83e8d8b5eb14ccd7ebe692c9070cb26"}),
    "simulate_dump_events": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "3",
         "--set", "attack=intercept-resend", "--set", "p_ir=1.0",
         "--set", "t_b=0.5", "--set", "eta=0.25", "--set", "f=0.3",
         "--set", "p_d=1e-4", "--dump-events", "{tmp}/events.csv"], 2,
        {"out.csv": "4554968c99880ce3d9feb701549edefee15e6c1d2f39a6086493a362da349941",
         "events.csv":"59c07ca9b007010031aaf1e7e6c5cb911de6b21f329e321bbc06f3125ba9f779"}),
    "simulate_deadtime": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "4",
         "--set", "mu=2.0", "--set", "eta=0.5", "--set", "p_d=1e-3",
         "--set", "deadtime_ns=5"], 0,
        {"out.csv": "61fdef60bb90527765357eafda8ec156efc108c7ef5683fec49047a7ef3ef68e"}),
    "experiment_no_deadtime": (
        ["experiment", "--set", "n_frames=30000", "--seed", "8",
         "--set", "deadtime_ns=0"], 0,
        {"out.csv": "e74d97fe5c6913bf64bbe0d289150c2f9b28d4fa5feb479c7d759961a72d39d1"}),
    "config_file_flags": (
        ["simulate", "--config", "{tmp}/run.cfg", "--seed", "11",
         "--protocol", "bb84-decoy", "--pns-model", "alt"], 0,
        {"out.csv": "e5a89c623605a29324028035269ded3a2c1c5e1ba8e78501c7fa0b3f123717c8"}),
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
