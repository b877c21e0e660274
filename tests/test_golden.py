"""Golden outputs: SHA-256 of CLI output files for fixed configurations and
seeds. A moved hash means the RNG draw layout, the arithmetic or the output
bytes changed. The change that moves one must say which hashes moved and why,
and show that the statistical acceptance criteria still pass; CHANGES.md keeps
the history of each regeneration.

The cases whose purpose is not in their name:

- simulate_dump_events pins the event dump of a full intercept-resend attack.
  Its exit code depends on the seed, since that attack aborts on some seeds
  and not on others; seed 3 runs through.
- simulate_no_decoy_abort pins the bytes of an aborted run. Without decoys it
  aborts for want of decoy statistics, while its v_10 column reads the 1-0
  class that was measured: 16 D_M1 clicks and no D_M2 click, so v_10 = 1.
- simulate_bb84_intercept_resend pins the predicted signature of an attacked
  BB84 run (predicted_v = 0.8625). There the intercept-resend relation is the
  interferometric one, I = (1 - r) p_ir / 2 and 1 - V = I, where every other
  attacked case is time-basis COW with 1 - V = I xi. Seed 5 exits 0, although
  that argv aborts on most seeds.
- simulate_dim_resends pins the draws of an attack at mu t = 20, where Eve's
  pair resend rounds to sqrt(mu): its resent windows are drawn in the resent
  class although none is brighter than Alice's pulses. It aborts (exit 2).
- config_file_flags reads a configuration file together with the dedicated
  flags, which come after it in precedence.
- optimize and curve_exact pin the two analysis paths that no other case runs:
  the optimize command and the exact counting rate.

Run as a script, `python tests/test_golden.py` prints every case's current
exit code and digests, marking those that moved, so that a deliberate layout
change regenerates the table with one command."""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":  # as a script: cowsim from this checkout's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cowsim.cli import main  # noqa: E402

CONFIG_FILE = "n_symbols = 20000  # short run\np_d = 1e-4\nv = 0.95\n"

# name -> (argv, exit code, {output file: sha256})
GOLDEN = {
    "keyrate": (
        ["keyrate", "--set", "t_b=1.0"], 0,
        {"out.csv": "914ca5d9155eb967938bc5339bf58080f1cef23bbe21999e88041442ee7d21d2"}),
    "curve": (
        ["curve", "--set", "loss_grid=0,10,20", "--set", "visibilities=1.0,0.8"], 0,
        {"out.csv": "a5b879527084b6e1842f9d43ea2c3dadf1e72a4992083c5ac5cf216f6415b4d8"}),
    "simulate": (
        ["simulate", "--set", "n_symbols=50000", "--seed", "7"], 0,
        {"out.csv": "6b627804151437823735de6cb73074c7fbe53ec2079218f873e2a197b2532be5"}),
    "experiment": (
        ["experiment", "--set", "n_frames=50000", "--seed", "7"], 0,
        {"out.csv": "7500d909ca0a4a758403579475b1969c931d27b3a56ae1335b2dfefa87c260dd"}),
    "simulate_dump_events": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "3",
         "--set", "attack=intercept-resend", "--set", "p_ir=1.0",
         "--set", "t_b=0.5", "--set", "eta=0.25", "--set", "f=0.3",
         "--set", "p_d=1e-4", "--dump-events", "{tmp}/events.csv"], 0,
        {"out.csv": "1cb87dc9d5a4ba5355044fe91bce8709821f92e719a9d55b640389d50df199d6",
         "events.csv": "20b1875ad02399b37b833d4666968403a92310e3437f5a58f220868353c6a69c"}),
    "simulate_deadtime": (
        ["simulate", "--set", "n_symbols=40000", "--seed", "4",
         "--set", "mu=2.0", "--set", "eta=0.5", "--set", "p_d=1e-3",
         "--set", "deadtime_ns=5"], 0,
        {"out.csv": "72527463fa8308c58815e2adf46c50900b23df1ff9b9c4a660b277e1f5ed224f"}),
    "experiment_no_deadtime": (
        ["experiment", "--set", "n_frames=30000", "--seed", "8",
         "--set", "deadtime_ns=0"], 0,
        {"out.csv": "29f9b3c57b84d68c6802e9d01b23d1477c065048a8f9276335fa549fbc9c44ca"}),
    "config_file_flags": (
        ["simulate", "--config", "{tmp}/run.cfg", "--seed", "11",
         "--protocol", "bb84-decoy", "--pns-model", "alt"], 0,
        {"out.csv": "fee15b8a47b0f112be2f267fef3e7f341029fcdce94eeb0e2f07a8260bcf1f11"}),
    "simulate_no_decoy_abort": (
        ["simulate", "--set", "f=0", "--set", "n_symbols=20000", "--seed", "5"], 2,
        {"out.csv": "b7efff3e07e80baf87c20fe1c8228641a3152aeef9b534332606a851997605ee"}),
    "simulate_bb84_intercept_resend": (
        ["simulate", "--set", "n_symbols=20000", "--seed", "5", "--protocol", "bb84",
         "--pns-model", "alt", "--set", "attack=intercept-resend", "--set", "p_ir=0.5",
         "--set", "loss_db=10"], 0,
        {"out.csv": "172c28f6c14c66d0f1712d9f5ddff0c6781c4defc702fed340fb20a64681e789"}),
    "simulate_dim_resends": (
        ["simulate", "--set", "n_symbols=4000", "--set", "mu=20",
         "--set", "attack=intercept-resend", "--set", "p_ir=1", "--set", "eta=0.02",
         "--set", "t_b=0.5", "--set", "p_d=1e-2", "--seed", "3"], 2,
        {"out.csv": "d1143f9f5d427e047d95f299964f52cbd9f082a71f138a11637379307d4e3f6e"}),
    "optimize": (
        ["optimize", "--set", "loss_db=10"], 0,
        {"out.csv": "fc568f873fad233cb85941455c272b8764cea275ccbe4bbbe39fbc9241c8a198"}),
    "curve_exact": (
        ["curve", "--set", "rate_mode=exact", "--set", "loss_grid=0,10,20",
         "--set", "visibilities=1.0,0.8"], 0,
        {"out.csv": "0dd6b22b6157f4ae2a43897f8ac1e3090189a2a5bc53f06faa0f0f2aa5a34e63"}),
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


if __name__ == "__main__":
    for name, (_, expected_code, expected) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            code, digests = run_case(name, Path(tmp))
        print(f"{name}: exit {code}" + ("" if code == expected_code else " (moved)"))
        for f, digest in digests.items():
            print(f"    {f}: {digest}" + ("" if digest == expected[f] else " (moved)"))
