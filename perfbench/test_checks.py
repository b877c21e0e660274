"""The checks must reject wrong outputs: each workload's real output passes,
and a corrupted copy of it fails.

    python3 -m pytest perfbench/test_checks.py
"""

import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real operation per workload: (exit code, CSV text, event dump)."""
    import cowsim.cli as cli
    tmp = tmp_path_factory.mktemp("out")
    result = {}
    for name, w in WORKLOADS.items():
        out, dump = tmp / f"{name}.csv", tmp / f"{name}.events.csv"
        code = cli.main(w.argv(run.op_seed(name, 1, 1), str(out), str(dump)))
        result[name] = (code, out.read_text(),
                        dump.read_text() if w.dump_events else None)
    return result


def scale_field(text, field, factor):
    """Multiply one named column of a one-row summary CSV."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(field)
    row = lines[header + 1].split(",")
    row[col] = repr(float(row[col]) * factor)
    lines[header + 1] = ",".join(row)
    return "\n".join(lines) + "\n"


def scale_meta(text, key, factor):
    return re.sub(rf"^# {key} = (\S+)$",
                  lambda m: f"# {key} = {float(m.group(1)) * factor!r}",
                  text, flags=re.M)


def swap(text, a, b):
    return text.replace(a, "\0").replace(b, a).replace("\0", b)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_real_output_passes(outputs, name):
    assert WORKLOADS[name].verify(*outputs[name]) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrong_exit_code_fails(outputs, name):
    code, text, dump = outputs[name]
    assert WORKLOADS[name].verify(2 if code == 0 else 0, text, dump)


@pytest.mark.parametrize("name, field, factor", [
    ("mc_clean", "empirical_r", 1.05),
    ("mc_clean", "monitoring_rate", 1.5),
    ("mc_clean", "sifted_rate", 0.95),
    ("mc_clean", "qber", 20.0),
    ("mc_clean", "secret_fraction", 0.9),
    ("mc_clean", "v_d", 0.8),
    ("mc_attack", "v_d", 1.3),
])
def test_perturbed_summary_fails(outputs, name, field, factor):
    code, text, dump = outputs[name]
    assert WORKLOADS[name].verify(code, scale_field(text, field, factor), dump)


@pytest.mark.parametrize("key, factor", [
    ("rate_hz_D_B", 1.25), ("rate_hz_D_M1", 0.75), ("raw_rate_hz", 1.01)])
def test_perturbed_experiment_rate_fails(outputs, key, factor):
    code, text, _ = outputs["experiment_preset"]
    assert WORKLOADS["experiment_preset"].verify(code, scale_meta(text, key, factor), None)


@pytest.mark.parametrize("a, b", [(",D_B,", ",D_M1,"), (",D_M1,", ",D_M2,"),
                                  ("rate_hz_D_M1", "rate_hz_D_M2")])
def test_swapped_detectors_fail(outputs, a, b):
    code, text, _ = outputs["experiment_preset"]
    assert WORKLOADS["experiment_preset"].verify(code, swap(text, a, b), None)


def test_swapped_visibility_classes_fail(outputs):
    code, text, dump = outputs["mc_attack"]
    lines = text.splitlines()
    header = lines.index(next(x for x in lines if x.startswith("n_symbols,")))
    cols = lines[header].split(",")
    i, j = cols.index("v_10"), cols.index("v_d")
    row = lines[header + 1].split(",")
    row[i], row[j] = row[j], row[i]
    lines[header + 1] = ",".join(row)
    assert WORKLOADS["mc_attack"].verify(code, "\n".join(lines) + "\n", dump)


def test_event_dump_disagreeing_with_summary_fails(outputs):
    code, text, dump = outputs["mc_attack"]
    lines = dump.splitlines()
    first_db = next(i for i, x in enumerate(lines) if x.startswith("D_B,"))
    dropped = "\n".join(lines[:first_db] + lines[first_db + 1:]) + "\n"
    doubled = "\n".join(lines[:first_db + 1] + lines[first_db:]) + "\n"
    other_run = dump.replace("# seed = ", "# seed = 1", 1)
    for bad in (dropped, doubled, other_run, None):
        assert WORKLOADS["mc_attack"].verify(code, text, bad)


@pytest.mark.parametrize("row, col, factor", [
    (3, 4, 1.001),  # r_sk of one point
    (3, 3, 0.5),    # mu_star moved off the optimum
    (40, 4, 1e-3),  # a much smaller r_sk breaks monotonicity
])
def test_perturbed_curve_fails(outputs, row, col, factor):
    code, text, _ = outputs["analysis_curve"]
    lines = text.splitlines()
    first = lines.index("protocol,V,loss_db,mu_star,r_sk") + 1
    cells = lines[first + row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[first + row] = ",".join(cells)
    assert WORKLOADS["analysis_curve"].verify(code, "\n".join(lines) + "\n", None)


def test_swapped_curve_protocols_fail(outputs):
    code, text, _ = outputs["analysis_curve"]
    assert WORKLOADS["analysis_curve"].verify(code, swap(text, "\ncow,", "\nbb84,"), None)


class _Flaky:
    """Stands in for cowsim.cli: the second run of a seed writes other bytes."""

    def __init__(self):
        self.calls = 0

    def main(self, argv):
        self.calls += 1
        Path(argv[argv.index("--out") + 1]).write_text(f"run {self.calls}\n")
        return 0


def test_rerun_that_differs_fails(tmp_path, monkeypatch):
    w = WORKLOADS["analysis_curve"]
    monkeypatch.setattr(type(w), "verify", lambda self, code, text, dump: [])
    runner = run.Runner(_Flaky(), w, 1, tmp_path, run.SpeedProbe("scalar"))
    runner.round(1, timed=True)
    assert (runner.attempted, runner.failed) == (2, 1)
