"""The benchmark's timing spans name cowsim's public stages.

perfbench/spans.py reports a stage it cannot find as absent and drops its
per-layer metric, so a renamed stage would go unnoticed there; this test
fails instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_wrapped_stage_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, function, _ in spans.WRAPPED:
        mod = importlib.import_module(f"cowsim.{module}")
        assert callable(getattr(mod, function, None)), f"cowsim.{module}.{function}"
