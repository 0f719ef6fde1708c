"""The benchmark in perfbench/ can still build, check and trace its workloads.

perfbench/ imports package names and wraps package functions by name, so a
change that renames or removes one of them fails here, not only when the
benchmark runs.  A traced run must end its stdout with one strict JSON
object that carries every per-layer metric BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_builds_checks_and_traces(name: str, capsys) -> None:
    verdicts = workloads.BUILDERS[name](1)
    assert len(verdicts) >= 100
    first = verdicts[0]
    assert first.check(first.call()), first.label
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()

    assert run.main(["--workload", name, "--seed", "1", "--trace", "1"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    assert missing == []
    for key, m in metrics.items():
        value = m["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), key
        assert value >= 0, key
    assert metrics["charcycle.memo_hit_ratio"]["value"] <= 1
