"""The benchmark in perfbench/ can still build, check and trace its workloads.

perfbench/ imports package names and wraps package functions by name, so a
change that renames or removes one of them fails here, not only when the
benchmark runs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_workload_builds_checks_and_traces(name: str) -> None:
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
