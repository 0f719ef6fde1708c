"""Per-layer spans installed from outside the package.

The package modules import each other's names with ``from .x import y``, so a
wrapper is bound under every name, in every loaded ``eulercc`` module, that
refers to the original object; methods are wrapped on their class.  Spans are
not kept one per call (leaf functions run 10^5-10^6 times per run): each
finished span is folded into a (target, parent layer) record of call count
and self time, where self time is the span's duration minus the time covered
by its child spans, tracked with an explicit stack.
"""

from __future__ import annotations

import sys
from importlib import import_module
from time import perf_counter

# (layer, module, attribute); "Class.method" names wrap the method on its class
TARGETS = (
    ("intersect", "eulercc.intersect", "verify_theorem1"),
    ("intersect", "eulercc.intersect", "global_index"),
    ("intersect", "eulercc.intersect", "local_index"),
    ("intersect", "eulercc.intersect", "boundary_estimate_check"),
    ("charcycle", "eulercc.charcycle", "CharacteristicCycle.multiplicity"),
    ("charcycle", "eulercc.charcycle", "multiplicity_at"),
    ("charcycle", "eulercc.charcycle", "strict_sign_vector"),
    ("charcycle", "eulercc.charcycle", "CharacteristicCycle.closure_supports"),
    ("charcycle", "eulercc.charcycle", "enumerate_chambers"),
    ("constructible", "eulercc.constructible", "halflink_integral"),
    ("constructible", "eulercc.constructible", "transport"),
    ("morse", "eulercc.morse", "critical_points"),
    ("morse", "eulercc.morse", "stabilized_count"),
    ("morse", "eulercc.morse", "stratified_morse_sum"),
    ("linalg", "eulercc.linalg", "strict_feasibility"),
    ("linalg", "eulercc.linalg", "solve_affine"),
    ("linalg", "eulercc.linalg", "inertia"),
    ("subdivision", "eulercc.subdivision", "barycentric_subdivide"),
    ("subdivision", "eulercc.subdivision", "subdivide_along_hyperplane"),
    ("complexes", "eulercc.complexes", "induced_complex"),
)

# counters read off the hypothesis logs of the returned reports
REPORT_COUNTS = ("seeds_rejected", "etas_used", "levels_used", "witnesses_checked")


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Installs the wrappers, aggregates spans, and restores the originals."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [layer, time covered by child spans]
        self.records: dict[tuple[str, str], list] = {}  # (span, parent layer) -> [calls, self_s]
        self.simplices_out = 0
        self.report_counts: dict[str, int] = dict.fromkeys(REPORT_COUNTS, 0)
        self.absent: list[str] = []
        self.installed: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for layer, modname, attr in TARGETS:
            name = _span_name(layer, attr)
            module = import_module(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            on_return = self._count_simplices if layer == "subdivision" else None
            wrapper = self._wrap(name, layer, original, on_return)
            if owner_name:
                self._rebind(owner, leaf, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    if mod is None or not mod.__name__.startswith("eulercc"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
            self.installed.append(name)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _count_simplices(self, result) -> None:
        self.simplices_out += len(result.complex.simplices)

    def _wrap(self, name: str, layer: str, fn, on_return):
        stack = self.stack
        records = self.records

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "bench"
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = records.get((name, parent))
                if rec is None:
                    rec = records[(name, parent)] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[1]
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report-derived counts -------------------------------------------

    def observe_report(self, report) -> None:
        for entry in report.hypothesis_log:
            for key in REPORT_COUNTS:
                if key in entry:
                    self.report_counts[key] += int(entry[key])

    # -- results ---------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), summed over parent layers."""
        out: dict[str, tuple[int, float]] = {name: (0, 0.0) for name in self.installed}
        for (name, _), (calls, self_s) in self.records.items():
            c, s = out[name]
            out[name] = (c + calls, s + self_s)
        return out

    def never_fired(self) -> list[str]:
        return [name for name, (calls, _) in self.totals().items() if calls == 0]

    def breakdown(self) -> list[str]:
        """One line per (span, parent layer), heaviest self time first."""
        rows = sorted(self.records.items(), key=lambda item: -item[1][1])
        return [
            f"{name:<42} under {parent:<13} calls {calls:>9} self {self_s:10.4f} s"
            for (name, parent), (calls, self_s) in rows
        ]
