"""Refinement-until-agreement local index, kept as a test oracle.

The library counts once, on the open star of v in the complex as given.
This module keeps the rule that came before it: subdivide around v level
after level, count in the closed star of the image of v at each level, and
accept a count once two consecutive levels agree.
"""

from __future__ import annotations

from schedule_oracle import PerturbationSchedule, stabilized_count

from eulercc import ConstructibleFunction, simplex
from eulercc.complexes import (
    EmbeddedComplex,
    Simplex,
    closed_star,
    closed_star_of_simplex,
    induced_complex,
)
from eulercc.constructible import transport
from eulercc.errors import BoundaryCollisionError, InputError, NonConvergenceError
from eulercc.functions import squared_distance_from
from eulercc.subdivision import barycentric_subdivide


def _restrict_function(
    alpha: ConstructibleFunction, small: EmbeddedComplex, vmap: dict[int, int]
) -> ConstructibleFunction:
    inv = {new: old for old, new in vmap.items()}
    values: dict[Simplex, int] = {}
    for s in small.simplices:
        val = alpha.value(frozenset(inv[i] for i in s))
        if val:
            values[s] = val
    return ConstructibleFunction(small, values)


def _image_vertex(step, vid: int) -> int:
    for s in step.complex.simplices:
        if len(s) == 1 and step.ancestry[s] == frozenset({vid}):
            return next(iter(s))
    raise InputError(f"vertex {vid} has no image in the subdivision")


def refined_local_count(
    alpha: ConstructibleFunction, v: int, seed: int = 0, max_levels: int = 5
) -> int:
    """The count two consecutive refinement levels agree on."""
    cx = alpha.complex
    star1 = closed_star(cx, [simplex([v])])
    cx_cur, vmap = induced_complex(cx, closed_star(cx, star1))
    alpha_cur = _restrict_function(alpha, cx_cur, vmap)
    v_cur = vmap[v]

    levels: list[dict] = []
    prev: int | None = None
    for level in range(1, max_levels + 1):
        step = barycentric_subdivide(cx_cur, 1)
        cx_new = step.complex
        alpha_new = transport(alpha_cur, step)
        v_new = _image_vertex(step, v_cur)
        tube = closed_star_of_simplex(cx_new, [v_new])
        center = cx_new.vertices[v_new]
        value = None
        failure = "none"
        for attempt in range(6):
            schedule = PerturbationSchedule.from_seed(
                seed + level - 1 + 9973 * attempt, cx.ambient_dim, center=center
            )
            try:
                value, _ = stabilized_count(
                    alpha_new, squared_distance_from(center), schedule, tube
                )
            except (BoundaryCollisionError, NonConvergenceError) as exc:
                failure = type(exc).__name__
                continue
            break
        if value is None:
            levels.append({"level": level, "status": failure, "value": None})
            prev = None
        else:
            levels.append({"level": level, "status": "stable", "value": value})
            if prev is not None and prev == value:
                return value
            prev = value
        inner1 = closed_star(cx_new, [simplex([v_new])])
        cx_cur, vmap2 = induced_complex(cx_new, closed_star(cx_new, inner1))
        alpha_cur = _restrict_function(alpha_new, cx_cur, vmap2)
        v_cur = vmap2[v_new]
    raise NonConvergenceError(
        "refinement levels never produced two consecutive equal counts",
        trace=tuple(levels),
    )
