"""The exact eta -> 0+ Morse count against the decreasing eta schedule.

Every call the verifiers make to stabilized_count is also run through
tests/schedule_oracle.py (window 3, unguarded) on the same (alpha, base,
center, direction, region); both must give the same value, or both must
reject.
"""

from __future__ import annotations

import pytest
import schedule_oracle

from eulercc import (
    AffineFunction,
    BoundaryCollisionError,
    DegeneracyError,
    NonConvergenceError,
    Vec,
    close_under_faces,
    intersect,
    local_index,
    random_fixture,
    simplex,
    squared_distance_from,
    verify_theorem1,
)

REJECTED = "rejected"
CALLS = 164  # 66 theorem-1 counts, 98 local counts; no seed is rejected


@pytest.fixture
def paired(monkeypatch) -> list[tuple]:
    """Wrap the verifiers' stabilized_count; each call appends (exact, oracle)."""
    exact_count = intersect.stabilized_count
    pairs: list[tuple] = []

    def both(alpha, base_f, center, direction, region=None, cc=None):
        schedule = schedule_oracle.PerturbationSchedule.from_seed(
            0, alpha.complex.ambient_dim, center=center, direction=direction
        )
        try:
            oracle, _ = schedule_oracle.stabilized_count(
                alpha, base_f, schedule, region, guard=False
            )
        except NonConvergenceError:
            oracle = REJECTED
        try:
            exact = exact_count(alpha, base_f, center, direction, region, cc)
        except DegeneracyError:
            pairs.append((REJECTED, oracle))
            raise
        pairs.append((exact, oracle))
        return exact

    monkeypatch.setattr(intersect, "stabilized_count", both)
    return pairs


def test_limit_count_matches_schedule_on_curated_cases(builtins, paired) -> None:
    """The 22 curated theorem-1 cases at seeds 0-2, and local_index at every
    vertex and function of the plane fixtures."""
    for fx in builtins:
        for case in fx.theorem_cases:
            for seed in range(3):
                verify_theorem1(
                    fx.functions[case.alpha], fx.morse_inputs[case.function], seed
                )
        if fx.complex.ambient_dim <= 2:
            for alpha in fx.functions.values():
                for v in range(len(fx.complex.vertices)):
                    local_index(alpha, v)
    assert len(paired) == CALLS
    assert [p for p in paired if p[0] != p[1]] == []


def test_schedule_misreads_the_random_4_case(paired) -> None:
    """The schedule accepts -6 from eta = 1/4, 1/16, 1/64; the limit is -2."""
    fx = random_fixture(4)
    f = AffineFunction(Vec.of("1/2", "1/3"), "-4/3")
    report = verify_theorem1(fx.functions["random0"], f)
    assert report.rhs == -2
    assert paired == [(-2, -6)]


def test_tube_boundary_frozen(by_name) -> None:
    cx = by_name["triangle"].complex
    tube = frozenset(close_under_faces([simplex([0, 1])]))
    assert sorted(tuple(sorted(s)) for s in schedule_oracle.tube_boundary(cx, tube)) == [
        (0,),
        (0, 1),
        (1,),
    ]
    # the whole complex has no boundary in this sense
    assert schedule_oracle.tube_boundary(cx, cx.simplices) == frozenset()


def test_boundary_collision_is_reported(by_name) -> None:
    """A nonzero-multiplicity critical point pinned to the tube boundary is
    a collision at every eta of the schedule, so the guarded count refuses it."""
    tr = by_name["triangle"]
    tube = frozenset(close_under_faces([simplex([0, 1])]))
    schedule = schedule_oracle.PerturbationSchedule.from_seed(0, 2)
    with pytest.raises(BoundaryCollisionError):
        schedule_oracle.stabilized_count(
            tr.functions["open_cell"], squared_distance_from(Vec.of(1, -1)), schedule, tube
        )
