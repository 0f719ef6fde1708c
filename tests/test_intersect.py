"""Intersection-number verifiers: locus, main identity, index formulas, bounds."""

from __future__ import annotations

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulercc import (
    AffineFunction,
    DegeneracyError,
    HypothesisViolationError,
    InputError,
    NonConvergenceError,
    TheoremReport,
    TransversalityError,
    Vec,
    barycentric_subdivide,
    boundary_estimate_check,
    compute_intersection_locus,
    from_values,
    global_index,
    intersect,
    local_index,
    random_fixture,
    rat,
    simplex,
    transport,
    verify_theorem1,
)
from eulercc.constructible import is_conormal
from eulercc.fixtures import vertex_pair_lines
from eulercc.io import dumps, jsonable


def test_report_consistency_guards() -> None:
    with pytest.raises(InputError):
        TheoremReport("x", 1, 1, False, ({"check": "c"},), {})
    with pytest.raises(InputError):
        TheoremReport("x", 1, 2, True, ({"check": "c"},), {})
    with pytest.raises(InputError):
        TheoremReport("x", 1, 1, True, (), {})


def test_locus_frozen_on_interval(by_name) -> None:
    fx = by_name["interval"]
    entries, support = compute_intersection_locus(
        fx.functions["one"], fx.morse_inputs["x"]
    )
    assert [
        (tuple(sorted(e.simplex)), tuple(sorted(e.sign_vector)), e.multiplicity, e.on_level)
        for e in entries
    ] == [((0,), ((1, 1),), 1, True)]
    assert support == frozenset({simplex([0])})


def test_locus_off_level_entries_are_kept(by_name) -> None:
    fx = by_name["circle"]
    entries, support = compute_intersection_locus(
        fx.functions["one"], fx.morse_inputs["y_minus_1"]
    )
    assert len(entries) == 2
    assert all(not e.on_level for e in entries)
    assert support == frozenset()


def test_locus_enumerates_chambers_only_where_the_star_pairs_to_zero(by_name) -> None:
    fx = by_name["triangle"]
    alpha = transport(fx.functions["random0"], barycentric_subdivide(fx.complex, 1))
    cx = alpha.complex
    f = vertex_pair_lines(cx, 0, 1)[0]
    entries, _ = compute_intersection_locus(alpha, f)
    assert entries
    partial = 0
    for s in cx.simplices_sorted():
        S = cx.stratum(s)
        star = cx.star_geometry(S)
        pairings = star.pairings(f.linear)
        if star.vertex_ids and not any(pairings):
            continue
        partial += is_conormal(cx, S, f.linear) and 0 in pairings
        assert star.chambers is None, sorted(s)
    assert partial > 0


def test_identity_on_cheap_cases(by_name) -> None:
    for name in ("interval", "elbow", "cone3"):
        fx = by_name[name]
        for case in fx.theorem_cases:
            report = verify_theorem1(
                fx.functions[case.alpha], fx.morse_inputs[case.function]
            )
            assert report.holds, (name, case)
            assert report.lhs == report.rhs == case.expected, (name, case)


def test_identity_log_records_every_hypothesis(by_name) -> None:
    fx = by_name["interval"]
    report = verify_theorem1(fx.functions["one"], fx.morse_inputs["x"])
    checks = [h.get("check") for h in report.hypothesis_log]
    assert checks == ["locus", "zero-level-support", "vanishing-cycle-support", "eta-limit"]
    assert sorted(report.artifacts) == ["K", "locus", "rejected", "seed_used"]
    assert report.artifacts["K"] == ((0,),)


def test_identity_seed_log_matches_the_index_verifiers(by_name) -> None:
    fx = by_name["interval"]
    report = verify_theorem1(fx.functions["one"], fx.morse_inputs["x"], seed=3)
    (limit,) = [e for e in report.hypothesis_log if e["check"] == "eta-limit"]
    assert limit["seed_used"] == 3 and limit["seeds_rejected"] == 0
    assert limit["etas_used"] == 1
    assert report.artifacts["seed_used"] == 3
    assert report.artifacts["rejected"] == ()


def test_identity_holds_where_a_coarse_eta_schedule_misreads(by_name) -> None:
    """At eta = 1/4, 1/16 and 1/64 the perturbed count reads -6; it is -2
    from eta = 1/256 on, and the exact limit gives -2."""
    fx = random_fixture(4)
    f = AffineFunction(Vec.of("1/2", "1/3"), "-4/3")
    report = verify_theorem1(fx.functions["random0"], f)
    assert report.holds and report.lhs == report.rhs == -2


@pytest.mark.parametrize(
    "seed, fname, linear, constant, value",
    [
        (14, "random0", ("-1/2", "1/2"), 1, 4),
        (15, "dual_one", (-1, 1), 0, -2),
        (15, "random0", (-1, 1), 0, -7),
        (18, "dual_one", ("-2/3", "-1/3"), "4/3", -2),
        (21, "one", (-1, 1), 0, -1),
    ],
)
def test_identity_holds_where_f_is_flat_on_an_edge_of_k(
    seed, fname, linear, constant, value
) -> None:
    """K holds an edge on which f vanishes.  A slice of the closed-star tube
    of K read the lhs as 7, -1, -10, -1 and 0 here."""
    fx = random_fixture(seed)
    report = verify_theorem1(fx.functions[fname], AffineFunction(Vec.of(*linear), constant))
    assert report.holds and report.lhs == report.rhs == value


def test_vanishing_cycle_support_check_names_the_stratum(by_name, monkeypatch) -> None:
    """phi is 1 on the edge {f = 0} of the triangle; a locus that leaves the
    edge out of K makes the check raise with the edge as witness."""
    fx = by_name["triangle"]
    locus = intersect.compute_intersection_locus

    def drop_edge(alpha, f, cc=None):
        entries, K = locus(alpha, f, cc)
        return entries, K - {simplex([0, 1])}

    monkeypatch.setattr(intersect, "compute_intersection_locus", drop_edge)
    with pytest.raises(HypothesisViolationError) as exc:
        verify_theorem1(fx.functions["one"], fx.morse_inputs["y"])
    assert exc.value.witness == {"stratum": (0, 1), "phi": 1}


_random_fixture = functools.lru_cache(maxsize=None)(random_fixture)


@settings(max_examples=30, derandomize=True)
@given(
    seed=st.integers(0, 39),
    fname=st.sampled_from(["one", "dual_one", "random0"]),
    draw=st.integers(0, 5),
)
def test_identity_holds_or_raises_on_lines_through_vertex_pairs(seed, fname, draw) -> None:
    fx = _random_fixture(seed)
    f = vertex_pair_lines(fx.complex, seed, draw + 1)[draw]
    try:
        report = verify_theorem1(fx.functions[fname], f)
    except (HypothesisViolationError, NonConvergenceError):
        return
    assert report.holds, (seed, fname, draw, report.lhs, report.rhs)


@pytest.mark.parametrize(
    "run",
    [
        lambda fx: verify_theorem1(fx.functions["one"], fx.morse_inputs["x"]),
        lambda fx: global_index(fx.functions["one"]),
        lambda fx: local_index(fx.functions["one"], 0),
    ],
    ids=["theorem1", "global-index", "local-index"],
)
def test_index_verifiers_exhaust_seeds_with_typed_error(
    by_name, monkeypatch, run
) -> None:
    """All three verifiers count through one kernel with one seed policy."""

    def degenerate(*args, **kwargs):
        raise DegeneracyError("limit gradient pairs to zero with a star vertex")

    monkeypatch.setattr("eulercc.intersect.stabilized_count", degenerate)
    with pytest.raises(NonConvergenceError) as exc:
        run(by_name["interval"])
    trace = exc.value.trace
    assert [rec["seed"] for rec in trace] == list(range(8))
    assert all(
        rec["reason"] == "limit gradient pairs to zero with a star vertex" for rec in trace
    )


def test_identity_trivial_when_locus_is_empty(by_name) -> None:
    fx = by_name["interval"]
    zero = from_values(fx.complex, {})
    report = verify_theorem1(zero, fx.morse_inputs["x"])
    assert report.holds and report.lhs == report.rhs == 0
    assert [h.get("check") for h in report.hypothesis_log] == [
        "locus",
        "empty-intersection",
    ]


def test_identity_rejects_off_level_locus(by_name) -> None:
    fx = by_name["circle"]
    with pytest.raises(HypothesisViolationError):
        verify_theorem1(fx.functions["one"], fx.morse_inputs["y_minus_1"])


def test_negative_cases_from_fixtures(by_name) -> None:
    for name in ("interval", "circle"):
        fx = by_name[name]
        for case in fx.negative_cases:
            with pytest.raises(HypothesisViolationError):
                verify_theorem1(
                    fx.functions[case.alpha], fx.morse_inputs[case.function]
                )


def test_global_index_deterministic_per_seed(by_name) -> None:
    fx = by_name["interval"]
    a = global_index(fx.functions["one"], seed=5)
    b = global_index(fx.functions["one"], seed=5)
    assert dumps(jsonable(a)) == dumps(jsonable(b))
    assert a.holds and a.lhs == 1
    assert sorted(a.artifacts) == ["center", "direction", "rejected", "seed_used"]


def test_global_index_on_dualized_input(by_name) -> None:
    fx = by_name["circle"]
    report = global_index(fx.functions["dual_one"], seed=1)
    assert report.holds
    assert report.lhs == 0


def test_local_index_frozen_on_interval_endpoint(by_name) -> None:
    fx = by_name["interval"]
    report = local_index(fx.functions["one"], 0, seed=0)
    assert report.holds and report.lhs == report.rhs == 1
    (count,) = [e for e in report.hypothesis_log if e["check"] == "star-count"]
    assert count == {"check": "star-count", "status": "ok", "seed_used": 0, "seeds_rejected": 0}
    assert report.artifacts["rejected"] == ()


def test_local_index_at_branch_point(by_name) -> None:
    fx = by_name["ygraph"]
    report = local_index(fx.functions["one"], 0, seed=0)
    assert report.holds
    # a cone over three points is contractible, so the local index is 1
    assert report.lhs == 1


def test_local_index_rejects_non_vertex(by_name) -> None:
    with pytest.raises(InputError):
        local_index(by_name["interval"].functions["one"], 99)


def test_boundary_estimate_frozen_on_elbow(by_name) -> None:
    fx = by_name["elbow"]
    g = fx.morse_inputs[fx.cut_function]
    for side in ("shriek", "star"):
        report = boundary_estimate_check(fx.functions["one"], g, rat("1/2"), side)
        assert report.holds, side
        assert report.artifacts["side"] == side
        assert report.artifacts["violations"] == ()


def test_boundary_estimate_rejects_unknown_side(by_name) -> None:
    fx = by_name["elbow"]
    with pytest.raises(InputError):
        boundary_estimate_check(
            fx.functions["one"], fx.morse_inputs[fx.cut_function], rat("1/2"), "below"
        )


def test_boundary_estimate_requires_transversal_level(by_name) -> None:
    fx = by_name["book"]
    g = fx.morse_inputs[fx.cut_function]
    with pytest.raises(TransversalityError) as exc:
        boundary_estimate_check(fx.functions["one"], g, rat(1), "shriek")
    assert exc.value.witness == {"vertices": [2, 3, 4], "delta": Fraction(1)}
