"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The three sweep criteria share a session fixture so their reports also feed
the size-formula, witness, definition-equivalence and transversal criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from itertools import product

import pytest

from resemi.gflinear import (
    GFMatrix,
    Subspace,
    all_subspaces,
    canonical_transversal_subspace,
    null_space,
)
from resemi.linear_semigroup import LInstance
from resemi.semigroups import FiniteSemigroup, generate, semigroup_oracle
from resemi.sweep import SweepPlan, run_sweep
from resemi.transform_semigroup import TInstance
from resemi.transformations import (
    IndexSubset,
    Transformation,
    canonical_transversal,
    fibers,
    image_kernel,
    restricted_image,
)

T_MODES = ("regular", "inverse", "unit_regular")
L_MODES = ("regular", "inverse", "unit_regular", "completely_regular")

CRITERION1_PLANS = (
    SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(1, 2),
              source=("exhaustive",), modes=T_MODES),
    SweepPlan(family="transformation", ns=(3,), subset_sizes=(3,),
              source=("seeded", 200, "criterion1"), modes=T_MODES),
)

# The empty Y, which the plans above never reach (their |Y| starts at 1),
# and with it the inverse theorem's own clause for it, at |X| = 1, 2, 3.
EMPTY_Y_PLAN = SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(0,),
                         source=("exhaustive",), modes=T_MODES)

CRITERION2_PLANS = (
    SweepPlan(family="transformation", ns=(4,), subset_sizes=(1, 2, 3),
              source=("seeded", 50, "criterion2"), modes=T_MODES, element_cap=0),
)

CRITERION3_PLANS = (
    SweepPlan(family="linear", pns=((2, 1), (2, 2), (3, 1)), subset_sizes=None,
              source=("exhaustive",), modes=L_MODES),
    SweepPlan(family="linear", pns=((3, 2),), subset_sizes=(0, 1),
              source=("exhaustive",), modes=L_MODES),
    SweepPlan(family="linear", pns=((3, 2),), subset_sizes=(2,),
              source=("seeded", 50, "criterion3"), modes=L_MODES),
    SweepPlan(family="linear", pns=((2, 3),), subset_sizes=None,
              source=("seeded", 50, "criterion3"), modes=L_MODES),
)


@pytest.fixture(scope="session")
def sweep_reports():
    return {
        1: [run_sweep(plan) for plan in CRITERION1_PLANS],
        2: [run_sweep(plan) for plan in CRITERION2_PLANS],
        3: [run_sweep(plan) for plan in CRITERION3_PLANS],
    }


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def _problems(report):
    return (
        report.mismatches
        + report.implication_violations
        + report.size_formula_violations
        + report.transversal_failures
        + report.definition_failures
        + report.alpha_family_failures
    )


def test_criterion_1_transformation_differential_sweep(sweep_reports):
    reports = sweep_reports[1]
    bad = [p for r in reports for p in _problems(r)]
    instances = sum(r.instances_run for r in reports)
    wall = sum(r.wall_time_s for r in reports)
    for r in reports:
        assert r.semigroup_agreements == r.semigroup_checks
        assert r.element_agreements == r.element_checks
        assert r.element_checks["regular"] > 0
    assert wall < 300, f"runtime {wall:.1f}s exceeds the 5-minute budget"
    _verdict(1, not bad,
             f"{instances} instances, wall {wall:.1f}s, mismatches {len(bad)}: {bad[:3]}")


def test_criterion_1_empty_y_sweep():
    r = run_sweep(EMPTY_Y_PLAN)
    bad = _problems(r)
    assert r.instances_run == 3 and r.semigroup_checks["inverse"] == 3
    assert r.semigroup_agreements == r.semigroup_checks
    assert r.element_agreements == r.element_checks
    _verdict(1, not bad,
             f"empty Y, {r.instances_run} instances, mismatches {len(bad)}: {bad[:3]}")


def test_criterion_2_n4_spot_sweep(sweep_reports):
    reports = sweep_reports[2]
    bad = [p for r in reports for p in _problems(r)]
    instances = sum(r.instances_run for r in reports)
    wall = sum(r.wall_time_s for r in reports)
    for r in reports:
        assert all(v == 0 for v in r.element_checks.values())  # semigroup-level only
        assert r.semigroup_agreements == r.semigroup_checks
    assert wall < 300, f"runtime {wall:.1f}s exceeds the 5-minute budget"
    _verdict(2, not bad,
             f"{instances} instances, wall {wall:.1f}s, mismatches {len(bad)}: {bad[:3]}")


def test_criterion_3_linear_differential_sweep(sweep_reports):
    reports = sweep_reports[3]
    bad = [p for r in reports for p in _problems(r)]
    instances = sum(r.instances_run for r in reports)
    wall = sum(r.wall_time_s for r in reports)
    for r in reports:
        assert r.semigroup_agreements == r.semigroup_checks
        assert r.element_agreements == r.element_checks
    assert wall < 600, f"runtime {wall:.1f}s exceeds the 10-minute budget"
    _verdict(3, not bad,
             f"{instances} instances, wall {wall:.1f}s, mismatches {len(bad)}: {bad[:3]}")


def test_criterion_4_lv_corollaries():
    failures = []
    for p in (2, 3):
        for n, expected in ((1, True), (2, False)):
            inst = LInstance(Subspace.zero(p, n),
                             FiniteSemigroup([GFMatrix(p, (), cols=0)]))
            build = inst.build()
            for mode in ("inverse", "completely_regular"):
                thm = inst.thm_semigroup(mode).holds
                orc = semigroup_oracle(build, mode).holds
                if not (thm == orc == expected):
                    failures.append((p, n, mode, thm, orc))
    _verdict(4, not failures,
             "L(V) is inverse and completely regular exactly in dimension <= 1, "
             f"by predicate and oracle; failures: {failures}")


def test_criterion_5_size_formulas(sweep_reports):
    violations = [
        v for reports in sweep_reports.values() for r in reports
        for v in r.size_formula_violations
    ]
    sym2 = generate([Transformation([1, 0])])
    named_t = TInstance(IndexSubset(3, [0, 1]), sym2).build()
    named_l = LInstance(Subspace(2, 2, [[1, 0]]),
                        FiniteSemigroup([GFMatrix.identity(2, 1)])).build()
    ok = not violations and len(named_t) == 6 and len(named_l) == 4
    _verdict(5, ok,
             f"|T| = |S(Y)|*n^(n-|Y|) and |L| = |S(W)|*p^(n(n-k)) on all instances; "
             f"named builds {len(named_t)} and {len(named_l)}; violations: {violations[:3]}")


def test_criterion_6_witness_validity(sweep_reports):
    # the sweep checks every success witness in the build's Cayley table
    # (semigroups.witness_problem) and counts only those that pass; a witness
    # that fails surfaces as a mismatch entry with a "problem", and a raising
    # predicate as an "error" entry
    total = sum(r.witnesses_checked for k in (1, 3) for r in sweep_reports[k])
    errors = [
        m for k in (1, 2, 3) for r in sweep_reports[k] for m in r.mismatches
        if m.get("mode") == "error" or "problem" in m
    ]
    _verdict(6, total > 0 and not errors,
             f"{total} constructed witnesses verified (in the build, fwf = f, units); "
             f"errors: {errors[:3]}")


def test_criterion_7_definition_equivalence(sweep_reports):
    runs = sum(r.definition_checks_run for k in (1, 2, 3) for r in sweep_reports[k])
    failures = [
        f for k in (1, 2, 3) for r in sweep_reports[k] for f in r.definition_failures
    ]
    _verdict(7, runs > 0 and not failures,
             f"inverse and completely-regular dual definitions agree on {runs} "
             f"distinct semigroups of size <= 200; failures: {failures[:3]}")


def _all_transformations(n):
    return [Transformation(t) for t in product(range(n), repeat=n)]


def _compatible_counts(f, y):
    ry = restricted_image(f, y)
    image, _, classes = image_kernel(f)
    choice_sets = []
    for v, cls in zip(image.members, classes):
        choice_sets.append([x for x in cls if x in y] if v in ry else list(cls))
    x_set, y_set = set(range(f.n)), set(y.members)
    values = set()
    for picks in product(*choice_sets):
        t_set = set(picks)
        values.add(len((x_set - t_set) - (y_set - (t_set & y_set))))
    return values


def test_criterion_8_transversal_lemmas(sweep_reports):
    runs = sum(r.transversal_checks_run for k in (1, 2, 3) for r in sweep_reports[k])
    failures = [
        f for k in (1, 2, 3) for r in sweep_reports[k] for f in r.transversal_failures
    ]
    assert runs > 0 and not failures, failures[:3]

    # choice independence, transformations, exhaustive for n <= 3
    for n in (1, 2, 3):
        for mask in range(1, 1 << n):
            y = IndexSubset(n, [i for i in range(n) if mask >> i & 1])
            for f in _all_transformations(n):
                if not all(f.map[x] in y for x in y.members):
                    continue
                pair = canonical_transversal(f, y, fibers(f))
                canonical = len(
                    (set(range(n)) - set(pair.t.members))
                    - (set(y.members) - set(pair.t_on_y.members))
                )
                assert _compatible_counts(f, y) == {canonical}, (f, y)

    # choice independence, linear, exhaustive for p = 2 and n <= 2
    checked = 0
    for n in (1, 2):
        spaces = list(all_subspaces(2, n))
        mats = [
            GFMatrix(2, [flat[i * n:(i + 1) * n] for i in range(n)], cols=n)
            for flat in product(range(2), repeat=n * n)
        ]
        for f in mats:
            ns = null_space(f)
            for w in spaces:
                if not all(w.contains(f.apply(b)) for b in w.basis):
                    continue
                ns_w = ns.intersect(w)
                canonical = w.sum(canonical_transversal_subspace(f, w).u).codim
                seen = set()
                for u in spaces:
                    if u.dim != f.rank or u.intersect(ns).dim != 0:
                        continue
                    meet = u.intersect(w)
                    if meet.dim + ns_w.dim != w.dim or meet.intersect(ns_w).dim != 0:
                        continue
                    seen.add(w.sum(u).codim)
                assert seen == {canonical}, (f, w)
                checked += 1
    _verdict(8, True,
             f"{runs} canonical transversal pairs verified in sweeps; choice "
             f"independence exhaustive (n <= 3 maps, {checked} GF(2) map/subspace cells)")


def test_criterion_9_determinism(sweep_reports):
    for criterion, plans in ((1, CRITERION1_PLANS), (3, CRITERION3_PLANS)):
        for plan, original in zip(plans, sweep_reports[criterion]):
            repeat = run_sweep(plan)
            assert repeat.to_json(include_timing=False) == original.to_json(
                include_timing=False
            ), f"criterion {criterion} rerun differs for plan {plan}"
    _verdict(9, True,
             "criterion 1 and 3 sweeps repeated: byte-identical JSON reports "
             "(timing field excluded)")
