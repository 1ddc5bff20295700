"""Tests for the sweep harness: subsemigroup enumeration, differential
runs, report determinism and serialization."""

import json
import re
import time
import weakref
from itertools import product

import pytest

from resemi import linear_semigroup as lsg
from resemi import sweep
from resemi import transform_semigroup as tsg
from resemi.cli import main
from resemi.family import element_at, family_class
from resemi.gflinear import GFMatrix, Subspace, all_vectors
from resemi.linear_semigroup import LInstance
from resemi.semigroups import (
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    closure_elements,
    semigroup_oracle,
)
from resemi.sweep import (
    SCHEMA1_PLAN_KEYS,
    SweepPlan,
    SweepReport,
    enumerate_subsemigroups,
    run_sweep,
)
from resemi.transform_semigroup import TInstance
from resemi.transformations import IndexSubset, Transformation


def mask_scan(table):
    """The reference enumeration: every nonempty subset of the table's
    indices, in increasing index mask, kept when the table closes it."""
    m = len(table)
    out = []
    for mask in range(1, 1 << m):
        idxs = [i for i in range(m) if mask >> i & 1]
        if all(mask >> table[a][b] & 1 for a in idxs for b in idxs):
            out.append(idxs)
    return out


class TestEnumerateSubsemigroups:
    def test_singleton_base(self):
        subs = enumerate_subsemigroups("transformation", 1, ("exhaustive",))
        assert len(subs) == 1 and len(subs[0]) == 1

    def test_t2_exhaustive(self):
        subs = enumerate_subsemigroups("transformation", 2, ("exhaustive",))
        keys = [frozenset(e.to_text() for e in s.elements) for s in subs]
        assert len(keys) == len(set(keys))
        for expected in (
            {"0,1"},
            {"0,1", "1,0"},
            {"0,0"},
            {"0,0", "1,1"},
            {"0,0", "0,1", "1,0", "1,1"},
        ):
            assert frozenset(expected) in keys

    def test_linear_dim1_gf2(self):
        subs = enumerate_subsemigroups("linear", 1, ("exhaustive",), p=2)
        keys = {frozenset(e.to_text() for e in s.elements) for s in subs}
        assert keys == {frozenset({"0"}), frozenset({"1"}), frozenset({"0", "1"})}

    def test_intractable_request_refused(self):
        # T(4) (256 elements) and L(GF(3)^2) (81) are past the 27-element base
        start = time.perf_counter()
        with pytest.raises(ValueError, match="intractable exhaustive request"):
            enumerate_subsemigroups("transformation", 4, ("exhaustive",))
        with pytest.raises(ValueError, match="intractable exhaustive request"):
            enumerate_subsemigroups("linear", 2, ("exhaustive",), p=3)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("plan", [
        SweepPlan("transformation", ns=(4,)),
        SweepPlan("linear", pns=((2, 3),)),
        SweepPlan("transformation", ns=(2, 5), subset_sizes=(1, 5)),
        SweepPlan("transformation", ns=(10 ** 6,), subset_sizes=(10 ** 6,)),
    ], ids=["T(4)", "L(GF(2)^3)", "T(5)-after-tractable-cells", "T(10^6)"])
    def test_intractable_plan_refused_before_any_instance(self, monkeypatch, plan):
        # every intractable base the plan selects is refused before the
        # first instance runs, not once the tractable cells have run, and
        # without forming |T(10^6)| = (10^6)^(10^6)
        ran = []
        monkeypatch.setattr(sweep, "_run_instance", lambda *args: ran.append(args))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="intractable exhaustive request"):
            run_sweep(plan)
        assert time.perf_counter() - start < 1 and not ran

    @pytest.mark.parametrize("plan, message, bound", [
        (SweepPlan("transformation", ns=(4,)), "intractable exhaustive request",
         "more than 27 elements, the exhaustive base bound"),
        (SweepPlan("linear", pns=((3, 2),)), "intractable exhaustive request",
         "more than 27 elements, the exhaustive base bound"),
        (SweepPlan("linear", pns=((2, 200),), subset_sizes=(200,), source=("seeded", 1, "0")),
         "intractable seeded request over GF(2)^200",
         "more than 10000000 row steps per closure, the seeded closure budget"),
        # the GF(2)^3 cells, and GF(2)^24's up to dim W = 14, would run first
        # if the cells past the budget were refused only when reached
        (SweepPlan("linear", pns=((2, 3), (2, 24)), source=("seeded", 5, "0")),
         "intractable seeded request over GF(2)^15",
         "more than 10000000 row steps per closure, the seeded closure budget"),
        # each closure is within its budget, but not the cell's 200 draws:
        # ``resemi sweep --kind l --pn 2,14 --sizes 14 --source seeded
        # --element-cap 0``
        (SweepPlan("linear", pns=((2, 14),), subset_sizes=(14,), source=("seeded", 200, "0"),
                   modes=LInstance.SEMIGROUP_MODES, element_cap=0),
         "intractable seeded request over GF(2)^14 with 200 draws",
         "more than 100000000 row steps per cell, the seeded cell budget"),
        # C(30, 15) regions, 2^30 - 1 lines and [12 6]_2 planes, with one
        # draw each: ``resemi sweep --kind t --ns 30 --sizes 15 --source
        # seeded --samples 1 --element-cap 0`` and its linear twins
        *[(SweepPlan(family, **cells, source=("seeded", 1, "0"), element_cap=0),
           "intractable sweep request", "more than 100000 instances, the sweep instance bound")
          for family, cells in (("transformation", dict(ns=(30,), subset_sizes=(15,))),
                                ("linear", dict(pns=((2, 30),), subset_sizes=(1,))),
                                ("linear", dict(pns=((2, 12),), subset_sizes=(6,))),
                                # one past the bound
                                ("transformation", dict(ns=(100_001,), subset_sizes=(1,))))],
        # one closure of maps on 30,000 or 100,000 points may act on
        # TABLE_CAP elements before the table refuses it, for tens of
        # seconds or more
        *[(SweepPlan("transformation", ns=(k,), subset_sizes=(k,), source=("seeded", 1, "0"),
                     element_cap=0),
           f"intractable seeded request over T({k})",
           "more than 10000000 point steps per closure, the seeded closure budget")
          for k in (30_000, 100_000)],
    ], ids=["T(4)", "L(GF(3)^2)", "seeded-GF(2)^200", "seeded-GF(2)^15-after-GF(2)^3",
            "seeded-GF(2)^14-200-draws", "T(30)-|Y|=15", "GF(2)^30-lines", "GF(2)^12-dim-6",
            "100001-points", "seeded-T(30000)", "seeded-T(100000)"])
    def test_refused_past_a_bound_before_any_draw(self, capsys, monkeypatch, tmp_path, plan,
                                                  message, bound):
        # each bound is checked up front from the plan alone: no closure,
        # no seeded draw and no instance is made, and the CLI exits 3 with
        # the message and the bound it passes
        made = []
        for name in ("closure_elements", "element_at", "_run_instance"):
            monkeypatch.setattr(sweep, name, lambda *args, name=name: made.append(name))
        start = time.perf_counter()
        with pytest.raises(SizeCapExceeded, match=re.escape(message)) as refusal:
            run_sweep(plan)
        assert refusal.value.bound == bound
        assert time.perf_counter() - start < 1 and not made
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        code = main(["sweep", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}: {bound}\n")
        assert not made

    @pytest.mark.parametrize("plan", [
        *[SweepPlan("linear", pns=((p, k),), subset_sizes=(k,), source=("seeded", 3, "0"))
          for p, k in ((2, 3), (3, 3), (101, 4), (2, 12), (2, 14))],
        *[SweepPlan("transformation", ns=(k,), subset_sizes=(k,), source=("seeded", draws, "0"))
          for k, draws in ((200, 3), (3, 200), (6, 40))],
    ], ids=["GF(2)^3", "GF(3)^3", "GF(101)^4", "GF(2)^12", "GF(2)^14", "T(200)", "c1b-T(3)",
            "T(6)-40-draws"])
    def test_closure_budget_admits(self, monkeypatch, plan):
        # c3d, CI's GF(3)^3 and GF(2)^12 plans, the small S(W) in GF(101)^4
        # and GF(2)^14, the largest GF(2)^k the budget admits, and c1b's
        # T(3) and the T(6) console plan pass the up-front check
        monkeypatch.setattr(sweep, "enumerate_subsemigroups", lambda *args, **kwargs: ())
        assert run_sweep(plan).instances_run == 0

    @pytest.mark.parametrize("plan", [
        # T(3)'s 1,298 subsemigroups on each 3-point Y of a 5-point X
        SweepPlan("transformation", ns=(5,), subset_sizes=(3,), element_cap=0),
        # c3d: the 16 subspaces of GF(2)^3, 50 draws each
        SweepPlan("linear", pns=((2, 3),), source=("seeded", 50, "criterion3")),
        # 100,000 one-point regions, one draw each: at the bound
        SweepPlan("transformation", ns=(100_000,), subset_sizes=(1,), source=("seeded", 1, "0")),
    ], ids=["12980-T(3)-regions-of-T(5)", "800-c3d", "100000-at-the-bound"])
    def test_instance_bound_admits(self, monkeypatch, plan):
        monkeypatch.setattr(sweep, "_instances", lambda plan: ())
        assert run_sweep(plan).instances_run == 0

    @pytest.mark.parametrize("p", [None, 2, 3])
    def test_region_count(self, p):
        # exact below the bound: the regions the family lists
        family = family_class("transformation" if p is None else "linear")
        for n in range(6 if p else 9):
            for k in range(n + 1):
                assert family.region_count(n, k, p, 10 ** 6) == len(list(family.cells(n, k, p)))
        # and past it at once, without the whole count
        start = time.perf_counter()
        for n, k, p in (((10 ** 9, 5 * 10 ** 8, None),) if p is None else
                        ((12, 6, 2), (3_000_000, 1, 101), (40, 20, 10000000000000061))):
            assert family.region_count(n, k, p, 1000) > 1000
        assert time.perf_counter() - start < 1

    def test_composite_p_refused_before_any_instance(self, capsys, monkeypatch):
        # the GF(2)^3 cells would run first if only GF(4) itself were refused
        ran = []
        monkeypatch.setattr(sweep, "_run_instance", lambda *args: ran.append(args))
        start = time.perf_counter()
        code = main(["sweep", "--kind", "l", "--pn", "2,3;4,1", "--source", "seeded",
                     "--samples", "50"])
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert (code, captured.out, not ran) == (2, "", True)
        assert captured.err.startswith("error: plan field 'pns' must be ")
        assert captured.err.count("\n") == 1

    def test_t3_exhaustive(self):
        # 1,299 with the empty set, the count reported for T_3
        subs = enumerate_subsemigroups("transformation", 3, ("exhaustive",))
        assert len(subs) == 1298 and len({s.key() for s in subs}) == 1298

    @pytest.mark.parametrize("kind,size,p", [
        ("transformation", 1, None), ("transformation", 2, None),
        ("linear", 1, 2), ("linear", 2, 2), ("linear", 1, 3),
    ], ids=["T(1)", "T(2)", "L(GF(2)^1)", "L(GF(2)^2)", "L(GF(3)^1)"])
    def test_walk_equals_mask_scan(self, kind, size, p):
        base = family_class(kind).whole(size, p).build()
        subs = enumerate_subsemigroups(kind, size, ("exhaustive",), p)
        scan = mask_scan(base.table)
        assert [s.elements for s in subs] == [tuple(base.elements[i] for i in idxs) for idxs in scan]
        assert [s.table for s in subs] == [
            [[idxs.index(base.table[a][b]) for b in idxs] for a in idxs] for idxs in scan]

    def test_seeded_deterministic_and_closed(self):
        a = enumerate_subsemigroups("transformation", 3, ("seeded", 25, "s1"))
        b = enumerate_subsemigroups("transformation", 3, ("seeded", 25, "s1"))
        c = enumerate_subsemigroups("transformation", 3, ("seeded", 25, "s2"))
        assert [frozenset(s) for s in a] == [frozenset(s) for s in b]
        assert [frozenset(s) for s in a] != [frozenset(s) for s in c]
        keys = [frozenset(s) for s in a]
        assert len(keys) == len(set(keys))  # deduplicated


class TestRunSweep:
    def test_empty_plan(self):
        rep = run_sweep(SweepPlan(family="transformation", ns=()))
        assert rep.instances_run == 0 and rep.clean

    def test_small_transformation_sweep_is_clean(self):
        plan = SweepPlan(
            family="transformation", ns=(1, 2), subset_sizes=(1, 2),
            source=("exhaustive",), modes=("regular", "inverse", "unit_regular"),
        )
        rep = run_sweep(plan)
        assert rep.clean and rep.instances_run > 0
        assert rep.semigroup_agreements == rep.semigroup_checks
        assert rep.element_agreements == rep.element_checks
        assert rep.witnesses_checked > 0

    def test_small_linear_sweep_is_clean(self):
        plan = SweepPlan(
            family="linear", pns=((2, 1), (3, 1)), source=("exhaustive",),
            modes=("regular", "inverse", "unit_regular", "completely_regular"),
        )
        rep = run_sweep(plan)
        assert rep.clean and rep.instances_run > 0
        assert rep.definition_checks_run > 0

    def test_build_past_the_table_recorded_as_skipped(self):
        plan = SweepPlan(
            family="transformation", ns=(6,), subset_sizes=(1,),
            source=("exhaustive",), modes=("regular",),
        )
        rep = run_sweep(plan)
        assert rep.instances_run == 0  # a refused build is not a run
        # every build has 6^5 = 7,776 elements, past the Cayley table
        assert [s["reason"] for s in rep.skipped] == ["size cap exceeded"] * 6
        assert rep.clean

    def test_size_formula_violation_reported(self, monkeypatch):
        # an extend that leaves every point outside Y fixed gives a build
        # that is closed but too small; every theorem-vs-oracle check then
        # agrees with it, so only the size check can catch it
        honest = tsg.TInstance.extend
        monkeypatch.setattr(tsg.TInstance, "extend",
                            lambda inst, alpha, images: honest(inst, alpha, inst._outside))
        rep = run_sweep(SweepPlan(family="transformation", ns=(2,), subset_sizes=(1,)))
        assert rep.instances_run == 2 and not rep.mismatches
        assert rep.size_formula_violations == [
            {"instance": {"kind": "transformation", "n": 2, "Y": [y], "sY": ["0"]},
             "expected": 2, "actual": 1} for y in (0, 1)]

    def test_a_wrong_stored_answer_shows_in_the_definition_checks(self):
        # the second definitions read only the table, so a kept answer that
        # is wrong disagrees with them
        t2 = FiniteSemigroup([Transformation(t) for t in product(range(2), repeat=2)])
        sym2 = FiniteSemigroup([Transformation((0, 1)), Transformation((1, 0))])
        for s in (t2, sym2):
            assert sweep._definition_failures(s) == []  # every answer asked and kept
        assert semigroup_oracle(sym2, "inverse").holds is True
        assert sym2.partner(1, "regular") >= 0 and t2.partner(0, "completely_regular") >= 0
        sym2._partners["regular"][1] = -1  # inverse reads regular's partners
        t2._partners["completely_regular"][0] = -1
        assert sweep._definition_failures(sym2) == ["inverse definitions disagree (False vs True)"]
        assert sweep._definition_failures(t2) == [
            "completely-regular definitions disagree on 0,0 (False vs True)"]

    def test_element_cap_zero_disables_element_level(self):
        plan = SweepPlan(
            family="transformation", ns=(2,), subset_sizes=(1, 2),
            source=("exhaustive",), modes=("regular",), element_cap=0,
        )
        rep = run_sweep(plan)
        assert rep.element_checks.get("regular", 0) == 0
        assert rep.semigroup_checks["regular"] > 0

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="not available"):
            SweepPlan(family="transformation", ns=(2,), modes=("completely_regular",))
        with pytest.raises(ValueError, match="unknown family"):
            SweepPlan(family="affine")

    @pytest.mark.parametrize("field, value", [
        ("ns", (2, "3")), ("pns", ((2, 1, 1),)), ("subset_sizes", (1.5,)),
        ("element_cap", None),
        ("source", ("seeded", "5", "s")),
        # negative sizes and counts: such a plan would run nothing and read clean
        ("ns", (-1,)), ("subset_sizes", (-2,)), ("pns", ((2, -1),)),
        ("source", ("seeded", -1, "s")),
        ("element_cap", -1),
        # a repeated mode would count every semigroup check twice, and a
        # repeated size, dimension or cell would run its cells twice
        ("modes", ("regular", "regular")),
        ("ns", (2, 2)), ("subset_sizes", (1, 1)), ("pns", ((2, 1), (2, 1))),
        # a JSON boolean is not a seed
        ("source", ("seeded", 3, True)),
        # a composite p, after a cell that would run
        ("pns", ((2, 3), (4, 1))),
    ])
    def test_field_types(self, field, value):
        # ``ns`` on its own family, so that only the value is at fault
        family = "transformation" if field == "ns" else "linear"
        with pytest.raises(ValueError, match="must be|unknown source"):
            SweepPlan(family=family, **{field: value})

    @pytest.mark.parametrize("family, field, value", [
        ("transformation", "pns", ((2, 1),)), ("linear", "ns", (3,)),
    ])
    def test_other_family_size_field_refused(self, family, field, value):
        sizes = {"transformation": {"ns": (2,)}, "linear": {"pns": ((2, 1),)}}[family]
        with pytest.raises(ValueError, match=f"plan field '{field}' must be empty"):
            SweepPlan(family=family, **sizes, **{field: value})
        # an empty one is read, as every report's plan block carries both keys
        plan = SweepPlan(family=family, **sizes)
        assert SweepPlan.from_dict(plan.to_dict()) == plan
        assert set(plan.to_dict()) >= {"ns", "pns"}

    def test_explicit_empty_y(self):
        # |Y| = 0 is taken when asked for; the build is then all of T(n)
        plan = SweepPlan(family="transformation", ns=(1, 2, 3, 4), subset_sizes=(0,),
                         modes=("regular", "inverse", "unit_regular"))
        rep = run_sweep(plan)
        assert rep.clean and rep.instances_run == 4
        assert rep.element_checks == {"regular": 288, "unit_regular": 288}  # 1 + 4 + 27 + 256
        assert rep.semigroup_agreements == rep.semigroup_checks
        # without subset_sizes, |Y| runs over 1..n as before
        default = run_sweep(SweepPlan(family="transformation", ns=(2,)))
        assert default.instances_run == run_sweep(
            SweepPlan(family="transformation", ns=(2,), subset_sizes=(1, 2))).instances_run

    def test_positive_sizes_out_of_range_are_skipped(self):
        plan = SweepPlan(family="transformation", ns=(1, 2), subset_sizes=(2, 5),
                         source=("exhaustive",))
        rep = run_sweep(plan)  # |Y| = 2 exists for n = 2 only; 5 for neither
        assert rep.clean and rep.instances_run == len(
            enumerate_subsemigroups("transformation", 2, ("exhaustive",)))

    @pytest.mark.parametrize("family, outsider, plan", [
        (tsg.TInstance, lambda inst: Transformation(tuple(range(inst.n + 1))),
         SweepPlan(family="transformation", ns=(2, 3), subset_sizes=(1, 2),
                   source=("exhaustive",), modes=("regular", "unit_regular"))),
        (lsg.LInstance, lambda inst: GFMatrix.identity(inst.p, inst.n + 1),
         SweepPlan(family="linear", pns=((2, 2),), source=("exhaustive",),
                   modes=("regular", "unit_regular"))),
    ], ids=["transformation", "linear"])
    def test_wrong_witness_is_a_mismatch_and_not_counted(self, monkeypatch, family,
                                                         outsider, plan):
        honest = run_sweep(plan)
        assert honest.clean and honest.witnesses_checked > 0
        predicate = family.thm_element

        def wrong(inst, f, mode):
            v = predicate(inst, f, mode)
            if v.witness is None:
                return v
            return PropertyVerdict(v.prop, v.holds, witness=outsider(inst), clause=v.clause)

        monkeypatch.setattr(family, "thm_element", wrong)
        rep = run_sweep(plan)
        assert rep.witnesses_checked == 0 and not rep.clean
        assert len(rep.mismatches) == honest.witnesses_checked
        assert {m["problem"] for m in rep.mismatches} == {"witness not in the semigroup"}
        assert all(m["element"] and m["mode"] in plan.modes for m in rep.mismatches)
        assert rep.element_agreements == honest.element_agreements


class TestDeterminismAndSerialization:
    def test_identical_plans_identical_reports(self):
        plan = SweepPlan(
            family="transformation", ns=(3,), subset_sizes=(3,),
            source=("seeded", 20, "det"), modes=("regular", "inverse", "unit_regular"),
        )
        first = run_sweep(plan).to_json(include_timing=False)
        second = run_sweep(plan).to_json(include_timing=False)
        assert first == second

    def test_timing_field_is_separate(self):
        plan = SweepPlan(family="transformation", ns=(2,), source=("exhaustive",))
        rep = run_sweep(plan)
        assert "wall_time_s" in rep.to_dict()
        assert "wall_time_s" not in rep.to_dict(include_timing=False)

    def test_plan_round_trip(self):
        plan = SweepPlan(
            family="linear", pns=((2, 2),), subset_sizes=(0, 1),
            source=("seeded", 5, "x"), modes=("regular",), element_cap=64,
        )
        assert SweepPlan.from_dict(plan.to_dict()) == plan

    def test_plan_states_the_checks_every_sweep_runs(self, capsys, tmp_path):
        plan = SweepPlan(family="linear", pns=((2, 2),), subset_sizes=(1,))
        checks = [k for k in SCHEMA1_PLAN_KEYS if k.endswith("_checks")]
        assert {k: plan.to_dict()[k] for k in checks} == {
            "definition_checks": True, "transversal_checks": True, "alpha_family_checks": True}
        # a plan file that sets one of them false still runs that check
        for name in checks:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**plan.to_dict(), name: False}))
            assert main(["sweep", "--input", str(path), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report[f"{name}_run"] > 0 and report["plan"] == plan.to_dict()

    def test_plan_from_dict_defaults_and_unknown_keys(self):
        # missing keys take their defaults; a key the plan does not know is
        # refused, not ignored
        plan = SweepPlan.from_dict({"family": "linear", "pns": [[2, 1]]})
        assert plan == SweepPlan(family="linear", pns=((2, 1),))
        with pytest.raises(ValueError, match="^unknown plan key 'unknown' "):
            SweepPlan.from_dict({"family": "linear", "pns": [[2, 1]], "unknown": 1})

    @pytest.mark.parametrize("key, value", [("modez", ["inverse"]), ("element_capp", 0)])
    def test_plan_from_dict_misspelled_field_refused(self, key, value):
        # each would otherwise leave its field's default in force
        with pytest.raises(ValueError, match=f"^unknown plan key '{key}' "):
            SweepPlan.from_dict({"family": "transformation", "ns": [2], key: value})

    def test_report_round_trip(self):
        plan = SweepPlan(family="transformation", ns=(2,), source=("exhaustive",))
        rep = run_sweep(plan)
        back = SweepReport.from_dict(rep.to_dict())
        assert back.to_json() == rep.to_json()


class TestBaseMonoidDecoder:
    """The seeded draws decode numbers into elements of the build over an
    empty region (``whole``); the references are the whole base monoids
    the sweep used to build, in ``itertools.product`` order."""

    @pytest.mark.parametrize("kind, size, p", [
        ("transformation", 1, None), ("transformation", 2, None), ("transformation", 3, None),
        ("linear", 2, 2), ("linear", 2, 3), ("linear", 3, 2),
    ])
    def test_decoder_follows_product_order(self, kind, size, p):
        if kind == "transformation":
            expected = [Transformation(t) for t in product(range(size), repeat=size)]
        else:
            expected = [GFMatrix(p, [flat[i * size:(i + 1) * size] for i in range(size)], cols=size)
                        for flat in product(range(p), repeat=size * size)]
        whole = family_class(kind).whole(size, p)
        decoded = [element_at(whole, i) for i in range(whole.expected_size())]
        assert decoded == expected
        assert [d.to_text() for d in decoded] == [e.to_text() for e in expected]
        assert list(whole.build().elements) == expected

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 1), (2, 0)])
    def test_point_follows_all_vectors(self, p, n):
        inst = LInstance.whole(n, p)
        assert [inst.point(d) for d in range(inst.point_count)] == all_vectors(p, n)

    def test_last_element_of_a_large_space(self):
        # L(GF(101)^4) has 101^16 elements over 104 M vectors; its last
        # element is worked out from its number alone
        whole = LInstance.whole(4, 101)
        assert element_at(whole, whole.expected_size() - 1) == GFMatrix(101, [[100] * 4] * 4)


def old_unit_group(s):
    """The deleted is_subgroup_of_sym / is_subgroup_of_aut."""
    return (all(el.is_bijective() if isinstance(el, Transformation) else el.is_invertible()
                for el in s.elements)
            and semigroup_oracle(s, "group").holds)


@pytest.mark.parametrize("kind, size, p, source", [
    ("transformation", 1, None, ("exhaustive",)),
    ("transformation", 2, None, ("exhaustive",)),
    ("transformation", 3, None, ("seeded", 200, "u")),
    ("linear", 2, 2, ("exhaustive",)),
    ("linear", 2, 3, ("seeded", 200, "u")),
    ("linear", 3, 2, ("seeded", 100, "u")),
])
def test_unit_group_matches_old_definition(kind, size, p, source):
    subs = enumerate_subsemigroups(kind, size, source, p)
    positives = 0
    for s in map(sweep._tabled, subs):  # tabled as ``_instances`` tables them
        if kind == "transformation":
            inst = TInstance(IndexSubset(size, range(size)), s)
        else:
            inst = LInstance(Subspace.full(p, size), s)
        assert inst.unit_group == old_unit_group(s), s.elements
        positives += inst.unit_group
    assert positives and (positives < len(subs) or len(subs) == 1)  # both sides seen


class TestRefusedDraws:
    # seed 233, draw 3 of 4: three random maps generating more than
    # TABLE_CAP elements of T(6)
    PLAN = dict(family="transformation", ns=(6,), subset_sizes=(6,),
                source=("seeded", 4, "233"), modes=("regular",), element_cap=0)

    def test_refused_draw_recorded_and_sweep_goes_on(self):
        rep = run_sweep(SweepPlan(**self.PLAN))
        assert rep.clean and rep.instances_run == 3
        (entry,) = rep.skipped
        assert entry["cell"] == "t:6:0,1,2,3,4,5" and entry["reason"] == "size cap exceeded"
        t6 = TInstance.from_dict({"n": 6, "Y": [], "sY": {"elements": [[]]}})
        gens = [t6.parse_element(g) for g in entry["generators"]]
        assert [g.to_text() for g in gens] == entry["generators"]
        with pytest.raises(SizeCapExceeded):
            closure_elements(gens)

    def test_draw_from_a_large_space_lists_none_of_it(self):
        # a draw from L(GF(101)^4) is decoded from its number, not looked
        # up in the 104 M vectors of the space (seconds and gigabytes);
        # its closure passes the table
        start = time.perf_counter()
        rep = run_sweep(SweepPlan(family="linear", pns=((101, 4),), subset_sizes=(4,),
                                  source=("seeded", 1, "0"), element_cap=0))
        assert time.perf_counter() - start < 5
        assert rep.clean and rep.instances_run == 0
        (entry,) = rep.skipped
        assert entry["reason"] == "size cap exceeded"

    def test_enumeration_keeps_draw_order(self):
        subs = enumerate_subsemigroups("transformation", 6, ("seeded", 4, "233:t:6:0,1,2,3,4,5"))
        assert [isinstance(s, dict) for s in subs] == [False, True, False, False]


def test_only_the_running_instance_table_is_alive(monkeypatch):
    # a seeded cell's closures are kept as element lists with their
    # graphs, and each S is tabled only for its own instance: while an
    # instance runs, its S and its build are the only tables alive
    tables = []  # a weak reference to every table made
    most = []  # the tables alive each time one is made
    init = FiniteSemigroup.__init__

    def alive():
        return [s for s in (ref() for ref in tables) if s is not None]

    def tracked(self, elements, actions=None):
        init(self, elements, actions)
        tables.append(weakref.ref(self))
        most.append(len(alive()))

    run_instance = sweep._run_instance
    ran = []  # per instance: |S|, and whether each table alive is S, before and after

    def checked(plan, rep, inst, *args):
        before = [s is inst.prescribed for s in alive()]
        run_instance(plan, rep, inst, *args)
        ran.append((len(inst.prescribed), before, [s is inst.prescribed for s in alive()]))

    monkeypatch.setattr(FiniteSemigroup, "__init__", tracked)
    monkeypatch.setattr(sweep, "_run_instance", checked)
    rep = run_sweep(SweepPlan(family="transformation", ns=(3,), subset_sizes=(2, 3),
                              source=("seeded", 12, "lifetime"),
                              modes=("regular", "inverse", "unit_regular")))
    assert rep.clean and rep.instances_run == len(ran) > 12
    assert max(size for size, *_ in ran) > 1
    assert all(before == after == [True] for _, before, after in ran)
    # the running instance's S and its build; the next S is made while
    # the last instance is still bound
    assert max(most) == 2


def test_blank_pn_part_skipped(capsys):
    # a blank ';'-part of --pn is skipped, as in --w and --sw
    reports = []
    for pn in ("2,2;", "2,2"):
        assert main(["sweep", "--kind", "l", "--pn", pn, "--sizes", "1", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        del report["wall_time_s"]
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["plan"]["pns"] == [[2, 2]]
