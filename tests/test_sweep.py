"""Tests for the sweep harness: subsemigroup enumeration, differential
runs, report determinism and serialization."""

import collections
import gc
import json
import random
import re
import time
import weakref
from functools import lru_cache
from itertools import product

import pytest

from resemi import family, sweep
from resemi import transform_semigroup as tsg
from resemi.cli import main
from resemi.family import element_at, element_verdict, family_class
from resemi.gflinear import GFMatrix, Subspace, all_vectors
from resemi.linear_semigroup import LInstance
from resemi.semigroups import (
    Closure,
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


def closure_extension_masks(table):
    """The earlier closure-extension walk: from each subsemigroup found,
    and from the empty set, close S with every x outside S, keeping each
    closure not found before."""
    columns = list(zip(*table))
    found = set()
    todo = [frozenset()]
    while todo:
        s = todo.pop()
        for x in range(len(table)):
            if x in s:
                continue
            members = {*s, x}
            fresh = [x]
            while fresh:
                y = fresh.pop()
                known = list(members)
                products = {*map(table[y].__getitem__, known), *map(columns[y].__getitem__, known)}
                products -= members
                members |= products
                fresh.extend(products)
            t = frozenset(members)
            if t not in found:
                found.add(t)
                todo.append(t)
    return sorted(sum(1 << i for i in t) for t in found)


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
        assert [[list(r) for r in s.table] for s in subs] == [
            [[idxs.index(base.table[a][b]) for b in idxs] for a in idxs] for idxs in scan]

    @pytest.mark.parametrize("kind,size,p", [
        ("transformation", 3, None), ("linear", 2, 2), ("linear", 1, 3),
    ], ids=["T(3)", "L(GF(2)^2)", "L(GF(3)^1)"])
    def test_chain_walk_equals_closure_extension_walk(self, kind, size, p):
        # each subsemigroup reached once, and the same masks as the earlier walk
        base = family_class(kind).whole(size, p).build()
        masks = sweep._subsemigroup_masks(base.table)
        assert len(masks) == len(set(masks))
        assert masks == closure_extension_masks(base.table)

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

    @pytest.mark.parametrize("outsider, plan", [
        (lambda inst: Transformation(tuple(range(inst.n + 1))),
         SweepPlan(family="transformation", ns=(2, 3), subset_sizes=(1, 2),
                   source=("exhaustive",), modes=("regular", "unit_regular"))),
        (lambda inst: GFMatrix.identity(inst.p, inst.n + 1),
         SweepPlan(family="linear", pns=((2, 2),), source=("exhaustive",),
                   modes=("regular", "unit_regular"))),
    ], ids=["transformation", "linear"])
    def test_wrong_witness_is_a_mismatch_and_not_counted(self, monkeypatch, outsider, plan):
        honest = run_sweep(plan)
        assert honest.clean and honest.witnesses_checked > 0
        predicate = sweep.element_theorem  # the theorem the sweep's block pass calls

        def wrong(inst, rec, mode, partner):
            v = predicate(inst, rec, mode, partner)
            if v.witness is None:
                return v
            return PropertyVerdict(v.prop, v.holds, witness=outsider(inst), clause=v.clause)

        monkeypatch.setattr(sweep, "element_theorem", wrong)
        rep = run_sweep(plan)
        assert rep.witnesses_checked == 0 and not rep.clean
        assert len(rep.mismatches) == honest.witnesses_checked
        assert {m["problem"] for m in rep.mismatches} == {"witness not in the semigroup"}
        assert all(m["element"] and m["mode"] in plan.modes for m in rep.mismatches)
        assert rep.element_agreements == honest.element_agreements


class TestBlockPass:
    """The sweep reads each build by block (``family.block_records``): S's
    partner once per block and mode, one record per element, and the one
    element theorem (``family.element_theorem``) behind both it and the
    lookup of ``family.element_verdict``."""

    T_PLAN = SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(0, 1, 2),
                       source=("exhaustive",), modes=("regular", "inverse", "unit_regular"))
    L_PLAN = SweepPlan(family="linear", pns=((2, 2),), source=("exhaustive",),
                       modes=("regular", "inverse", "unit_regular", "completely_regular"))

    @staticmethod
    def running(monkeypatch):
        """A list that holds, while ``_run_instance`` runs, its instance."""
        current = []
        run_instance = sweep._run_instance

        def tracked(plan, rep, inst, *args):
            current[:] = [inst]
            run_instance(plan, rep, inst, *args)

        monkeypatch.setattr(sweep, "_run_instance", tracked)
        return current

    @pytest.mark.parametrize("plan", [T_PLAN, L_PLAN], ids=["transformation", "linear"])
    def test_block_pass_equals_the_lookup(self, monkeypatch, plan):
        current, seen = self.running(monkeypatch), []
        tally = sweep._tally

        def kept(rep, key, f, mode, thm, oracle_holds):
            if f is not None:
                seen.append((current[0], f, mode, thm))
            tally(rep, key, f, mode, thm, oracle_holds)

        monkeypatch.setattr(sweep, "_tally", kept)
        rep = run_sweep(plan)
        assert rep.clean and len(seen) == sum(rep.element_checks.values()) > 0
        # every element of every instance, in every element mode it decides
        instances = {inst for inst, *_ in seen}
        assert len(seen) == sum(len(inst.build()) * len(inst.decidable(inst.ELEMENT_MODES))
                                for inst in instances)
        # the region is everything (codim 0) on some, and empty on others
        assert {0, plan.ns[-1] if plan.ns else plan.pns[0][1]} <= {i.codim for i in instances}
        for inst, f, mode, thm in seen:
            want = element_verdict(inst, f, mode)
            assert (thm.holds, thm.clause, thm.witness) == (want.holds, want.clause, want.witness)

    @pytest.mark.parametrize("cls, plan", [
        (TInstance, SweepPlan(family="transformation", ns=(3,), subset_sizes=(2,),
                              source=("exhaustive",), modes=("regular", "unit_regular"))),
        (LInstance, SweepPlan(family="linear", pns=((2, 2),), subset_sizes=(1,),
                              source=("exhaustive",), modes=("regular", "unit_regular"))),
    ], ids=["transformation", "linear"])
    def test_element_outside_its_block_reported(self, monkeypatch, cls, plan):
        # a build holding the same elements, with the first element of the
        # first two blocks swapped: every membership test passes, and only
        # the block check sees that element 0 does not restrict to alpha 0
        honest = cls.build
        swapped = []

        def build(inst):
            elements = list(honest(inst).elements)
            if len(inst.prescribed) < 2:
                return FiniteSemigroup(elements)
            block = len(elements) // len(inst.prescribed)
            elements[0], elements[block] = elements[block], elements[0]
            swapped.append(inst.key())
            return FiniteSemigroup(elements)

        monkeypatch.setattr(cls, "build", build)
        rep = run_sweep(plan)
        assert swapped and not rep.clean
        assert [m["instance"] for m in rep.mismatches] == swapped
        assert all(m["mode"] == "error" and "restriction outside" in m["detail"]
                   for m in rep.mismatches)
        # only the one-block instances are counted, and they all agree
        single = [inst for _, inst in sweep._instances(plan) if len(inst.prescribed) < 2]
        assert rep.element_checks == {
            mode: sum(len(honest(inst)) for inst in single if mode in inst.decidable(plan.modes))
            for mode in plan.modes}
        assert rep.element_agreements == rep.element_checks
        assert rep.semigroup_checks["regular"] == len(single)

    @pytest.mark.parametrize("plan", [
        SweepPlan(family="transformation", ns=(3,), subset_sizes=(1, 2),
                  source=("exhaustive",), modes=("regular", "unit_regular")),
        SweepPlan(family="linear", pns=((2, 2),), subset_sizes=(1,),
                  source=("exhaustive",), modes=("regular", "unit_regular")),
    ], ids=["transformation", "linear"])
    def test_no_lookup_and_one_partner_ask_per_block(self, monkeypatch, plan):
        # S's partner asks counted while ``block_records`` runs, whatever
        # frame makes them (a comprehension has its own before Python 3.12);
        # every region is proper, so the build is never S itself
        looked_up, passes, inside, asks = [], [], [], collections.Counter()
        monkeypatch.setattr(family.RestrictedInstance, "_record_at",
                            lambda inst, f: looked_up.append(f))
        partner, block_records = FiniteSemigroup.partner, sweep.block_records

        def counted(s, i, mode):
            if inside and s is inside[0].prescribed:
                asks[inside[0]] += 1
            return partner(s, i, mode)

        def running(inst, build, modes):
            passes.append(inst)
            inside[:] = [inst]
            try:
                return block_records(inst, build, modes)
            finally:
                inside.clear()

        monkeypatch.setattr(FiniteSemigroup, "partner", counted)
        monkeypatch.setattr(sweep, "block_records", running)
        rep = run_sweep(plan)
        assert rep.clean and sum(rep.element_checks.values()) > 0 and not looked_up
        assert len(passes) == rep.instances_run
        # one ask per block (alpha in S) and element mode the instance decides
        for inst in passes:
            modes = [m for m in inst.decidable(inst.ELEMENT_MODES) if m in plan.modes]
            assert asks[inst] == len(inst.prescribed) * len(modes)
        assert any(len(inst.build()) > asks[inst] for inst in passes)


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
        with pytest.raises(ValueError, match='^unknown plan key "unknown" '):
            SweepPlan.from_dict({"family": "linear", "pns": [[2, 1]], "unknown": 1})

    @pytest.mark.parametrize("key, value", [("modez", ["inverse"]), ("element_capp", 0)])
    def test_plan_from_dict_misspelled_field_refused(self, key, value):
        # each would otherwise leave its field's default in force
        with pytest.raises(ValueError, match=f'^unknown plan key "{key}" '):
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


class TestSeededClosureMemo:
    """A seeded cell closes each distinct generator set it draws once, in a
    dict of its own ``enumerate_subsemigroups`` call that no other cell
    shares.  The draws are recounted here from each cell's seed, the
    enumeration's own recipe (k = 1-3 numbers below |T(k)|, each read as
    its element by ``element_at``), with no call into the enumeration."""

    C2 = SweepPlan(family="transformation", ns=(4,), subset_sizes=(1, 2, 3),
                   source=("seeded", 50, "criterion2"),
                   modes=("regular", "inverse", "unit_regular"), element_cap=0)

    @staticmethod
    def cold(monkeypatch, closure=closure_elements):
        """Every generator set the sweep closes from now on, in order, with
        the enumeration's cache empty for this test alone (the cached lists
        other tests made stay as they are)."""
        cached = sweep.enumerate_subsemigroups
        monkeypatch.setattr(sweep, "enumerate_subsemigroups",
                            lru_cache(**cached.cache_parameters())(cached.__wrapped__))
        closed = []

        def counted(gens):
            closed.append(frozenset(gens))
            return closure(gens)

        monkeypatch.setattr(sweep, "closure_elements", counted)
        return closed

    @staticmethod
    def draws(plan, n, size):
        """Per cell of the plan's regions of ``size`` in T(n): its cell key
        and the generators of each of its draws, in draw order."""
        _, count, seed = plan.source
        whole = TInstance.whole(size)
        for cell, _ in TInstance.cells(n, size):
            rng = random.Random(f"{seed}:{cell}")
            yield cell, [[element_at(whole, rng.randrange(size ** size))
                          for _ in range(rng.randint(1, 3))] for _ in range(count)]

    @staticmethod
    def once_per_cell(cells):
        """Each cell's distinct generator sets, in order of first draw."""
        return [s for _, draws in cells for s in dict.fromkeys(map(frozenset, draws))]

    def test_each_distinct_set_closed_once_per_cell(self, monkeypatch):
        closed = self.cold(monkeypatch)
        assert run_sweep(self.C2).clean
        cells = [c for size in self.C2.subset_sizes for c in self.draws(self.C2, 4, size)]
        assert closed == self.once_per_cell(cells)
        assert len(closed) > len(set(closed))  # a set drawn in two cells is closed in each
        assert len(closed) < 700 // 2  # of 14 cells x 50 draws

    def test_refused_set_closed_once_per_cell_and_each_draw_skipped(self, monkeypatch):
        # every set of two or more distinct maps is refused; in some cell
        # such a set is drawn more than once, and in more than one order
        def refusing(gens):
            if len(set(gens)) > 1:
                raise SizeCapExceeded("size cap exceeded")
            return closure_elements(gens)

        closed = self.cold(monkeypatch, refusing)
        plan = SweepPlan(family="transformation", ns=(3,), subset_sizes=(2,),
                         source=("seeded", 12, "refused"), modes=("regular",), element_cap=0)
        rep = run_sweep(plan)
        cells = list(self.draws(plan, 3, 2))
        refused = [(cell, [g.to_text() for g in d])
                   for cell, draws in cells for d in draws if len(set(d)) > 1]
        assert rep.skipped == [{"cell": cell, "generators": t, "reason": "size cap exceeded"}
                               for cell, t in refused]
        orders = collections.defaultdict(set)
        for cell, t in refused:
            orders[cell, frozenset(t)].add(tuple(t))
        assert any(len(o) > 1 for o in orders.values())
        assert closed == self.once_per_cell(cells)

    def test_dropped_closure_unreachable_after_the_call(self, monkeypatch):
        # a closure whose element set repeats an earlier draw's, from
        # another generator set, is dropped by its cell, and nothing keeps
        # it once the enumeration returns
        made = []  # (element set, weak reference) of every closure made

        class Tracked(Closure):
            __slots__ = ("__weakref__",)

        def tracked(gens):
            c = closure_elements(gens)
            c = Tracked(c, c.right, c.parent, c.letter)
            made.append((frozenset(c), weakref.ref(c)))
            return c

        self.cold(monkeypatch, tracked)
        subs = sweep.enumerate_subsemigroups("transformation", 3, ("seeded", 40, "dropped"))
        gc.collect()
        kept = [s for s in subs if not isinstance(s, dict)]
        dropped = [elems for elems, ref in made if ref() is None]
        assert dropped and len(made) == len(dropped) + len(kept)
        assert {id(ref()) for _, ref in made if ref() is not None} == set(map(id, kept))
        assert set(dropped) <= set(map(frozenset, kept))


class TestInstanceKeys:
    """An entry names its instance by ``inst.key()``, which is formatted
    only for an instance that an entry names, and then once."""

    @staticmethod
    def keyed(monkeypatch):
        """The instances whose key is formatted, once per call."""
        calls = []
        for cls in (TInstance, LInstance):
            def counted(inst, key=cls.key):
                calls.append(inst)
                return key(inst)

            monkeypatch.setattr(cls, "key", counted)
        return calls

    def test_clean_plans_format_no_key(self, monkeypatch):
        calls = self.keyed(monkeypatch)
        for plan in (
            SweepPlan(family="transformation", ns=(3,), subset_sizes=(1, 2, 3),
                      source=("seeded", 20, "keys"), modes=("regular", "inverse", "unit_regular")),
            SweepPlan(family="linear", pns=((2, 2),), source=("exhaustive",),
                      modes=("regular", "inverse", "unit_regular", "completely_regular")),
        ):
            rep = run_sweep(plan)
            assert rep.clean and not rep.skipped and rep.instances_run > 10
        assert calls == []

    def test_skipped_builds_name_their_instances(self, monkeypatch):
        # |S| = 1 on a point of a 6-point X: 6^5 = 7,776 elements, past the table
        plan = SweepPlan(family="transformation", ns=(6,), subset_sizes=(1,), element_cap=0)
        want = [{"instance": inst.key(), "reason": "size cap exceeded"}
                for _, inst in sweep._instances(plan)]
        calls = self.keyed(monkeypatch)
        rep = run_sweep(plan)
        assert len(want) == 6 and rep.skipped == want and len(calls) == 6

    def test_mismatches_name_their_instances(self, monkeypatch):
        # both semigroup theorems turned round: two mismatches on every
        # instance, whose key is formatted once
        plan = SweepPlan(family="transformation", ns=(2,), subset_sizes=(1, 2),
                         modes=("regular", "inverse"))
        want = [inst.key() for _, inst in sweep._instances(plan)]
        thm = TInstance.thm_semigroup

        def turned(inst, mode):
            verdict = thm(inst, mode)
            return verdict._replace(holds=not verdict.holds)

        monkeypatch.setattr(TInstance, "thm_semigroup", turned)
        calls = self.keyed(monkeypatch)
        rep = run_sweep(plan)
        assert [(m["instance"], m["mode"]) for m in rep.mismatches] == [
            (key, mode) for key in want for mode in plan.modes]
        assert len(calls) == len(want) == len(set(map(id, calls))) > 5


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
