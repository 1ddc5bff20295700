"""Tests of what the two families share (``resemi.family``): the record
memo, the element theorem with both families' clause words, and golden
element verdicts of both families.

``ElementRecordCases`` and ``SharedRecordsCases`` hold test bodies that
each family's test module runs on its own instances, by subclassing them
with the family's cases.
"""

import collections
import gc
import hashlib
import json
import weakref
from dataclasses import replace
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resemi import family, sweep
from resemi.family import RegionStore, element_at, element_verdict
from resemi.gflinear import GFMatrix, Subspace, all_subspaces
from resemi.linear_semigroup import LInstance
from resemi.semigroups import (
    TABLE_CAP,
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    generate,
    semigroup_oracle,
    witness_problem,
)
from resemi.sweep import SweepPlan
from resemi.transform_semigroup import TInstance
from resemi.transformations import IndexSubset, Transformation
from test_acceptance import CRITERION2_PLANS, CRITERION3_PLANS


def outcome(inst, f, check):
    """What ``check`` ("transversal" or an element mode) answers for f on
    inst: the verdict's fields, the transversal problem, or the error."""
    try:
        if check == "transversal":
            return inst.record(f).transversal_problem
        v = inst.thm_element(f, check)
        return v.holds, v.clause, v.witness
    except ValueError as exc:
        return "raises", str(exc)


class ElementRecordCases:
    """The element predicates, their witnesses and the transversal check
    share one record per element; checks on different elements, called
    interleaved on one instance, must answer as on a fresh instance.

    A subclass gives ``instances()`` (each with an identity and more than
    one element), ``clone(inst)`` and ``canonical(f, inst)``, f's
    canonical transversal pair computed without the record."""

    def test_interleaved_checks_match_fresh_instances(self):
        for inst in self.instances():
            elements = list(inst.build().elements)
            assert len(elements) > 1
            for f, g in zip(elements, elements[1:] + elements[:1]):
                got = (inst.thm_element(f, "regular"), inst.thm_element(g, "unit_regular"),
                       inst.record(f).transversal_problem, inst.thm_element(g, "regular"))
                want = (self.clone(inst).thm_element(f, "regular"),
                        self.clone(inst).thm_element(g, "unit_regular"),
                        self.clone(inst).record(f).transversal_problem,
                        self.clone(inst).thm_element(g, "regular"))
                assert got == want, (inst, f.to_text(), g.to_text())

    def test_record_transversal_is_the_canonical_one(self):
        for inst in self.instances():
            for f in inst.build().elements:
                assert inst.record(f).transversal == self.canonical(f, inst)


class SharedRecordsCases:
    """Instances on one region (Y or W) that hold one store share each
    element's record; membership in the asking instance is still decided
    on every call.

    A subclass gives ``clone(inst)``, the instance on inst's region and S
    with a store of its own; the messages ``OUTSIDE`` and
    ``NOT_INVARIANT``; ``separated()``, (A, B, f) with f regular in A and
    f's restriction outside S_B; ``non_invariant()``, (inst, f) with f
    leaving the region; ``pairs()``, pairs (A, B) on one region where A's
    build holds elements outside B's; and ``partners()``, (A, B, C, f,
    mode, partner) where A and C find ``partner`` as the prescribed
    partner of f's restriction and B, which lacks it, another.  The
    instances of one ``separated()``, pair or ``partners()`` hold one
    store.  A record keeps each witness it assembles, per mode and
    partner."""

    CHECKS = ("regular", "unit_regular", "transversal")

    def test_cached_record_is_checked_against_each_instance(self):
        a, b, f = self.separated()
        for _ in range(2):
            assert a.thm_element(f, "regular").holds
            assert a.record(f).transversal_problem is None
            for check in self.CHECKS:
                assert outcome(b, f, check) == ("raises", self.OUTSIDE)
            with pytest.raises(ValueError, match="restriction outside S"):
                b.record(f)

    def test_non_invariant_f_raises_on_every_call(self):
        inst, f = self.non_invariant()
        for _ in range(3):
            for check in self.CHECKS:
                assert outcome(inst, f, check) == ("raises", self.NOT_INVARIANT)
            with pytest.raises(ValueError, match="is not invariant"):
                inst.record(f)

    def test_shared_records_match_a_cleared_memo(self):
        for a, b in self.pairs():
            elements = list(dict.fromkeys(a.build().elements + b.build().elements))
            assert set(elements) - set(b.build().elements)

            assert a.store is b.store
            want = [outcome(self.clone(inst), f, check)
                    for f in elements for inst in (a, b) for check in self.CHECKS]
            got = [outcome(inst, f, check)
                   for f in elements for inst in (a, b) for check in self.CHECKS]
            assert got == want, a
            # a second pass reads every witness through the records' memo
            again = [outcome(inst, f, check)
                     for f in elements for inst in (a, b) for check in self.CHECKS]
            assert again == want, a
            for inst in (a, b):
                build = inst.build()
                for i, f in enumerate(build.elements):
                    for mode in ("regular", "unit_regular"):
                        verdict = outcome(inst, f, mode)
                        if verdict[0] is True and verdict[2] is not None:
                            assert witness_problem(build, i, mode, verdict[2]) is None

    def test_memo_witness_checked_against_each_table(self):
        a, b, c, f, mode, partner = self.partners()
        assert a.store is b.store is c.store
        build_a, build_b = a.build(), b.build()
        w_a = a.thm_element(f, mode).witness
        assert a.record(w_a).alpha == partner
        assert witness_problem(build_a, build_a.index_of(f), mode, w_a) is None
        assert witness_problem(build_b, build_b.index_of(f), mode, w_a) == (
            "witness not in the semigroup")
        # B's partner differs, so B gets its own witness, which its table accepts
        w_b = b.thm_element(f, mode).witness
        assert w_b != w_a and witness_problem(build_b, build_b.index_of(f), mode, w_b) is None
        # an instance with A's partner gets A's witness, from the record's memo
        w_c = c.thm_element(f, mode).witness
        assert w_c is w_a
        build_c = c.build()
        assert witness_problem(build_c, build_c.index_of(f), mode, w_c) is None


# -- the element theorem on stub records ---------------------------------------


class StubRecord:
    """A record with given test results; its witness names its arguments."""

    alpha = "alpha"

    def __init__(self, trace_ok, complement_sizes):
        self.trace_ok = trace_ok
        self.complement_sizes = complement_sizes

    def witness(self, mode, partner):
        return ("witness", mode, partner)


class StubSemigroup:
    """A prescribed semigroup of two named elements whose every partner
    answer is ``verdict``'s: its witness if it holds, else none; each
    (element, mode) asked goes to ``asked``."""

    elements = ("alpha", "partner")

    def __init__(self, verdict, asked):
        self.verdict = verdict
        self.asked = asked

    def index_of(self, a):
        return self.elements.index(a)

    def partner(self, i, mode):
        self.asked.append((self.elements[i], mode))
        return self.elements.index(self.verdict.witness) if self.verdict.holds else -1


def stub_instance(cls, rec, verdict, asked, has_identity=True):
    """An instance of ``cls`` (for its words) with ``rec`` as every
    element's record and ``verdict`` as every oracle verdict on its
    prescribed semigroup (``StubSemigroup``)."""
    inst = object.__new__(cls)
    inst.has_identity = has_identity
    inst.prescribed = StubSemigroup(verdict, asked)
    inst.record = lambda f: rec
    inst._record_at = lambda f: (rec, 0)  # alpha is element 0
    return inst


YES = PropertyVerdict("stub", True, witness="partner")
NO = PropertyVerdict("stub", False)
WORDS = {TInstance: ("S(Y)", "counts"), LInstance: ("S(W)", "codimensions")}


@pytest.mark.parametrize("cls", [TInstance, LInstance], ids=["transformation", "linear"])
@pytest.mark.parametrize("mode, verdict, trace_ok, sizes, holds, clause", [
    ("regular", YES, True, (1, 2), True, "restriction regular and image trace matches"),
    ("regular", NO, True, (0, 0), False, "restriction not regular in {S}"),
    ("regular", NO, False, (0, 0), False, "restriction not regular in {S}"),
    ("regular", YES, False, (0, 0), False, "image trace differs"),
    ("unit_regular", YES, True, (2, 2), True, "all three element conditions hold"),
    ("unit_regular", NO, False, (1, 2), False, "restriction not unit-regular in {S}"),
    ("unit_regular", YES, False, (1, 2), False, "image trace differs"),
    # unreachable for finite X or V once the trace test and a compatible
    # transversal pair hold, so no sweep reaches this clause
    ("unit_regular", YES, True, (1, 2), False, "complement {sizes} differ (1 vs 2)"),
    ("unit_regular", YES, True, (3, 0), False, "complement {sizes} differ (3 vs 0)"),
])
def test_element_verdict_clauses(cls, mode, verdict, trace_ok, sizes, holds, clause):
    asked = []
    inst = stub_instance(cls, StubRecord(trace_ok, sizes), verdict, asked)
    got = element_verdict(inst, "f", mode)
    prescribed, sizes_word = WORDS[cls]
    assert got == PropertyVerdict(
        mode, holds, witness=("witness", mode, "partner") if holds else None,
        clause=clause.format(S=prescribed, sizes=sizes_word))
    assert asked == [("alpha", mode)]


@pytest.mark.parametrize("cls", [TInstance, LInstance], ids=["transformation", "linear"])
def test_element_verdict_refusals(cls):
    asked = []
    inst = stub_instance(cls, StubRecord(True, (0, 0)), YES, asked, has_identity=False)
    with pytest.raises(ValueError, match="identity required"):
        element_verdict(inst, "f", "unit_regular")
    for mode in ("inverse", "completely_regular"):
        with pytest.raises(ValueError, match=f'unknown element mode "{mode}"'):
            element_verdict(inst, "f", mode)
    assert asked == []


# -- golden element verdicts ------------------------------------------------------

GOLDEN_PLANS = {
    "transformation": (
        SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(1, 2)),
        SweepPlan(family="transformation", ns=(4,), source=("seeded", 30, "golden")),
    ),
    "linear": (
        SweepPlan(family="linear", pns=((2, 1), (2, 2), (3, 1))),
        SweepPlan(family="linear", pns=((2, 3),), source=("seeded", 4, "golden")),
    ),
}

# Recorded before the two families shared one element theorem, record
# memo and witness check: per-clause row counts and the SHA-256 of every
# row (see ``golden``).
GOLDEN = {
    "transformation": ({
        "regular: image trace differs": 1064,
        "regular: restriction not regular in S(Y)": 202,
        "regular: restriction regular and image trace matches": 4222,
        "transversal: None": 5488,
        "unit_regular: all three element conditions hold": 2479,
        "unit_regular: image trace differs": 452,
        "unit_regular: restriction not unit-regular in S(Y)": 328,
    }, "7c6730eee85f125c89f8346681825c9d6190a989a8dc8fc36869688647026bb5"),
    "linear": ({
        "regular: image trace differs": 446,
        "regular: restriction not regular in S(W)": 148,
        "regular: restriction regular and image trace matches": 3730,
        "transversal: None": 4324,
        "unit_regular: all three element conditions hold": 2879,
        "unit_regular: image trace differs": 236,
        "unit_regular: restriction not unit-regular in S(W)": 98,
    }, "b6be6a72976a1c251c144d0c5449706a021df4bd9c041442ac36f34dfd80a9b2"),
}


def golden_rows(plans):
    """(instance, element, check, holds, clause, witness) for every element
    mode and the transversal check, on every element of every instance the
    plans select; the transversal problem stands in the clause slot."""
    for plan in plans:
        for _, inst in sweep._instances(plan):
            cell = json.dumps(inst.key(), sort_keys=True)
            modes = [m for m in inst.ELEMENT_MODES if m != "unit_regular" or inst.has_identity]
            for f in inst.build().elements:
                for mode in modes:
                    v = inst.thm_element(f, mode)
                    yield (cell, f.to_text(), mode, v.holds, v.clause,
                           None if v.witness is None else v.witness.to_text())
                yield cell, f.to_text(), "transversal", None, inst.record(f).transversal_problem, None


def golden(family):
    counts = collections.Counter()
    digest = hashlib.sha256()
    for row in golden_rows(GOLDEN_PLANS[family]):
        counts[f"{row[2]}: {row[4]}"] += 1
        digest.update(json.dumps(row).encode() + b"\n")
    return dict(sorted(counts.items())), digest.hexdigest()


@pytest.mark.parametrize("family", sorted(GOLDEN_PLANS))
def test_golden_element_verdicts(family):
    assert golden(family) == GOLDEN[family]


# -- golden builds and semigroup verdicts -----------------------------------------

BUILD_PLANS = {
    "transformation": (  # the criterion-1 plans, c1a and c1b
        SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(1, 2)),
        SweepPlan(family="transformation", ns=(3,), subset_sizes=(3,),
                  source=("seeded", 200, "criterion1")),
    ),
    "linear": (  # the exhaustive criterion-3 plans, c3a and c3b
        SweepPlan(family="linear", pns=((2, 1), (2, 2), (3, 1))),
        SweepPlan(family="linear", pns=((3, 2),), subset_sizes=(0, 1)),
    ),
}

# Recorded before the two families shared one build, one size formula and
# one regular/unit-regular semigroup theorem: per-row counts and the SHA-256
# of every row (see ``golden_builds``).  The build order decides the oracle
# witnesses that ``resemi element`` prints.
GOLDEN_BUILDS = {
    "transformation": ({
        "build": 149,
        "inverse: False: S(Y) not inverse": 90,
        "inverse: False: Y != X and |X| != 2": 21,
        "inverse: True: S(Y) inverse and Y = X": 36,
        "inverse: True: S(Y) inverse and |X| = 2": 2,
        "regular: False: neither clause holds": 55,
        "regular: True: S(Y) is a subgroup of Sym(Y)": 19,
        "regular: True: S(Y) regular and Y = X": 75,
        "unit_regular: False: neither clause holds": 22,
        "unit_regular: True: S(Y) is a subgroup of Sym(Y) and X \\ Y is finite": 19,
        "unit_regular: True: S(Y) unit-regular and Y = X": 22,
        "unit_regular: raises: identity required": 86,
    }, "f9a06b6c0eeaee809890bd95e0af66a627ad41d7a3e6ba7e0487ff4015695c4f"),
    "linear": ({
        "build": 274,
        "completely_regular: False: S(W) not completely regular": 154,
        "completely_regular: False: W != V and the codim-1 clause fails": 20,
        "completely_regular: True: S(W) completely regular and W = V": 87,
        "completely_regular: True: codim(W) = 1 and S(W) is a subgroup of Aut(W)": 13,
        "inverse: False: S(W) not inverse": 181,
        "inverse: False: W != V and dim V != 1": 31,
        "inverse: True: S(W) inverse and W = V": 60,
        "inverse: True: S(W) inverse and dim V = 1": 2,
        "regular: False: neither clause holds": 126,
        "regular: True: S(W) is a subgroup of Aut(W)": 24,
        "regular: True: S(W) regular and W = V": 124,
        "unit_regular: False: neither clause holds": 90,
        "unit_regular: True: S(W) is a subgroup of Aut(W) and codim(W) is finite": 24,
        "unit_regular: True: S(W) unit-regular and W = V": 59,
        "unit_regular: raises: identity required": 101,
    }, "50c7b07215de37c5759e597a37b3e63be8c0d4931e8d550fc1708ce9f606826f"),
}


def golden_build_rows(plans):
    """(instance, "build", size, element texts in build order), then
    (instance, mode, holds, clause) for every semigroup mode, with
    ("raises", message) in place of a refused verdict."""
    for plan in plans:
        for _, inst in sweep._instances(plan):
            cell = json.dumps(inst.key(), sort_keys=True)
            build = inst.build()
            yield cell, "build", len(build), [f.to_text() for f in build.elements]
            for mode in inst.SEMIGROUP_MODES:
                try:
                    v = inst.thm_semigroup(mode)
                    yield cell, mode, v.holds, v.clause
                except ValueError as exc:
                    yield cell, mode, "raises", str(exc)


def golden_builds(family):
    counts = collections.Counter()
    digest = hashlib.sha256()
    for row in golden_build_rows(BUILD_PLANS[family]):
        counts["build" if row[1] == "build" else f"{row[1]}: {row[2]}: {row[3]}"] += 1
        digest.update(json.dumps(row).encode() + b"\n")
    return dict(sorted(counts.items())), digest.hexdigest()


@pytest.mark.parametrize("family", sorted(BUILD_PLANS))
def test_golden_builds_and_semigroup_verdicts(family):
    assert golden_builds(family) == GOLDEN_BUILDS[family]


# -- the build order and the mode rule --------------------------------------


@pytest.mark.parametrize("plan", [
    # c1a with the empty Y added; Y = X at n = 1 and n = 2
    SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(0, 1, 2)),
    # c3a, every dim W from 0 (W = 0) to n (W = V)
    SweepPlan(family="linear", pns=((2, 1), (2, 2), (3, 1))),
], ids=["c1a", "c3a"])
def test_element_at_numbers_the_build(plan):
    shapes = set()
    for _, inst in sweep._instances(plan):
        numbered = [element_at(inst, i) for i in range(inst.expected_size())]
        assert numbered == list(inst.build().elements), inst
        shapes.add("empty" if inst.codim == inst.n else "whole" if inst.codim == 0 else "part")
    assert shapes == {"empty", "whole", "part"}


def gf2_4_line(*alphas):
    """L(GF(2)^4) on a line W, codim 3: 4,096 elements per alpha in 12 digits."""
    return LInstance(Subspace(2, 4, [[1, 0, 0, 0]]),
                     FiniteSemigroup([GFMatrix(2, [[a]]) for a in alphas]))


@pytest.mark.parametrize("inst, refused", [
    (TInstance.whole(1), False),
    (TInstance.whole(5), False),
    (TInstance.whole(6), True),
    (gf2_4_line(1), False),
    (gf2_4_line(0, 1), True),
    (LInstance.whole(4, 2), True),
    (LInstance.whole(1, 101), False),
], ids=["T(1)", "T(5)", "T(6)", "L(GF(2)^4),W=1,|S|=1", "L(GF(2)^4),W=1,|S|=2",
        "L(GF(2)^4),W=0", "L(GF(101)^1),W=0"])
def test_build_refused_exactly_past_the_table_cap(inst, refused, monkeypatch):
    """The bounded power in ``build`` refuses exactly the builds larger
    than ``TABLE_CAP``, before any ``extend``; no Cayley table is made."""
    monkeypatch.setattr(family, "FiniteSemigroup", lambda elements, actions: list(elements))
    calls = []
    extend = inst.extend
    monkeypatch.setattr(inst, "extend", lambda *args: calls.append(1) or extend(*args))
    assert (inst.expected_size() > TABLE_CAP) == refused
    if refused:
        with pytest.raises(SizeCapExceeded):
            inst.build()
        assert not calls
    else:
        assert len(inst.build()) == inst.expected_size() == len(calls)


@pytest.mark.parametrize("inst", [
    *[TInstance.whole(k) for k in range(7)],
    *[LInstance.whole(k, p) for p in (2, 3, 29) for k in range(4)],
    gf2_4_line(0, 1),
    TInstance(IndexSubset(3, [0]), FiniteSemigroup([Transformation([0])])),
], ids=str)
def test_exceeds_is_the_size_compared_with_the_bound(inst):
    """The bounded power of ``exceeds`` gives the answer of the exact size
    at every bound, the sweep's 27-element exhaustive base among them."""
    for bound in (0, 1, 2, 15, 16, 26, 27, 28, 255, 256, TABLE_CAP):
        assert inst.exceeds(bound) == (inst.expected_size() > bound)


def shared_region(family):
    """Two instances on one region, holding one store, with different
    prescribed semigroups that share elements."""
    store = RegionStore()
    if family == "transformation":
        y = IndexSubset(3, [0, 1])
        return (TInstance(y, FiniteSemigroup([Transformation([0, 1])]), store),
                TInstance(y, FiniteSemigroup([Transformation([0, 1]), Transformation([0, 0])]),
                          store))
    w = Subspace(2, 2, [[1, 0]])
    return (LInstance(w, FiniteSemigroup([GFMatrix(2, [[1]])]), store),
            LInstance(w, FiniteSemigroup([GFMatrix(2, [[0]]), GFMatrix(2, [[1]])]), store))


FAMILIES = ("linear", "transformation")


@pytest.mark.parametrize("family", FAMILIES)
def test_instances_on_one_region_share_their_elements(family):
    a, b = shared_region(family)
    build_a, build_b = a.build(), b.build()
    for inst, built in ((a, build_a), (b, build_b)):
        assert list(built.elements) == [element_at(inst, i) for i in range(len(built))]
    shared = set(build_a.elements) & set(build_b.elements)
    assert shared and shared != set(build_b.elements)
    in_a = {f: f for f in build_a.elements}
    assert all(f is in_a[f] for f in build_b.elements if f in shared)
    # a second build of one instance is made of the same objects
    assert all(f is g for f, g in zip(a.build().elements, build_a.elements))


@pytest.mark.parametrize("family", FAMILIES)
def test_builds_on_one_region_share_their_generator_actions(family, monkeypatch):
    """A build's Cayley table keeps the point actions of its generators in
    the instance's store, so a second build on the store takes afresh only
    the actions of the generators the first did not take; its table is
    still the table of object products."""
    a, b = shared_region(family)
    cls = type(a.prescribed.elements[0])
    point_action = cls.point_action
    taken = []

    def counted(el, points):
        taken.append(el)
        return point_action(el, points)

    def actions_taken(make):
        taken.clear()
        made = make()
        return made, len(taken)

    monkeypatch.setattr(cls, "point_action", counted)
    _, first = actions_taken(a.build)
    assert first and a.store.actions
    build_b, shared = actions_taken(b.build)
    elems = build_b.elements
    _, alone = actions_taken(lambda: FiniteSemigroup(list(elems)))  # one per generator
    assert shared < alone
    index = {f: k for k, f in enumerate(elems)}
    assert [list(r) for r in build_b.table] == [[index[f * g] for g in elems] for f in elems]


@pytest.mark.parametrize("family", FAMILIES)
def test_instances_with_their_own_stores_share_no_record(family):
    """An instance made without a store has its own, so nothing made for
    another instance on its region, an element or a record, is shared."""
    a, b = shared_region(family)
    own = type(b)(b.region, b.prescribed)
    assert own.store is not b.store
    build_b, build_own = b.build(), own.build()
    assert build_own.elements == build_b.elements
    assert not any(f is g for f, g in zip(build_own.elements, build_b.elements))
    for f in build_b.elements:
        assert own.record(f) is own.record(f) is not b.record(f)
        assert own.record(f).alpha == b.record(f).alpha
    shared = [f for f in build_b.elements if f in a.build()]
    assert shared and all(a.record(f) is b.record(f) for f in shared)


@pytest.mark.parametrize("plan", [
    SweepPlan(family="transformation", ns=(3,), subset_sizes=(2,)),
    SweepPlan(family="linear", pns=((2, 2),), subset_sizes=(1,)),
], ids=["T(3)", "L(GF(2)^2)"])
def test_the_sweep_drops_a_region_store_when_it_leaves_the_region(plan):
    """While ``_instances`` stays on a region its store lives, though the
    caller keeps no instance; once the generator yields an instance of the
    next region, nothing holds the first region's store."""
    instances = sweep._instances(plan)
    _, inst = next(instances)
    region, f = inst.region, inst.build().elements[-1]
    kept = weakref.ref(inst.record(f))
    del inst
    on_first = 0
    for _, inst in instances:
        gc.collect()
        if inst.region != region:
            break
        on_first += 1
        assert kept() is not None and inst.store.records[f] is kept()
        del inst
    assert on_first and kept() is None


@pytest.mark.parametrize("plan, count", [
    (replace(CRITERION2_PLANS[0], subset_sizes=(2,)), 2 * 64),
    (replace(CRITERION3_PLANS[3], subset_sizes=(2,)), 2 * 128),
], ids=["c2e-|Y|=2", "c3d-dim-W=2"])
def test_alternating_regions_extend_each_element_once(plan, count, monkeypatch):
    """The instances of a plan's first two regions (c2e's first two Y of
    size 2, 9 instances each, and c3d's first two planes W, 32 and 31),
    built in turn, one instance of each region after the other: each
    region keeps its own store, so ``extend`` runs once per element of
    the two regions, as when the regions run back to back."""
    regions = {}
    for _, inst in sweep._instances(plan):
        if inst.region not in regions and len(regions) == 2:
            break
        regions.setdefault(inst.region, []).append(inst)
    first, second = regions.values()
    cls = type(first[0])
    extend = cls.extend
    calls = []
    monkeypatch.setattr(cls, "extend", lambda *args: calls.append(1) or extend(*args))
    elements = {region: set() for region in regions}
    for inst in (i for pair in zip_longest(first, second) for i in pair if i is not None):
        elements[inst.region].update(inst.build().elements)
    assert len(calls) == sum(map(len, elements.values())) == count


@pytest.mark.parametrize("family", FAMILIES)
def test_a_transversal_problem_is_reported_for_each_instance_holding_f(family, monkeypatch):
    """The check is made once per record, but the sweep still records a
    failure for every (instance, element) pair it covers."""
    a, _ = shared_region(family)
    plan = (SweepPlan(family="transformation", ns=(3,), subset_sizes=(2,))
            if family == "transformation" else SweepPlan(family="linear", pns=((2, 2),)))
    target = a.build().elements[-1]
    holding = [inst.key() for _, inst in sweep._instances(plan) if target in inst.build()]
    assert len(holding) > 1
    made = []

    def forced(rec):
        made.append(rec.f)
        return "forced" if rec.f == target else None

    monkeypatch.setattr(a.RECORD, "transversal_problem", property(forced))
    rep = sweep.run_sweep(plan)
    assert rep.transversal_failures == [
        {"instance": key, "element": target.to_text(), "problem": "forced"} for key in holding]
    assert rep.transversal_checks_run == len(made)
    assert rep.mismatches == []


BLOCK = '{"elements" | "generators": [...]} with each item'


@pytest.mark.parametrize("cls, data, message", [
    (TInstance, None, "instance JSON must be an object, not null"),
    (LInstance, [], "instance JSON must be an object, not []"),
    (TInstance, {"n": 2, "sY": {"elements": [[0]]}}, "instance field 'Y' is missing"),
    (TInstance, {"n": 2, "Y": 0, "sY": {"elements": [[0]]}},
     "instance field 'Y' must be a list of integers, not 0"),
    (TInstance, {"n": 2, "Y": [0], "sY": {"generators": [[0], "1"]}},
     f"instance field 'sY' must be {BLOCK} a list of integers, "
     'not {"generators": [[0], "1"]}'),
    (LInstance, {"p": 2, "n": True, "W": [], "sW": {"elements": [[]]}},
     "instance field 'n' must be an integer, not true"),
    (LInstance, {"p": 2, "n": 1, "W": {}, "sW": {"elements": [[]]}},
     "instance field 'W' must be a list of rows of integers, not {}"),
    (LInstance, {"p": 2, "n": 1, "W": [[1]], "sW": [[[1]]]},
     f"instance field 'sW' must be {BLOCK} a list of rows of integers, not [[[1]]]"),
], ids=["t-not-object", "l-not-object", "missing", "int-for-list", "text-element", "bool-int",
        "object-for-rows", "list-for-block"])
def test_one_loader_checks_each_familys_fields(cls, data, message):
    # the one from_dict reads the family's declared FIELDS and names the
    # field, and its form, that a value breaks
    assert "from_dict" not in vars(cls)
    with pytest.raises(ValueError) as exc:
        cls.from_dict(data)
    assert str(exc.value) == message


@pytest.mark.parametrize("cls, data", [
    (TInstance, {"n": 3, "Y": [1, 0], "sY": {"generators": [[1, 0]]}}),
    (LInstance, {"p": 2, "n": 2, "W": [[1, 1]], "sW": {"elements": [[[1]], [[0]]]}}),
], ids=["transformation", "linear"])
def test_extra_keys_and_a_null_block_entry_are_ignored(cls, data):
    block = cls.FIELDS[-1][0]
    padded = {**data, "note": [None], block: {**data[block], "note": 1,
                                              ("elements" if "generators" in data[block]
                                               else "generators"): None}}
    assert cls.from_dict(padded).key() == cls.from_dict(data).key()


@pytest.mark.parametrize("inst, key", [
    (TInstance.from_dict({"n": 3, "Y": [2, 0], "sY": {"generators": [[1, 0]]}}),
     {"kind": "transformation", "n": 3, "Y": [0, 2], "sY": ["0,1", "1,0"]}),
    (TInstance.whole(2),
     {"kind": "transformation", "n": 2, "Y": [], "sY": [""]}),
    (TInstance.from_dict({"n": 2, "Y": [1, 0], "sY": {"elements": [[0, 1], [0, 0]]}}),
     {"kind": "transformation", "n": 2, "Y": [0, 1], "sY": ["0,0", "0,1"]}),
    (LInstance.whole(2, 3),
     {"kind": "linear", "p": 3, "n": 2, "W": [], "sW": [""]}),
    (LInstance.from_dict({"p": 3, "n": 2, "W": [[2, 2]], "sW": {"elements": [[[1]], [[2]]]}}),
     {"kind": "linear", "p": 3, "n": 2, "W": [[1, 1]], "sW": ["1", "2"]}),
    (LInstance.from_dict({"p": 2, "n": 2, "W": [[1, 1], [0, 1]],
                          "sW": {"generators": [[[0, 1], [1, 0]]]}}),
     {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0], [0, 1]], "sW": ["0,1;1,0", "1,0;0,1"]}),
], ids=["t", "t-empty-y", "t-y-is-x", "l-zero-w", "l", "l-w-is-v"])
def test_key_is_the_kind_the_field_values_and_the_sorted_element_texts(inst, key):
    # one key() for both families, read from each family's KIND and FIELDS:
    # Y's members sorted, W's canonical basis, S's element texts sorted
    assert "key" not in vars(type(inst))
    assert inst.key() == key and list(inst.key()) == list(key)
    assert family.KINDS[inst.KIND][1] == type(inst).__name__


@pytest.mark.parametrize("inst, decidable", [
    (TInstance(IndexSubset(2, [0]), FiniteSemigroup([Transformation([0])])),
     ["regular", "inverse", "unit_regular"]),
    (LInstance(Subspace(2, 2, [[1, 0]]), FiniteSemigroup([GFMatrix(2, [[0]])])),
     ["regular", "inverse", "completely_regular"]),
], ids=["identity", "no-identity"])
def test_decidable_drops_unit_regular_without_identity(inst, decidable):
    assert inst.decidable(inst.SEMIGROUP_MODES) == decidable
    assert inst.decidable(("unit_regular", "regular")) == [m for m in ("unit_regular", "regular")
                                                           if m in decidable]


# (p, n) cells of small instances: T(n) for n <= 4 (p None), and
# L(GF(p)^n) for some p^(n^2) <= 512, so every build has at most 512
# elements.
SMALL_CELLS = [(None, n) for n in range(1, 5)] + [
    (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]
SUBSPACES = {(p, n): list(all_subspaces(p, n)) for p, n in SMALL_CELLS if p}


@st.composite
def small_instances(draw):
    """A random region of a small cell, and S on it closed from 1-3 random
    generators."""
    p, n = draw(st.sampled_from(SMALL_CELLS))
    if p is None:
        region = IndexSubset(n, sorted(draw(st.sets(st.integers(0, n - 1)))))
        k = len(region)
        gen = st.lists(st.integers(0, max(k - 1, 0)), min_size=k, max_size=k).map(
            lambda images: Transformation(tuple(images)))
    else:
        region = draw(st.sampled_from(SUBSPACES[p, n]))
        k = region.dim
        row = st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
        gen = st.lists(row, min_size=k, max_size=k).map(lambda rows: GFMatrix(p, rows, cols=k))
    s = generate(draw(st.lists(gen, min_size=1, max_size=3)))
    return (TInstance if p is None else LInstance)(region, s)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(small_instances())
def test_theorems_agree_with_the_oracles_on_random_small_instances(inst):
    # every semigroup and element verdict against the oracle on the build,
    # and every witness checked by multiplication, outside the table
    build = inst.build()
    for mode in inst.decidable(inst.SEMIGROUP_MODES):
        assert inst.thm_semigroup(mode).holds == semigroup_oracle(build, mode).holds, mode
    modes = inst.decidable(inst.ELEMENT_MODES)
    for i, f in enumerate(build.elements):
        for mode in modes:
            v = inst.thm_element(f, mode)
            assert v.holds == (build.partner(i, mode) >= 0), (f.to_text(), mode)
            if v.witness is not None:  # T has no regular witness
                assert v.holds and inst.witness_problem(f, v.witness, mode) is None, (
                    f.to_text(), mode)
