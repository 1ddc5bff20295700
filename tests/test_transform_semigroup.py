"""Tests for the transformation-restriction semigroup: the build, the
element/semigroup characterization predicates, and witness validity."""

from itertools import product

import pytest

from resemi import transform_semigroup, transformations
from resemi.cli import main
from resemi.family import RegionStore
from resemi.semigroups import (
    FiniteSemigroup,
    SizeCapExceeded,
    element_oracle,
    generate,
    semigroup_oracle,
)
from resemi.sweep import SweepPlan, run_sweep
from resemi.transform_semigroup import TElementRecord, TInstance
from resemi.transformations import (
    IndexSubset,
    Transformation,
    canonical_transversal,
    fibers,
    restriction,
)
from test_family import ElementRecordCases, SharedRecordsCases


def all_transformations(n):
    return [Transformation(t) for t in product(range(n), repeat=n)]


def sym_on(k):
    return FiniteSemigroup([Transformation(t) for t in product(range(k), repeat=k)
                            if len(set(t)) == k])


def brute_force_members(inst):
    """Independent oracle: filter all of T(X) by the defining condition."""
    out = []
    for f in all_transformations(inst.n):
        if not all(f.map[x] in inst.y for x in inst.y.members):
            continue
        if restriction(f, inst.y) in inst.prescribed:
            out.append(f)
    return out


class TestBuild:
    def test_sym_example(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        b = inst.build()
        assert {f.to_text() for f in b.elements} == {
            "0,1,0", "0,1,1", "0,1,2", "1,0,0", "1,0,1", "1,0,2",
        }

    def test_constant_example(self):
        inst = TInstance(IndexSubset(3, [0, 1]), FiniteSemigroup([Transformation([0, 0])]))
        b = inst.build()
        assert {f.to_text() for f in b.elements} == {"0,0,0", "0,0,1", "0,0,2"}

    def test_matches_brute_filter(self):
        for n in (2, 3):
            for members in ([0], [1], [0, 1]):
                if max(members) >= n:
                    continue
                y = IndexSubset(n, members)
                base = all_transformations(len(y))
                for seed in base:
                    inst = TInstance(y, generate([seed]))
                    b = inst.build()
                    assert sorted(f.map for f in b.elements) == sorted(
                        f.map for f in brute_force_members(inst)
                    )
                    assert len(b) == len(inst.prescribed) * n ** (n - len(y))

    def test_y_equals_x_returns_sy(self):
        s = sym_on(3)
        inst = TInstance(IndexSubset(3, [0, 1, 2]), s)
        assert inst.build() is s

    def test_identity_membership_tracks_identity_of_sy(self):
        with_id = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        assert Transformation.identity(3) in with_id.build()
        without = TInstance(IndexSubset(3, [0, 1]), FiniteSemigroup([Transformation([0, 0])]))
        assert Transformation.identity(3) not in without.build()

    def test_size_cap(self):
        # 6^5 = 7,776 elements, past the 4,096-element Cayley table
        inst = TInstance(IndexSubset(6, [0]), FiniteSemigroup([Transformation([0])]))
        with pytest.raises(SizeCapExceeded):
            inst.build()

    def test_empty_y_convention(self):
        inst = TInstance(IndexSubset(2, []), FiniteSemigroup([Transformation(())]))
        assert len(inst.build()) == 4


class TestMembership:
    def test_rejects_outsiders(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        with pytest.raises(ValueError, match="not in T_S"):
            inst.record(Transformation([2, 0, 1]))  # Y not invariant
        constant = TInstance(IndexSubset(3, [0, 1]), FiniteSemigroup([Transformation([0, 0])]))
        with pytest.raises(ValueError, match="not in T_S"):
            # the restriction is the identity, not in S(Y)
            constant.thm_element(Transformation([0, 1, 2]), "regular")


class TestElementPredicate:
    def test_unit_regular_example(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        v = inst.thm_element(Transformation([0, 1, 0]), "unit_regular")
        assert v.holds
        g = v.witness
        f = Transformation([0, 1, 0])
        assert g.is_bijective() and f * g * f == f

    def test_regular_false_example(self):
        s_y = FiniteSemigroup([Transformation([0, 1]), Transformation([0, 0])])
        inst = TInstance(IndexSubset(3, [0, 1]), s_y)
        f = Transformation([0, 0, 1])
        assert not inst.thm_element(f, "regular").holds
        assert not element_oracle(inst.build(), f, "regular").holds

    def test_y_equals_x_collapses_to_sy_verdict(self):
        s_y = generate([Transformation([0, 0, 1])])
        inst = TInstance(IndexSubset(3, [0, 1, 2]), s_y)
        for f in s_y.elements:
            v = inst.thm_element(f, "regular")
            assert v.holds == element_oracle(s_y, f, "regular").holds

    def test_unit_regular_needs_identity(self):
        inst = TInstance(IndexSubset(3, [0, 1]), FiniteSemigroup([Transformation([0, 0])]))
        with pytest.raises(ValueError, match="identity required"):
            inst.thm_element(Transformation([0, 0, 0]), "unit_regular")

    def test_differential_exhaustive_small(self):
        # predicate == oracle for every element of every build, n <= 3, |Y| <= 2
        for n in (2, 3):
            for members in ([0], [1], [0, 1], [1, 2] if n == 3 else [0, 1]):
                if max(members) >= n:
                    continue
                y = IndexSubset(n, members)
                for seed in all_transformations(len(y)):
                    inst = TInstance(y, generate([seed]))
                    b = inst.build()
                    modes = ["regular"] + (["unit_regular"] if inst.has_identity else [])
                    for f in b.elements:
                        for mode in modes:
                            thm = inst.thm_element(f, mode)
                            orc = element_oracle(b, f, mode)
                            assert thm.holds == orc.holds, (inst, f, mode)

    def test_witnesses_stay_inside_the_semigroup(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        b = inst.build()
        for f in b.elements:
            v = inst.thm_element(f, "unit_regular")
            if v.holds:
                assert v.witness in b
                assert v.witness.is_bijective()
                assert f * v.witness * f == f


def t(*images):
    return Transformation(images)


ID2, SWAP, C0, C1 = t(0, 1), t(1, 0), t(0, 0), t(1, 1)


class TestElementRecord(ElementRecordCases):
    @staticmethod
    def instances():
        yield TInstance(IndexSubset(3, [0, 1]), FiniteSemigroup(all_transformations(2)))
        yield TInstance(IndexSubset(3, [0, 2]), sym_on(2))
        yield TInstance(IndexSubset(3, [1]), sym_on(1))
        yield TInstance(IndexSubset(4, [1, 3]), FiniteSemigroup([ID2, C0, C1]))
        yield TInstance(IndexSubset(3, []), FiniteSemigroup([Transformation(())]))

    @staticmethod
    def clone(inst):
        return TInstance(inst.y, inst.prescribed)

    @staticmethod
    def canonical(f, inst):
        return canonical_transversal(f, inst.y, fibers(f))


def test_one_fibre_map_per_record(monkeypatch):
    # a record's transversal reads the fibres the record holds: over a
    # sweep, whose transversal checks read the transversal of every record
    # (shared by the instances on its region), f's fibres are worked out
    # once per record
    made, worked_out = [], []
    init = TElementRecord.__init__

    def counted_init(rec, y, f):
        init(rec, y, f)
        made.append(rec)

    def counted_fibers(f):
        worked_out.append(f)
        return fibers(f)

    monkeypatch.setattr(TElementRecord, "__init__", counted_init)
    monkeypatch.setattr(transform_semigroup, "fibers", counted_fibers)
    monkeypatch.setattr(transformations, "fibers", counted_fibers)
    plan = SweepPlan(family="transformation", ns=(1, 2, 3), subset_sizes=(0, 1, 2),
                     source=("exhaustive",), modes=("regular", "unit_regular"))
    rep = run_sweep(plan)
    assert rep.clean and rep.transversal_checks_run >= len(made) > 0
    assert len(worked_out) == len(made)


class TestSharedRecords(SharedRecordsCases):
    OUTSIDE = "f not in T_S(Y)(X): restriction outside S(Y)"
    NOT_INVARIANT = "f not in T_S(Y)(X): Y is not invariant"
    clone = staticmethod(TestElementRecord.clone)

    @staticmethod
    def on_y(*elements, n=3, y=(0, 1), store=None):
        """An instance on Y (default {0, 1} in 3 points) with S(Y) holding
        the given elements, on ``store`` (its own if None)."""
        return TInstance(IndexSubset(n, y), FiniteSemigroup(elements), store)

    def separated(self):
        # f|Y is the identity: in S_A(Y), not in S_B(Y)
        store = RegionStore()
        return self.on_y(ID2, store=store), self.on_y(C0, store=store), t(0, 1, 2)

    def non_invariant(self):
        return self.on_y(ID2), t(2, 0, 1)  # sends 0 out of Y

    def pairs(self):
        cases = [
            ((ID2,), (C0,), {}),
            ((ID2, SWAP), (ID2,), {}),
            ((C0, C1), (C0,), {}),
            ((ID2, C0), (ID2, C1), {"y": (0, 2)}),
            (all_transformations(2), (ID2, SWAP), {"n": 4}),
        ]
        for elems_a, elems_b, where in cases:
            store = RegionStore()
            yield tuple(self.on_y(*elems, store=store, **where) for elems in (elems_a, elems_b))

    def partners(self):
        # f|Y is constant, so every unit of S(Y) is a partner and each
        # instance takes its first: A and C list the swap first, B lacks it
        store = RegionStore()
        return (self.on_y(SWAP, ID2, C0, C1, store=store), self.on_y(ID2, C0, C1, store=store),
                self.on_y(SWAP, ID2, C1, C0, store=store), t(0, 0, 2), "unit_regular", SWAP)


class TestSemigroupPredicate:
    def test_sym_instance(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        assert inst.thm_semigroup("regular").holds
        assert inst.thm_semigroup("unit_regular").holds
        assert not inst.thm_semigroup("inverse").holds

    def test_two_point_inverse(self):
        inst = TInstance(IndexSubset(2, [0]), FiniteSemigroup([Transformation([0])]))
        assert inst.thm_semigroup("inverse").holds
        b = inst.build()
        assert semigroup_oracle(b, "inverse").holds

    def test_y_equals_x_mirrors_sy(self):
        s_y = generate([Transformation([0, 0, 1])])
        inst = TInstance(IndexSubset(3, [0, 1, 2]), s_y)
        for mode in ("regular", "inverse"):
            assert inst.thm_semigroup(mode).holds == semigroup_oracle(s_y, mode).holds

    def test_subgroup_implies_regular_build(self):
        # one-directional sufficient condition, checked on the oracle side
        for n in (2, 3):
            for members in ([0], [0, 1]):
                y = IndexSubset(n, members)
                base = [t for t in all_transformations(len(y)) if t.is_bijective()]
                for seed in base:
                    s_y = generate([seed])
                    inst = TInstance(y, s_y)
                    assert inst.unit_group
                    b = inst.build()
                    assert semigroup_oracle(b, "regular").holds
                    if inst.has_identity:
                        assert semigroup_oracle(b, "unit_regular").holds

    def test_clause_is_reported(self):
        inst = TInstance(IndexSubset(3, [0, 1]), sym_on(2))
        assert "subgroup" in inst.thm_semigroup("regular").clause


class TestJsonIngest:
    def test_elements_form(self):
        inst = TInstance.from_dict(
            {"kind": "transformation", "n": 3, "Y": [0, 1],
             "sY": {"elements": [[0, 1], [1, 0]]}}
        )
        assert inst.n == 3 and len(inst.prescribed) == 2 and inst.has_identity

    def test_generators_form(self):
        inst = TInstance.from_dict(
            {"kind": "transformation", "n": 3, "Y": [0, 1], "sY": {"generators": [[1, 0]]}}
        )
        assert len(inst.prescribed) == 2

    def test_non_closed_elements_rejected(self):
        data = {"kind": "transformation", "n": 3, "Y": [0, 1, 2],
                "sY": {"elements": [[1, 2, 0]]}}
        with pytest.raises(ValueError, match="not closed"):
            TInstance.from_dict(data)
        inst = TInstance.from_dict({**data, "sY": {"generators": [[1, 2, 0]]}})
        assert len(inst.prescribed) == 3

    def test_generators_and_elements_conflict(self):
        data = {"kind": "transformation", "n": 3, "Y": [0, 1],
                "sY": {"generators": [[1, 0]], "elements": [[0, 1], [1, 0]]}}
        with pytest.raises(ValueError, match="not both"):
            TInstance.from_dict(data)


class TestEmptyY:
    """Y = ∅: S(Y) is the trivial semigroup of the empty map and the build
    is all of T(X), which is regular and unit-regular, and inverse only
    for |X| <= 1."""

    @staticmethod
    def instance(n):
        return TInstance(IndexSubset(n, []), FiniteSemigroup([Transformation(())]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_semigroup_modes_agree_with_oracle(self, n):
        inst = self.instance(n)
        b = inst.build()
        assert len(b) == n ** n and inst.has_identity
        for mode in TInstance.SEMIGROUP_MODES:
            assert inst.thm_semigroup(mode).holds == semigroup_oracle(b, mode).holds, mode
        assert inst.thm_semigroup("inverse").holds == (n == 1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_element_modes_agree_with_oracle(self, n):
        inst = self.instance(n)
        b = inst.build()
        for f in b.elements:
            for mode in TInstance.ELEMENT_MODES:
                thm = inst.thm_element(f, mode)
                assert thm.holds == element_oracle(b, f, mode).holds, (f, mode)
                if thm.witness is not None:
                    g = thm.witness
                    assert g in b and f * g * f == f
                    assert mode != "unit_regular" or g.is_bijective()
            assert inst.record(f).transversal_problem is None

    def test_canonical_transversal_takes_smallest_preimages(self):
        # fibres {1, 3} (of 0) and {0, 2} (of 2)
        f = Transformation([2, 0, 2, 0])
        pair = canonical_transversal(f, IndexSubset(4, []), fibers(f))
        assert pair.t == IndexSubset(4, [0, 1]) and len(pair.t_on_y) == 0

    @pytest.mark.parametrize("argv", [
        ["classify", "--kind", "t", "--n", "2", "--y", "", "--sy", ""],
        ["element", "--kind", "t", "--n", "2", "--y", "", "--sy", "", "--f", "0,0"],
        ["classify", "--kind", "t", "--n", "1", "--y", "", "--gens", ""],
    ])
    def test_cli_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        assert "DISAGREEMENT" not in capsys.readouterr().out
