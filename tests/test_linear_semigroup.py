"""Tests for the linear-restriction semigroup: the build, the element and
semigroup characterization predicates, witnesses, and the index-family
composition laws for codimension-one subgroups."""

from itertools import product

import pytest

from resemi import linear_semigroup as lsg
from resemi.family import _store_on
from resemi.gflinear import (
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    all_subspaces,
    canonical_transversal_subspace,
    restriction_matrix,
)
from resemi.linear_semigroup import LInstance, alpha_family_check
from resemi.semigroups import (
    FiniteSemigroup,
    SizeCapExceeded,
    element_oracle,
    generate,
    semigroup_oracle,
)
from test_family import ElementRecordCases, SharedRecordsCases


def all_matrices(p, n):
    return [
        GFMatrix(p, [flat[i * n:(i + 1) * n] for i in range(n)], cols=n)
        for flat in product(range(p), repeat=n * n)
    ]


def trivial_sw(p, dim):
    return FiniteSemigroup([GFMatrix.identity(p, dim)])


def zero_instance(p, n):
    """W = {0}: the build is all of L(V)."""
    return LInstance(p, n, Subspace.zero(p, n), FiniteSemigroup([GFMatrix(p, (), cols=0)]))


def brute_force_members(inst):
    """Independent oracle: filter all p^(n^2) matrices by the defining condition."""
    out = []
    for f in all_matrices(inst.p, inst.n):
        try:
            alpha = restriction_matrix(f, inst.w)
        except ValueError:
            continue
        if alpha in inst.s_w:
            out.append(f)
    return out


class TestBuild:
    def test_line_example(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        b = inst.build()
        assert {m.to_text() for m in b.elements} == {
            "1,0;0,0", "1,0;0,1", "1,0;1,0", "1,0;1,1",
        }

    def test_zero_subspace_gives_all_of_lv(self):
        assert len(zero_instance(2, 2).build()) == 16
        assert len(zero_instance(3, 1).build()) == 3

    def test_w_equals_v_returns_sw(self):
        s_w = generate([GFMatrix(2, [[0, 1], [1, 0]])])
        inst = LInstance(2, 2, Subspace.full(2, 2), s_w)
        assert inst.build() is s_w

    def test_matches_brute_filter(self):
        for p, n in ((2, 2), (3, 2)):
            for w in all_subspaces(p, n):
                bases = [GFMatrix.identity(p, w.dim)]
                if w.dim:
                    bases.append(GFMatrix.zero(p, w.dim, w.dim))
                for seed in bases:
                    inst = LInstance(p, n, w, generate([seed]))
                    b = inst.build()
                    assert sorted(m.entries for m in b.elements) == sorted(
                        m.entries for m in brute_force_members(inst)
                    )
                    k = w.dim
                    assert len(b) == len(inst.s_w) * p ** (n * (n - k))

    def test_identity_membership_tracks_identity_of_sw(self):
        w = Subspace(2, 2, [[1, 0]])
        with_id = LInstance(2, 2, w, trivial_sw(2, 1))
        assert GFMatrix.identity(2, 2) in with_id.build()
        without = LInstance(2, 2, w, FiniteSemigroup([GFMatrix(2, [[0]])]))
        assert GFMatrix.identity(2, 2) not in without.build()

    def test_size_cap(self):
        # 2^16 = 65,536 elements, past the 4,096-element Cayley table
        with pytest.raises(SizeCapExceeded):
            zero_instance(2, 4).build()

    def test_whole_space_build_lists_no_points(self):
        # W = V: the build is S(W) itself; GF(101)^4's 104 M points are
        # never listed and the complement basis is never inverted
        inst = LInstance(101, 4, Subspace.full(101, 4), trivial_sw(101, 4))
        assert inst.build() is inst.s_w
        assert "_c_inv" not in vars(inst)


class TestElementPredicate:
    def test_regular_false_example(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]),
                         FiniteSemigroup([GFMatrix(2, [[0]])]))
        f = GFMatrix(2, [[0, 0], [1, 0]])
        assert not inst.thm_element(f, "regular").holds
        assert not element_oracle(inst.build(), f, "regular").holds

    def test_unit_regular_idempotent_in_lv(self):
        inst = zero_instance(2, 2)
        f = GFMatrix(2, [[1, 0], [0, 0]])
        assert f * f == f
        v = inst.thm_element(f, "unit_regular")
        assert v.holds
        g = v.witness
        assert g.is_invertible() and f * g * f == f

    def test_identity_element_always_passes(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        e = GFMatrix.identity(2, 2)
        assert inst.thm_element(e, "regular").holds
        assert inst.thm_element(e, "unit_regular").holds

    def test_unit_regular_needs_identity(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]),
                         FiniteSemigroup([GFMatrix(2, [[0]])]))
        with pytest.raises(ValueError, match="identity required"):
            inst.thm_element(GFMatrix(2, [[0, 0], [0, 0]]), "unit_regular")

    def test_membership_required(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        with pytest.raises(ValueError, match="not in L_S"):
            inst.thm_element(GFMatrix(2, [[0, 1], [0, 0]]), "regular")

    def test_differential_exhaustive_small(self):
        for p in (2, 3):
            for w in all_subspaces(p, 2):
                seeds = [GFMatrix.identity(p, w.dim)]
                if w.dim:
                    seeds.append(GFMatrix.zero(p, w.dim, w.dim))
                if w.dim == 2:
                    seeds.append(GFMatrix(p, [[0, 1], [1, 0]]))
                for seed in seeds:
                    inst = LInstance(p, 2, w, generate([seed]))
                    b = inst.build()
                    modes = ["regular"] + (["unit_regular"] if inst.has_identity else [])
                    for f in b.elements:
                        for mode in modes:
                            thm = inst.thm_element(f, mode)
                            orc = element_oracle(b, f, mode)
                            assert thm.holds == orc.holds, (inst, f.to_text(), mode)

    def test_regular_witness_validity(self):
        # every success must come with a verified pseudo-inverse inside the build
        inst = zero_instance(2, 2)
        b = inst.build()
        for f in b.elements:
            v = inst.thm_element(f, "regular")
            assert v.holds  # L(V) of a finite-dimensional space is regular
            assert v.witness in b and f * v.witness * f == f


class TestElementRecord(ElementRecordCases):
    @staticmethod
    def instances():
        for p in (2, 3):
            full_l_w = FiniteSemigroup([GFMatrix(p, [[a]]) for a in range(p)])
            for w in all_subspaces(p, 2, 1):
                yield LInstance(p, 2, w, full_l_w)
        for basis in ([[1, 0, 0]], [[1, 0, 0], [0, 1, 1]]):
            w = Subspace(2, 3, basis)
            yield LInstance(2, 3, w, trivial_sw(2, w.dim))

    @staticmethod
    def clone(inst):
        return LInstance(inst.p, inst.n, inst.w, inst.s_w)

    @staticmethod
    def canonical(f, inst):
        return canonical_transversal_subspace(f, inst.w)


class TestTransversalProblem:
    @pytest.mark.parametrize("wrong", [[], [[0, 1]]], ids=["too_small", "outside_w"])
    def test_wrong_trace_is_found(self, monkeypatch, wrong):
        # f = 1 on GF(2)^2 with W = <(1,0)>: U = V, so U meet W is W
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        f = GFMatrix.identity(2, 2)
        _store_on.cache_clear()
        assert inst.transversal_problem(f) is None
        build_pair = lsg.transversal_from_spaces
        monkeypatch.setattr(lsg, "transversal_from_spaces", lambda *args: SubspaceTransversal(
            build_pair(*args).u, Subspace(2, 2, wrong)))
        _store_on.cache_clear()  # f's record holds the right pair
        try:
            assert inst.transversal_problem(f) == "U meet W is not the trace of U"
        finally:
            _store_on.cache_clear()  # and now the wrong one


class TestSharedRecords(SharedRecordsCases):
    OUTSIDE = "f not in L_S(W)(V): restriction outside S(W)"
    NOT_INVARIANT = "f not in L_S(W)(V): W is not invariant"
    WITNESS_MEMO = True
    clone = staticmethod(TestElementRecord.clone)

    @staticmethod
    def line(*values):
        """W = span{(1, 0)} in GF(2)^2 with S(W) holding the given 1 x 1 entries."""
        return LInstance(2, 2, Subspace(2, 2, [[1, 0]]),
                         FiniteSemigroup([GFMatrix(2, [[a]]) for a in values]))

    def separated(self):
        # f|W = [1]: in S_A(W), not in S_B(W)
        return self.line(1), self.line(0), GFMatrix.identity(2, 2)

    def non_invariant(self):
        return self.line(1), GFMatrix(2, [[0, 1], [0, 0]])  # sends (1, 0) out of W

    @staticmethod
    def pairs():
        cases = [
            (2, 2, [[1, 0]], [[[1]]], [[[0]]]),
            (2, 2, [[1, 0]], [[[0]], [[1]]], [[[0]]]),
            (3, 2, [[1, 1]], [[[1]], [[2]]], [[[0]]]),
            (3, 2, [[1, 1]], [[[0]], [[1]]], [[[1]], [[2]]]),
            (2, 3, [[1, 0, 0], [0, 1, 1]], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
             [[[1, 0], [0, 0]]]),
            (2, 3, [[1, 0, 0]], [[[0]], [[1]]], [[[1]]]),
        ]
        for p, n, basis, elems_a, elems_b in cases:
            w = Subspace(p, n, basis)
            yield tuple(LInstance(p, n, w, FiniteSemigroup([GFMatrix(p, e) for e in elems]))
                        for elems in (elems_a, elems_b))

    def partners(self):
        w = Subspace(2, 2, [[1, 0]])
        zero = GFMatrix(2, [[0, 0], [0, 0]])  # f|W = [0], in both S(W)
        # A lists [1] first, so the partner of [0] it finds is [1]; B holds only [0]
        a = LInstance(2, 2, w, FiniteSemigroup([GFMatrix(2, [[1]]), GFMatrix(2, [[0]])]))
        return a, self.line(0), self.line(1, 0), zero, "regular", GFMatrix(2, [[1]])

    def regions(self):
        other_w = LInstance(2, 2, Subspace(2, 2, [[0, 1]]), trivial_sw(2, 1))
        return self.line(1), self.line(0), other_w, GFMatrix.identity(2, 2)


class TestSemigroupPredicate:
    def test_line_with_trivial_group(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        assert inst.thm_semigroup("regular").holds
        assert inst.thm_semigroup("unit_regular").holds
        assert inst.thm_semigroup("completely_regular").holds
        assert not inst.thm_semigroup("inverse").holds
        b = inst.build()
        for mode in ("regular", "unit_regular", "completely_regular", "inverse"):
            assert inst.thm_semigroup(mode).holds == semigroup_oracle(b, mode).holds
        # non-commuting idempotent pair witnesses the inverse failure
        e1 = GFMatrix(2, [[1, 0], [0, 0]])
        e2 = GFMatrix(2, [[1, 0], [1, 0]])
        assert e1 * e1 == e1 and e2 * e2 == e2 and e1 * e2 != e2 * e1

    def test_w_equals_v_mirrors_sw(self):
        s_w = generate([GFMatrix(2, [[1, 1], [0, 1]]), GFMatrix(2, [[1, 0], [0, 0]])])
        inst = LInstance(2, 2, Subspace.full(2, 2), s_w)
        for mode in ("regular", "inverse", "completely_regular"):
            assert inst.thm_semigroup(mode).holds == semigroup_oracle(s_w, mode).holds

    def test_zero_w_classification(self):
        inst = zero_instance(2, 2)
        assert inst.thm_semigroup("regular").holds
        assert inst.thm_semigroup("unit_regular").holds
        assert not inst.thm_semigroup("inverse").holds
        assert not inst.thm_semigroup("completely_regular").holds
        b = inst.build()
        # the nilpotent shows L(V) is not completely regular
        nil = GFMatrix(2, [[0, 0], [1, 0]])
        assert not element_oracle(b, nil, "completely_regular").holds
        assert semigroup_oracle(b, "regular").holds

    def test_full_lv_is_unit_regular_at_finite_dimension(self):
        # at finite dimension nullity always equals corank (both n - rank),
        # so every element of L(V) is unit-regular; check both facts directly
        from resemi.gflinear import null_space

        inst = zero_instance(2, 2)
        b = inst.build()
        for f in b.elements:
            assert null_space(f).dim == f.rows - f.rank  # corank under row action
            assert element_oracle(b, f, "unit_regular").holds
        assert semigroup_oracle(b, "unit_regular").holds

    def test_subgroup_implies_regular_and_unit_regular_build(self):
        for p, n in ((2, 2), (3, 2)):
            for w in all_subspaces(p, n):
                inst = LInstance(p, n, w, trivial_sw(p, w.dim))
                assert inst.unit_group
                b = inst.build()
                assert semigroup_oracle(b, "regular").holds
                assert semigroup_oracle(b, "unit_regular").holds

    def test_epimorphism_onto_sw(self):
        # restriction is a surjective homomorphism sending I_V to I_W
        s_w = generate([GFMatrix(2, [[0]]), GFMatrix(2, [[1]])])
        w = Subspace(2, 2, [[1, 1]])
        inst = LInstance(2, 2, w, s_w)
        b = inst.build()
        seen = set()
        for f in b.elements:
            seen.add(restriction_matrix(f, w))
            for g in b.elements:
                assert restriction_matrix(f * g, w) == (
                    restriction_matrix(f, w) * restriction_matrix(g, w)
                )
        assert seen == set(s_w.elements)
        assert restriction_matrix(GFMatrix.identity(2, 2), w) == GFMatrix.identity(2, 1)


class TestAlphaFamily:
    def test_gf2_line(self):
        inst = LInstance(2, 2, Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        v = alpha_family_check(inst, inst.build())
        assert v.holds and "4 maps" in v.clause

    def test_gf3_full_unit_group(self):
        s_w = generate([GFMatrix(3, [[2]])])
        assert len(s_w) == 2  # the full unit group of the line
        inst = LInstance(3, 2, Subspace(3, 2, [[1, 0]]), s_w)
        v = alpha_family_check(inst, inst.build())
        assert v.holds and "18 maps" in v.clause

    def test_gf2_dim3_plane(self):
        s_w = generate([GFMatrix(2, [[0, 1], [1, 0]]), GFMatrix(2, [[1, 1], [0, 1]])])
        inst = LInstance(2, 3, Subspace(2, 3, [[1, 0, 0], [0, 1, 0]]), s_w)
        assert alpha_family_check(inst, inst.build()).holds

    def test_reads_the_build_it_is_given(self):
        # the family of the trivial S(W) is not the build of the full unit group
        inst = LInstance(3, 2, Subspace(3, 2, [[1, 0]]), trivial_sw(3, 1))
        other = LInstance(3, 2, Subspace(3, 2, [[1, 0]]), generate([GFMatrix(3, [[2]])]))
        v = alpha_family_check(inst, other.build())
        assert not v.holds and v.clause == "family differs from the build"

    def test_swapped_table_entries_break_a_composition_law(self):
        s_w = generate([GFMatrix(3, [[2]])])
        inst = LInstance(3, 2, Subspace(3, 2, [[1, 0]]), s_w)
        build = inst.build()
        assert alpha_family_check(inst, build).holds
        # the row of (0, 1): 0 sends every (z, del) to (0, del), so the row
        # holds two distinct entries; swap them
        row = build.table[build.index_of(inst.extend(s_w.identity, [(0, 0)]))]
        j = next(j for j, v in enumerate(row) if v != row[0])
        row[0], row[j] = row[j], row[0]
        v = alpha_family_check(inst, build)
        assert not v.holds and v.clause == "index composition law fails"

    def test_precondition_violations(self):
        with pytest.raises(ValueError, match="precondition violated"):
            alpha_family_check(zero_instance(2, 2), zero_instance(2, 2).build())  # codim 2
        not_group = LInstance(2, 2, Subspace(2, 2, [[1, 0]]),
                              FiniteSemigroup([GFMatrix(2, [[0]])]))
        with pytest.raises(ValueError, match="precondition violated"):
            alpha_family_check(not_group, not_group.build())


class TestJsonIngest:
    def test_elements_form(self):
        inst = LInstance.from_dict(
            {"kind": "linear", "p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]]]}}
        )
        assert inst.p == 2 and inst.w.dim == 1 and inst.has_identity

    def test_generators_form(self):
        inst = LInstance.from_dict(
            {"kind": "linear", "p": 3, "n": 2, "W": [[1, 0]], "sW": {"generators": [[[2]]]}}
        )
        assert len(inst.s_w) == 2

    def test_zero_dim_w(self):
        inst = LInstance.from_dict(
            {"kind": "linear", "p": 2, "n": 2, "W": [], "sW": {"elements": [[]]}}
        )
        assert inst.w.dim == 0 and inst.has_identity
        assert len(inst.build()) == 16
