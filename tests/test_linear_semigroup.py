"""Tests for the linear-restriction semigroup: the build, the element and
semigroup characterization predicates, witnesses, and the index-family
composition laws for codimension-one subgroups."""

import random
from itertools import product

import pytest

from resemi import linear_semigroup as lsg
from resemi import sweep
from resemi.family import RegionStore
from resemi.gflinear import (
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    _intersect,
    _solve,
    _span_of,
    all_subspaces,
    canonical_transversal_subspace,
    extension_rows,
    image_space,
    independent_extension,
    mat_inverse,
    null_space,
    restricted_image_space,
    restriction_matrix,
    solve_row_vector,
    unit_rows,
)
from resemi.linear_semigroup import LInstance, alpha_family_check
from resemi.semigroups import (
    FiniteSemigroup,
    SizeCapExceeded,
    element_oracle,
    generate,
    semigroup_oracle,
)
from test_acceptance import CRITERION3_PLANS
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
    return LInstance(Subspace.zero(p, n), FiniteSemigroup([GFMatrix(p, (), cols=0)]))


def brute_force_members(inst):
    """Independent oracle: filter all p^(n^2) matrices by the defining condition."""
    out = []
    for f in all_matrices(inst.p, inst.n):
        try:
            alpha = restriction_matrix(f, inst.w)
        except ValueError:
            continue
        if alpha in inst.prescribed:
            out.append(f)
    return out


class TestBuild:
    def test_line_example(self):
        inst = LInstance(Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        b = inst.build()
        assert {m.to_text() for m in b.elements} == {
            "1,0;0,0", "1,0;0,1", "1,0;1,0", "1,0;1,1",
        }

    def test_zero_subspace_gives_all_of_lv(self):
        assert len(zero_instance(2, 2).build()) == 16
        assert len(zero_instance(3, 1).build()) == 3

    def test_w_equals_v_returns_sw(self):
        s_w = generate([GFMatrix(2, [[0, 1], [1, 0]])])
        inst = LInstance(Subspace.full(2, 2), s_w)
        assert inst.build() is s_w

    def test_matches_brute_filter(self):
        for p, n in ((2, 2), (3, 2)):
            for w in all_subspaces(p, n):
                bases = [GFMatrix.identity(p, w.dim)]
                if w.dim:
                    bases.append(GFMatrix.zero(p, w.dim, w.dim))
                for seed in bases:
                    inst = LInstance(w, generate([seed]))
                    b = inst.build()
                    assert sorted(m.entries for m in b.elements) == sorted(
                        m.entries for m in brute_force_members(inst)
                    )
                    k = w.dim
                    assert len(b) == len(inst.prescribed) * p ** (n * (n - k))

    def test_identity_membership_tracks_identity_of_sw(self):
        w = Subspace(2, 2, [[1, 0]])
        with_id = LInstance(w, trivial_sw(2, 1))
        assert GFMatrix.identity(2, 2) in with_id.build()
        without = LInstance(w, FiniteSemigroup([GFMatrix(2, [[0]])]))
        assert GFMatrix.identity(2, 2) not in without.build()

    def test_size_cap(self):
        # 2^16 = 65,536 elements, past the 4,096-element Cayley table
        with pytest.raises(SizeCapExceeded):
            zero_instance(2, 4).build()

    def test_whole_space_build_lists_no_points(self):
        # W = V: the build is S(W) itself; GF(101)^4's 104 M points are
        # never listed and neither is the complement basis
        inst = LInstance(Subspace.full(101, 4), trivial_sw(101, 4))
        assert inst.build() is inst.prescribed
        assert "_free" not in vars(inst) and "_complement" not in vars(inst)

    @pytest.mark.parametrize("p, n, regions", [
        (2, 3, None), (3, 2, None), (101, 4, [[[0, 1, 5, 100]]]),
    ])
    def test_extend_is_on_basis(self, p, n, regions):
        # the substitution on W's canonical basis gives the matrix the
        # inverse of W's basis followed by its complement gives: every W
        # (or a line), every alpha in L(W), seeded images
        rng = random.Random(f"extend:{p}:{n}")
        spaces = all_subspaces(p, n) if regions is None else [Subspace(p, n, r) for r in regions]
        for w in spaces:
            inst = LInstance(w, trivial_sw(p, w.dim))
            for alpha in all_matrices(p, w.dim):
                images = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(w.codim)]
                basis = GFMatrix(p, w.basis + inst._complement, cols=n)
                lifted = [w.from_coordinates(row) for row in alpha.entries]
                assert inst.extend(alpha, images) == (
                    mat_inverse(basis) * GFMatrix(p, lifted + images, cols=n))


class TestElementPredicate:
    def test_regular_false_example(self):
        inst = LInstance(Subspace(2, 2, [[1, 0]]),
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
        inst = LInstance(Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        e = GFMatrix.identity(2, 2)
        assert inst.thm_element(e, "regular").holds
        assert inst.thm_element(e, "unit_regular").holds

    def test_unit_regular_needs_identity(self):
        inst = LInstance(Subspace(2, 2, [[1, 0]]),
                         FiniteSemigroup([GFMatrix(2, [[0]])]))
        with pytest.raises(ValueError, match="identity required"):
            inst.thm_element(GFMatrix(2, [[0, 0], [0, 0]]), "unit_regular")

    def test_membership_required(self):
        inst = LInstance(Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
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
                    inst = LInstance(w, generate([seed]))
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
                yield LInstance(w, full_l_w)
        for basis in ([[1, 0, 0]], [[1, 0, 0], [0, 1, 1]]):
            w = Subspace(2, 3, basis)
            yield LInstance(w, trivial_sw(2, w.dim))

    @staticmethod
    def clone(inst):
        return LInstance(inst.w, inst.prescribed)

    @staticmethod
    def canonical(f, inst):
        return canonical_transversal_subspace(f, inst.w)


# -- per-record references for the parts the record looks up by subspace ------


def reference_chain(f, w):
    """B1..B4, the inverse of their basis matrix and B1 + B2 in W's
    coordinates, derived afresh for f."""
    p, n = w.p, w.ambient_dim
    rf = image_space(f)
    b1 = list(rf.intersect(w).basis)
    b2 = independent_extension(p, n, b1, w.basis)
    b3 = independent_extension(p, n, b1, rf.basis)
    b123 = b1 + b2 + b3
    b4 = independent_extension(p, n, b123, unit_rows(n))
    inverse = mat_inverse(GFMatrix(p, b123 + b4, cols=n))
    return (b1, b2, b3, b4), inverse, [w.coordinates(v) for v in b1 + b2]


def reference_transversal_problem(f, w):
    """The transversal check on f's canonical pair, reading ``f.rank``."""
    tr, ns = canonical_transversal_subspace(f, w), null_space(f)
    if tr.u.dim != f.rank:
        return "transversal dimension differs from rank"
    if tr.u.sum(ns).dim != tr.u.dim + ns.dim:
        return "transversal meets the null space"
    if (not all(tr.u.contains(b) and w.contains(b) for b in tr.u_meet_w.basis)
            or tr.u_meet_w.dim != tr.u.dim + w.dim - tr.u.sum(w).dim):
        return "U meet W is not the trace of U"
    ns_on_w = ns.intersect(w)
    if tr.u_meet_w.dim + ns_on_w.dim != w.dim:
        return "U meet W is not a complement of the restricted null space"
    if tr.u_meet_w.intersect(ns_on_w).dim != 0:
        return "U meet W meets the restricted null space"
    return None


def reference_witness(f, w, mode, partner):
    """The witness assembled row by row on the reference chain, or
    ``"raises"`` when the complement bases differ in size."""
    p, n = w.p, w.ambient_dim
    (_, _, b3, b4), inverse, coordinates = reference_chain(f, w)
    rows = [w.from_coordinates(partner.apply(c)) for c in coordinates]
    if mode == "regular":
        rows += [solve_row_vector(f, v) for v in b3] + [(0,) * n for _ in b4]
    else:
        u = canonical_transversal_subspace(f, w).u
        mu = GFMatrix(p, [f.apply(r) for r in u.basis], cols=n)
        rows += [u.from_coordinates(solve_row_vector(mu, v)) for v in b3]
        c4 = independent_extension(p, n, w.sum(u).basis, unit_rows(n))
        if len(c4) != len(b4):
            return "raises"
        rows += c4
    return inverse * GFMatrix(p, rows, cols=n)


class TestRecordAgainstReferences:
    """Every part the record looks up by subspace, B3 and B4, and every
    witness equal their derivation on the per-record chain B1..B4, with
    S(W) = L(W), every W-invariant f and every partner in L(W), in both
    witness modes: for every W of GF(2)^2 and GF(3)^2, and for the
    records on the planes W of GF(2)^3 whose R(f) meet W is a line, the
    only ones whose B1 and B2 are both non-empty and whose witness is
    not the partner itself (W = V)."""

    @staticmethod
    def check_records(spaces, keep):
        """The comparison on every W of ``spaces`` and every W-invariant f
        that ``keep(rec)`` selects; the count of records compared and of
        genuine witnesses product-checked."""
        records = checked = 0
        for w in spaces:
            p, n = w.p, w.ambient_dim
            l_w = all_matrices(p, w.dim)
            inst = LInstance(w, FiniteSemigroup(l_w))
            for f in all_matrices(p, n):
                try:
                    alpha = restriction_matrix(f, w)
                except ValueError:
                    continue
                rec = inst.record(f)
                if not keep(rec):
                    continue
                records += 1
                (_, _, b3, b4), _, _ = reference_chain(f, w)
                assert [list(b) for b in rec.completion[:2]] == [b3, b4]
                assert rec.rw == restricted_image_space(f, w)
                assert rec.transversal_problem == reference_transversal_problem(f, w)
                for mode in ("regular", "unit_regular"):
                    for partner in l_w:
                        want = reference_witness(f, w, mode, partner)
                        try:
                            got = rec.witness(mode, partner)
                        except AssertionError:
                            got = "raises"
                        assert got == want, (w, f.to_text(), mode, partner.to_text())
                        genuine = (alpha * partner * alpha == alpha
                                   and (mode == "regular" or partner.is_invertible()))
                        if genuine and rec.trace_ok and got != "raises":
                            assert inst.witness_problem(f, got, mode) is None
                            checked += 1
        return records, checked

    @pytest.mark.parametrize("p", [2, 3])
    def test_record_matches_the_per_record_derivations(self, p):
        assert self.check_records(all_subspaces(p, 2), lambda rec: True)[1] > 0

    def test_split_basis_of_w_in_gf2_cubed(self):
        records, checked = self.check_records(all_subspaces(2, 3, 2),
                                              lambda rec: rec.r_meet_w.dim == 1)
        assert records == 399 and checked > 0


class TestTransversalProblem:
    @pytest.mark.parametrize("wrong", [[], [[0, 1]]], ids=["too_small", "outside_w"])
    def test_wrong_trace_is_found(self, monkeypatch, wrong):
        # f = 1 on GF(2)^2 with W = <(1,0)>: U = V, so U meet W is W
        w, s_w = Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1)
        f = GFMatrix.identity(2, 2)
        lsg._transversal_problem.cache_clear()
        assert LInstance(w, s_w).record(f).transversal_problem is None
        build_pair = lsg.transversal_from_spaces
        monkeypatch.setattr(lsg, "transversal_from_spaces", lambda *args: SubspaceTransversal(
            build_pair(*args).u, Subspace(2, 2, wrong)))
        # a new instance has a store of its own, where f's record is made afresh
        assert LInstance(w, s_w).record(f).transversal_problem == "U meet W is not the trace of U"
        # the check went through the memo, where the wrong pair is a key of its own
        info = lsg._transversal_problem.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


# Every memo the linear elements and their records read through.
RECORD_SHARING = (_span_of, _intersect, null_space, _solve, extension_rows,
                  lsg._transversal_problem, lsg._complement_basis, lsg._completion,
                  lsg._lifted)


def test_one_inverse_per_completion(monkeypatch):
    # the four criterion-3 plans, with no memo filled before: their 294
    # completions, one per (W, R(f)), hold 98 distinct bases [W; B3; B4]
    # of V, and each completion inverts its basis once
    for memo in RECORD_SHARING:
        memo.cache_clear()
    inverted = []

    def counted(m):
        inverted.append(m)
        return mat_inverse(m)

    monkeypatch.setattr(lsg, "mat_inverse", counted)
    assert all(sweep.run_sweep(plan).clean for plan in CRITERION3_PLANS)
    assert len(inverted) == lsg._completion.cache_info().misses == 294
    assert len(set(inverted)) == 98


class TestSharingChangesNoAnswer:
    """What the record shares, through the memos and the region store, never
    changes an answer.  For every element of every instance on one region,
    the transversal pair, the complement sizes, B3 and B4, and both element
    verdicts with their witnesses (each built on the S-partner the theorem
    takes) are the same computed warm, on the sweep's instances after the
    region's earlier elements, and cold, after every memo is cleared, on a
    new instance with a store of its own; and every witness passes
    ``witness_problem``.  The regions are the first of
    each dimension that c3d sweeps in GF(2)^3, with the instances c3d runs
    on it, and the first line of GF(3)^2, with c3b's."""

    @staticmethod
    def answers(inst, f):
        rec = inst.record(f)
        return (rec.transversal, rec.complement_sizes, rec.completion[:2],
                [inst.thm_element(f, mode) for mode in inst.decidable(inst.ELEMENT_MODES)])

    @staticmethod
    def instances_on_first_region(plan, dim):
        """The instances ``plan`` runs on its first region of dimension
        ``dim``, in sweep order."""
        region, out = None, []
        for _, inst in sweep._instances(plan):
            if out and inst.w != region:
                break
            if inst.w.dim == dim:
                region = inst.w
                out.append(inst)
        return out

    @pytest.mark.parametrize("plan, dim", [
        *[(CRITERION3_PLANS[3], dim) for dim in range(4)], (CRITERION3_PLANS[1], 1),
    ], ids=[*[f"c3d-GF(2)^3-dim-{dim}" for dim in range(4)], "c3b-GF(3)^2-line"])
    def test_warm_equals_cold(self, plan, dim):
        instances = self.instances_on_first_region(plan, dim)
        assert all(inst.store is instances[0].store for inst in instances)
        warm = [(inst, f, self.answers(inst, f))
                for inst in instances for f in inst.build().elements]
        witnesses = 0
        for inst, f, answers in warm:
            for memo in RECORD_SHARING:
                memo.cache_clear()
            assert self.answers(LInstance(inst.w, inst.prescribed), f) == answers, (
                inst, f.to_text())
            for mode, verdict in zip(inst.decidable(inst.ELEMENT_MODES), answers[3]):
                if verdict.holds:
                    assert inst.witness_problem(f, verdict.witness, mode) is None
                    witnesses += 1
        assert len(instances) > (0 if dim == 0 else 1) and witnesses > 0


class TestSharedRecords(SharedRecordsCases):
    OUTSIDE = "f not in L_S(W)(V): restriction outside S(W)"
    NOT_INVARIANT = "f not in L_S(W)(V): W is not invariant"
    clone = staticmethod(TestElementRecord.clone)

    @staticmethod
    def line(*values, store=None):
        """W = span{(1, 0)} in GF(2)^2 with S(W) holding the given 1 x 1
        entries, on ``store`` (its own if None)."""
        return LInstance(Subspace(2, 2, [[1, 0]]),
                         FiniteSemigroup([GFMatrix(2, [[a]]) for a in values]), store)

    def separated(self):
        # f|W = [1]: in S_A(W), not in S_B(W)
        store = RegionStore()
        return self.line(1, store=store), self.line(0, store=store), GFMatrix.identity(2, 2)

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
            w, store = Subspace(p, n, basis), RegionStore()
            yield tuple(LInstance(w, FiniteSemigroup([GFMatrix(p, e) for e in elems]), store)
                        for elems in (elems_a, elems_b))

    def partners(self):
        w = Subspace(2, 2, [[1, 0]])
        zero = GFMatrix(2, [[0, 0], [0, 0]])  # f|W = [0], in both S(W)
        # A lists [1] first, so the partner of [0] it finds is [1]; B holds only [0]
        store = RegionStore()
        a = LInstance(w, FiniteSemigroup([GFMatrix(2, [[1]]), GFMatrix(2, [[0]])]), store)
        return (a, self.line(0, store=store), self.line(1, 0, store=store), zero, "regular",
                GFMatrix(2, [[1]]))


class TestSemigroupPredicate:
    def test_line_with_trivial_group(self):
        inst = LInstance(Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
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
        inst = LInstance(Subspace.full(2, 2), s_w)
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
                inst = LInstance(w, trivial_sw(p, w.dim))
                assert inst.unit_group
                b = inst.build()
                assert semigroup_oracle(b, "regular").holds
                assert semigroup_oracle(b, "unit_regular").holds

    def test_epimorphism_onto_sw(self):
        # restriction is a surjective homomorphism sending I_V to I_W
        s_w = generate([GFMatrix(2, [[0]]), GFMatrix(2, [[1]])])
        w = Subspace(2, 2, [[1, 1]])
        inst = LInstance(w, s_w)
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
        inst = LInstance(Subspace(2, 2, [[1, 0]]), trivial_sw(2, 1))
        v = alpha_family_check(inst, inst.build())
        assert v.holds and "4 maps" in v.clause

    def test_gf3_full_unit_group(self):
        s_w = generate([GFMatrix(3, [[2]])])
        assert len(s_w) == 2  # the full unit group of the line
        inst = LInstance(Subspace(3, 2, [[1, 0]]), s_w)
        v = alpha_family_check(inst, inst.build())
        assert v.holds and "18 maps" in v.clause

    def test_gf2_dim3_plane(self):
        s_w = generate([GFMatrix(2, [[0, 1], [1, 0]]), GFMatrix(2, [[1, 1], [0, 1]])])
        inst = LInstance(Subspace(2, 3, [[1, 0, 0], [0, 1, 0]]), s_w)
        assert alpha_family_check(inst, inst.build()).holds

    def test_reads_the_build_it_is_given(self):
        # the family of the trivial S(W) is not the build of the full unit group
        inst = LInstance(Subspace(3, 2, [[1, 0]]), trivial_sw(3, 1))
        other = LInstance(Subspace(3, 2, [[1, 0]]), generate([GFMatrix(3, [[2]])]))
        v = alpha_family_check(inst, other.build())
        assert not v.holds and v.clause == "family differs from the build"

    def test_swapped_table_entries_break_a_composition_law(self):
        s_w = generate([GFMatrix(3, [[2]])])
        inst = LInstance(Subspace(3, 2, [[1, 0]]), s_w)
        build = inst.build()
        assert alpha_family_check(inst, build).holds
        # the row of (0, 1): 0 sends every (z, del) to (0, del), so the row
        # holds two distinct entries; swap them in a replaced row, since a
        # byte table's rows are immutable
        i = build.index_of(inst.extend(s_w.identity, [(0, 0)]))
        row = list(build.table[i])
        j = next(j for j, v in enumerate(row) if v != row[0])
        row[0], row[j] = row[j], row[0]
        build.table[i] = bytes(row)
        v = alpha_family_check(inst, build)
        assert not v.holds and v.clause == "index composition law fails"

    def test_precondition_violations(self):
        with pytest.raises(ValueError, match="precondition violated"):
            alpha_family_check(zero_instance(2, 2), zero_instance(2, 2).build())  # codim 2
        not_group = LInstance(Subspace(2, 2, [[1, 0]]),
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
        assert len(inst.prescribed) == 2

    def test_zero_dim_w(self):
        inst = LInstance.from_dict(
            {"kind": "linear", "p": 2, "n": 2, "W": [], "sW": {"elements": [[]]}}
        )
        assert inst.w.dim == 0 and inst.has_identity
        assert len(inst.build()) == 16
