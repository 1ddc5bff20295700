"""Tests for the finite-semigroup engine: closure, identity/unit/idempotent
detection, and the brute-force property oracles."""

import random
import re
from itertools import islice, product

import pytest

from resemi.gflinear import GFMatrix, Subspace, all_vectors
from resemi.linear_semigroup import LInstance
from resemi.semigroups import (
    FiniteSemigroup,
    SizeCapExceeded,
    TABLE_CAP,
    closure_elements,
    element_oracle,
    generate,
    inverse_by_unique_inverses,
    semigroup_oracle,
    subgroup_containing,
    witness_problem,
)
from resemi.transform_semigroup import TInstance
from resemi.transformations import IndexSubset, Transformation


def full_t(n):
    return FiniteSemigroup([Transformation(t) for t in product(range(n), repeat=n)])


def sym(n):
    return FiniteSemigroup(
        [Transformation(t) for t in product(range(n), repeat=n) if len(set(t)) == n]
    )


class TestFiniteSemigroup:
    def test_rejects_non_closed(self):
        with pytest.raises(ValueError, match="not closed"):
            FiniteSemigroup([Transformation([1, 0]), Transformation([0, 0])])

    def test_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            FiniteSemigroup([])
        with pytest.raises(ValueError, match="mixed"):
            FiniteSemigroup([Transformation([0]), Transformation([0, 1])])

    def test_deduplicates_preserving_order(self):
        s = FiniteSemigroup([Transformation([0, 0]), Transformation([0, 0])])
        assert len(s) == 1

    def test_identity_detected_by_scan(self):
        s = full_t(2)
        assert s.identity == Transformation.identity(2)
        consts = FiniteSemigroup([Transformation([0, 0]), Transformation([1, 1])])
        assert not consts.has_identity

    def test_more_than_table_cap_elements_refused(self):
        elems = [Transformation(t) for t in islice(product(range(6), repeat=6), TABLE_CAP + 1)]
        with pytest.raises(SizeCapExceeded, match="size cap exceeded"):
            FiniteSemigroup(elems)
        # duplicates do not count: TABLE_CAP distinct elements pass the cap
        # and are then rejected only for not being closed (the reversed
        # order has a missing product in its first row)
        with pytest.raises(ValueError, match="not closed"):
            FiniteSemigroup(elems[TABLE_CAP - 1::-1] + elems[:5])


def full_l(p, n):
    return [GFMatrix(p, [flat[i * n:(i + 1) * n] for i in range(n)], cols=n)
            for flat in product(range(p), repeat=n * n)]


def random_closures(base, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield closure_elements([rng.choice(base) for _ in range(rng.randint(1, 3))])


def bfs_closure(gens):
    """The reference closure: breadth first over words in the generators
    by object products, each level sorted by text."""
    first = sorted(set(gens), key=lambda el: el.to_text())
    order, known, frontier = list(first), set(first), first
    while frontier:
        new = {x * g for x in frontier for g in first} - known
        frontier = sorted(new, key=lambda el: el.to_text())
        order += frontier
        known |= new
    return order


def greedy_generators(elems):
    """The elements the Froidure-Pin pass takes as generators: each one the
    closure of the earlier ones lacks."""
    gens, closure = [], set()
    for el in elems:
        if el not in closure:
            gens.append(el)
            closure = set(closure_elements(gens))
    return gens


GATHER_BASES = [
    *[(f"T({n})", [Transformation(t) for t in product(range(n), repeat=n)]) for n in (1, 2, 3, 4)],
    *[(f"L(GF(2)^{k})", full_l(2, k)) for k in (1, 2, 3)],
    ("L(GF(3)^2)", full_l(3, 2)),
    ("L(GF(5)^1)", full_l(5, 1)),
]


class TestPointCodeTables:
    @pytest.mark.parametrize("name,base", GATHER_BASES, ids=[name for name, _ in GATHER_BASES])
    def test_code_of_product_is_action_on_code(self, name, base):
        rng = random.Random(name)
        for a, b in ((rng.choice(base), rng.choice(base)) for _ in range(200)):
            assert (a * b).point_code() == b.point_action(a.point_code())

    @pytest.mark.parametrize("name,base", GATHER_BASES, ids=[name for name, _ in GATHER_BASES])
    def test_gathered_table_equals_object_products(self, name, base):
        rng = random.Random(f"shuffle:{name}")
        several = 0
        for elems in random_closures(base, name, 12):
            index = {el: k for k, el in enumerate(elems)}
            table = [[index[a * b] for b in elems] for a in elems]
            m = len(elems)
            shuffled = rng.sample(range(m), m)
            for perm in (range(m), range(m - 1, -1, -1), shuffled):
                order = [elems[i] for i in perm]
                s = FiniteSemigroup(order)
                assert list(s.elements) == order
                pos = [0] * m
                for k, i in enumerate(perm):
                    pos[i] = k
                assert s.table == [[pos[table[i][j]] for j in perm] for i in perm]
            several += len(greedy_generators([elems[i] for i in shuffled])) > 1
        # the shuffled lists make the greedy pass take several generators
        assert several >= (4 if len(base) > 2 else 0)

    def test_table_does_not_depend_on_earlier_builds(self):
        line, plane = full_l(2, 1), full_l(2, 2)
        cold = FiniteSemigroup(plane[::-1]).table
        FiniteSemigroup(plane)
        FiniteSemigroup(line)  # another point set
        assert FiniteSemigroup(plane[::-1]).table == cold

    def test_full_small_monoids_against_object_products(self):
        for elems in (full_l(3, 2), full_l(2, 2), [Transformation(t) for t in product(range(3), repeat=3)]):
            s = FiniteSemigroup(elems)
            assert list(s.elements) == elems
            assert s.table == [[elems.index(a * b) for b in elems] for a in elems]

    def test_empty_transformation(self):
        e = Transformation(())
        assert e.point_code() == () and e.point_action(()) == ()
        s = FiniteSemigroup([e])
        assert s.table == [[0]] and s.identity == e

    def test_zero_by_zero_matrix(self):
        z = GFMatrix(3, (), cols=0)
        assert z.point_code() == () and z.point_action(()) == ()
        s = FiniteSemigroup([z])
        assert s.table == [[0]] and s.identity == z

    def test_one_point_codes(self):
        s = FiniteSemigroup([Transformation([0])])
        assert s.table == [[0]] and s.identity_index == 0
        scalars = full_l(5, 1)
        assert [m.point_code() for m in scalars] == [((k,),) for k in range(5)]
        assert scalars[2].point_action([(1,), (3,), (0,)]) == ((2,), (1,), (0,))
        s = FiniteSemigroup(scalars)
        assert s.table == [[a * b % 5 for b in range(5)] for a in range(5)]
        assert s.unit_indices == [1, 2, 3, 4]

    def test_matrix_point_code_and_action(self):
        m = GFMatrix(3, [[1, 2], [0, 1]])
        vectors = all_vectors(3, 2)
        assert m.point_code() == ((1, 2), (0, 1))
        assert m.point_action(vectors) == tuple(m.apply(v) for v in vectors)

    @pytest.mark.parametrize("p,n", [(101, 4), (7, 6), (2, 40)])
    def test_small_semigroup_in_large_space(self, p, n):
        # only the points in the codes are used, never all p^n vectors
        one = GFMatrix.identity(p, n)
        s = FiniteSemigroup([one])
        assert s.table == [[0]] and s.identity == one
        proj = GFMatrix(p, [[1] + [0] * (n - 1)] + [[0] * n] * (n - 1))
        swap = GFMatrix(p, [[0, 1] + [0] * (n - 2), [1] + [0] * (n - 1)]
                        + [[0] * i + [1] + [0] * (n - i - 1) for i in range(2, n)])
        elems = closure_elements([proj, swap])
        s = FiniteSemigroup(elems)
        index = {el: k for k, el in enumerate(s.elements)}
        assert s.table == [[index[a * b] for b in s.elements] for a in s.elements]
        with pytest.raises(ValueError, match="not closed"):
            FiniteSemigroup([one, proj, swap])

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            FiniteSemigroup([GFMatrix(2, [[1, 0]])])

    @pytest.mark.parametrize("elems", [
        [Transformation([1, 0]), Transformation([0, 0])],
        [Transformation([0, 0]), Transformation([1, 0])],
        [Transformation([0, 1, 2]), Transformation([1, 1, 2]), Transformation([0, 2, 1])],
        [GFMatrix(2, [[1, 1], [0, 1]]), GFMatrix(2, [[1, 0], [0, 0]])],
        [GFMatrix(3, [[2]])],
    ])
    def test_first_missing_product_named(self, elems):
        a, b = next((a, b) for a in elems for b in elems if a * b not in elems)
        message = f"not closed under composition: {a!r} * {b!r} missing"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FiniteSemigroup(elems)

    def test_mixed_kinds_still_rejected(self):
        for elems in ([Transformation([0]), GFMatrix(2, [[1]])],
                      [GFMatrix(2, [[1]]), GFMatrix(3, [[1]])],
                      [GFMatrix(2, [[1]]), GFMatrix.identity(2, 2)]):
            with pytest.raises(ValueError, match="mixed"):
                FiniteSemigroup(elems)


class TestUnitIndices:
    @staticmethod
    def brute_units(s):
        e = s.identity_index
        if e is None:
            return []
        t = s.table
        return [u for u in range(len(s))
                if any(t[u][v] == e == t[v][u] for v in range(len(s)))]

    @pytest.mark.parametrize("name,base", GATHER_BASES, ids=[name for name, _ in GATHER_BASES])
    def test_agrees_with_two_sided_definition(self, name, base):
        for elems in random_closures(base, f"units:{name}", 12):
            s = FiniteSemigroup(elems)
            assert s.unit_indices == self.brute_units(s)

    def test_full_monoids(self):
        for elems in (full_l(3, 2), [Transformation(t) for t in product(range(3), repeat=3)]):
            s = FiniteSemigroup(elems)
            assert s.unit_indices == self.brute_units(s)
            assert len(s.unit_indices) in (48, 6)

    def test_no_identity_means_no_units(self):
        s = FiniteSemigroup([Transformation([0, 0]), Transformation([1, 1])])
        assert s.unit_indices == []


class TestGenerate:
    def test_swap_closure(self):
        s = generate([Transformation([1, 0])])
        assert len(s) == 2 and s.has_identity

    def test_constant_closure_is_trivial_group(self):
        s = generate([Transformation([0, 0])])
        assert len(s) == 1
        # the constant is its own two-sided identity in the singleton
        assert s.identity == Transformation([0, 0])

    def test_nilpotent_matrix_closure(self):
        s = generate([GFMatrix(2, [[0, 0], [1, 0]])])
        assert len(s) == 2 and not s.has_identity
        assert GFMatrix.zero(2, 2, 2) in s

    def test_closure_past_the_table_refused(self):
        # T(6) has 46,656 elements; the closure stops once it passes TABLE_CAP
        gens = [Transformation([1, 2, 3, 4, 5, 0]), Transformation([1, 0, 2, 3, 4, 5]),
                Transformation([0, 0, 2, 3, 4, 5])]
        with pytest.raises(SizeCapExceeded, match="size cap exceeded"):
            generate(gens)
        with pytest.raises(SizeCapExceeded):
            closure_elements(gens)

    def test_idempotent_on_closed_sets(self):
        for gens in ([Transformation([1, 0])], [Transformation([0, 0, 1])],
                     [Transformation([1, 2, 0]), Transformation([0, 0, 2])]):
            s = generate(gens)
            assert generate(s.elements) == s

    @pytest.mark.parametrize("name,base", GATHER_BASES, ids=[name for name, _ in GATHER_BASES])
    def test_order_equals_object_product_bfs(self, name, base):
        rng = random.Random(f"bfs:{name}")
        for _ in range(12):
            gens = [rng.choice(base) for _ in range(rng.randint(1, 3))]
            assert closure_elements(gens) == bfs_closure(gens)

    def test_breadth_first_deterministic_order(self):
        gens = [Transformation([1, 2, 0]), Transformation([0, 0, 1])]
        first = closure_elements(gens)
        second = closure_elements(list(reversed(gens)))
        assert first == second


def idempotents_units(s):
    return ([s.elements[i] for i in s.idempotent_indices],
            [s.elements[i] for i in s.unit_indices])


class TestIdempotentsUnits:
    def test_full_t2(self):
        s = full_t(2)
        idem, units = idempotents_units(s)
        assert {e.to_text() for e in idem} == {"0,0", "1,1", "0,1"}
        assert {u.to_text() for u in units} == {"0,1", "1,0"}
        assert s.has_identity

    def test_group_case(self):
        idem, units = idempotents_units(generate([Transformation([1, 0])]))
        assert idem == [Transformation.identity(2)]
        assert len(units) == 2

    def test_singleton(self):
        s = generate([Transformation([0, 0])])
        idem, units = idempotents_units(s)
        assert idem == units == [Transformation([0, 0])] and s.has_identity

    def test_no_identity_flagged(self):
        s = FiniteSemigroup([Transformation([0, 0]), Transformation([1, 1])])
        idem, units = idempotents_units(s)
        assert len(idem) == 2 and units == [] and not s.has_identity


class TestElementOracle:
    def test_regular_witness_verifies(self):
        s = full_t(2)
        a = Transformation([0, 0])
        v = element_oracle(s, a, "regular")
        assert v.holds and a * v.witness * a == a

    def test_identity_is_everything(self):
        s = full_t(2)
        e = Transformation.identity(2)
        for mode in ("regular", "unit_regular", "completely_regular"):
            v = element_oracle(s, e, mode)
            assert v.holds and v.witness == e

    def test_nilpotent_not_regular(self):
        s = generate([GFMatrix(2, [[0, 0], [1, 0]])])
        assert not element_oracle(s, GFMatrix(2, [[0, 0], [1, 0]]), "regular").holds

    def test_unit_regular_needs_identity(self):
        s = FiniteSemigroup([Transformation([0, 0]), Transformation([1, 1])])
        with pytest.raises(ValueError, match="identity required"):
            element_oracle(s, Transformation([0, 0]), "unit_regular")

    def test_membership_required(self):
        with pytest.raises(ValueError, match="not in semigroup"):
            element_oracle(full_t(2), Transformation([0, 1, 2]), "regular")


class TestSemigroupOracle:
    def test_full_t2_inverse_fails_on_constants(self):
        v = semigroup_oracle(full_t(2), "inverse")
        assert not v.holds
        e, f = v.witness
        assert e * f != f * e

    def test_group_verdicts(self):
        s = generate([Transformation([1, 0])])
        assert semigroup_oracle(s, "group").holds
        consts = FiniteSemigroup([Transformation([0, 0]), Transformation([1, 1])])
        assert not semigroup_oracle(consts, "group").holds

    def test_full_t_is_regular_not_unit_regular_free(self):
        t3 = full_t(3)
        assert semigroup_oracle(t3, "regular").holds
        assert semigroup_oracle(t3, "unit_regular").holds  # finite full monoid
        assert not semigroup_oracle(t3, "completely_regular").holds

    def test_failure_witness_is_concrete(self):
        s = generate([GFMatrix(2, [[0, 0], [1, 0]]), GFMatrix.identity(2, 2)])
        v = semigroup_oracle(s, "regular")
        assert not v.holds
        assert not element_oracle(s, v.witness, "regular").holds


class TestClosedSubsetsOfGroupsAreGroups:
    def test_sym_up_to_3(self):
        # nonempty composition-closed subsets of a finite group of bijections
        for n in (1, 2, 3):
            g = sym(n)
            m = len(g)
            found = 0
            for mask in range(1, 1 << m):
                idxs = [i for i in range(m) if mask >> i & 1]
                subset = [g.elements[i] for i in idxs]
                try:
                    s = FiniteSemigroup(subset)
                except ValueError:
                    continue
                found += 1
                assert semigroup_oracle(s, "group").holds
            assert found >= 1


class TestDualDefinitions:
    def samples(self):
        yield full_t(2)
        yield full_t(3)
        yield sym(3)
        yield generate([Transformation([0, 0, 1])])
        yield generate([GFMatrix(2, [[0, 0], [1, 0]]), GFMatrix.identity(2, 2)])
        yield generate([GFMatrix(3, [[2, 0], [0, 1]]), GFMatrix(3, [[1, 0], [0, 0]])])

    def test_inverse_unique_inverse_equivalence(self):
        for s in self.samples():
            assert inverse_by_unique_inverses(s).holds == semigroup_oracle(s, "inverse").holds

    def test_completely_regular_subgroup_search_equivalence(self):
        for s in self.samples():
            for a in s.elements:
                std = element_oracle(s, a, "completely_regular").holds
                sub = subgroup_containing(s, a)
                assert std == (sub is not None)
                if sub is not None:
                    g = FiniteSemigroup(list(sub))
                    assert semigroup_oracle(g, "group").holds and a in g


class TestWitnessProblem:
    """The sweep's table check (``semigroups.witness_problem``) and each
    family's product check (``witness_problem`` on the instance) accept
    every theorem witness and reject the same wrong ones."""

    MODES = ("regular", "unit_regular")

    @staticmethod
    def instances():
        yield TInstance(3, IndexSubset(3, [0, 1, 2]), full_t(3))  # the build is T(3)
        yield TInstance(3, IndexSubset(3, [0, 1]), full_t(2))
        for p in (2, 3):  # dim W = 1, S(W) = L(W)
            yield LInstance(p, 2, Subspace(p, 2, [[1, 0]]), FiniteSemigroup(full_l(p, 1)))
        yield LInstance(2, 2, Subspace.full(2, 2), FiniteSemigroup(full_l(2, 2)))  # W = V

    @staticmethod
    def both(inst, build, f, mode, w):
        return witness_problem(build, f, mode, w), inst.witness_problem(f, w, mode)

    def test_every_theorem_witness_accepted(self):
        for inst in self.instances():
            build = inst.build()
            seen = 0
            for f in build.elements:
                for mode in self.MODES:
                    v = inst.thm_element(f, mode)
                    if v.holds and v.witness is not None:
                        seen += 1
                        assert self.both(inst, build, f, mode, v.witness) == (None, None), (f, mode)
            assert seen, inst

    def test_member_with_awa_not_a_rejected(self):
        for inst in self.instances():
            build = inst.build()
            units = build.unit_index_set  # a unit gets past the bijectivity test
            f, w = next((f, w) for f in build.elements for j, w in enumerate(build.elements)
                        if j in units and f * w * f != f)
            for mode in self.MODES:
                table, product_check = self.both(inst, build, f, mode, w)
                assert table == "witness fails awa = a"
                assert product_check.endswith(("fails fhf = f", "fails fgf = f"))

    def test_non_unit_rejected_for_unit_regular(self):
        for inst in self.instances():
            build = inst.build()
            units = build.unit_index_set
            f, w = next((f, w) for f in build.elements for j, w in enumerate(build.elements)
                        if j not in units and f * w * f == f)
            assert self.both(inst, build, f, "unit_regular", w) == (
                "witness is not a unit",
                "unit-regular witness is not "
                + ("bijective" if isinstance(inst, TInstance) else "invertible"))
            assert self.both(inst, build, f, "regular", w) == (None, None)

    def test_non_member_rejected(self):
        for inst, outsider in (
            (TInstance(3, IndexSubset(3, [0, 1]), full_t(2)), Transformation([2, 0, 1])),
            (TInstance(3, IndexSubset(3, [0, 1]), sym(2)), Transformation([0, 0, 2])),
            (LInstance(2, 2, Subspace(2, 2, [[1, 0]]), FiniteSemigroup(full_l(2, 1))),
             GFMatrix(2, [[0, 1], [1, 0]])),
            (LInstance(3, 2, Subspace(3, 2, [[1, 0]]), FiniteSemigroup([GFMatrix(3, [[1]])])),
             GFMatrix(3, [[2, 0], [0, 1]])),
        ):
            build = inst.build()
            assert outsider not in build
            f = build.elements[0]
            for mode in self.MODES:
                table, product_check = self.both(inst, build, f, mode, outsider)
                assert table == "witness not in the semigroup"
                if mode == "unit_regular" and outsider == Transformation([0, 0, 2]):
                    assert product_check == "unit-regular witness is not bijective"
                else:
                    assert product_check.endswith("witness leaves the semigroup")

    def test_unknown_mode_refused(self):
        s = full_t(2)
        with pytest.raises(ValueError, match="unknown element mode"):
            witness_problem(s, s.elements[0], "inverse", s.elements[0])
