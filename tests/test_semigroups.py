"""Tests for the finite-semigroup engine: closure, identity/unit/idempotent
detection, and the brute-force property oracles."""

import collections
import random
import re
from itertools import islice, permutations, product

import pytest

from resemi import gflinear, semigroups, sweep, transformations
from resemi.gflinear import GFMatrix, Subspace, all_vectors
from resemi.linear_semigroup import LInstance
from resemi.semigroups import (
    ELEMENT_MODES,
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
from resemi.sweep import SweepPlan, enumerate_subsemigroups, run_sweep
from resemi.transform_semigroup import TInstance
from resemi.transformations import IndexSubset, Transformation
from test_acceptance import CRITERION1_PLANS, CRITERION2_PLANS, CRITERION3_PLANS


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


def random_generators(base, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield [rng.choice(base) for _ in range(rng.randint(1, 3))]


def random_closures(base, seed, count):
    return map(closure_elements, random_generators(base, seed, count))


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
    def test_gathered_table_equals_object_products(self, name, base, monkeypatch):
        # the pass takes one point action per generator and no other
        # (``TestGeneratorOrder``), so counting actions counts generators
        actions = []
        point_action = type(base[0]).point_action

        def counted(el, points):
            actions.append(el)
            return point_action(el, points)

        monkeypatch.setattr(type(base[0]), "point_action", counted)
        rng = random.Random(f"shuffle:{name}")
        several = 0
        for elems in random_closures(base, name, 12):
            index = {el: k for k, el in enumerate(elems)}
            table = [[index[a * b] for b in elems] for a in elems]
            m = len(elems)
            shuffled = rng.sample(range(m), m)
            for perm in (range(m), range(m - 1, -1, -1), shuffled):
                order = [elems[i] for i in perm]
                actions.clear()
                s = FiniteSemigroup(order)
                assert list(s.elements) == order
                pos = [0] * m
                for k, i in enumerate(perm):
                    pos[i] = k
                assert [list(r) for r in s.table] == [[pos[table[i][j]] for j in perm]
                                                      for i in perm]
            several += len(actions) > 1  # the generators taken on the shuffled list
        # the shuffled lists make the pass take several generators
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
            assert [list(r) for r in s.table] == [[elems.index(a * b) for b in elems]
                                                  for a in elems]

    def test_empty_transformation(self):
        e = Transformation(())
        assert e.point_code() == () and e.point_action(()) == ()
        s = FiniteSemigroup([e])
        assert [list(r) for r in s.table] == [[0]] and s.identity == e

    def test_zero_by_zero_matrix(self):
        z = GFMatrix(3, (), cols=0)
        assert z.point_code() == () and z.point_action(()) == ()
        s = FiniteSemigroup([z])
        assert [list(r) for r in s.table] == [[0]] and s.identity == z

    def test_one_point_codes(self):
        s = FiniteSemigroup([Transformation([0])])
        assert [list(r) for r in s.table] == [[0]] and s.identity_index == 0
        scalars = full_l(5, 1)
        assert [m.point_code() for m in scalars] == [((k,),) for k in range(5)]
        assert scalars[2].point_action([(1,), (3,), (0,)]) == ((2,), (1,), (0,))
        s = FiniteSemigroup(scalars)
        assert [list(r) for r in s.table] == [[a * b % 5 for b in range(5)] for a in range(5)]
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
        assert [list(r) for r in s.table] == [[0]] and s.identity == one
        proj = GFMatrix(p, [[1] + [0] * (n - 1)] + [[0] * n] * (n - 1))
        swap = GFMatrix(p, [[0, 1] + [0] * (n - 2), [1] + [0] * (n - 1)]
                        + [[0] * i + [1] + [0] * (n - i - 1) for i in range(2, n)])
        elems = closure_elements([proj, swap])
        s = FiniteSemigroup(elems)
        index = {el: k for k, el in enumerate(s.elements)}
        assert [list(r) for r in s.table] == [[index[a * b] for b in s.elements]
                                              for a in s.elements]
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
        message = f'not closed under composition: "{a!r}" * "{b!r}" missing'
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            FiniteSemigroup(elems)

    def test_mixed_kinds_still_rejected(self):
        for elems in ([Transformation([0]), GFMatrix(2, [[1]])],
                      [GFMatrix(2, [[1]]), GFMatrix(3, [[1]])],
                      [GFMatrix(2, [[1]]), GFMatrix.identity(2, 2)]):
            with pytest.raises(ValueError, match="mixed"):
                FiniteSemigroup(elems)


class TestGeneratorOrder:
    """The Froidure-Pin pass takes its generators in descending rank; the
    table, like every output, depends on the element order alone."""

    # T_S(Y)(X) for X of 5 points and Y = {0, 1, 2}, with S the 12-element
    # closure of the identity, (1, 1, 0) and (2, 0, 0): 12 * 5^2 elements
    S_GENS = [Transformation([0, 1, 2]), Transformation([1, 1, 0]), Transformation([2, 0, 0])]

    def t5_build(self):
        return TInstance(IndexSubset(5, [0, 1, 2]), generate(self.S_GENS)).build()

    def test_large_build_equals_object_products(self):
        build = self.t5_build()
        index = {el: k for k, el in enumerate(build.elements)}
        assert len(build) == 300
        assert [list(r) for r in build.table] == [[index[a * b] for b in build.elements]
                                                  for a in build.elements]

    def test_large_build_takes_few_generators(self, monkeypatch):
        elems = list(self.t5_build().elements)
        actions = []
        point_action = Transformation.point_action

        def counted(el, points):
            actions.append(el)
            return point_action(el, points)

        # the pass takes one point action per generator and no other
        monkeypatch.setattr(Transformation, "point_action", counted)
        FiniteSemigroup(elems)
        # measured: 10; a pass taking its candidates in element order takes 32
        assert len(actions) <= 10
        assert len(set(actions)) == len(actions)

    @pytest.mark.parametrize("name,elems", [
        ("T(3)", [Transformation(t) for t in product(range(3), repeat=3)]),
        ("L(GF(2)^2)", full_l(2, 2)),
    ])
    def test_table_independent_of_generator_choice(self, name, elems):
        # the reversed and a shuffled list take other generators, and their
        # tables are this table renumbered
        m = len(elems)
        table = FiniteSemigroup(elems).table
        for perm in (range(m - 1, -1, -1), random.Random(name).sample(range(m), m)):
            pos = [0] * m
            for k, i in enumerate(perm):
                pos[i] = k
            built = FiniteSemigroup([elems[i] for i in perm]).table
            assert [list(r) for r in built] == [[pos[table[i][j]] for j in perm] for i in perm]

    def test_missing_product_named_in_any_order(self):
        t3 = [Transformation(t) for t in product(range(3), repeat=3)]
        rng = random.Random("missing")
        for drop in (0, 5, 13, 26):
            elems = t3[:drop] + t3[drop + 1:]
            for order in (elems, elems[::-1], rng.sample(elems, len(elems))):
                a, b = next((a, b) for a in order for b in order if a * b not in order)
                message = f'not closed under composition: "{a!r}" * "{b!r}" missing'
                with pytest.raises(ValueError, match=re.escape(message) + "$"):
                    FiniteSemigroup(order)


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

    def test_every_table_of_plans_c1a_to_c3c(self, monkeypatch):
        # each S and each build the plans run, whatever the rank of its identity
        tables = {}
        run = sweep._run_instance

        def recording(plan, rep, inst, key, seen):
            for s in (inst.prescribed, inst.build()):
                tables[id(s)] = s
            return run(plan, rep, inst, key, seen)

        monkeypatch.setattr(sweep, "_run_instance", recording)
        for plan in (*CRITERION1_PLANS, *CRITERION2_PLANS, *CRITERION3_PLANS[:3]):
            assert run_sweep(plan).clean
        skipping = 0  # tables in which some row is skipped, outranked by the identity
        for s in tables.values():
            assert s.unit_indices == self.brute_units(s)
            if s.has_identity:
                ranks = [len(set(el.point_code())) for el in s.elements]
                skipping += min(ranks) < ranks[s.identity_index]
        assert len(tables) > 800 and skipping > 100

    def test_full_gf2_cube(self):
        s = FiniteSemigroup(full_l(2, 3))
        assert s.unit_indices == self.brute_units(s)
        assert len(s.unit_indices) == 168  # |GL(3, 2)|

    def test_identity_of_lower_rank(self):
        # the identity (0,0,2) has rank 2; the rank-1 (0,0,0) is skipped
        s = generate([Transformation(t) for t in ((0, 0, 2), (2, 2, 0), (0, 0, 0))])
        assert s.identity == Transformation([0, 0, 2])
        units = {s.elements[u] for u in s.unit_indices}
        assert units == {Transformation([0, 0, 2]), Transformation([2, 2, 0])}
        assert s.unit_indices == self.brute_units(s)


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


def one_pass_closures():
    """(name, generators, closure): full T(3), L(GF(2)^2) and L(GF(3)^2),
    each from a unit group's generators and one idempotent of rank n - 1,
    and the eight seeded closures of ``TestStoredAnswers``."""
    for name, gens, order in (
        ("T(3)", [Transformation([1, 2, 0]), Transformation([1, 0, 2]), Transformation([0, 0, 2])], 27),
        *[(f"L(GF({p})^2)", [GFMatrix(p, [[1, 1], [0, 1]]), GFMatrix(p, [[0, 1], [1, 0]]),
                             GFMatrix(p, [[1, 0], [0, 0]])], p ** 4) for p in (2, 3)],
    ):
        closure = closure_elements(gens)
        assert len(closure) == order  # all of the full monoid
        yield name, gens, closure
    t4 = [Transformation(t) for t in product(range(4), repeat=4)]
    for base_name, base in (("T(4)", t4), ("L(GF(2)^3)", full_l(2, 3))):
        for k, gens in enumerate(random_generators(base, f"store:{base_name}", 4)):
            yield f"{base_name} closure {k}", gens, closure_elements(gens)


ONE_PASS_CLOSURES = list(one_pass_closures())


@pytest.mark.parametrize("name,gens,closure", ONE_PASS_CLOSURES,
                         ids=[name for name, *_ in ONE_PASS_CLOSURES])
class TestOnePass:
    """A closure is one Froidure-Pin pass: its order, its right Cayley
    graph and, from that graph, its Cayley table."""

    def test_table_from_the_graph_equals_the_list_table_and_products(self, name, gens, closure):
        s = FiniteSemigroup(closure)
        assert list(s.elements) == closure
        index = {el: k for k, el in enumerate(closure)}
        t = FiniteSemigroup(list(closure))
        assert s.table == t.table
        assert [list(r) for r in s.table] == [[index[a * b] for b in closure] for a in closure]
        # the two fills walk different spanning trees; a column's padding
        # past the elements is never read, and differs with the tree
        m = len(closure)
        assert [col[:m] for col in s.columns or ()] == [col[:m] for col in t.columns or ()]

    def test_table_from_the_graph_takes_no_point_action(self, name, gens, closure, monkeypatch):
        monkeypatch.setattr(type(closure[0]), "point_action",
                            lambda *args: pytest.fail("a point action was taken"))
        assert len(FiniteSemigroup(closure).table) == len(closure)

    def test_graph_and_tree_are_products(self, name, gens, closure):
        index = {el: k for k, el in enumerate(closure)}
        first = closure[:len(closure.right)]
        assert first == sorted(set(gens), key=lambda el: el.to_text())
        for g, by_g in zip(first, closure.right):
            assert by_g == [index[x * g] for x in closure]
        for y, (x, h) in enumerate(zip(closure.parent, closure.letter)):
            if y < len(first):
                assert (x, h) == (-1, y)
            else:
                assert 0 <= x < y and closure[x] * first[h] == closure[y]

    def test_closure_makes_no_element_product(self, name, gens, closure, monkeypatch):
        products = []
        for module, attr in ((transformations, "compose"), (gflinear, "mat_compose")):
            monkeypatch.setattr(module, attr, lambda f, g, make=getattr(module, attr):
                                products.append((f, g)) or make(f, g))
        assert closure_elements(gens) == closure
        assert products == []
        # the wrappers count: one product, read in the graph
        assert closure[0] * closure[0] == closure[closure.right[0][0]] and len(products) == 1

    def test_order_equals_object_product_bfs(self, name, gens, closure):
        assert closure == bfs_closure(gens)


def test_closure_past_the_table_fills_no_row(monkeypatch):
    filled = []
    fill = semigroups._fill_rows
    monkeypatch.setattr(semigroups, "_fill_rows", lambda *args: filled.append(args) or fill(*args))
    # T(6) has 46,656 elements; the pass stops once it passes TABLE_CAP
    gens = [Transformation([1, 2, 3, 4, 5, 0]), Transformation([1, 0, 2, 3, 4, 5]),
            Transformation([0, 0, 2, 3, 4, 5])]
    with pytest.raises(SizeCapExceeded, match="size cap exceeded"):
        generate(gens)
    assert filled == []
    generate(gens[:2])  # Sym(6), 720 elements: its rows are filled
    assert len(filled) == 1


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

    @pytest.mark.parametrize("order, first", [((0, 1, 2, 3), 1), ((0, 2, 1, 3), 2)])
    def test_group_witness_is_the_first_non_unit(self, order, first):
        # T(2) as identity, constant 0, swap, constant 1, in two orders: the
        # units are not a prefix of the elements in the first, and are in
        # the second
        t2 = [Transformation(m) for m in ([0, 1], [0, 0], [1, 0], [1, 1])]
        s = FiniteSemigroup([t2[i] for i in order])
        v = semigroup_oracle(s, "group")
        assert (v.holds, v.clause) == (False, "non-unit element")
        assert v.witness == s.elements[first] == Transformation([0, 0])

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
            for i, a in enumerate(s.elements):
                std = element_oracle(s, a, "completely_regular").holds
                sub = subgroup_containing(s, i)
                assert std == (sub is not None)
                if sub is not None:
                    g = FiniteSemigroup([s.elements[k] for k in sub])
                    assert semigroup_oracle(g, "group").holds and a in g


def subgroup_by_products(s, a):
    """The elements of the subgroup of s containing a, in s's order, or
    None, found by multiplying elements: the powers of a until one
    repeats, tested for a two-sided identity and two-sided inverses."""
    powers = [a]
    while (power := powers[-1] * a) not in powers:
        powers.append(power)
    identities = [e for e in powers if all(e * x == x == x * e for x in powers)]
    if not identities or not all(any(x * y == identities[0] == y * x for y in powers)
                                 for x in powers):
        return None
    return tuple(sorted(powers, key=s.index_of))


@pytest.mark.parametrize("kind, size, p, everywhere", [
    ("transformation", 2, None, True), ("transformation", 3, None, False),
    ("linear", 2, 2, False),
], ids=["T(2)", "T(3)", "L(GF(2)^2)"])
def test_subgroup_by_index_equals_subgroup_by_products(kind, size, p, everywhere):
    # every element of every subsemigroup of the base monoid; each element
    # of T(2) lies in a subgroup, and some of T(3) and L(GF(2)^2) do not
    checked = found = 0
    for s in enumerate_subsemigroups(kind, size, ("exhaustive",), p):
        for i, a in enumerate(s.elements):
            sub = subgroup_containing(s, i)
            want = subgroup_by_products(s, a)
            assert (None if sub is None else tuple(s.elements[k] for k in sub)) == want
            checked += 1
            found += want is not None
    assert 0 < found and (found == checked) == everywhere


class TestWitnessProblem:
    """The sweep's table check (``semigroups.witness_problem``) and each
    family's product check (``witness_problem`` on the instance) accept
    every theorem witness and reject the same wrong ones."""

    MODES = ("regular", "unit_regular")

    @staticmethod
    def instances():
        yield TInstance(IndexSubset(3, [0, 1, 2]), full_t(3))  # the build is T(3)
        yield TInstance(IndexSubset(3, [0, 1]), full_t(2))
        for p in (2, 3):  # dim W = 1, S(W) = L(W)
            yield LInstance(Subspace(p, 2, [[1, 0]]), FiniteSemigroup(full_l(p, 1)))
        yield LInstance(Subspace.full(2, 2), FiniteSemigroup(full_l(2, 2)))  # W = V

    @staticmethod
    def both(inst, build, f, mode, w):
        return (witness_problem(build, build.index_of(f), mode, w),
                inst.witness_problem(f, w, mode))

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
            units = build.unit_indices  # a unit gets past the bijectivity test
            f, w = next((f, w) for f in build.elements for j, w in enumerate(build.elements)
                        if j in units and f * w * f != f)
            for mode in self.MODES:
                table, product_check = self.both(inst, build, f, mode, w)
                assert table == "witness fails awa = a"
                assert product_check.endswith(("fails fhf = f", "fails fgf = f"))

    def test_non_unit_rejected_for_unit_regular(self):
        for inst in self.instances():
            build = inst.build()
            units = build.unit_indices
            f, w = next((f, w) for f in build.elements for j, w in enumerate(build.elements)
                        if j not in units and f * w * f == f)
            assert self.both(inst, build, f, "unit_regular", w) == (
                "witness is not a unit",
                "unit-regular witness is not "
                + ("bijective" if isinstance(inst, TInstance) else "invertible"))
            assert self.both(inst, build, f, "regular", w) == (None, None)

    def test_non_member_rejected(self):
        for inst, outsider in (
            (TInstance(IndexSubset(3, [0, 1]), full_t(2)), Transformation([2, 0, 1])),
            (TInstance(IndexSubset(3, [0, 1]), sym(2)), Transformation([0, 0, 2])),
            (LInstance(Subspace(2, 2, [[1, 0]]), FiniteSemigroup(full_l(2, 1))),
             GFMatrix(2, [[0, 1], [1, 0]])),
            (LInstance(Subspace(3, 2, [[1, 0]]), FiniteSemigroup([GFMatrix(3, [[1]])])),
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

    def test_wrong_ambient_size_leaves_the_semigroup(self):
        # units of a larger and a smaller ambient space, each restricting
        # to the identity on the region: membership is refused before the
        # unit test could pass them or fwf be formed
        for inst in self.instances():
            n = inst.n
            if isinstance(inst, TInstance):
                others = (Transformation.identity(n + 1), Transformation.identity(n - 1))
            else:
                others = (GFMatrix.identity(inst.p, n + 1), GFMatrix.identity(inst.p, n - 1))
            f = inst.build().elements[0]
            for w in others:
                for mode in self.MODES:
                    label = "unit-regular" if mode == "unit_regular" else "regular"
                    assert inst.witness_problem(f, w, mode) == f"{label} witness leaves the semigroup"

    def test_unknown_mode_refused(self):
        s = full_t(2)
        with pytest.raises(ValueError, match="unknown element mode"):
            witness_problem(s, 0, "inverse", s.elements[0])


# -- the answers each table keeps ------------------------------------------------

SEMIGROUP_MODES = ("group", "inverse", *ELEMENT_MODES)


def store_tables():
    yield "T(3)", full_t(3)
    yield "L(GF(2)^2)", FiniteSemigroup(full_l(2, 2))
    yield "L(GF(3)^2)", FiniteSemigroup(full_l(3, 2))
    t4 = [Transformation(t) for t in product(range(4), repeat=4)]
    for k, elems in enumerate(random_closures(t4, "store:T(4)", 4)):
        yield f"T(4) closure {k}", FiniteSemigroup(elems)
    for k, elems in enumerate(random_closures(full_l(2, 3), "store:L(GF(2)^3)", 4)):
        yield f"L(GF(2)^3) closure {k}", FiniteSemigroup(elems)


STORE_TABLES = list(store_tables())


def forget(s):
    """Drop every answer s keeps, so that s answers as a fresh table."""
    s._partners.clear()


def modes_of(s):
    return [m for m in ELEMENT_MODES if m != "unit_regular" or s.has_identity]


def first_partner_by_products(s, a, mode):
    """Index of a's first partner by object products: the first b in element
    order (units in unit order for ``unit_regular``) with aba = a, and with
    ab = ba for ``completely_regular``; -1 for none."""
    candidates = (s.elements[j] for j in s.unit_indices) if mode == "unit_regular" else s.elements
    for b in candidates:
        if a * b * a == a and (mode != "completely_regular" or a * b == b * a):
            return s.index_of(b)
    return -1


@pytest.mark.parametrize("name,s", STORE_TABLES, ids=[name for name, _ in STORE_TABLES])
class TestStoredAnswers:
    """Every answer a table keeps is the one its search gives when asked
    first, whatever was asked before."""

    def test_stored_partner_is_the_first_by_products(self, name, s):
        questions = [(i, mode) for mode in modes_of(s) for i in range(len(s))]
        expected = {(i, mode): first_partner_by_products(s, s.elements[i], mode)
                    for i, mode in questions}
        for q in questions:  # each asked first, of a table with nothing kept
            forget(s)
            assert s.partner(*q) == expected[q], q
        rng = random.Random(name)
        forget(s)
        for _ in range(2):  # shuffled, then each again after all the others
            rng.shuffle(questions)
            for q in questions:
                assert s.partner(*q) == expected[q], q

    def test_warm_verdicts_equal_fresh_ones(self, name, s):
        elem_questions = [(a, mode) for mode in modes_of(s) for a in s.elements]
        semi_modes = [m for m in SEMIGROUP_MODES if m != "unit_regular" or s.has_identity]
        fresh = {}
        for a, mode in elem_questions:
            forget(s)
            fresh[a, mode] = element_oracle(s, a, mode)
        for mode in semi_modes:
            forget(s)
            fresh[mode] = semigroup_oracle(s, mode)
        forget(s)
        questions = elem_questions + semi_modes
        random.Random(name).shuffle(questions)
        for _ in range(2):
            for q in questions:
                got = element_oracle(s, *q) if isinstance(q, tuple) else semigroup_oracle(s, q)
                # prop, holds, witness and clause alike
                assert got == fresh[q], q

    def test_refusals_outlast_answers(self, name, s):
        outsider = (Transformation([0, 1, 2, 3, 4]) if isinstance(s.elements[0], Transformation)
                    else GFMatrix.identity(5, 1))
        for _ in range(2):  # refused before and after every other mode is answered
            with pytest.raises(ValueError, match="unknown element mode 'inverse'"):
                element_oracle(s, s.elements[0], "inverse")
            with pytest.raises(ValueError, match="unknown semigroup mode 'bogus'"):
                semigroup_oracle(s, "bogus")
            with pytest.raises(ValueError, match="not in semigroup"):
                element_oracle(s, outsider, "regular")
            if not s.has_identity:
                with pytest.raises(ValueError, match="identity required"):
                    element_oracle(s, s.elements[0], "unit_regular")
                with pytest.raises(ValueError, match="identity required"):
                    semigroup_oracle(s, "unit_regular")
            for mode in modes_of(s):
                element_oracle(s, s.elements[-1], mode)
                semigroup_oracle(s, mode)


def test_a_negative_index_is_refused_and_leaves_no_answer():
    s = full_t(2)
    last = len(s) - 1
    for mode in ELEMENT_MODES:
        with pytest.raises(IndexError, match="negative"):
            s.partner(-1, mode)
        assert s.partner(last, mode) == first_partner_by_products(s, s.elements[last], mode) >= 0


def test_each_question_is_searched_once_per_table(monkeypatch):
    searched = collections.Counter()
    tables = []  # kept alive, so that no table's id is reused
    search = FiniteSemigroup._search

    def counted(self, i, mode):
        tables.append(self)
        searched[id(self), i, mode] += 1
        return search(self, i, mode)

    monkeypatch.setattr(FiniteSemigroup, "_search", counted)
    rep = run_sweep(SweepPlan(family="linear", pns=((2, 1), (2, 2), (3, 1)), source=("exhaustive",),
                              modes=("regular", "inverse", "unit_regular", "completely_regular")))
    assert rep.clean and searched
    assert max(searched.values()) == 1


# -- the four fills: byte or list rows, byte or gathered products ----------------

def reference_partner(s, i, mode):
    """The partner search of a list table, the reference for every fill: the
    first j with i * j * i = i (units only, in unit order, for
    ``unit_regular``; with i * j = j * i too for ``completely_regular``)."""
    t = [list(row) for row in s.table]
    row = t[i]
    if mode == "regular":
        for j, ij in enumerate(row):
            if t[ij][i] == i:
                return j
    elif mode == "unit_regular":
        for j in s.unit_indices:
            if t[row[j]][i] == i:
                return j
    else:
        for j, ij in enumerate(row):
            if t[ij][i] == i and ij == t[j][i]:
                return j
    return -1


def wide_closure():
    """A closure of maps on 300 points: 116 elements, whose codes hold all
    300 points, 36 of them regular but not unit-regular."""
    n = 300
    return closure_elements([Transformation([x ^ 1 for x in range(n)]),
                             Transformation([x ^ 2 for x in range(n)]),
                             Transformation([x - 1 if x % 4 else x for x in range(n)])])


def fills():
    # (name, elements, byte rows, byte products); the groups, where every
    # element is a unit, are where the unit-regular search walks longest
    yield "T(3)", [Transformation(t) for t in product(range(3), repeat=3)], True, True
    yield "L(GF(2)^3)", full_l(2, 3), False, True
    yield "300 points", list(wide_closure()), True, False
    trivial = generate([GFMatrix.identity(17, 1)])
    yield "L(GF(17)^2)", list(LInstance(Subspace(17, 2, [[1, 0]]), trivial).build()), False, False
    yield "Sym(4)", [Transformation(t) for t in permutations(range(4))], True, True
    yield "GL(3,2)", [m for m in full_l(2, 3) if m.is_invertible()], True, True
    # the 272 affine maps x -> ax + b of GF(17), a != 0
    yield "AGL(1,17)", [Transformation([(a * x + b) % 17 for x in range(17)])
                        for a in range(1, 17) for b in range(17)], False, True


FILLS = list(fills())


@pytest.mark.parametrize("name,elems,byte_rows,byte_products", FILLS,
                         ids=[name for name, *_ in FILLS])
def test_each_fill_equals_products_and_the_reference_search(name, elems, byte_rows, byte_products):
    points = {x for el in elems for x in el.point_code()}
    assert (len(elems) <= 256, len(points) <= 256) == (byte_rows, byte_products)
    s = FiniteSemigroup(elems)
    index = {el: k for k, el in enumerate(elems)}
    products = [[index[a * b] for b in elems] for a in elems]
    assert all(type(row) is (bytes if byte_rows else list) for row in s.table)
    assert [list(row) for row in s.table] == products
    if byte_rows:
        assert [list(col[:len(elems)]) for col in s.columns] == [list(c) for c in zip(*products)]
    else:
        assert s.columns is None
    # the identity and the units by their two-sided definitions
    m = len(elems)
    identities = [e for e in range(m)
                  if all(products[e][j] == j == products[j][e] for j in range(m))]
    assert s.identity_index == (identities[0] if identities else None)
    assert s.unit_indices == [u for u in range(m) if identities and any(
        products[u][v] == identities[0] == products[v][u] for v in range(m))]
    for mode in modes_of(s):
        assert [s.partner(i, mode) for i in range(len(s))] == \
            [reference_partner(s, i, mode) for i in range(len(s))], mode
