"""Tests for exact GF(p) linear algebra: products, canonical (RREF) bases,
subspace lattice operations, null spaces, restriction, the transversal subspace pair and
the memos of the subspace kernel."""

import operator
import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resemi import linear_semigroup as lsg
from resemi.cli import main
from resemi.gflinear import (
    MEMO_BOUND,
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    _intersect,
    _rref_rows,
    _solve,
    _span_of,
    all_subspaces,
    all_vectors,
    canonical_transversal_subspace,
    extension_rows,
    image_space,
    independent_extension,
    is_prime,
    left_null_space_rows,
    mat_compose,
    mat_inverse,
    null_space,
    restriction_matrix,
    solve_row_vector,
    transversal_from_spaces,
    unit_rows,
)
from resemi.linear_semigroup import LInstance
from resemi.semigroups import FiniteSemigroup
from resemi.sweep import run_sweep
from test_acceptance import CRITERION3_PLANS

MEMOS = (_span_of, _intersect, null_space, _solve, extension_rows)
# the linear family's memos for its elements and records, keyed on what they read
RECORD_MEMOS = (lsg._transversal_problem, lsg._complement_basis, lsg._completion, lsg._lifted)


def all_matrices(p, n):
    return [
        GFMatrix(p, [flat[i * n:(i + 1) * n] for i in range(n)], cols=n)
        for flat in product(range(p), repeat=n * n)
    ]


@st.composite
def matrices(draw, p=None, min_n=1, max_n=3):
    p = p or draw(st.sampled_from((2, 3)))
    n = draw(st.integers(min_n, max_n))
    ent = [[draw(st.integers(0, p - 1)) for _ in range(n)] for _ in range(n)]
    return GFMatrix(p, ent)


@st.composite
def matrix_pairs(draw):
    p = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 3))
    ent = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    return GFMatrix(p, draw(ent)), GFMatrix(p, draw(ent))


class TestField:
    def test_primality(self):
        assert is_prime(2) and is_prime(3) and is_prime(13)
        assert not is_prime(1) and not is_prime(4) and not is_prime(9)
        with pytest.raises(ValueError):
            GFMatrix(6, [[1]])
        with pytest.raises(ValueError):
            Subspace(6, 1, [[1]])

    def test_primality_matches_trial_division(self):
        def by_trial_division(p):
            return p >= 2 and all(p % d for d in range(2, int(p ** 0.5) + 1))

        assert [p for p in range(-3, 10 ** 5) if is_prime(p) != by_trial_division(p)] == []

    def test_primality_of_large_moduli(self):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime
        # base up to 23: both composite
        assert not is_prime(3215031751) and not is_prime(3825123056546413051)
        assert is_prime(2 ** 61 - 1) and is_prime(10000000000000061)

    def test_primality_refused_from_2_to_the_64(self):
        # from 2^64 on the test refuses to answer, so it never calls such a
        # p composite (or prime) without proof
        assert is_prime(2 ** 64 - 59)  # the largest prime below 2^64
        for p in (2 ** 64, 2 ** 89 - 1):
            with pytest.raises(ValueError, match="2\\^64"):
                is_prime(p)


class TestGFMatrix:
    def test_entries_reduced_mod_p(self):
        assert GFMatrix(3, [[4, -1]]).entries == ((1, 2),)

    def test_text_round_trip(self):
        # the inline grammar reads back what to_text writes
        inst = LInstance.from_dict({"p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]]]}})
        m = GFMatrix(2, [[1, 0], [1, 1]])
        assert inst.parse_element(m.to_text()) == m
        zero = LInstance.from_dict({"p": 2, "n": 0, "W": [], "sW": {"elements": [[]]}})
        assert zero.parse_element("") == GFMatrix(2, (), cols=0)

    def test_blank_row_skipped(self, capsys):
        # a blank ';'-part of --f is skipped, as in --w and --sw
        inst = LInstance.from_dict({"p": 2, "n": 2, "W": [[1, 0]], "sW": {"elements": [[[1]]]}})
        assert inst.parse_element("1,0;;0,1") == inst.parse_element("1,0;0,1")
        argv = ["element", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1",
                "--format", "json", "--f"]
        outputs = []
        for text in ("1,0;;0,1", "1,0;0,1"):
            assert main(argv + [text]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_apply_is_row_vector_action(self):
        m = GFMatrix(2, [[1, 1], [0, 1]])
        assert m.apply((1, 0)) == (1, 1)
        assert m.apply((0, 1)) == (0, 1)

    def test_compose_examples(self):
        swap = GFMatrix(2, [[0, 1], [1, 0]])
        assert mat_compose(swap, swap) == GFMatrix.identity(2, 2)
        m = GFMatrix(2, [[1, 0], [1, 1]])
        assert mat_compose(m, GFMatrix.identity(2, 2)) == m
        nil = GFMatrix(2, [[0, 0], [1, 0]])
        assert mat_compose(nil, nil) == GFMatrix.zero(2, 2, 2)

    def test_compose_errors(self):
        with pytest.raises(ValueError, match="modulus mismatch"):
            mat_compose(GFMatrix(2, [[1]]), GFMatrix(3, [[1]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            mat_compose(GFMatrix(2, [[1]]), GFMatrix(2, [[1, 0], [0, 1]]))

    @given(matrix_pairs())
    def test_compose_agrees_with_action_on_all_vectors(self, fg):
        f, g = fg
        fg_mat = mat_compose(f, g)
        for v in all_vectors(f.p, f.rows):
            assert fg_mat.apply(v) == g.apply(f.apply(v))

    def test_zero_by_zero(self):
        e = GFMatrix(2, (), cols=0)
        assert e * e == e
        assert e.is_invertible()


class TestRref:
    """The RREF of a matrix's rows is the canonical basis of its row space,
    ``Subspace(p, cols, rows)``, and its rank is ``GFMatrix.rank``."""

    @staticmethod
    def row_space(m):
        return Subspace(m.p, m.cols, m.entries)

    def test_examples(self):
        m = GFMatrix(2, [[1, 1], [0, 1]])
        assert self.row_space(m).basis == GFMatrix.identity(2, 2).entries and m.rank == 2
        m = GFMatrix(2, [[0, 0], [0, 0]])
        assert self.row_space(m).basis == () and m.rank == 0
        m = GFMatrix(3, [[2, 1], [1, 2]])
        assert self.row_space(m).basis == ((1, 2),) and m.rank == 1
        # both original rows lie in the span of the canonical basis
        span = Subspace(3, 2, self.row_space(m).basis)
        assert span.contains((2, 1)) and span.contains((1, 2))

    @given(matrices())
    def test_idempotent_and_row_space_preserving(self, m):
        canon = self.row_space(m)
        again = Subspace(m.p, m.cols, canon.basis)
        assert canon.basis == again.basis and canon.dim == m.rank
        # the canonical basis and the rows span each other
        assert all(canon.contains(row) for row in m.entries)
        assert all(Subspace(m.p, m.cols, m.entries).contains(row) for row in canon.basis)


class TestSubspace:
    def test_canonical_on_ingest(self):
        a = Subspace(2, 2, [[1, 1], [0, 1]])
        assert a.basis == ((1, 0), (0, 1))
        assert Subspace(3, 2, [[2, 1]]) == Subspace(3, 2, [[1, 2]])

    def test_ops_examples(self):
        a = Subspace(2, 2, [[1, 0]])
        b = Subspace(2, 2, [[0, 1]])
        assert a.sum(b) == Subspace.full(2, 2)
        assert a.intersect(b).dim == 0
        assert a.codim == 1
        assert a.sum(a) == a and a.intersect(a) == a
        c = Subspace(2, 2, [[1, 1]])
        assert c.sum(a) == Subspace.full(2, 2) and c.intersect(a).dim == 0
        # derived: the two spans only share the zero vector
        assert set(c.vectors()) & set(a.vectors()) == {(0, 0)}

    def test_ambient_mismatch(self):
        a, b = Subspace(2, 2, [[1, 0]]), Subspace(2, 3, [[1, 0, 0]])
        with pytest.raises(ValueError, match="ambient mismatch"):
            a.sum(b)
        with pytest.raises(ValueError, match="ambient mismatch"):
            a.intersect(b)

    def test_modular_dimension_law_exhaustive_gf2_dim3(self):
        spaces = list(all_subspaces(2, 3))
        for a in spaces:
            for b in spaces:
                assert a.sum(b).dim + a.intersect(b).dim == a.dim + b.dim
                assert a.intersect(b) == b.intersect(a)

    def test_intersection_is_the_set_intersection(self):
        # and the sum is the span closure; each pair is met twice, so the
        # second answer comes from the memo
        for p, n in ((2, 3), (3, 2), (5, 2)):
            spaces = list(all_subspaces(p, n))
            for _ in range(2):
                for a in spaces:
                    for b in spaces:
                        meet = set(a.intersect(b).vectors())
                        assert meet == set(a.vectors()) & set(b.vectors())
                        sums = {tuple((x + y) % p for x, y in zip(u, v))
                                for u in a.vectors() for v in b.vectors()}
                        assert set(a.sum(b).vectors()) == sums

    def test_unchecked_constructor_equals_checked(self):
        # sum and intersect span their results through Subspace._unchecked
        for p, n in ((2, 3), (3, 2)):
            spaces = list(all_subspaces(p, n))
            for a in spaces:
                for b in spaces:
                    meet_rows = [a.from_coordinates(k[:a.dim])
                                 for k in left_null_space_rows(p, a.basis + b.basis, n)]
                    for rows in (a.basis + b.basis, meet_rows):
                        fast, checked = Subspace._unchecked(p, n, rows), Subspace(p, n, rows)
                        assert fast == checked
                        assert (fast.pivots, hash(fast)) == (checked.pivots, hash(checked))
                    sums = {tuple((x + y) % p for x, y in zip(u, v))
                            for u in a.vectors() for v in b.vectors()}
                    assert set(a.sum(b).vectors()) == sums

    def test_membership_matches_vector_enumeration(self):
        for sub in all_subspaces(3, 2):
            members = set(sub.vectors())
            assert len(members) == 3 ** sub.dim
            for v in all_vectors(3, 2):
                assert sub.contains(v) == (v in members)

    def test_subspace_counts_are_gaussian_binomials(self):
        assert [len(list(all_subspaces(2, 3, d))) for d in range(4)] == [1, 7, 7, 1]
        assert [len(list(all_subspaces(3, 2, d))) for d in range(3)] == [1, 4, 1]

    def test_subspaces_come_one_at_a_time(self, monkeypatch):
        # the first of GF(2)^8's 200,787 four-dimensional subspaces is made
        # alone, not after all the others
        made = []
        init = Subspace.__init__

        def counted(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Subspace, "__init__", counted)
        first = next(all_subspaces(2, 8, 4))
        assert len(made) == 1 and first.basis == tuple(unit_rows(8)[:4])

    def test_coordinates_round_trip(self):
        sub = Subspace(3, 3, [[1, 0, 2], [0, 1, 1]])
        for coords in product(range(3), repeat=2):
            v = sub.from_coordinates(coords)
            assert sub.coordinates(v) == coords
        assert sub.coordinates((0, 0, 1)) is None


def reference_extension(p, n, base_rows, candidates):
    """``independent_extension`` as first written: a validating start,
    grown one accepted row at a time."""
    span = Subspace(p, n, base_rows)
    added = []
    for row in candidates:
        if not span.contains(row):
            added.append(tuple(v % p for v in row))
            span = Subspace._unchecked(p, n, span.basis + (added[-1],))
    return added


class TestIndependentExtension:
    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2)])
    def test_equals_the_reference_on_canonical_bases(self, p, n):
        spaces = list(all_subspaces(p, n))
        for a in spaces:
            for candidates in [b.basis for b in spaces] + [unit_rows(n)]:
                added = independent_extension(p, n, a.basis, candidates)
                assert added == reference_extension(p, n, a.basis, candidates)
                grown = Subspace(p, n, a.basis + tuple(added))
                assert grown.dim == a.dim + len(added)
                assert grown == Subspace(p, n, a.basis + tuple(candidates))


class TestNullSpace:
    def test_examples(self):
        assert null_space(GFMatrix(2, [[1, 0], [0, 0]])) == Subspace(2, 2, [[0, 1]])
        # derived: check all four vectors directly
        f = GFMatrix(2, [[1, 0], [0, 0]])
        killed = [v for v in all_vectors(2, 2) if f.apply(v) == (0, 0)]
        assert killed == [(0, 0), (0, 1)]
        assert null_space(GFMatrix.identity(2, 2)).dim == 0
        assert null_space(GFMatrix.zero(3, 2, 2)) == Subspace.full(3, 2)

    def test_rank_nullity_exhaustive(self):
        for p in (2, 3):
            for n in (1, 2, 3):
                for f in all_matrices(p, n):
                    assert null_space(f).dim + f.rank == n

    @given(matrices())
    def test_null_space_vectors_are_killed(self, f):
        ns = null_space(f)
        for v in ns.vectors():
            assert f.apply(v) == (0,) * f.cols


class TestSolveAndInverse:
    @given(matrices())
    def test_particular_solution_is_valid(self, f):
        for row in image_space(f).basis:
            v = solve_row_vector(f, row)
            assert v is not None and f.apply(v) == row

    def test_inconsistent_returns_none(self):
        f = GFMatrix(2, [[0, 0], [0, 0]])
        assert solve_row_vector(f, (1, 0)) is None

    def test_inverse(self):
        m = GFMatrix(3, [[1, 2], [1, 1]])
        assert m * mat_inverse(m) == GFMatrix.identity(3, 2)
        with pytest.raises(ValueError, match="singular"):
            mat_inverse(GFMatrix(2, [[1, 1], [1, 1]]))


def reference_solve(m, target):
    """``_solve`` as first written: the RREF of M's transpose augmented
    by t, free variables zero."""
    if len(target) != m.cols:
        raise ValueError("dimension mismatch")
    r = m.rows
    aug = [[m.entries[i][j] for i in range(r)] + [operator.index(target[j]) % m.p]
           for j in range(m.cols)]
    reduced, pivots = _rref_rows(aug, m.p, r + 1)
    if r in pivots:
        return None
    v = [0] * r
    for i, c in enumerate(pivots):
        v[c] = reduced[i][r]
    return tuple(v)


def reference_inverse(m):
    """``mat_inverse`` as first written: the RREF of [M | I]."""
    n = m.rows
    aug = [list(m.entries[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = _rref_rows(aug, m.p, 2 * n)
    if pivots[:n] != list(range(n)) or len(pivots) != n:
        raise ValueError("singular matrix")
    return GFMatrix(m.p, [reduced[i][n:] for i in range(n)], cols=n)


def solve_cases():
    """Every r x c matrix with every target for GF(2) up to 3 x 3 and GF(3)
    up to 2 x 2, rectangular and empty shapes included, then 3,000 seeded
    GF(5), GF(7) and GF(101) cases up to 5 x 5.  Target entries run from
    -p to p - 1: ``transversal_from_spaces`` passes negative residues."""
    for p, top in ((2, 3), (3, 2)):
        for r, c in product(range(top + 1), repeat=2):
            for flat in product(range(p), repeat=r * c):
                m = GFMatrix(p, [flat[i * c:(i + 1) * c] for i in range(r)], cols=c)
                for t in product(range(-p, p), repeat=c):
                    yield m, t
    rng = random.Random(0)
    for _ in range(3000):
        p, r, c = rng.choice((5, 7, 101)), rng.randint(0, 5), rng.randint(0, 5)
        m = GFMatrix(p, [[rng.randrange(p) for _ in range(c)] for _ in range(r)], cols=c)
        t = tuple(rng.randrange(-p, p) for _ in range(c))
        if m.entries and rng.random() < 0.5:  # an image vector, so the solve succeeds
            t = tuple(sum(a * row[j] for a, row in zip(t, m.entries)) for j in range(c))
        yield m, t


class TestAgainstTheAugmentedEliminations:
    def test_solve_equals_the_reference(self):
        for m, t in solve_cases():
            assert _solve.__wrapped__(m, t) == reference_solve(m, t), (m, t)

    def test_inverse_equals_the_reference(self):
        singular = 0
        for m in {m for m, _ in solve_cases() if m.rows == m.cols}:
            try:
                expected = reference_inverse(m)
            except ValueError:
                singular += 1
                with pytest.raises(ValueError, match="singular matrix"):
                    mat_inverse(m)
                continue
            assert mat_inverse(m) == expected
        assert singular > 0

    def test_cold_inverse_adds_no_solve_memo_entry(self):
        m = GFMatrix(101, [[3, 7, 11], [13, 17, 19], [23, 29, 31]])
        before = _solve.cache_info().currsize
        assert m * mat_inverse(m) == GFMatrix.identity(101, 3)
        assert _solve.cache_info().currsize == before

    def test_target_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_row_vector(GFMatrix(2, [[1, 0]]), (1,))


class TestMemo:
    def test_null_space_and_solve_by_brute_force(self):
        for p in (2, 3):
            vectors = all_vectors(p, 2)
            for f in all_matrices(p, 2) * 2:  # the second round hits the memos
                killed = {v for v in vectors if f.apply(v) == (0, 0)}
                assert set(null_space(f).vectors()) == killed
                image = {f.apply(v) for v in vectors}
                for target in vectors:
                    v = solve_row_vector(f, list(target))
                    assert (v is not None) == (target in image)
                    assert v is None or f.apply(v) == target

    def test_hit_equals_uncached_result(self):
        spaces = list(all_subspaces(3, 2))
        for f in all_matrices(3, 2)[::7]:
            assert null_space(f) is null_space(f) == null_space.__wrapped__(f)
            for t in all_vectors(3, 2):
                assert solve_row_vector(f, t) == _solve.__wrapped__(f, t)
        for a in spaces:
            rows = a.basis + ((1, 1),)
            assert Subspace._unchecked(3, 2, rows) is Subspace._unchecked(3, 2, list(rows))
            assert Subspace._unchecked(3, 2, rows) == _span_of.__wrapped__(3, 2, rows)
            for b in spaces:
                assert a.intersect(b) is a.intersect(b) == _intersect.__wrapped__(a, b)
                assert a.sum(b) is a.sum(b) == _span_of.__wrapped__(3, 2, a.basis + b.basis)

    def test_record_memo_hit_is_the_cached_result(self):
        # every W of GF(3)^2, S(W) = L(W), every W-invariant f: a second
        # lookup returns the cached object, equal to a fresh computation
        for w in all_subspaces(3, 2):
            l_w = all_matrices(3, w.dim)
            inst = LInstance(w, FiniteSemigroup(l_w))
            for f in all_matrices(3, 2):
                try:
                    rec = inst.record(f)
                except ValueError:
                    continue
                tr = rec.transversal
                calls = [
                    (lsg._transversal_problem, (tr.u, tr.u_meet_w, null_space(f), w, rec.rf.dim)),
                    (lsg._complement_basis, (w.sum(tr.u),)),
                    (lsg._completion, (w, rec.rf)),
                    (extension_rows, (rec.rw, rec.rf)),
                    (lsg._lifted, (w, rec.alpha)),
                ]
                for memo, args in calls:
                    hit = memo(*args)
                    assert memo(*args) is hit == memo.__wrapped__(*args)

    def test_memos_stay_within_the_bound(self):
        for memo in MEMOS + RECORD_MEMOS:
            memo.cache_clear()
        assert run_sweep(CRITERION3_PLANS[-1]).clean  # c3d
        for memo in MEMOS + RECORD_MEMOS:
            info = memo.cache_info()
            assert info.maxsize == MEMO_BOUND and 0 < info.currsize <= MEMO_BOUND
            assert info.hits > info.misses


class TestRestrictionMatrix:
    def test_examples(self):
        w = Subspace(2, 2, [[1, 0]])
        assert restriction_matrix(GFMatrix(2, [[1, 0], [1, 1]]), w) == GFMatrix(2, [[1]])
        with pytest.raises(ValueError, match="not W-invariant"):
            restriction_matrix(GFMatrix(2, [[0, 1], [0, 0]]), w)
        zero_w = Subspace.zero(2, 2)
        empty = restriction_matrix(GFMatrix(2, [[1, 1], [0, 1]]), zero_w)
        assert empty.rows == 0 and empty.cols == 0

    def test_homomorphism_exhaustive_small(self):
        # (fg)|W == (f|W)(g|W) for all W-invariant pairs
        for p, n in ((2, 2), (3, 2)):
            for w in all_subspaces(p, n):
                invariant = [
                    f for f in all_matrices(p, n)
                    if all(w.contains(f.apply(b)) for b in w.basis)
                ]
                for f in invariant:
                    for g in invariant:
                        lhs = restriction_matrix(f * g, w)
                        rhs = restriction_matrix(f, w) * restriction_matrix(g, w)
                        assert lhs == rhs


def invariant_subspaces(f):
    return [
        w for w in all_subspaces(f.p, f.rows)
        if all(w.contains(f.apply(b)) for b in w.basis)
    ]


class TestCanonicalTransversalSubspace:
    def test_examples(self):
        w = Subspace(2, 2, [[1, 0]])
        tr = canonical_transversal_subspace(GFMatrix(2, [[1, 0], [0, 0]]), w)
        assert tr.u == Subspace(2, 2, [[1, 0]]) and tr.u_meet_w == tr.u
        tr = canonical_transversal_subspace(GFMatrix.identity(2, 2), w)
        assert tr.u == Subspace.full(2, 2) and tr.u_meet_w == w
        tr = canonical_transversal_subspace(GFMatrix(2, [[0, 0], [1, 0]]), w)
        assert tr.u == Subspace(2, 2, [[0, 1]]) and tr.u_meet_w.dim == 0

    def test_invariants_exhaustive_gf2(self):
        for n in (1, 2, 3):
            for f in all_matrices(2, n):
                for w in invariant_subspaces(f):
                    tr = canonical_transversal_subspace(f, w)
                    ns = null_space(f)
                    assert tr.u.dim == f.rank
                    assert tr.u.intersect(ns).dim == 0
                    assert tr.u_meet_w == tr.u.intersect(w)
                    ns_w = ns.intersect(w)
                    assert tr.u_meet_w.dim + ns_w.dim == w.dim
                    assert tr.u_meet_w.intersect(ns_w).dim == 0

    def test_helper_equals_public_function(self):
        # the helper takes R(f|W), N(f) and R(f) from the caller; here they
        # are built by the checked constructor, N(f) by enumeration
        for p, n in ((2, 2), (3, 2), (2, 3)):
            for f in all_matrices(p, n)[:: 5 if (p, n) == (2, 3) else 1]:
                ns = Subspace(p, n, [v for v in all_vectors(p, n) if not any(f.apply(v))])
                rf = Subspace(p, n, f.entries)
                for w in invariant_subspaces(f):
                    rw = Subspace(p, n, [f.apply(b) for b in w.basis])
                    assert (transversal_from_spaces(f, w, rw, ns, rf)
                            == canonical_transversal_subspace(f, w))

    def test_solved_preimages_equal_the_search(self):
        # the lexicographically first null-space correction into W, found
        # by the search over every correction that the solve replaced
        def searched(f, w):
            p, n = f.p, f.rows
            ns, rw, chosen = null_space(f), Subspace(p, n, [f.apply(b) for b in w.basis]), []
            for u in rw.basis:
                v = solve_row_vector(f, u)
                if not w.contains(v):
                    for coeffs in product(range(p), repeat=ns.dim):
                        cand = tuple((a + b) % p for a, b in zip(v, ns.from_coordinates(coeffs)))
                        if w.contains(cand):
                            v = cand
                            break
                chosen.append(v)
            span = rw
            for r in image_space(f).basis:
                if not span.contains(r):
                    chosen.append(solve_row_vector(f, r))
                    span = Subspace(p, n, span.basis + (r,))
            u = Subspace(p, n, chosen)
            return SubspaceTransversal(u, u.intersect(w))

        corrected = 0
        for p, n in ((2, 1), (2, 2), (2, 3), (3, 2), (5, 2)):
            for f in all_matrices(p, n):
                for w in invariant_subspaces(f):
                    assert canonical_transversal_subspace(f, w) == searched(f, w)
                    rw = Subspace(p, n, [f.apply(b) for b in w.basis])
                    corrected += any(not w.contains(solve_row_vector(f, u)) for u in rw.basis)
        assert corrected > 100  # the corrections are really exercised

    def test_corestriction_is_bijective_small(self):
        for p, n in ((2, 2), (3, 2), (2, 3)):
            for f in all_matrices(p, n)[:: 5 if (p, n) == (2, 3) else 1]:
                for w in invariant_subspaces(f):
                    tr = canonical_transversal_subspace(f, w)
                    images = [f.apply(u) for u in tr.u.vectors()]
                    assert len(set(images)) == len(images)
                    assert set(images) == set(image_space(f).vectors())

    def test_choice_independence_exhaustive_gf2(self):
        # every valid transversal subspace gives the same complement codim
        for n in (1, 2, 3):
            spaces = list(all_subspaces(2, n))
            for f in all_matrices(2, n):
                ns = null_space(f)
                for w in invariant_subspaces(f):
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
                    assert seen == {canonical}
