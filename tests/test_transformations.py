"""Tests for the transformation core: composition, image/kernel machinery,
restriction and the canonical compatible transversal pair."""

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resemi.family import parse_ints
from resemi.transform_semigroup import TInstance
from resemi.transformations import (
    IndexSubset,
    Transformation,
    canonical_transversal,
    compose,
    fibers,
    image_kernel,
    restricted_image,
    restriction,
)


def all_transformations(n):
    return [Transformation(t) for t in product(range(n), repeat=n)]


def all_nonempty_subsets(n):
    out = []
    for mask in range(1, 1 << n):
        out.append(IndexSubset(n, [i for i in range(n) if mask >> i & 1]))
    return out


@st.composite
def transformations(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    return Transformation(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


@st.composite
def equal_size_transformations(draw, count, max_n=5):
    n = draw(st.integers(1, max_n))
    entries = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return tuple(Transformation(draw(entries)) for _ in range(count))


class TestTransformation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Transformation([0, 3])
        with pytest.raises(ValueError):
            Transformation([-1])

    def test_value_semantics(self):
        assert Transformation([0, 0, 1]) == Transformation([0, 0, 1])
        assert Transformation([0, 0, 1]) != Transformation([0, 1, 1])
        assert hash(Transformation([1, 0])) == hash(Transformation([1, 0]))

    def test_text_round_trip(self):
        # the inline grammar reads back what to_text writes
        inst = TInstance.from_dict({"n": 3, "Y": [0], "sY": {"elements": [[0]]}})
        f = Transformation([0, 0, 1])
        assert inst.parse_element(f.to_text()) == f
        empty = TInstance.from_dict({"n": 0, "Y": [], "sY": {"elements": [[]]}})
        assert empty.parse_element("") == Transformation(())

    def test_empty_map_is_allowed(self):
        e = Transformation(())
        assert e * e == e

    def test_bijectivity(self):
        assert Transformation([1, 0]).is_bijective()
        assert not Transformation([0, 0]).is_bijective()


class TestCompose:
    def test_examples(self):
        # forced by the left-to-right definition
        assert compose(Transformation([1, 2, 0]), Transformation([0, 0, 1])).map == (0, 1, 0)
        assert compose(Transformation([0, 0, 1]), Transformation.identity(3)).map == (0, 0, 1)
        # derived by evaluating every point
        f = Transformation([0, 0, 1])
        expected = tuple(f.map[f.map[x]] for x in range(3))
        assert compose(f, f).map == expected == (0, 0, 0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(Transformation([0]), Transformation([0, 1]))

    @given(equal_size_transformations(3))
    def test_associativity(self, fgh):
        f, g, h = fgh
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @given(equal_size_transformations(2))
    def test_pointwise_definition(self, fg):
        f, g = fg
        r = compose(f, g)
        assert all(r.map[x] == g.map[f.map[x]] for x in range(f.n))


class TestImageKernel:
    def test_examples(self):
        image, defect, classes = image_kernel(Transformation([0, 0, 1, 1]))
        assert image.members == (0, 1)
        assert defect.members == (2, 3)
        assert classes == ((0, 1), (2, 3))

        image, defect, classes = image_kernel(Transformation.identity(3))
        assert image.members == (0, 1, 2)
        assert defect.members == ()
        assert classes == ((0,), (1,), (2,))

        image, defect, classes = image_kernel(Transformation([0, 0, 0]))
        assert image.members == (0,)
        assert defect.members == (1, 2)
        assert classes == ((0, 1, 2),)

    @given(transformations())
    def test_classes_partition_and_match_image(self, f):
        image, defect, classes = image_kernel(f)
        flat = sorted(x for cls in classes for x in cls)
        assert flat == list(range(f.n))
        assert len(classes) == len(image)
        for v, cls in zip(image.members, classes):
            assert all(f.map[x] == v for x in cls)
        assert sorted(image.members + defect.members) == list(range(f.n))


class TestFibers:
    @pytest.mark.parametrize("images, expected", [
        (None, [(0, [0]), (1, [1]), (2, [2])]),
        ([0, 0, 1, 1], [(0, [0, 1]), (1, [2, 3])]),
        ([2, 2, 2], [(2, [0, 1, 2])]),
        ([], []),
        ([2, 0, 2], [(2, [0, 2]), (0, [1])]),  # keys by first occurrence, not sorted
    ], ids=["identity(3)", "0,0,1,1", "2,2,2", "empty", "2,0,2"])
    def test_examples(self, images, expected):
        f = Transformation.identity(3) if images is None else Transformation(images)
        assert list(fibers(f).items()) == expected

    @given(transformations())
    def test_same_classes_as_image_kernel(self, f):
        image, _, classes = image_kernel(f)
        fib = fibers(f)
        assert list(fib) == list(dict.fromkeys(f.map))
        assert [tuple(fib[v]) for v in image.members] == list(classes)


class TestRestriction:
    def test_examples(self):
        y = IndexSubset(4, [0, 1, 2])
        assert restriction(Transformation([0, 0, 1, 1]), y).map == (0, 0, 1)
        f = Transformation([0, 1, 2])
        assert restriction(f, IndexSubset(3, [0, 1, 2])) == f
        with pytest.raises(ValueError, match="not Y-invariant"):
            restriction(Transformation([3, 0, 1, 2]), IndexSubset(4, [0, 1]))

    def test_empty_y_gives_empty_map(self):
        assert restriction(Transformation([0, 1]), IndexSubset(2, [])) == Transformation(())

    def test_reindexing_uses_sorted_order(self):
        # Y = {1, 3}: 1 -> 3, 3 -> 1 becomes the swap on two points
        f = Transformation([0, 3, 2, 1])
        assert restriction(f, IndexSubset(4, [1, 3])).map == (1, 0)

    def test_homomorphism_law_exhaustive_small(self):
        # restriction(fg) == restriction(f) restriction(g) whenever both sides exist
        for n in (2, 3):
            for y in all_nonempty_subsets(n):
                invariant = [
                    f for f in all_transformations(n)
                    if all(f.map[x] in y for x in y.members)
                ]
                for f in invariant:
                    for g in invariant:
                        lhs = restriction(compose(f, g), y)
                        rhs = compose(restriction(f, y), restriction(g, y))
                        assert lhs == rhs


def compatible_transversal_values(f, y):
    """Every |C(f) \\ C(f|Y)| over all brute-force compatible pairs (T', T' on Y)."""
    ry = restricted_image(f, y)
    image, _, classes = image_kernel(f)
    choice_sets = []
    for v, cls in zip(image.members, classes):
        if v in ry:
            choice_sets.append([x for x in cls if x in y])
        else:
            choice_sets.append(list(cls))
    values = []
    x_set = set(range(f.n))
    y_set = set(y.members)
    for picks in product(*choice_sets):
        t_set = set(picks)
        ty_set = t_set & y_set
        c_f = x_set - t_set
        c_fy = y_set - ty_set
        values.append(len(c_f - c_fy))
    return values


def reference_canonical_transversal(f, y):
    """The earlier body of ``canonical_transversal``: R(f|Y) read off the
    restriction, every subset made through the validating constructor."""
    ry = {y.members[i] for i in restriction(f, y).map}
    fibres = fibers(f)
    reps_y = [next(x for x in fibres[v] if x in y) for v in ry]
    reps = reps_y + [cls[0] for v, cls in fibres.items() if v not in ry]
    return (IndexSubset.from_iterable(f.n, reps), IndexSubset.from_iterable(f.n, reps_y))


class TestCanonicalTransversal:
    def test_equals_reference_on_t4(self):
        # every f in T(4) and every Y, the empty one too, that f leaves invariant
        cases = 0
        for f in all_transformations(4):
            for mask in range(1 << 4):
                y = IndexSubset(4, [i for i in range(4) if mask >> i & 1])
                if not all(f.map[x] in y for x in y.members):
                    continue
                pair = canonical_transversal(f, y, fibers(f))
                assert tuple(pair) == reference_canonical_transversal(f, y)
                for part in pair:
                    assert part.n == 4 and part._set == frozenset(part.members)
                    assert list(part.members) == sorted(set(part.members))
                    assert all(0 <= x < 4 for x in part.members)
                cases += 1
        assert cases == 1_584

    def test_examples(self):
        f = Transformation([0, 0, 1, 1])
        pair = canonical_transversal(f, IndexSubset(4, [0, 1, 2]), fibers(f))
        assert pair.t.members == (0, 2)
        assert pair.t_on_y.members == (0, 2)

        f = Transformation([0, 0, 0, 2])
        pair = canonical_transversal(f, IndexSubset(4, [0, 1]), fibers(f))
        assert pair.t.members == (0, 3)
        assert pair.t_on_y.members == (0,)

        f = Transformation.identity(3)
        pair = canonical_transversal(f, IndexSubset(3, [0, 1]), fibers(f))
        assert pair.t.members == (0, 1, 2)
        assert pair.t_on_y.members == (0, 1)

    def test_invariants_exhaustive(self):
        # one representative of every fibre, and of every restricted fibre
        for n in range(1, 5):
            for y in all_nonempty_subsets(n):
                for f in all_transformations(n):
                    if not all(f.map[x] in y for x in y.members):
                        continue
                    pair = canonical_transversal(f, y, fibers(f))
                    image, _, classes = image_kernel(f)
                    t_set = set(pair.t.members)
                    assert len(t_set) == len(image)
                    for cls in classes:
                        assert len(t_set.intersection(cls)) == 1
                    assert set(pair.t_on_y.members) == t_set & set(y.members)
                    ry = restricted_image(f, y)
                    assert len(pair.t_on_y) == len(ry)

    def test_choice_independence_exhaustive(self):
        # the complement count is the same for every compatible pair
        for n in range(1, 5):
            for y in all_nonempty_subsets(n):
                for f in all_transformations(n):
                    if not all(f.map[x] in y for x in y.members):
                        continue
                    values = compatible_transversal_values(f, y)
                    pair = canonical_transversal(f, y, fibers(f))
                    x_set = set(range(n))
                    canonical_value = len(
                        (x_set - set(pair.t.members))
                        - (set(y.members) - set(pair.t_on_y.members))
                    )
                    assert set(values) == {canonical_value}

    def test_not_invariant_raises(self):
        f = Transformation([1, 2, 0])
        with pytest.raises(ValueError, match="^not Y-invariant$"):
            canonical_transversal(f, IndexSubset(3, [0, 1]), fibers(f))

    def test_size_mismatch_raises(self):
        # checked before invariance: point 2 of Y is not even a point of f
        f = Transformation([1, 0])
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            canonical_transversal(f, IndexSubset(3, [0, 2]), fibers(f))


class TestIndexSubset:
    def test_validation(self):
        with pytest.raises(ValueError):
            IndexSubset(3, [1, 1])
        with pytest.raises(ValueError):
            IndexSubset(3, [2, 1])
        with pytest.raises(ValueError):
            IndexSubset(3, [3])

    def test_unchecked_equals_validated(self):
        for members in ((), (0,), (1, 3), (0, 1, 2, 3)):
            y = IndexSubset._unchecked(4, members)
            assert y == IndexSubset(4, members) and hash(y) == hash(IndexSubset(4, members))
            assert y._set == frozenset(members) and list(y) == list(members)

    def test_complement_and_text(self):
        y = IndexSubset(4, parse_ints("0,2"))
        assert y.complement().members == (1, 3)
        data = {"n": 4, "Y": parse_ints(y.to_text()), "sY": {"elements": [[0, 1]]}}
        assert TInstance.from_dict(data).y == y
        assert IndexSubset(3, parse_ints("")).members == ()
