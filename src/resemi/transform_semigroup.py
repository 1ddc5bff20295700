"""Transformations of X whose restriction to an invariant subset Y lies in
a prescribed semigroup S(Y): construction, classification predicates and
constructive witnesses.

The semigroup-level predicates inspect only (n, Y, S(Y)); they never build
the full semigroup.  The element theorem is ``family.element_theorem``,
shared with the linear family; this module supplies what it reads of one
f, the ``TElementRecord`` (restriction, fibres, trace test, transversal
pair, complement counts and the unit-regular witness).  Brute-force
builds exist for oracle cross-checks and element classification.
"""

from __future__ import annotations

from itertools import combinations

from .family import (
    RestrictedInstance,
    build,
    element_verdict,
    parse_ints,
    semigroup_verdict,
)
from .semigroups import (TABLE_CAP, FiniteSemigroup, PropertyVerdict, _shown, lazy,
                         prescribed_semigroup)
from .transformations import (
    IndexSubset,
    Transformation,
    TransversalPair,
    canonical_transversal,
    fibers,
    restriction,
)


class TElementRecord:
    """What the element characterizations and their witnesses read of one
    f on one Y, each part computed at most once.  Nothing here depends on
    S(Y), except that a witness is built on the S(Y)-partner it is given.

    Eager: the restriction ``alpha`` (None when f does not leave Y
    invariant, and then nothing else), the fibres of f keyed by image
    point (``fibers``, by ``transformations.fibers``) and the image-trace
    test R(f) meet Y = R(f|Y) (``trace_ok``).  Lazy: the canonical transversal pair
    (``transversal``) and what is wrong with it (``transversal_problem``,
    None when nothing is), the sorted extras D(f) minus D(f|Y) and C(f) minus
    C(f|Y) (``extras``) and their sizes (``complement_sizes``).  The
    unit-regular witness on a partner is assembled by ``witness`` and kept
    by ``family.element_theorem``.  Every membership test in Y or in T
    reads the subset's frozenset (``IndexSubset._set``) directly.
    """

    def __init__(self, y: IndexSubset, f: Transformation) -> None:
        self.f = f
        self.y = y
        try:
            self.alpha = restriction(f, y)
        except ValueError:
            self.alpha = None
            return
        self.fibers = fibers(f)
        self.trace_ok = y._set.intersection(self.fibers) == set(map(f.map.__getitem__, y.members))

    @lazy
    def transversal(self) -> TransversalPair:
        return canonical_transversal(self.f, self.y)

    @lazy
    def transversal_problem(self) -> str | None:
        """What is wrong with the canonical transversal pair, or None.  The
        fibres of f|Y are those of f over R(f|Y), cut to Y."""
        y_set = self.y._set
        t_set, ty_set = self.transversal.t._set, self.transversal.t_on_y._set
        if len(t_set) != len(self.fibers):
            return "transversal size differs from image size"
        for cls in self.fibers.values():
            if len(t_set.intersection(cls)) != 1:
                return "a fibre does not meet T exactly once"
        if ty_set != t_set & y_set:
            return "T on Y is not the trace of T"
        for v in {self.f.map[x] for x in self.y.members}:
            if len(ty_set.intersection(x for x in self.fibers[v] if x in y_set)) != 1:
                return "a restricted fibre does not meet T on Y exactly once"
        return None

    @lazy
    def extras(self) -> tuple[list, list]:
        """D(f) minus D(f|Y) and C(f) minus C(f|Y), each sorted: the points
        outside Y and outside R(f), resp. outside T, since R(f|Y) lies in
        R(f) and T on Y in T."""
        t_set, y_set = self.transversal.t._set, self.y._set
        outside = [x for x in range(self.f.n) if x not in y_set]
        return [x for x in outside if x not in self.fibers], [x for x in outside if x not in t_set]

    @lazy
    def complement_sizes(self) -> tuple[int, int]:
        d_extra, c_extra = self.extras
        return len(c_extra), len(d_extra)

    def witness(self, mode: str, partner: Transformation) -> Transformation | None:
        """None for ``regular`` (no regular witness yet).  For
        ``unit_regular``, the bijective g with fgf = f assembled from three
        pieces: the S(Y)-unit ``partner`` on Y, fibre representatives on
        R(f) minus Y, and an order-preserving matching of the leftover
        defect onto the leftover complement."""
        if mode == "regular":
            return None
        members, y_set, t_set = self.y.members, self.y._set, self.transversal.t._set
        g = [None] * self.f.n
        for i, x in enumerate(members):
            g[x] = members[partner.map[i]]
        for v, cls in self.fibers.items():
            if v not in y_set:
                g[v] = next(x for x in cls if x in t_set)
        for src, dst in zip(*self.extras):
            g[src] = dst
        if None in g:
            raise AssertionError("witness pieces do not cover X")
        return Transformation._unchecked(tuple(g))


class TInstance(RestrictedInstance):
    """A subset Y of X = {0, ..., n-1} and a closed semigroup S(Y) on |Y|
    points: ``TInstance(y, s_y, store=None)``.  The ambient size n is Y's own
    (``y.n``), so a region and an ambient that disagree cannot be given.

    Elements of S(Y) (``prescribed``) act on the dense range 0..|Y|-1 (Y
    re-indexed in sorted order).  Y may be empty: S(Y) is then the trivial
    semigroup of the empty map, the restriction of every f is that map,
    and the build is all of T(X).  Implements the family interface
    described on ``family.RestrictedInstance``; f's record is a
    ``TElementRecord``.

    ``build()`` is every f on X whose restriction to Y lies in S(Y):
    |S(Y)| * n^(n-|Y|) elements (``family.build``).

    ``thm_semigroup(mode)`` decides from (n, Y, S(Y)) alone:

    regular:      S(Y) a subgroup of the symmetric group on Y,  or
                  S(Y) regular and Y = X.
    inverse:      S(Y) inverse  and  (Y = X or |X| = 2); for an empty Y,
                  where the build is all of T(X), |X| <= 1.
    unit_regular: S(Y) a subgroup of the symmetric group (the complement
                  of Y is finite here by construction),  or  S(Y)
                  unit-regular and Y = X.

    ``thm_element(f, mode)`` decides by the characterization, not by
    search (``family.element_verdict``, which reads ``record(f)``):

    regular:      f|Y regular in S(Y)  and  R(f) meet Y = R(f|Y).  No
                  witness yet.
    unit_regular: f|Y unit-regular in S(Y), the same image-trace equality,
                  and |C(f) minus C(f|Y)| = |D(f) minus D(f|Y)| computed
                  from the canonical transversal pair.  On success a
                  bijective witness g with fgf = f is assembled.
    """

    SEMIGROUP_MODES = ("regular", "inverse", "unit_regular")
    RECORD = TElementRecord
    FAMILY, REGION, PRESCRIBED, UNIT, SIZES = "T_S(Y)(X)", "Y", "S(Y)", "bijective", "counts"
    UNIT_GROUP, WHOLE, FINITE = "Sym(Y)", "Y = X", "X \\ Y is finite"
    SMALL_N, SMALL, CODIM_ONE = 2, "|X| = 2", "|X \\ Y| = 1"
    BASE, STEPS = "T({k})", "point steps"
    FIELDS = (("n", "int"), ("Y", "ints"), ("sY", "ints"))
    is_unit = staticmethod(Transformation.is_bijective)

    def __init__(self, y: IndexSubset, s_y: FiniteSemigroup, store=None) -> None:
        k = len(y)
        _check_s_y(k, s_y.elements)
        self.n = n = y.n
        self.y = y
        self.radix, self.width, self.codim = n, 1, n - k
        super().__init__(y, s_y, Transformation.identity(k), store)

    @classmethod
    def from_fields(cls, n: int, members: list, generators, elements) -> "TInstance":
        """The instance of ``from_dict``'s checked values: ``Y`` lists
        distinct integers in any order, and S(Y) is closed over its
        ``generators``, or its ``elements`` must already be closed."""
        if len(set(members)) != len(members):
            raise ValueError(f"instance field 'Y' must list distinct integers, not {_shown(members)}")
        y = IndexSubset(n, sorted(members))
        parse = lambda items: _check_s_y(len(y), [Transformation(e) for e in items])
        return cls(y, prescribed_semigroup(parse, generators, elements))

    @classmethod
    def whole(cls, size: int, p: int | None = None) -> "TInstance":
        """The instance over the empty Y, whose build is all of T(size)
        (``p`` is the linear family's and is ignored)."""
        return cls(IndexSubset(size, ()), FiniteSemigroup([Transformation(())]))

    @staticmethod
    def cells(n: int, k: int, p: None = None):
        """(cell key, Y) for each k-point subset Y of X, in ``combinations``
        order."""
        for members in combinations(range(n), k):
            y = IndexSubset(n, members)
            yield f"t:{n}:{y.to_text()}", y

    @staticmethod
    def _q(m: int, p: None) -> int:
        """``region_count``'s q, for C(n, k)."""
        return m

    @staticmethod
    def closure_steps(k: int, p: None = None) -> int:
        """A bound on the point steps of one seeded closure in T(k), one
        step being one image gathered: at most min(k^k, TABLE_CAP)
        elements (a larger closure is refused), each acted on by at most 3
        generators, each of which gathers the element's k images.  The
        power is bounded as in ``exceeds``, so no work grows with k^k."""
        return min(k ** min(k, TABLE_CAP.bit_length()), TABLE_CAP) * 3 * k

    def __repr__(self) -> str:
        return f"TInstance(n={self.n}, Y=[{self.y.to_text()}], |S(Y)|={len(self.prescribed)})"

    def key(self) -> dict:
        """JSON-friendly identifying record, stable across runs."""
        return {
            "kind": "transformation",
            "n": self.n,
            "Y": list(self.y.members),
            "sY": sorted(el.to_text() for el in self.prescribed.elements),
        }

    def in_ambient(self, f: Transformation) -> bool:
        return f.n == self.n

    def parse_element(self, text: str) -> Transformation:
        return Transformation(parse_ints(text))

    @lazy
    def _outside(self) -> tuple:
        """The points of X \\ Y in order; only ``extend`` needs them, so a
        refused build of a large X never lists them."""
        return self.y.complement().members

    def point(self, d: int) -> int:
        """Point d of X."""
        return d

    def extend(self, alpha: Transformation, images) -> Transformation:
        """The f with f|Y = alpha sending the points of X \\ Y, in order, to
        ``images``."""
        arr = [0] * self.n
        members = self.y.members
        for i, x in enumerate(members):
            arr[x] = members[alpha.map[i]]
        for x, v in zip(self._outside, images):
            arr[x] = v
        return Transformation._unchecked(tuple(arr))

    def build(self) -> FiniteSemigroup:
        return build_tsy(self)

    def thm_semigroup(self, mode: str) -> PropertyVerdict:
        return thm_semigroup_t(self, mode)

    def thm_element(self, f: Transformation, mode: str) -> PropertyVerdict:
        return thm_element_t(self, f, mode)


def _check_s_y(k: int, elements) -> list:
    """``elements``, refused unless each is a transformation on k = |Y|
    points: the rule for S(Y), checked on a given S(Y) and on parsed
    elements or generators before any closure."""
    for el in elements:
        if not isinstance(el, Transformation) or el.n != k:
            raise ValueError("S(Y) elements must be transformations on |Y| points")
    return elements


def build_tsy(inst: TInstance) -> FiniteSemigroup:
    """``family.build``, under the name ``bench/layers.py`` traces."""
    return build(inst)


def thm_element_t(inst: TInstance, f: Transformation, mode: str) -> PropertyVerdict:
    """``family.element_verdict``, under the name ``bench/layers.py`` traces."""
    return element_verdict(inst, f, mode)


def thm_semigroup_t(inst: TInstance, mode: str) -> PropertyVerdict:
    """The semigroup theorems of ``TInstance``: ``family.semigroup_verdict``,
    apart from the inverse theorem on an empty Y."""
    if mode == "inverse" and len(inst.y) == 0:  # the build is all of T(X)
        holds = inst.n <= 1
        return PropertyVerdict(mode, holds, clause="Y empty and |X| " + ("<= 1" if holds else "> 1"))
    return semigroup_verdict(inst, mode)
