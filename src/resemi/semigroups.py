"""Finite semigroups of hashable elements, with brute-force property oracles.

Works uniformly over Transformation and GFMatrix elements, both read as
maps of points: the points of X, or the vectors of GF(p)^n.  Each element
gives a *point code*, the images of the points that determine it
(``Transformation.map``, or a matrix's rows), and a *point action*, its
images of any given points; the code of ``a * b`` is b's action on a's
code.  Every semigroup carries its full Cayley table, built in one
Froidure-Pin pass (Froidure & Pin 1997) from integer tuples alone.  The
points occurring in the codes are numbered, and the generators are taken
greedily in element order: an element is one when the closure of the
earlier ones lacks it.  Only the generators' actions are taken, and each
edge x -> x * g of the right Cayley graph is gathered from x's numbered
code.  A breadth-first spanning tree of that graph writes every other
element as x * g with x earlier, so the generators' rows are read along
it and every other row is one C-level gather of earlier rows,
row(x * g) = row(x) after row(g).  The table holds element indices, so
it does not depend on the numbering; only points that occur in codes
are used, never all of GF(p)^n.  Every oracle then runs on
small-integer indices.
A semigroup of more than ``TABLE_CAP`` elements is refused with
``SizeCapExceeded``, and so are closures and builds that would exceed it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter


class SizeCapExceeded(ValueError):
    """A closure or build would grow past the permitted element count."""


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of one property check, with an optional witness.

    For a failed universally-quantified property the witness is a concrete
    failing element (or pair); for successful existential checks it is the
    found partner.  ``clause`` records which side of a characterization
    fired, when that is meaningful.
    """

    prop: str
    holds: bool
    witness: object = None
    clause: str | None = None


# Element count of the largest Cayley table, hence of the largest semigroup.
TABLE_CAP = 4096


def _element_text(el) -> str:
    return el.to_text()


def _check_same_kind(elements) -> None:
    first = elements[0]
    sig = (type(first), getattr(first, "n", None), getattr(first, "p", None),
           getattr(first, "rows", None), getattr(first, "cols", None))
    for el in elements[1:]:
        if (type(el), getattr(el, "n", None), getattr(el, "p", None),
                getattr(el, "rows", None), getattr(el, "cols", None)) != sig:
            raise ValueError("mixed element kinds or sizes")


def _cayley_table(elems: list, index: dict) -> list:
    """The Cayley table of ``elems`` by one Froidure-Pin pass (module
    docstring); a missing product is named as the first pair in
    row-major order, found by object products."""
    m = len(elems)
    # Number the points that occur in the elements' point codes.  A closed
    # semigroup maps them into themselves, so a point sent outside them
    # (None in an action) shows a missing product.
    points = tuple(sorted({x for el in elems for x in el.point_code()}))
    if not points:  # the one map of the empty set or the zero space
        return [[0]]
    point_index = {x: i for i, x in enumerate(points)}
    number = point_index.__getitem__
    # x * g has the code gathered from g's numbered action at x's code; a
    # code is keyed as its gather reads it (a bare point for one point)
    gathers = [itemgetter(*map(number, el.point_code())) for el in elems]
    index_of_code = {gather(range(len(points))): k for k, gather in enumerate(gathers)}.get
    gens, right = [], []  # right[h][x] is the index of x * gens[h]
    # The spanning tree: a generator has parent -1, any other y is
    # parent[y] * gens[letter[y]]; ``order`` lists parents before children.
    parent, letter, order = [-1] * m, [None] * m, []
    for k, el in enumerate(elems):
        if letter[k] is not None:
            continue
        # the closure of the earlier generators lacks k, so k is one
        action = tuple(map(point_index.get, el.point_action(points)))
        products = list(map(index_of_code, map(itemgetter.__call__, gathers, repeat(action))))
        if None in products:
            a, b = next((a, b) for a in elems for b in elems if a * b not in index)
            raise ValueError(f"not closed under composition: {a!r} * {b!r} missing")
        h = len(gens)
        gens.append(k)
        right.append(products)
        letter[k] = h
        met = [k]
        for x in order:  # the earlier elements times the new generator
            y = products[x]
            if letter[y] is None:
                parent[y], letter[y] = x, h
                met.append(y)
        done = len(order)
        order += met
        while done < len(order):  # breadth first on, by every generator
            x = order[done]
            done += 1
            for g, by_g in enumerate(right):
                y = by_g[x]
                if letter[y] is None:
                    parent[y], letter[y] = x, g
                    order.append(y)
    table = [None] * m
    tree = [(y, parent[y], letter[y]) for y in order]
    for e in gens:  # e * y = (e * parent[y]) * gens[letter[y]]
        row = [0] * m + [e]  # parent -1 reads e
        for y, x, h in tree:
            row[y] = right[h][row[x]]
        table[e] = row[:m]
    del gathers, index_of_code, right  # freed before the bulk of the table is made
    # row(x * g) = row(x) after row(g): one getter per generator row, whose
    # tuple lists at its exact length
    after = [itemgetter(*table[e]) for e in gens]
    for y, x, h in tree:
        if x >= 0:
            table[y] = list(after[h](table[x]))
    return table


class FiniteSemigroup:
    """Explicit finite semigroup: a duplicate-free element list closed
    under ``a * b``.

    Closure is verified at construction (the verification doubles as the
    Cayley-table build, which gathers point codes and multiplies elements
    only to name a missing product).  More than ``TABLE_CAP`` distinct
    elements are refused.  A two-sided identity is detected by scan, never
    assumed.  Instances are immutable after construction and safe to
    share.
    """

    def __init__(self, elements) -> None:
        elems = []
        index: dict = {}
        for el in elements:
            if el not in index:
                index[el] = len(elems)
                elems.append(el)
        if not elems:
            raise ValueError("a semigroup needs at least one element")
        if len(elems) > TABLE_CAP:
            raise SizeCapExceeded("size cap exceeded")
        _check_same_kind(elems)
        self.elements = tuple(elems)
        self._index = index
        self.table = _cayley_table(elems, index)
        self.identity_index = self._find_identity()

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, el) -> bool:
        return el in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSemigroup) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"FiniteSemigroup({len(self.elements)} elements)"

    def key(self) -> frozenset:
        """Order-free identity of the semigroup (its element set)."""
        return frozenset(self.elements)

    def index_of(self, el) -> int:
        try:
            return self._index[el]
        except KeyError:
            raise ValueError("element not in semigroup") from None

    @property
    def has_identity(self) -> bool:
        return self.identity_index is not None

    @property
    def identity(self):
        if self.identity_index is None:
            return None
        return self.elements[self.identity_index]

    def _find_identity(self):
        table = self.table
        ident = list(range(len(table)))
        for e, row in enumerate(table):
            if row == ident and all(table[j][e] == j for j in ident):
                return e
        return None

    # -- cached element classes ------------------------------------------

    @cached_property
    def idempotent_indices(self) -> list[int]:
        return [i for i, row in enumerate(self.table) if row[i] == i]

    @cached_property
    def unit_indices(self) -> list[int]:
        """Indices of elements with a two-sided inverse (empty when there is
        no identity)."""
        units: list[int] = []
        e = self.identity_index
        if e is not None:
            table = self.table
            for u, row in enumerate(table):
                # in a finite monoid a right inverse is unique when it exists
                try:
                    v = row.index(e)
                except ValueError:
                    continue
                if table[v][u] == e:
                    units.append(u)
        return units

    @cached_property
    def unit_index_set(self) -> frozenset[int]:
        """``unit_indices`` as a set, for membership tests."""
        return frozenset(self.unit_indices)


def closure_elements(gens) -> list:
    """Closure of the generators as an ordered element list.

    Breadth-first over words in the generators, ties within a level broken
    by textual form, so the order is reproducible.  The code of x * g is
    gathered from x's code through g's images of points, each taken once,
    when a code first holds the point; only a product whose code is new
    is multiplied out.  A closure of more than ``TABLE_CAP`` elements is
    refused.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator required")
    _check_same_kind(gens)
    first = sorted(set(gens), key=_element_text)
    if len(first) > TABLE_CAP:
        raise SizeCapExceeded("size cap exceeded")
    images = [{} for _ in first]  # images[h][x] is the image of point x under first[h]

    def meet(elements) -> None:
        points = list({x for el in elements for x in el.point_code() if x not in images[0]})
        if points:
            for g, image in zip(first, images):
                image.update(zip(points, g.point_action(points)))

    meet(first)
    steps = [image.__getitem__ for image in images]
    order = list(first)
    known = {el.point_code() for el in order}
    frontier = order
    while frontier:
        new = {}
        for x in frontier:
            code = x.point_code()
            for g, step in zip(first, steps):
                product_code = tuple(map(step, code))
                if product_code not in known and product_code not in new:
                    new[product_code] = x * g
        if not new:
            break
        batch = sorted(new.values(), key=_element_text)
        if len(order) + len(batch) > TABLE_CAP:
            raise SizeCapExceeded("size cap exceeded")
        meet(batch)
        order.extend(batch)
        known.update(new)
        frontier = batch
    return order


def generate(gens) -> FiniteSemigroup:
    """Smallest composition-closed superset of the generators."""
    return FiniteSemigroup(closure_elements(gens))


def prescribed_semigroup(parse, generators=None, elements=None) -> FiniteSemigroup:
    """S(Y) or S(W) from exactly one of its ``generators`` (closed over) and
    its ``elements`` (which must already be closed).  ``parse`` turns the
    given form, as read, into a list of elements."""
    if generators is not None and elements is not None:
        raise ValueError("give either elements or generators, not both")
    if generators is not None:
        return generate(parse(generators))
    if elements is None:
        raise ValueError("neither elements nor generators given")
    return FiniteSemigroup(parse(elements))


def element_oracle(s: FiniteSemigroup, a, mode: str) -> PropertyVerdict:
    """Exhaustive-search element check; the witness is the found partner.

    ``regular``: some b with aba = a.  ``unit_regular``: some unit u with
    aua = a (identity required).  ``completely_regular``: some b with
    aba = a and ab = ba.
    """
    i = s.index_of(a)
    t = s.table
    row = t[i]
    if mode == "regular":
        for j, ij in enumerate(row):
            if t[ij][i] == i:
                return PropertyVerdict(mode, True, witness=s.elements[j])
        return PropertyVerdict(mode, False)
    if mode == "unit_regular":
        if not s.has_identity:
            raise ValueError("identity required")
        for j in s.unit_indices:
            if t[row[j]][i] == i:
                return PropertyVerdict(mode, True, witness=s.elements[j])
        return PropertyVerdict(mode, False)
    if mode == "completely_regular":
        for j, ij in enumerate(row):
            if t[ij][i] == i and ij == t[j][i]:
                return PropertyVerdict(mode, True, witness=s.elements[j])
        return PropertyVerdict(mode, False)
    raise ValueError(f"unknown element mode {mode!r}")


def witness_problem(s: FiniteSemigroup, a, mode: str, w) -> str | None:
    """What is wrong with w as a's partner in ``mode``, or None: w must lie
    in s with awa = a, and for ``unit_regular`` be a unit of s.  Reads
    only the Cayley table, so it checks either family's witnesses alike;
    a must lie in s."""
    if mode not in ("regular", "unit_regular"):
        raise ValueError(f"unknown element mode {mode!r}")
    i = s.index_of(a)
    j = s._index.get(w)
    if j is None:
        return "witness not in the semigroup"
    t = s.table
    if t[t[i][j]][i] != i:
        return "witness fails awa = a"
    if mode == "unit_regular" and j not in s.unit_index_set:
        return "witness is not a unit"
    return None


def semigroup_oracle(s: FiniteSemigroup, mode: str) -> PropertyVerdict:
    """Brute-force semigroup-level check; failure carries a witness."""
    if mode == "group":
        if not s.has_identity:
            return PropertyVerdict(mode, False, clause="no two-sided identity")
        units = s.unit_index_set
        for i in range(len(s.elements)):
            if i not in units:
                return PropertyVerdict(mode, False, witness=s.elements[i], clause="non-unit element")
        return PropertyVerdict(mode, True)
    if mode == "inverse":
        reg = semigroup_oracle(s, "regular")
        if not reg.holds:
            return PropertyVerdict(mode, False, witness=reg.witness, clause="not regular")
        t = s.table
        idem = s.idempotent_indices
        for e in idem:
            for f in idem:
                if t[e][f] != t[f][e]:
                    return PropertyVerdict(
                        mode, False,
                        witness=(s.elements[e], s.elements[f]),
                        clause="idempotents do not commute",
                    )
        return PropertyVerdict(mode, True)
    if mode in ("regular", "unit_regular", "completely_regular"):
        for a in s.elements:
            v = element_oracle(s, a, mode)
            if not v.holds:
                return PropertyVerdict(mode, False, witness=a)
        return PropertyVerdict(mode, True)
    raise ValueError(f"unknown semigroup mode {mode!r}")


def inverse_by_unique_inverses(s: FiniteSemigroup) -> PropertyVerdict:
    """Inverse-semigroup test straight from the unique-inverse definition:
    every x has exactly one y with xyx = x and yxy = y."""
    t = s.table
    for i, row in enumerate(t):
        count = 0
        for j, ij in enumerate(row):
            if t[ij][i] == i and t[t[j][i]][j] == j:
                count += 1
                if count > 1:
                    break
        if count != 1:
            return PropertyVerdict("inverse", False, witness=s.elements[i],
                                   clause=f"{count if count > 1 else 0} inverses")
    return PropertyVerdict("inverse", True)


def _is_group_subset(s: FiniteSemigroup, idxs: set) -> bool:
    t = s.table
    ident = None
    for e in idxs:
        if all(t[e][x] == x == t[x][e] for x in idxs):
            ident = e
            break
    if ident is None:
        return False
    for x in idxs:
        if not any(t[x][y] == ident == t[y][x] for y in idxs):
            return False
    return True


def subgroup_containing(s: FiniteSemigroup, a):
    """A subgroup of s containing a, as a tuple of its elements, or None.

    In a finite semigroup a lies in some subgroup exactly when the
    monogenic subsemigroup generated by a is a group, so only that one
    is tried.
    """
    i = s.index_of(a)
    t = s.table
    own = {i}
    power = t[i][i]  # walk a, a^2, ... until a power repeats
    while power not in own:
        own.add(power)
        power = t[power][i]
    if _is_group_subset(s, own):
        return tuple(s.elements[k] for k in sorted(own))
    return None
