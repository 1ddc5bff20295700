"""Finite semigroups of hashable elements, with brute-force property oracles.

Works uniformly over Transformation and GFMatrix elements, both read as
maps of points: the points of X, or the vectors of GF(p)^n.  Each element
gives a *point code*, the images of the points that determine it
(``Transformation.map``, or a matrix's rows), and a *point action*, its
images of any given points; the code of ``a * b`` is b's action on a's
code.  Every semigroup carries its full Cayley table, built from integer
tuples alone by a Froidure-Pin pass (Froidure & Pin 1997) that finds the
right Cayley graph, the index of x * g for every element x and generator
g, and a breadth-first spanning tree of it, which writes every element
but a generator as x * g with x earlier (``_fill_rows``, the one fill).
A table of at most 256 elements, whose indices fit a byte, is a byte
table: its rows are ``bytes`` of its length, and ``columns`` holds its
columns as ``bytes`` padded to 256, the length of a translation table.
A generator's column is its products in the graph, every other column
is one ``bytes.translate`` of an earlier one, col(x * g) = col(x)
translated by col(g), and row x is a stride through the columns.  A
larger table has list rows: the generators' rows are read along the
tree and every other row is one C-level gather of earlier rows, row(x *
g) = row(x) after row(g).  A closure is such a pass: ``closure_elements``
gathers the code of each x * g from x's code through g's images of
points, makes each new element from its code, and returns its order
with the graph (``Closure``), from which ``FiniteSemigroup`` fills the
table.  Given an element list instead, the points occurring in its
codes are numbered, and the generators are taken greedily in descending
rank, the number of distinct entries of the code (|im f| for a
transformation, the distinct rows of a matrix), ties in element order:
an element is one when the closure of the ones taken before it lacks
it.  Only the generators' actions are taken (a build reads those its
region's earlier tables took), and each edge x -> x * g is gathered from
x's numbered code; over at most 256 points, all of g's edges are one
``bytes.translate`` of the codes laid end to end (``_products_by``).
The table holds element indices, so it depends on neither the numbering
nor the generators taken, only on the element order; only points that
occur in codes are used, never all of GF(p)^n.  Every oracle then runs
on small-integer indices, and each table searches for each element's
partner once: it keeps, per element mode, every element's first partner
index in a compact integer array made on first ask
(``FiniteSemigroup.partner``, the one search), which the semigroup
verdicts (``semigroup_oracle``) read.  The unit-regular search walks
the units in every table; the others, in a byte table, find the
candidates for element i in row(i) translated by col(i), which holds i
* j * i at j.  A refusal (an unknown mode, "identity required", a
non-member) is raised on every ask and never kept.  A semigroup of more
than ``TABLE_CAP`` elements is refused with ``SizeCapExceeded``, and so
are closures and builds that would exceed it.
"""
from __future__ import annotations

from array import array
from collections import namedtuple
from itertools import chain, repeat
from operator import itemgetter
from struct import Struct


class SizeCapExceeded(ValueError):
    """Work refused because it would pass a stated bound, which ``bound``
    names ("more than <count> <unit>, <the bound>"; by default the Cayley
    table's ``TABLE_CAP``).  The CLI prints both and exits 3."""

    def __init__(self, message: str, bound: str | None = None) -> None:
        super().__init__(message)
        self.bound = bound or f"more than {TABLE_CAP} elements, the Cayley table's TABLE_CAP"


class PropertyVerdict(namedtuple("PropertyVerdict", "prop holds witness clause",
                                 defaults=(None, None))):
    """Outcome of one property check, with an optional witness.

    For a failed universally-quantified property the witness is a concrete
    failing element (or pair); for successful existential checks it is the
    found partner.  ``clause`` records which side of a characterization
    fired, when that is meaningful.  A named tuple, cheap to make as a
    sweep makes one for every theorem verdict it checks, and to define, so
    a CLI command loads no ``dataclasses``.
    """

    __slots__ = ()


# Element count of the largest Cayley table, hence of the largest semigroup.
TABLE_CAP = 4096

# The one caching rule of the package: a cache is state on the object that
# owns it (a region store, a record, a Cayley table's partners, a ``lazy``
# attribute) or a pure ``lru_cache(maxsize=MEMO_BOUND)`` on immutable
# inputs, filled per process as calls come, never at import.  The four
# criterion-3 plans fill no memo past 1,760 entries; the span, solve and
# null-space memos filled to the bound over GF(101)^4 hold 6.6 MB.
MEMO_BOUND = 4096

# The modes of ``FiniteSemigroup.partner``, and its mark of an element not
# yet searched (-1 is "no partner").  Its arrays are of signed 16-bit
# entries, which hold every index below ``TABLE_CAP``.
ELEMENT_MODES = ("regular", "unit_regular", "completely_regular")
_UNASKED = -2


class lazy:
    """``functools.cached_property`` without its lock, which Python 3.11
    takes on every first access: the value is worked out on first access
    and set on the instance, whose attribute then shadows this non-data
    descriptor.  Tables, records and instances of both families use it."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _shown(value) -> str:
    """``value`` as JSON text, for a refusal, cut after 60 characters, so
    a refusal stays one short line however large the value."""
    import json  # only a refusal reads it

    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:60] + "..."


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


def _products_by(codes: list, point_index: dict):
    """The function that maps a generator g, given by its numbered action
    (None for a point sent outside the numbered ones), to the index of
    x * g for every element x, in element order, with None for a product
    that is not an element.  x * g has the code gathered from g's action
    at x's numbered code.  Over at most 256 points every numbered code is
    a fixed-width field of one ``bytes`` blob, so all of g's products are
    one ``blob.translate``, one ``Struct.unpack`` into the fields and a
    lookup per field; over more points each code has its getter, and a
    code is keyed as its getter reads it (a bare point for one point)."""
    number = point_index.__getitem__
    if len(point_index) > 256:
        gathers = [itemgetter(*map(number, code)) for code in codes]
        numbered = range(len(point_index))
        index_of_code = {gather(numbered): k for k, gather in enumerate(gathers)}.get
        return lambda action: list(map(index_of_code,
                                       map(itemgetter.__call__, gathers, repeat(action))))
    blob = bytes(map(number, chain.from_iterable(codes)))
    split = Struct(f"{len(codes[0])}s" * len(codes)).unpack  # a blob into its codes
    index_of_code = dict(zip(split(blob), range(len(codes)))).get

    def products(action):
        if None in action:
            return [None]
        # padded to a translation table's 256 bytes; the blob's bytes are
        # numbered points, so the padding is never read
        return list(map(index_of_code, split(blob.translate(bytes(action).ljust(256)))))
    return products


def _cayley_table(elems: list, index: dict, actions: dict | None = None) -> tuple:
    """The Cayley table of an element list, as ``_fill_rows`` returns it:
    its generators found greedily in descending rank, with the right
    Cayley graph and a spanning tree (module docstring), then
    ``_fill_rows``.  A missing product is named as the first pair in
    row-major order, found by object products.  ``actions``, when given,
    is kept across tables: for each numbered point tuple, the numbered
    action of every element a table on those points took as a generator,
    so a later table taking that generator again reads its action
    there."""
    m = len(elems)
    # Number the points that occur in the elements' point codes.  A closed
    # semigroup maps them into themselves, so a point sent outside them
    # (None in an action) shows a missing product.
    codes = [el.point_code() for el in elems]
    points = tuple(sorted({x for code in codes for x in code}))
    if not points:  # the one map of the empty set or the zero space
        return [b"\0"], [bytes(256)]
    point_index = {x: i for i, x in enumerate(points)}
    taken = {} if actions is None else actions.setdefault(points, {})
    products_by = _products_by(codes, point_index)
    gens, right = [], []  # right[h][x] is the index of x * gens[h]
    # The spanning tree: a generator has parent -1, any other y is
    # parent[y] * gens[letter[y]]; ``order`` lists parents before children.
    parent, letter, order = [-1] * m, [None] * m, []
    # Candidates in descending rank (the distinct entries of the code: |im
    # f|, or distinct rows), ties in element order.  a * b's code is b's
    # action on a's, so no product outranks its left factor; generators of
    # high rank reach most low-rank elements as their products.
    for k in sorted(range(m), key=lambda k: -len(set(codes[k]))):
        if letter[k] is not None:
            continue
        # the closure of the earlier generators lacks k, so k is one
        action = taken.get(elems[k])
        if action is None:
            action = taken[elems[k]] = tuple(map(point_index.get, elems[k].point_action(points)))
        products = products_by(action)
        if None in products:
            a, b = next((a, b) for a in elems for b in elems if a * b not in index)
            raise ValueError(f"not closed under composition: {_shown(a)} * {_shown(b)} missing")
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
    del products_by  # freed before the bulk of the table is made
    return _fill_rows(gens, right, [(y, parent[y], letter[y]) for y in order])


def _fill_rows(gens, right, tree) -> tuple:
    """The Cayley table from a right Cayley graph and a spanning tree of
    it, the one fill of every table, as its rows and, for at most 256
    elements, its columns (else None).  ``right[h][x]`` is the index of
    x * gens[h]; ``tree`` lists (y, x, h) with y = x * gens[h], or x = -1
    for y = gens[h] itself, parents before children."""
    m = len(tree)
    if m > 256:
        table = [None] * m
        for e in gens:  # e * y = (e * x) * gens[h]
            row = [0] * m + [e]  # parent -1 reads e
            for y, x, h in tree:
                row[y] = right[h][row[x]]
            table[e] = row[:m]
        # row(x * g) = row(x) after row(g): one getter per generator row,
        # whose tuple lists at its exact length
        after = [itemgetter(*table[e]) for e in gens]
        for y, x, h in tree:
            if x >= 0:
                table[y] = list(after[h](table[x]))
        return table, None
    # A byte table, filled by columns: col(g) holds the products by g in
    # ``right``, and col(x * g) is col(x) translated by col(g).  A column
    # is padded to 256 bytes, the length of a translation table, so row x,
    # entry x of every column, is a stride of 256 through the columns.
    pad = bytes(256 - m)
    columns = [None] * m
    for y, x, h in tree:
        columns[y] = bytes(right[h]) + pad if x < 0 else columns[x].translate(columns[gens[h]])
    joined = b"".join(columns)
    return [joined[x::256] for x in range(m)], columns


class FiniteSemigroup:
    """Explicit finite semigroup: a duplicate-free element list closed
    under ``a * b``.

    Made from a ``Closure``, its table is filled along the right Cayley
    graph the closure's pass found, with no point numbered or action
    taken again.  Made from any other element list, closure is verified
    at construction (the verification doubles as the Cayley-table build,
    which gathers point codes and multiplies elements only to name a
    missing product), and more than ``TABLE_CAP`` distinct elements are
    refused.  Such a list takes one point action per generator, unless
    ``actions`` holds it already: a build passes its instance's store
    (``family.build``), so the tables on one store share the actions of
    the generators they have in common (``_cayley_table``).  ``table[i][j]``
    is the index of element i * element j; its rows are ``bytes``, with
    its ``columns`` kept too, for at most 256 elements, else lists, with
    ``columns`` None.  The columns serve the regular and completely
    regular partner searches; the unit-regular one walks ``unit_indices``
    in either kind of table.  A two-sided identity is detected by scan,
    never assumed.  Instances are immutable after construction and safe
    to share.
    """

    def __init__(self, elements, actions: dict | None = None) -> None:
        if isinstance(elements, Closure):  # duplicate-free, of one kind, within TABLE_CAP
            elems = elements
            index = dict(zip(elems, range(len(elems))))
            table, columns = _fill_rows(range(len(elems.right)), elems.right,
                                        list(zip(range(len(elems)), elems.parent, elems.letter)))
        else:
            elems = []
            index = {}
            for el in elements:
                if el not in index:
                    index[el] = len(elems)
                    elems.append(el)
            if not elems:
                raise ValueError("a semigroup needs at least one element")
            if len(elems) > TABLE_CAP:
                raise SizeCapExceeded("size cap exceeded")
            _check_same_kind(elems)
            table, columns = _cayley_table(elems, index, actions)
        self.elements = tuple(elems)
        self._index = index
        self.table = table
        self.columns = columns
        self.identity_index = self._find_identity()
        self._partners: dict = {}  # element mode -> first partner per element

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
        table, columns = self.table, self.columns
        ident = list(range(len(table))) if columns is None else bytes(range(len(table)))
        for e, row in enumerate(table):
            if row == ident and (all(table[j][e] == j for j in ident) if columns is None
                                 else columns[e].startswith(ident)):
                return e
        return None

    # -- cached element classes ------------------------------------------

    @lazy
    def idempotent_indices(self) -> list[int]:
        return [i for i, row in enumerate(self.table) if row[i] == i]

    @lazy
    def unit_indices(self) -> list[int]:
        """Indices of elements with a two-sided inverse (empty when there is
        no identity).

        Only rows that can hold the identity e are read: u * v = e needs
        rank(u) >= rank(e), the distinct entries of the point codes,
        because a product's code is its right factor's action on its left
        factor's code, so no product outranks its left factor (the rule
        ``_cayley_table`` orders its generators by).  A row of lower rank
        is skipped; every other candidate u is checked both ways in the
        table, u * v = e and v * u = e."""
        units: list[int] = []
        e = self.identity_index
        if e is not None:
            table, elements = self.table, self.elements
            rank = len(set(elements[e].point_code()))
            for u, row in enumerate(table):
                if len(set(elements[u].point_code())) < rank or e not in row:
                    continue
                # in a finite monoid a right inverse is unique when it exists
                v = row.index(e)
                if table[v][u] == e:
                    units.append(u)
        return units

    # -- the element oracle's answers ------------------------------------

    def partner(self, i: int, mode: str) -> int:
        """Index of element i's first partner in ``mode``, or -1 if it has
        none: the first b in element order with aba = a (``regular``), the
        first unit u in ``unit_indices`` order with aua = a, found by
        walking the units in every table (``unit_regular``, identity
        required), or the first b with aba = a and ab = ba
        (``completely_regular``).  The search runs on the first
        ask for (i, mode) and its answer is kept in the mode's array, made
        on the mode's first ask; a refused mode gets no array, so it is
        refused on every ask.  A negative i is refused too: the search
        would read it as no element and keep a wrong answer."""
        if i < 0:
            raise IndexError(f"element index {i} is negative")
        partners = self._partners.get(mode)
        if partners is None:
            if mode not in ELEMENT_MODES:
                raise ValueError(f"unknown element mode {mode!r}")
            if mode == "unit_regular" and not self.has_identity:
                raise ValueError("identity required")
            partners = self._partners[mode] = array("h", [_UNASKED]) * len(self.elements)
        j = partners[i]
        if j == _UNASKED:
            j = partners[i] = self._search(i, mode)
        return j

    def _search(self, i: int, mode: str) -> int:
        """The exhaustive search behind ``partner``, in the table alone.
        ``unit_regular`` walks ``unit_indices``, its only candidates, in
        every table.  The other modes try every j: in a byte table, ``hits
        = row(i).translate(col(i))`` holds i * j * i at j, so the candidates
        are the j with hits[j] == i, in order."""
        t, columns = self.table, self.columns
        row = t[i]
        if mode == "unit_regular":
            for j in self.unit_indices:
                if t[row[j]][i] == i:
                    return j
            return -1
        complete = mode == "completely_regular"
        if columns is not None:
            col = columns[i]
            hits = row.translate(col)
            j = hits.find(i)
            while complete and j >= 0 and row[j] != col[j]:
                j = hits.find(i, j + 1)
            return j
        for j, ij in enumerate(row):
            if t[ij][i] == i and (not complete or ij == t[j][i]):
                return j
        return -1


class Closure(list):
    """The closure of some generators as its element list, in
    ``closure_elements`` order, with the right Cayley graph its pass
    found.  The generators are its first ``len(right)`` elements, and
    ``right[h][x]`` is the index of x * generator h.  Every later element
    y was first met as ``parent[y] * generator letter[y]``, with parent[y]
    < y (a generator h has parent -1 and letter h): the spanning tree that
    ``FiniteSemigroup`` fills its table along.  The graph describes the list
    as returned, so the list is not to be changed."""

    __slots__ = ("right", "parent", "letter")

    def __init__(self, elements, right, parent, letter) -> None:
        super().__init__(elements)
        self.right, self.parent, self.letter = right, parent, letter


def closure_elements(gens) -> Closure:
    """Closure of the generators as an ordered element list, in one
    Froidure-Pin pass that also records its right Cayley graph
    (``Closure``).

    Breadth-first over words in the generators, ties within a level broken
    by textual form, so the order is reproducible.  The code of x * g is
    gathered from x's code through g's images of points, each taken once,
    when a code first holds the point, and each new element is made from
    its code (``from_code``); no element is multiplied out.  A closure of
    more than ``TABLE_CAP`` elements is refused.
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
    make = first[0].from_code
    order = list(first)
    codes = [el.point_code() for el in order]
    index = {code: k for k, code in enumerate(codes)}
    right = [[] for _ in first]
    parent, letter = [-1] * len(first), list(range(len(first)))
    start = 0
    while start < len(order):  # one level: the elements from ``start`` on
        products = [[tuple(map(step, code)) for code in codes[start:]] for step in steps]
        new = {}  # the code of each new product -> the (x, h) first met making it
        for h, by_h in enumerate(products):
            for x, code in enumerate(by_h, start):
                if code not in index:
                    new.setdefault(code, (x, h))
        batch = sorted(map(make, new), key=_element_text)
        if len(order) + len(batch) > TABLE_CAP:
            raise SizeCapExceeded("size cap exceeded")
        meet(batch)
        start = len(order)
        for el in batch:
            code = el.point_code()
            x, h = new[code]
            index[code] = len(order)
            order.append(el)
            codes.append(code)
            parent.append(x)
            letter.append(h)
        for by_h, by_g in zip(products, right):
            by_g.extend(map(index.__getitem__, by_h))
    return Closure(order, right, parent, letter)


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
    aba = a and ab = ba.  The partner is the table's first one
    (``FiniteSemigroup.partner``), searched for once per element and mode.
    """
    j = s.partner(s.index_of(a), mode)
    if j < 0:
        return PropertyVerdict(mode, False)
    return PropertyVerdict(mode, True, witness=s.elements[j])


def witness_problem(s: FiniteSemigroup, i: int, mode: str, w) -> str | None:
    """What is wrong with w as the partner in ``mode`` of a, element i of
    s, or None: w must lie in s with awa = a, and for ``unit_regular`` be
    a unit of s.  Reads only the Cayley table, so it checks either
    family's witnesses alike; a is named by its index, which the sweep
    holds already, so only w is looked up."""
    if mode not in ("regular", "unit_regular"):
        raise ValueError(f"unknown element mode {mode!r}")
    j = s._index.get(w)
    if j is None:
        return "witness not in the semigroup"
    t = s.table
    if t[t[i][j]][i] != i:
        return "witness fails awa = a"
    if mode == "unit_regular" and j not in s.unit_indices:
        return "witness is not a unit"
    return None


def semigroup_oracle(s: FiniteSemigroup, mode: str) -> PropertyVerdict:
    """Brute-force semigroup-level check; failure carries a witness.  The
    element modes, and ``inverse`` through ``regular``, read the table's
    kept partners (``FiniteSemigroup.partner``)."""
    if mode == "group":
        if not s.has_identity:
            return PropertyVerdict(mode, False, clause="no two-sided identity")
        # the units ascend, so the first non-unit is the first i with
        # units[i] != i, or len(units) when they are a prefix
        units = s.unit_indices
        i = next((i for i, u in enumerate(units) if i != u), len(units))
        if i < len(s.elements):
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
    if mode in ELEMENT_MODES:
        for i, a in enumerate(s.elements):
            if s.partner(i, mode) < 0:
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


def subgroup_containing(s: FiniteSemigroup, i: int):
    """The indices of a subgroup of s containing element i, in increasing
    order, or None.

    In a finite semigroup a lies in some subgroup exactly when the
    monogenic subsemigroup <a> generated by a is a group, so only that one
    is tried.  Its members are the powers of a, walked in the table from a
    until a power repeats; it is a group when one member is a two-sided
    identity on every member and each member has a two-sided inverse
    among them.  The test is that definition over table indices: it reads
    neither the elements nor the partners the table keeps.
    """
    t = s.table
    powers = [i]
    power = t[i][i]
    while power not in powers:
        powers.append(power)
        power = t[power][i]
    for e in powers:  # a two-sided identity of <a>
        row = t[e]
        for x in powers:
            if row[x] != x or t[x][e] != x:
                break
        else:
            break
    else:
        return None
    for x in powers:  # each with a two-sided inverse in <a>
        row = t[x]
        for y in powers:
            if row[y] == e == t[y][x]:
                break
        else:
            return None
    return tuple(sorted(powers))
