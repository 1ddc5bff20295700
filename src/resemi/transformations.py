"""Finite transformations of {0, ..., n-1} and restriction machinery.

Composition is read left to right throughout: x(fg) = (xf)g.  Every
predicate and oracle in the package shares this single convention.
"""

from __future__ import annotations

import operator
from collections import namedtuple


class Transformation:
    """Total self-map of {0, ..., n-1}; ``map[x]`` is the image of x.

    Instances are immutable value objects: equality is entrywise and they
    hash, so they can live in sets and index Cayley tables.  ``f * g``
    composes left to right (apply ``f`` first).  ``n = 0`` is allowed --
    the empty map is the identity of the trivial semigroup on the empty
    set and backs the empty-subset convention of the builders.
    """

    __slots__ = ("n", "map", "_hash")

    def __init__(self, images) -> None:
        images = tuple(operator.index(x) for x in images)
        n = len(images)
        for x in images:
            if not 0 <= x < n:
                raise ValueError(f"entry {x} out of range 0..{n - 1}")
        self.n = n
        self.map = images
        self._hash = hash(("T", images))

    @classmethod
    def _unchecked(cls, images: tuple) -> "Transformation":
        t = object.__new__(cls)
        t.n = len(images)
        t.map = images
        t._hash = hash(("T", images))
        return t

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls._unchecked(tuple(range(n)))

    def to_text(self) -> str:
        return ",".join(map(str, self.map))

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __mul__(self, other: "Transformation") -> "Transformation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Transformation) and self.map == other.map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Transformation([{self.to_text()}])"

    def is_bijective(self) -> bool:
        return len(set(self.map)) == self.n

    def point_code(self) -> tuple:
        """The images of the points, which determine f.
        ``(f*g).point_code() == g.point_action(f.point_code())``."""
        return self.map

    def point_action(self, points) -> tuple:
        """The image of each of ``points`` under f."""
        return tuple(map(self.map.__getitem__, points))

    def from_code(self, code: tuple) -> "Transformation":
        """The transformation whose point code is ``code``, unchecked: a
        closure makes each new element from the code it gathered."""
        return Transformation._unchecked(code)


class IndexSubset:
    """Sorted, duplicate-free subset of {0, ..., n-1} with ambient size n."""

    __slots__ = ("n", "members", "_set")

    def __init__(self, n, members) -> None:
        n = operator.index(n)
        if n < 0:
            raise ValueError("ambient size must be nonnegative")
        members = tuple(operator.index(x) for x in members)
        for x in members:
            if not 0 <= x < n:
                raise ValueError(f"member {x} out of range 0..{n - 1}")
        if any(a >= b for a, b in zip(members, members[1:])):
            raise ValueError("members must be strictly increasing")
        self.n = n
        self.members = members
        self._set = frozenset(members)

    @classmethod
    def from_iterable(cls, n, xs) -> "IndexSubset":
        return cls(n, sorted(set(xs)))

    def to_text(self) -> str:
        return ",".join(map(str, self.members))

    def complement(self) -> "IndexSubset":
        return IndexSubset(self.n, [x for x in range(self.n) if x not in self._set])

    def __contains__(self, x) -> bool:
        return x in self._set

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSubset)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash(("Y", self.n, self.members))

    def __repr__(self) -> str:
        return f"IndexSubset({self.n}, [{self.to_text()}])"


class TransversalPair(namedtuple("TransversalPair", "t t_on_y")):
    """A transversal T of ker(f) together with T intersected with Y.

    Both parts, ``IndexSubset``s, live in ambient coordinates.  T meets
    every fibre of f exactly once, and ``t_on_y`` meets every fibre of the
    restricted map exactly once.
    """

    __slots__ = ()


def compose(f: Transformation, g: Transformation) -> Transformation:
    """Left-to-right composition: x(fg) = (xf)g."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return Transformation._unchecked(g.point_action(f.map))


def fibers(f: Transformation) -> dict[int, list[int]]:
    """The fibres of f: each image point, in order of first occurrence,
    mapped to its preimages in increasing order."""
    out: dict[int, list[int]] = {}
    for x, v in enumerate(f.map):
        out.setdefault(v, []).append(x)
    return out


def image_kernel(f: Transformation):
    """Image, defect (complement of the image) and kernel classes of f.

    Kernel classes are returned sorted by their common image point, so
    they are positionally in bijection with the image members.
    """
    by_image = fibers(f)
    image = sorted(by_image)
    classes = tuple(tuple(by_image[v]) for v in image)
    defect = [x for x in range(f.n) if x not in by_image]
    return (
        IndexSubset(f.n, image),
        IndexSubset(f.n, defect),
        classes,
    )


def restricted_image(f: Transformation, y: IndexSubset) -> IndexSubset:
    """Image of Y under f, in ambient coordinates (defined for any f)."""
    if f.n != y.n:
        raise ValueError("dimension mismatch")
    return IndexSubset.from_iterable(f.n, (f.map[x] for x in y.members))


def restriction(f: Transformation, y: IndexSubset) -> Transformation:
    """The restriction of f to the f-invariant subset Y, re-indexed.

    Y is re-indexed to the dense range 0..|Y|-1 via its sorted order, so
    the result is an ordinary Transformation on |Y| points (the empty map
    for an empty Y).  Raises when some point of Y leaves Y.
    """
    if f.n != y.n:
        raise ValueError("dimension mismatch")
    pos = {x: i for i, x in enumerate(y.members)}
    images = []
    for x in y.members:
        fx = f.map[x]
        if fx not in pos:
            raise ValueError("not Y-invariant")
        images.append(pos[fx])
    return Transformation._unchecked(tuple(images))


def canonical_transversal(f: Transformation, y: IndexSubset) -> TransversalPair:
    """Deterministic compatible transversal pair for ker(f) and ker(f|Y).

    For every image point of the restricted map the smallest preimage
    inside Y is taken; for every remaining image point of f the smallest
    preimage overall.  Ties therefore never arise and repeated runs give
    identical output.  For an empty Y, ``t_on_y`` is empty and T holds
    the smallest preimage of each fibre.
    """
    ry = {y.members[i] for i in restriction(f, y).map}  # R(f|Y); raises as ``restriction`` does
    fibres = fibers(f)
    reps_y = [next(x for x in fibres[v] if x in y._set) for v in ry]
    # fibres of image points outside Yf never meet Y
    reps = reps_y + [cls[0] for v, cls in fibres.items() if v not in ry]
    return TransversalPair(
        IndexSubset.from_iterable(f.n, reps),
        IndexSubset.from_iterable(f.n, reps_y),
    )
