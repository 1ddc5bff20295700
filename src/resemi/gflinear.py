"""Exact linear algebra over prime fields GF(p).

Matrices act on row vectors (v -> v @ M), so left-to-right composition of
linear maps is the ordinary matrix product and no transposes are needed
anywhere.  All arithmetic is integer arithmetic mod p; nothing here ever
touches floating point.

A subspace is stored as its canonical (RREF) basis, so the row space of a
matrix is ``Subspace(p, cols, rows)``, its rank ``GFMatrix.rank``, and the
lattice operations are ``Subspace.sum``, ``Subspace.intersect`` and
``Subspace.codim``.  ``_rref_rows`` is the one elimination: a span's
basis is the RREF of its rows, and everything else, a null space, an
intersection, a solve of v @ M = t and so an inverse, is a left null
space (``left_null_space_rows``).

Five pure subspace functions are memoised: the canonical span of given
rows (``Subspace._unchecked``, whose result is interned, so
``Subspace.sum``, the span of the two bases, is memoised with it),
``Subspace.intersect`` of a pair, ``null_space``, ``solve_row_vector``
and ``extension_rows``, one subspace's basis rows taken greedily outside
another.
Each memo follows the package's one caching rule (``semigroups.MEMO_BOUND``):
keyed on its immutable inputs, it is an LRU of at most ``MEMO_BOUND``
entries.  A sweep asks for the same few spans over and over (the whole of
GF(2)^3 has 16 subspaces), and in a large space a miss costs one dict
probe.
The validating ``Subspace.__init__`` is for rows from outside (parsed input,
``zero``, ``full``, ``all_subspaces``); the spans made inside, of rows
already reduced mod p, go through the memo, ``independent_extension``'s
among them, and ``GFMatrix.rank`` is the dimension of the interned row
space (``image_space``).  ``Subspace.__init__``, ``mat_compose`` and
``_rref_rows`` are not memoised.  The brute-force oracles read only
Cayley tables, so no verdict they give rests on a memo.  Besides these
five, ``linear_semigroup`` keeps five memos of the same bound for the
parts of its elements and records that read only subspaces and
coordinate matrices (the transversal check, the unit rows completing a
span, a map on W lifted to ambient rows and, for the witnesses alone,
W's basis completed to a basis of V, and that basis's inverse).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import combinations, product

from .semigroups import MEMO_BOUND

# The prime bases up to 37: no composite below 3.18e23 is a strong
# pseudoprime to all of them (Sorenson & Webster 2015), so Miller-Rabin on
# them decides every p below _PRIME_BOUND.
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 2 ** 64


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on ``_WITNESS_BASES``; a p of
    ``_PRIME_BOUND`` or more is refused, never called composite."""
    if p >= _PRIME_BOUND:
        raise ValueError(f"modulus {p} is not below 2^64, the bound of the primality test")
    if p < 2:
        return False
    for a in _WITNESS_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GFMatrix:
    """r x c matrix over GF(p), acting on row vectors.

    Entries are reduced mod p on ingest.  Immutable and hashable; equality
    is entrywise.  The 0 x 0 matrix is supported (it is the identity of
    the trivial semigroup on the zero space).
    """

    __slots__ = ("p", "rows", "cols", "entries", "_hash")

    def __init__(self, p, entries, cols: int | None = None) -> None:
        p = operator.index(p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        ent = tuple(tuple(operator.index(v) % p for v in row) for row in entries)
        r = len(ent)
        if r:
            c = len(ent[0])
            if any(len(row) != c for row in ent):
                raise ValueError("ragged rows")
            if cols is not None and cols != c:
                raise ValueError("cols disagrees with row length")
        else:
            c = 0 if cols is None else operator.index(cols)
        self.p = p
        self.rows = r
        self.cols = c
        self.entries = ent
        self._hash = hash(("M", p, r, c, ent))

    @classmethod
    def _unchecked(cls, p, rows, cols, entries) -> "GFMatrix":
        m = object.__new__(cls)
        m.p = p
        m.rows = rows
        m.cols = cols
        m.entries = entries
        m._hash = hash(("M", p, rows, cols, entries))
        return m

    @classmethod
    def identity(cls, p, n) -> "GFMatrix":
        ent = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls(p, ent, cols=n)

    @classmethod
    def zero(cls, p, r, c) -> "GFMatrix":
        return cls(p, tuple((0,) * c for _ in range(r)), cols=c)

    def to_text(self) -> str:
        return ";".join(",".join(map(str, row)) for row in self.entries)

    def apply(self, v) -> tuple:
        """Row-vector action of a square M: returns v @ M."""
        if len(v) != self.rows:
            raise ValueError("dimension mismatch")
        return self.point_action((v,))[0]

    def __mul__(self, other: "GFMatrix") -> "GFMatrix":
        return mat_compose(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFMatrix)
            and self.p == other.p
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"GFMatrix(p={self.p}, [{self.to_text()}])"

    @property
    def rank(self) -> int:
        return image_space(self).dim

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank == self.rows

    def point_code(self) -> tuple:
        """The rows: the images of the unit vectors, which determine M.
        ``(f*g).point_code() == g.point_action(f.point_code())``."""
        return self.entries

    def point_action(self, points) -> tuple:
        """v @ M for each v in ``points``: the one row-vector product, which
        ``apply`` and ``mat_compose`` call too."""
        if self.rows != self.cols:
            raise ValueError("dimension mismatch")
        p = self.p
        cols = tuple(zip(*self.entries))
        return tuple(
            tuple(sum(map(operator.mul, v, col)) % p for col in cols) for v in points
        )

    def from_code(self, code: tuple) -> "GFMatrix":
        """The matrix over this GF(p), of this size, whose point code (its
        rows) is ``code``, unchecked: a closure makes each new element from
        the code it gathered."""
        return GFMatrix._unchecked(self.p, self.rows, self.cols, code)


def mat_compose(f: GFMatrix, g: GFMatrix) -> GFMatrix:
    """Matrix product F.G; under the row action this is f-then-g."""
    if f.p != g.p:
        raise ValueError("modulus mismatch")
    if f.rows != f.cols or g.rows != g.cols or f.cols != g.rows:
        raise ValueError("dimension mismatch")
    return GFMatrix._unchecked(f.p, f.rows, f.rows, g.point_action(f.entries))


def _rref_rows(mat: list[list[int]], p: int, ncols: int):
    """Reduced row echelon form in place; returns (rows, pivot columns).

    Zero rows end up at the bottom.  ``mat`` may be empty, and then no
    column is visited.
    """
    nrows = len(mat)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        sel = None
        for i in range(r, nrows):
            if mat[i][col] % p:
                sel = i
                break
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(v * inv) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


class Subspace:
    """Subspace of GF(p)^n, canonically stored as an RREF basis.

    Spanning rows are canonicalized on ingest, so two Subspaces are equal
    exactly when they contain the same vectors.  The zero subspace has an
    empty basis.
    """

    __slots__ = ("p", "ambient_dim", "basis", "pivots", "_hash")

    def __init__(self, p, ambient_dim, spanning_rows=()) -> None:
        p = operator.index(p)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        n = operator.index(ambient_dim)
        if n < 0:
            raise ValueError("ambient dimension must be nonnegative")
        mat = []
        for row in spanning_rows:
            row = [operator.index(v) % p for v in row]
            if len(row) != n:
                raise ValueError("row length differs from ambient dimension")
            mat.append(row)
        self._span(p, n, mat)

    @staticmethod
    def _unchecked(p, n, rows) -> "Subspace":
        """Span of ``rows``, whose entries are already reduced mod p for a
        prime p; skips the input checks of ``__init__``.  Interned: equal
        inputs give the one memoised object."""
        return _span_of(p, n, tuple(map(tuple, rows)))

    def _span(self, p: int, n: int, mat: list[list[int]]) -> None:
        reduced, pivots = _rref_rows(mat, p, n)
        self.p = p
        self.ambient_dim = n
        self.basis = tuple(tuple(r) for r in reduced[: len(pivots)])
        self.pivots = tuple(pivots)
        self._hash = hash(("S", p, n, self.basis))

    @classmethod
    def zero(cls, p, n) -> "Subspace":
        return cls(p, n)

    @classmethod
    def full(cls, p, n) -> "Subspace":
        return cls(p, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def reduce(self, v) -> tuple:
        """Residue of v after elimination by the basis; zero iff v is a member."""
        p = self.p
        v = [operator.index(x) % p for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        for row, c in zip(self.basis, self.pivots):
            coef = v[c]
            if coef:
                v = [(a - coef * b) % p for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def coordinates(self, v):
        """Coordinates of v in the canonical basis, or None if v is outside."""
        if not self.contains(v):
            return None
        return tuple(v[c] % self.p for c in self.pivots)

    def from_coordinates(self, coords) -> tuple:
        """The ambient vector with the given canonical-basis coordinates."""
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch")
        v = [0] * self.ambient_dim
        for coef, row in zip(coords, self.basis):
            for j, b in enumerate(row):
                v[j] = (v[j] + coef * b) % self.p
        return tuple(v)

    def vectors(self):
        """All p^dim member vectors, in lexicographic coordinate order."""
        for coords in product(range(self.p), repeat=self.dim):
            yield self.from_coordinates(coords)

    def sum(self, other: "Subspace") -> "Subspace":
        """The span of both bases, interned like every span."""
        self._check_ambient(other)
        return Subspace._unchecked(self.p, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via the left kernel of the stacked bases."""
        self._check_ambient(other)
        return _intersect(self, other)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.p != other.p or self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return self._hash

    def to_text(self) -> str:
        """The basis rows, ';'-separated, as ``GFMatrix.to_text`` writes rows."""
        return ";".join(",".join(map(str, r)) for r in self.basis)

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, n={self.ambient_dim}, [{self.to_text()}])"


@lru_cache(maxsize=MEMO_BOUND)
def _span_of(p: int, n: int, rows: tuple) -> Subspace:
    s = object.__new__(Subspace)
    s._span(p, n, [list(r) for r in rows])
    return s


@lru_cache(maxsize=MEMO_BOUND)
def _intersect(a: Subspace, b: Subspace) -> Subspace:
    rows = [a.from_coordinates(k[:a.dim])
            for k in left_null_space_rows(a.p, a.basis + b.basis, a.ambient_dim)]
    return Subspace._unchecked(a.p, a.ambient_dim, rows)


def left_null_space_rows(p: int, rows, ncols: int) -> list[tuple]:
    """Basis rows of {v : v @ M = 0} for the matrix M with the given rows
    (entries already reduced mod p), from the RREF of the transpose."""
    r = len(rows)
    ft = [[row[j] for row in rows] for j in range(ncols)]
    reduced, pivots = _rref_rows(ft, p, r)
    pivot_set = set(pivots)
    free = [j for j in range(r) if j not in pivot_set]
    out = []
    for j in free:
        v = [0] * r
        v[j] = 1
        for i, c in enumerate(pivots):
            v[c] = (-reduced[i][j]) % p
        out.append(tuple(v))
    return out


@lru_cache(maxsize=MEMO_BOUND)
def null_space(f: GFMatrix) -> Subspace:
    """N(f) = {v : v @ F = 0}, canonical; dim N(f) = n - rank(F)."""
    if f.rows != f.cols:
        raise ValueError("matrix must be square")
    return Subspace._unchecked(f.p, f.rows, left_null_space_rows(f.p, f.entries, f.cols))


def image_space(f: GFMatrix) -> Subspace:
    """R(f): the row space of F under the row-vector action."""
    return Subspace._unchecked(f.p, f.cols, f.entries)


def solve_row_vector(m: GFMatrix, target):
    """Deterministic particular solution v of v @ M = target, or None.

    Free variables are set to zero, so the result is reproducible.
    """
    return _solve(m, tuple(target))


@lru_cache(maxsize=MEMO_BOUND)
def _solve(m: GFMatrix, target: tuple):
    """v @ M = t is (v, 1) @ [M; -t] = 0: the left null vector of M's rows
    over -t whose last coordinate is 1, cut to its first ``m.rows``
    entries.  Each null basis row is 1 at its own free coordinate and 0 at
    the others, and the last coordinate is free exactly when t is in M's
    row space; so the solution is the last row, with every other free
    variable zero, or there is none."""
    if len(target) != m.cols:
        raise ValueError("dimension mismatch")
    r = m.rows
    minus_t = tuple(-operator.index(x) % m.p for x in target)
    kernel = left_null_space_rows(m.p, m.entries + (minus_t,), m.cols)
    if not kernel or not kernel[-1][r]:
        return None
    return kernel[-1][:r]


def mat_inverse(m: GFMatrix) -> GFMatrix:
    """Exact inverse of a square matrix in one elimination, adding nothing
    to the solve memo: v @ M = e_i is (v, e_i) @ [M; -I] = 0.  M is
    invertible exactly when the left null rows of M's rows stacked over
    -I end in the unit rows e_0, ..., e_{n-1}, and row i of the inverse
    is then null row i cut to its first n coordinates; otherwise raises
    on singular input."""
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    minus_id = tuple(tuple(-x % m.p for x in e) for e in unit_rows(n))
    kernel = left_null_space_rows(m.p, m.entries + minus_id, n)
    if [k[n:] for k in kernel] != unit_rows(n):
        raise ValueError("singular matrix")
    return GFMatrix._unchecked(m.p, n, n, tuple(k[:n] for k in kernel))


def restriction_matrix(f: GFMatrix, w: Subspace) -> GFMatrix:
    """Coordinate matrix of the restriction of f to the f-invariant W.

    The coordinates are with respect to W's canonical basis, so this is a
    dim(W) x dim(W) matrix; dim(W) = 0 yields the 0 x 0 matrix.  Raises
    when some basis image leaves W.
    """
    return restriction_images(f, w)[0]


def restriction_images(f: GFMatrix, w: Subspace) -> tuple[GFMatrix, tuple]:
    """``restriction_matrix`` and the images of W's canonical basis under
    f, in ambient rows, whose span is R(f|W): both read the one product."""
    if f.rows != f.cols:
        raise ValueError("matrix must be square")
    if f.p != w.p or f.rows != w.ambient_dim:
        raise ValueError("dimension mismatch")
    images = f.point_action(w.basis)
    rows = tuple(map(w.coordinates, images))
    if None in rows:
        raise ValueError("not W-invariant")
    k = len(rows)
    return GFMatrix._unchecked(f.p, k, k, rows), images


def restricted_image_space(f: GFMatrix, w: Subspace) -> Subspace:
    """Span of W's image under f, in ambient coordinates (defined for any f)."""
    if f.p != w.p or f.rows != w.ambient_dim:
        raise ValueError("dimension mismatch")
    return Subspace._unchecked(f.p, f.cols, f.point_action(w.basis))


class SubspaceTransversal(namedtuple("SubspaceTransversal", "u u_meet_w")):
    """A direct complement U of N(f) together with its trace on W, both
    ``Subspace``s.

    U meets every coset of the null space exactly once (U + N(f) = V with
    trivial intersection) and U meet W does the same inside W for the
    restricted map.
    """

    __slots__ = ()


def canonical_transversal_subspace(f: GFMatrix, w: Subspace) -> SubspaceTransversal:
    """Deterministic transversal-subspace pair for ker(f) and ker(f|W).

    One W-preimage is chosen for each canonical basis vector u of the
    restricted image: the preimage v with free variables zero, moved into W
    by the lexicographically first correction c, in coordinates on N(f)'s
    canonical basis, with v + c.N(f) in W.  Those c solve
    c.R = -reduce_W(v), where R has the rows reduce_W(b) for that basis;
    the first is a particular solution reduced by the RREF basis of R's
    left null space, which zeroes its pivot coordinates.  The span is
    extended by free-variable-zero preimages of the remaining canonical
    basis vectors of R(f).
    """
    _, images = restriction_images(f, w)  # raises "not W-invariant" if W is not invariant
    return transversal_from_spaces(f, w, Subspace._unchecked(f.p, f.rows, images),
                                   null_space(f), image_space(f))


def transversal_from_spaces(f: GFMatrix, w: Subspace, rw: Subspace, ns: Subspace,
                            rf: Subspace) -> SubspaceTransversal:
    """``canonical_transversal_subspace`` for an f already known to leave
    W invariant, given R(f|W) = ``rw``, N(f) = ``ns`` and R(f) = ``rf``."""
    p, n = f.p, f.rows
    chosen = []
    for u in rw.basis:
        v = solve_row_vector(f, u)
        residue = w.reduce(v)
        if any(residue):
            r = GFMatrix._unchecked(p, ns.dim, n, tuple(w.reduce(b) for b in ns.basis))
            c = solve_row_vector(r, [-x for x in residue])
            if c is None:
                raise AssertionError("no W-preimage found for a restricted image vector")
            c = Subspace._unchecked(p, ns.dim, left_null_space_rows(p, r.entries, n)).reduce(c)
            v = tuple((a + b) % p for a, b in zip(v, ns.from_coordinates(c)))
        chosen.append(v)
    chosen += [solve_row_vector(f, r) for r in extension_rows(rw, rf)]
    u_space = Subspace._unchecked(p, n, chosen)
    return SubspaceTransversal(u_space, u_space.intersect(w))


def independent_extension(p, n, base_rows, candidates) -> list[tuple]:
    """Greedy prefix of ``candidates`` independent over ``base_rows``.

    Every row, of the base and of the candidates, must already be reduced
    mod p, as canonical basis rows and unit rows are: the span grows
    through the interned ``Subspace._unchecked``, never the validating
    constructor.  Returns only the added rows, in the order they were
    accepted."""
    span = Subspace._unchecked(p, n, base_rows)
    added = []
    for row in candidates:
        if not span.contains(row):
            added.append(tuple(row))
            span = Subspace._unchecked(p, n, span.basis + (added[-1],))
    return added


@lru_cache(maxsize=MEMO_BOUND)
def extension_rows(base: Subspace, span: Subspace) -> tuple:
    """The rows of ``span``'s canonical basis taken greedily outside
    ``base`` (``independent_extension``), memoised on the two subspaces:
    the transversal's extension of R(f|W) to R(f), and B3 of a witness,
    the extension of W to R(f)."""
    return tuple(independent_extension(base.p, base.ambient_dim, base.basis, span.basis))


def unit_rows(n: int) -> list[tuple]:
    return [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]


def all_vectors(p: int, n: int) -> list[tuple]:
    """All of GF(p)^n in lexicographic order."""
    return list(product(range(p), repeat=n))


def all_subspaces(p: int, n: int, dim: int | None = None) -> Iterator[Subspace]:
    """Canonical subspaces of GF(p)^n, generated one at a time by pivot
    pattern then free entries; deterministic order."""
    dims = range(n + 1) if dim is None else [dim]
    for d in dims:
        for pivots in combinations(range(n), d):
            pivot_set = set(pivots)
            free_pos = [
                (i, j)
                for i in range(d)
                for j in range(n)
                if j > pivots[i] and j not in pivot_set
            ]
            for vals in product(range(p), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(d)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), v in zip(free_pos, vals):
                    rows[i][j] = v
                yield Subspace(p, n, rows)
