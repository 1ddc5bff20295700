"""Linear maps of V = GF(p)^n whose restriction to an invariant subspace W
lies in a prescribed semigroup S(W): construction, classification
predicates and constructive witnesses.

As on the transformation side, semigroup-level predicates look only at
(p, n, W, S(W)); the full semigroup is built solely for oracle
cross-checks and element classification.  The element theorem is
``family.element_theorem``, shared with the transformation family; this
module supplies what it reads of one f, the ``ElementSubspaces`` record
(restriction, subspaces, trace test, complement codimensions and both
witnesses).
"""

from __future__ import annotations

from functools import lru_cache

from .gflinear import (
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    all_subspaces,
    all_vectors,
    extension_rows,
    image_space,
    independent_extension,
    mat_inverse,
    null_space,
    restriction_images,
    solve_row_vector,
    transversal_from_spaces,
    unit_rows,
)
from .family import (
    RestrictedInstance,
    build,
    element_verdict,
    parse_rows,
    semigroup_verdict,
)
from .semigroups import (MEMO_BOUND, TABLE_CAP, FiniteSemigroup, PropertyVerdict, lazy,
                         prescribed_semigroup)


class ElementSubspaces:
    """What the element characterizations and their witnesses read of one
    f on one W, each part computed at most once.  Nothing here depends on
    S(W), except that each witness is built on the S(W)-partner it is
    given.

    Eager: the restriction ``alpha`` (None when f does not leave W
    invariant, and then nothing else), R(f) (``rf``), R(f) meet W
    (``r_meet_w``), R(f|W) (``rw``, the span of W's basis images, which
    the restriction is read from) and the image-trace test ``trace_ok``.
    Lazy: the canonical transversal pair (``transversal``) and what is
    wrong with it (``transversal_problem``, None when nothing is),
    codim(W + U) and codim(W + R(f)) (``complement_sizes``), the
    completion of W's canonical basis to a basis of V by B3 and B4, with
    that basis's inverse (``completion``), the images of B3 and B4 under
    each witness (``regular_rows``, ``unit_regular_rows``); ``witness``
    assembles a witness, which ``family.element_theorem`` keeps.  N(f) and
    W + U are not kept here: they are read from the memoised
    ``null_space(f)`` and the interned span ``W.sum(U)``.

    What reads only subspaces is shared through memos keyed on exactly
    what it reads, since a sweep meets the same few subspaces for many f:
    the transversal check on (U, U meet W, N(f), W, rank f)
    (``_transversal_problem``); the transversal's extension rows on
    (R(f|W), R(f)) (``gflinear.extension_rows``); the completion on (W,
    R(f)) (``_completion``), with its basis's inverse; the unit rows
    completing W + U (``_complement_basis``); and a partner lifted to
    ambient rows on (W, the partner) (``_lifted``).  Per record remain the
    transversal pair, the preimages in ``regular_rows`` and
    ``unit_regular_rows``, and one product per witness.
    """

    def __init__(self, w: Subspace, f: GFMatrix) -> None:
        self.f = f
        self.w = w
        try:
            self.alpha, images = restriction_images(f, w)
        except ValueError:
            self.alpha = None
            return
        self.rf = image_space(f)
        self.r_meet_w = self.rf.intersect(w)
        self.rw = Subspace._unchecked(w.p, w.ambient_dim, images)
        self.trace_ok = self.r_meet_w == self.rw

    @lazy
    def transversal(self) -> SubspaceTransversal:
        return transversal_from_spaces(self.f, self.w, self.rw, null_space(self.f), self.rf)

    @lazy
    def transversal_problem(self) -> str | None:
        """What is wrong with the canonical transversal subspace pair, or
        None."""
        tr = self.transversal
        return _transversal_problem(tr.u, tr.u_meet_w, null_space(self.f), self.w, self.rf.dim)

    @lazy
    def complement_sizes(self) -> tuple[int, int]:
        """codim(W + U) and codim(W + R(f))."""
        return self.w.sum(self.transversal.u).codim, self.w.sum(self.rf).codim

    @lazy
    def completion(self) -> tuple[tuple, tuple, GFMatrix]:
        """B3 and B4, which complete W's canonical basis to a basis of V,
        and the inverse of that basis (``_completion``)."""
        return _completion(self.w, self.rf)

    @lazy
    def regular_rows(self) -> tuple:
        """The pseudo-inverse's images of B3 (chosen preimages under f) and
        B4 (zero)."""
        b3, b4, _ = self.completion
        zero = (0,) * self.w.ambient_dim
        return tuple(solve_row_vector(self.f, v) for v in b3) + (zero,) * len(b4)

    @lazy
    def unit_regular_rows(self) -> tuple:
        """The invertible witness's images of B3 (the inverse of f's
        corestriction to U) and B4 (a basis of a complement of W + U)."""
        p, n, f, u = self.w.p, self.w.ambient_dim, self.f, self.transversal.u
        b3, b4, _ = self.completion
        mu = GFMatrix._unchecked(p, u.dim, n, f.point_action(u.basis))
        # the coordinates are unique: U is a transversal of ker(f)
        rows = tuple(u.from_coordinates(solve_row_vector(mu, v)) for v in b3)
        c4 = _complement_basis(self.w.sum(u))
        if len(c4) != len(b4):
            raise AssertionError("complement bases of W+R(f) and W+U differ in size")
        return rows + c4

    def witness(self, mode: str, partner: GFMatrix) -> GFMatrix:
        """The witness for ``mode`` built on the S(W)-partner of f|W,
        assembled as one product: the inverse of the basis [W; B3; B4]
        (``completion``) times the basis's images, the partner lifted to
        ambient rows (``_lifted``) on W and the mode's images of B3 and
        B4.

        regular: a pseudo-inverse h, the partner on W, chosen preimages on
        the rest of R(f) and zero on a complement of W + R(f).
        unit_regular: an invertible g, the S(W)-unit on W, the inverse of
        f's corestriction to U on the rest of R(f), and a deterministic
        matching between the complement bases of W + R(f) and W + U.
        Nothing is checked here; see ``witness_problem`` on the instance."""
        if self.w.is_full():
            return partner  # W's basis is a basis of V, so the map is the partner
        n, inverse = self.w.ambient_dim, self.completion[2]
        rows = _lifted(self.w, partner) + (
            self.regular_rows if mode == "regular" else self.unit_regular_rows)
        return inverse * GFMatrix._unchecked(self.w.p, n, n, rows)


@lru_cache(maxsize=MEMO_BOUND)
def _completion(w: Subspace, rf: Subspace) -> tuple[tuple, tuple, GFMatrix]:
    """``ElementSubspaces.completion`` for W and R(f), which are all it
    reads: B3, the rows of R(f)'s basis taken greedily outside W
    (``extension_rows``), B4, the unit rows completing W + R(f)
    (``_complement_basis``), and the inverse of the matrix whose rows are
    W's canonical basis, then B3 and B4: a basis of V."""
    b3 = extension_rows(w, rf)
    b4 = _complement_basis(w.sum(rf))
    n = w.ambient_dim
    return b3, b4, mat_inverse(GFMatrix._unchecked(w.p, n, n, w.basis + b3 + b4))


@lru_cache(maxsize=MEMO_BOUND)
def _transversal_problem(u: Subspace, u_meet_w: Subspace, ns: Subspace, w: Subspace,
                         rank: int) -> str | None:
    """``ElementSubspaces.transversal_problem`` for the pair (U, U meet W),
    N(f), W and the rank of f."""
    if u.dim != rank:
        return "transversal dimension differs from rank"
    # Through sums and membership, not the intersection the pair was
    # built with: a memoised intersect would be compared with itself.
    if u.sum(ns).dim != u.dim + ns.dim:
        return "transversal meets the null space"
    if (not all(u.contains(b) and w.contains(b) for b in u_meet_w.basis)
            or u_meet_w.dim != u.dim + w.dim - u.sum(w).dim):
        return "U meet W is not the trace of U"
    ns_on_w = ns.intersect(w)  # null space of the restriction, ambient
    if u_meet_w.dim + ns_on_w.dim != w.dim:
        return "U meet W is not a complement of the restricted null space"
    if u_meet_w.intersect(ns_on_w).dim != 0:
        return "U meet W meets the restricted null space"
    return None


@lru_cache(maxsize=MEMO_BOUND)
def _complement_basis(span: Subspace) -> tuple:
    """The unit rows that complete the basis of ``span`` (W + U, or W +
    R(f) for B4 of ``_completion``), greedily: which are
    taken depends on the span alone, not on the basis it is given by."""
    n = span.ambient_dim
    return tuple(independent_extension(span.p, n, span.basis, unit_rows(n)))


@lru_cache(maxsize=MEMO_BOUND)
def _lifted(w: Subspace, alpha: GFMatrix) -> tuple:
    """The coordinate matrix alpha lifted to ambient rows: the images of
    W's canonical basis under every map restricting to alpha (an element
    of a build, or a witness on its partner), made once per (W, alpha)."""
    return tuple(w.from_coordinates(row) for row in alpha.entries)


class LInstance(RestrictedInstance):
    """A subspace W of V = GF(p)^n and a closed S(W): ``LInstance(w,
    s_w, store=None)``.  The prime p and the ambient dimension n are W's
    own (``w.p``, ``w.ambient_dim``), so a region and an ambient that
    disagree cannot be given.

    Elements of S(W) (``prescribed``) are dim(W) x dim(W) coordinate
    matrices in W's canonical basis.  dim(W) = 0 is fully supported: S(W)
    is then the trivial group of the 0 x 0 matrix and the build is all of
    L(V).  Implements the family interface described on
    ``family.RestrictedInstance``; f's record is an ``ElementSubspaces``.

    ``build()`` is every linear map on V whose restriction to W lies in
    S(W): |S(W)| * p^(n(n - dim W)) elements (``family.build``).

    ``thm_semigroup(mode)`` decides from (p, n, W, S(W)) alone:

    regular:            S(W) a subgroup of Aut(W),  or  S(W) regular and W = V.
    inverse:            S(W) inverse  and  (W = V or dim V = 1).
    unit_regular:       S(W) a subgroup of Aut(W) (codim W is finite here
                        by construction),  or  S(W) unit-regular and W = V.
    completely_regular: S(W) completely regular  and  (W = V,  or
                        codim W = 1 and S(W) a subgroup of Aut(W)).

    ``thm_element(f, mode)`` decides by the characterization, not by
    search (``family.element_verdict``, which reads ``record(f)``):

    regular:      f|W regular in S(W)  and  R(f) meet W = R(f|W), compared
                  as canonical subspaces.  On success a pseudo-inverse h
                  with fhf = f is assembled.
    unit_regular: f|W unit-regular in S(W), the same image-trace equality,
                  and codim(W + U) = codim(W + R(f)) for the canonical
                  transversal subspace U.  On success an invertible g with
                  fgf = f is assembled.
    """

    SEMIGROUP_MODES = ("regular", "inverse", "unit_regular", "completely_regular")
    RECORD = ElementSubspaces
    FAMILY, REGION, PRESCRIBED, UNIT, SIZES = (
        "L_S(W)(V)", "W", "S(W)", "invertible", "codimensions")
    UNIT_GROUP, WHOLE, FINITE = "Aut(W)", "W = V", "codim(W) is finite"
    SMALL_N, SMALL, CODIM_ONE = 1, "dim V = 1", "codim(W) = 1"
    BASE, STEPS = "GF({p})^{k}", "row steps"
    KIND, FIELDS = "linear", (("p", "int"), ("n", "int"), ("W", "rows"), ("sW", "rows"))
    is_unit = staticmethod(GFMatrix.is_invertible)

    def __init__(self, w: Subspace, s_w: FiniteSemigroup, store=None) -> None:
        self.p, self.n = p, n = w.p, w.ambient_dim
        _check_s_w(p, w.dim, s_w.elements)
        self.w = w
        self.radix, self.width, self.codim = p, n, w.codim
        super().__init__(w, s_w, GFMatrix.identity(p, w.dim), store)

    @classmethod
    def from_fields(cls, p: int, n: int, rows: list, generators, elements) -> "LInstance":
        """The instance of ``from_dict``'s checked values: spanning ``rows``
        for W, and S(W) closed over its ``generators``, or its ``elements``,
        which must already be closed, each a dim(W)-sized matrix."""
        w = Subspace(p, n, rows)
        parse = lambda items: _check_s_w(p, w.dim, [GFMatrix(p, e) for e in items])
        return cls(w, prescribed_semigroup(parse, generators, elements))

    @classmethod
    def whole(cls, size: int, p: int) -> "LInstance":
        """The instance over W = 0, whose build is all of L(GF(p)^size)."""
        return cls(Subspace._unchecked(p, size, ()), FiniteSemigroup([GFMatrix(p, ())]))

    @staticmethod
    def cells(n: int, k: int, p: int):
        """(cell key, W) for each k-dimensional subspace W of GF(p)^n, in
        ``all_subspaces`` order."""
        return ((f"l:{p}:{n}:{w.to_text()}", w) for w in all_subspaces(p, n, k))

    @staticmethod
    def _q(m: int, p: int) -> int:
        """``region_count``'s q, for [n k]_p."""
        return p ** m - 1

    @classmethod
    def region_count(cls, n: int, k: int, p: int, bound: int) -> int:
        """[n k]_p (``RestrictedInstance.region_count``), at once past
        ``bound`` when 0 < k < n and n - min(k, n - k) reaches its bit
        length, as [n k]_p is at least 2^(n - min(k, n - k)) then: so no
        power grows with n."""
        if 0 < k < n and n - min(k, n - k) >= bound.bit_length():
            return bound + 1
        return super().region_count(n, k, p, bound)

    @staticmethod
    def closure_steps(k: int, p: int) -> int:
        """A bound on the row steps of one seeded closure in L(GF(p)^k): at
        most min(p^k, TABLE_CAP * k) points (k rows for each element), each
        acted on by at most 3 generators at k^2 steps.  The power is bounded
        as in ``exceeds``, so no work grows with p^k."""
        cap = TABLE_CAP * k
        return min(p ** min(k, cap.bit_length()), cap) * 3 * k * k

    def alpha_family(self, build: FiniteSemigroup) -> PropertyVerdict | None:
        """``alpha_family_check`` of ``build`` where it applies, codim(W) =
        1 and S(W) a group of units; else None."""
        return alpha_family_check(self, build) if self.codim == 1 and self.unit_group else None

    def point(self, d: int) -> tuple:
        """Vector d of GF(p)^n in ``all_vectors`` order: d's n digits in
        base p."""
        return tuple(d // self.p ** k % self.p for k in reversed(range(self.n)))

    @lazy
    def _free(self) -> tuple:
        """W's non-pivot columns, worked out on first use, so a refused
        build of a large space never lists them."""
        return tuple(j for j in range(self.n) if j not in self.w.pivots)

    @lazy
    def _complement(self) -> tuple:
        """The unit rows at W's non-pivot columns, which complete W's
        canonical basis to a basis of V; listed on first use."""
        units = unit_rows(self.n)
        return tuple(units[j] for j in self._free)

    def __repr__(self) -> str:
        return (
            f"LInstance(p={self.p}, n={self.n}, dim W={self.w.dim}, |S(W)|={len(self.prescribed)})"
        )

    def field_values(self) -> tuple:
        return self.p, self.n, [list(r) for r in self.w.basis]

    def in_ambient(self, f: GFMatrix) -> bool:
        return f.p == self.p and f.rows == self.n and f.cols == self.n

    def parse_element(self, text: str) -> GFMatrix:
        return GFMatrix(self.p, parse_rows(text))

    def build(self) -> FiniteSemigroup:
        return build_lsw(self)

    def thm_semigroup(self, mode: str) -> PropertyVerdict:
        return thm_semigroup_l(self, mode)

    def thm_element(self, f: GFMatrix, mode: str) -> PropertyVerdict:
        return thm_element_l(self, f, mode)

    def extend(self, alpha: GFMatrix, images) -> GFMatrix:
        """The unique matrix restricting to alpha on W and sending the
        unit rows of ``_complement`` to the given images (vectors with
        entries already reduced mod p), by substitution: row j, for each
        non-pivot column j of W, is its image, and W's canonical basis
        row b_i, 1 at its pivot c_i and 0 at the other pivots, is b_i =
        e_(c_i) + sum over non-pivot j of b_i[j] e_j, so row c_i is alpha's
        image of b_i (``_lifted``) less b_i[j] times row j for each such
        j.  No basis is inverted; the witnesses, whose rows after W's are
        not unit rows, read the inverse of theirs (``_completion``)."""
        p, w, free = self.p, self.w, self._free
        rows = [None] * self.n
        for j, v in zip(free, images):
            rows[j] = tuple(v)
        for c, b, row in zip(w.pivots, w.basis, _lifted(w, alpha)):
            for j in free:
                if b[j]:
                    row = tuple((x - b[j] * y) % p for x, y in zip(row, rows[j]))
            rows[c] = row
        return GFMatrix._unchecked(p, self.n, self.n, tuple(rows))


def _check_s_w(p: int, k: int, elements) -> list:
    """``elements``, refused unless each is a k x k matrix over GF(p), k =
    dim W: the rule for S(W), checked on a given S(W) and on parsed
    elements or generators before any closure."""
    for el in elements:
        if not isinstance(el, GFMatrix) or el.p != p or el.rows != k or el.cols != k:
            raise ValueError("S(W) elements must be dim(W) x dim(W) matrices over GF(p)")
    return elements


def build_lsw(inst: LInstance) -> FiniteSemigroup:
    """``family.build``, under the name ``bench/layers.py`` traces."""
    return build(inst)


def thm_element_l(inst: LInstance, f: GFMatrix, mode: str) -> PropertyVerdict:
    """``family.element_verdict``, under the name ``bench/layers.py`` traces."""
    return element_verdict(inst, f, mode)


def thm_semigroup_l(inst: LInstance, mode: str) -> PropertyVerdict:
    """``family.semigroup_verdict``, under the name ``bench/layers.py`` traces."""
    return semigroup_verdict(inst, mode)


def alpha_family_check(inst: LInstance, build: FiniteSemigroup) -> PropertyVerdict:
    """For codim(W) = 1 and S(W) a group of units, the whole semigroup is
    the family of maps indexed by (z, lam): restrict to lam on W and send
    the distinguished complement vector x to z.  Verifies the family, made
    by ``inst.extend`` apart from the build and the instance's store of
    elements, equals ``build``, the instance's build (``inst.build()``,
    which the sweep has already made), elementwise and that composition
    acts on indices by (z, lam)(z', del) = (x, lam.del) when z = x, and
    (y, lam)(z', del) = (y.del, lam.del) for y in W.  Both laws are read
    by index in the Cayley tables of ``build`` and S(W)."""
    if inst.codim != 1 or not inst.unit_group:
        raise ValueError("precondition violated")
    s_w, vectors = inst.prescribed, all_vectors(inst.p, inst.n)
    x = inst._complement[0]
    family = {(z, lam): inst.extend(lam, [z]) for lam in s_w.elements for z in vectors}
    if set(family.values()) != set(build.elements):
        return PropertyVerdict("alpha_family", False, clause="family differs from the build")
    at = {key: build.index_of(f) for key, f in family.items()}
    t = build.table
    for a, lam in enumerate(s_w.elements):
        for b, delta in enumerate(s_w.elements):
            lam_delta = s_w.elements[s_w.table[a][b]]
            if t[at[(x, lam)]][at[(x, delta)]] != at[(x, lam_delta)]:
                return PropertyVerdict(
                    "alpha_family", False, witness=(x, lam, delta),
                    clause="fixed-point composition law fails",
                )
            for y in inst.w.vectors():
                row = t[at[(y, lam)]]
                want = at[(inst.w.from_coordinates(delta.apply(inst.w.coordinates(y))), lam_delta)]
                for z in vectors:
                    if row[at[(z, delta)]] != want:
                        return PropertyVerdict(
                            "alpha_family", False, witness=(y, z, lam, delta),
                            clause="index composition law fails",
                        )
    return PropertyVerdict(
        "alpha_family", True,
        clause=f"family of {len(family)} maps matches the build; both laws hold",
    )
