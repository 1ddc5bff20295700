"""Linear maps of V = GF(p)^n whose restriction to an invariant subspace W
lies in a prescribed semigroup S(W): construction, classification
predicates and constructive witnesses.

As on the transformation side, semigroup-level predicates look only at
(p, n, W, S(W)); the full semigroup is built solely for oracle
cross-checks and element classification.  The element predicate is
``family.element_verdict``, shared with the transformation family; this
module supplies what it reads of one f, the ``ElementSubspaces`` record
(restriction, subspaces, trace test, complement codimensions and both
witnesses).
"""

from __future__ import annotations

from functools import cached_property

from .gflinear import (
    GFMatrix,
    Subspace,
    SubspaceTransversal,
    all_vectors,
    image_space,
    independent_extension,
    mat_inverse,
    null_space,
    restriction_matrix,
    restricted_image_space,
    solve_row_vector,
    transversal_from_spaces,
    unit_rows,
)
from .family import RestrictedInstance, build, element_verdict, json_int, parse_rows, semigroup_verdict
from .semigroups import FiniteSemigroup, PropertyVerdict, prescribed_semigroup, semigroup_oracle


class ElementSubspaces:
    """What the element characterizations and their witnesses read of one
    f on one W, each part computed at most once.  Nothing here depends on
    S(W), except that each witness is keyed on the S(W)-partner it is
    built on.

    Eager: the restriction ``alpha`` (None when f does not leave W
    invariant, and then nothing else), R(f) (``rf``), R(f) meet W
    (``r_meet_w``), R(f|W) (``rw``) and the image-trace test ``trace_ok``.
    Lazy: N(f) (``ns``), the canonical transversal pair (``transversal``)
    and what is wrong with it (``transversal_problem``, None when nothing
    is), W + U (``w_plus_u``), codim(W + U) and codim(W + R(f))
    (``complement_sizes``), the witness basis chain B1..B4 (``chain``) and
    the inverse of its basis matrix, the images of B3 + B4 under each
    witness (``regular_rows``, ``unit_regular_rows``), and each witness
    assembled (``witness``).
    """

    def __init__(self, w: Subspace, f: GFMatrix) -> None:
        self.f = f
        self.w = w
        self._witnesses: dict[tuple, GFMatrix] = {}
        try:
            self.alpha = restriction_matrix(f, w)
        except ValueError:
            self.alpha = None
            return
        self.rf = image_space(f)
        self.r_meet_w = self.rf.intersect(w)
        self.rw = restricted_image_space(f, w)
        self.trace_ok = self.r_meet_w == self.rw

    @cached_property
    def ns(self) -> Subspace:
        return null_space(self.f)

    @cached_property
    def transversal(self) -> SubspaceTransversal:
        return transversal_from_spaces(self.f, self.w, self.rw, self.ns, self.rf)

    @cached_property
    def transversal_problem(self) -> str | None:
        """What is wrong with the canonical transversal subspace pair, or
        None."""
        tr, ns, w = self.transversal, self.ns, self.w
        if tr.u.dim != self.f.rank:
            return "transversal dimension differs from rank"
        # Through sums and membership, not the intersection the pair was
        # built with: a memoised intersect would be compared with itself.
        if tr.u.sum(ns).dim != tr.u.dim + ns.dim:
            return "transversal meets the null space"
        if (not all(tr.u.contains(b) and w.contains(b) for b in tr.u_meet_w.basis)
                or tr.u_meet_w.dim != tr.u.dim + w.dim - tr.u.sum(w).dim):
            return "U meet W is not the trace of U"
        ns_on_w = ns.intersect(w)  # null space of the restriction, ambient
        if tr.u_meet_w.dim + ns_on_w.dim != w.dim:
            return "U meet W is not a complement of the restricted null space"
        if tr.u_meet_w.intersect(ns_on_w).dim != 0:
            return "U meet W meets the restricted null space"
        return None

    @cached_property
    def w_plus_u(self) -> Subspace:
        return self.w.sum(self.transversal.u)

    @cached_property
    def complement_sizes(self) -> tuple[int, int]:
        """codim(W + U) and codim(W + R(f))."""
        return self.w_plus_u.codim, self.w.sum(self.rf).codim

    @cached_property
    def chain(self) -> tuple[list, list, list, list]:
        """Deterministic bases B1 (of R(f) meet W), B2 (extending to W), B3
        (extending B1 to R(f) inside R(f)) and B4 (completing to V)."""
        p, n = self.w.p, self.w.ambient_dim
        b1 = list(self.r_meet_w.basis)
        b2 = independent_extension(p, n, b1, self.w.basis)
        b3 = independent_extension(p, n, b1, self.rf.basis)
        b123 = b1 + b2 + b3
        b4 = independent_extension(p, n, b123, unit_rows(n))
        if len(b123) + len(b4) != n:
            raise AssertionError("basis chain does not span the ambient space")
        return b1, b2, b3, b4

    @cached_property
    def chain_inverse(self) -> GFMatrix:
        """Inverse of the matrix whose rows are B1, B2, B3, B4."""
        rows = tuple(row for part in self.chain for row in part)
        return mat_inverse(GFMatrix._unchecked(self.w.p, len(rows), self.w.ambient_dim, rows))

    @cached_property
    def w_coordinates(self) -> list[tuple]:
        """B1 + B2 in coordinates of W's canonical basis."""
        b1, b2, _, _ = self.chain
        return [self.w.coordinates(v) for v in b1 + b2]

    @cached_property
    def regular_rows(self) -> list[tuple]:
        """The pseudo-inverse's images of B3 (chosen preimages under f) and
        B4 (zero)."""
        _, _, b3, b4 = self.chain
        return [solve_row_vector(self.f, v) for v in b3] + [(0,) * self.w.ambient_dim for _ in b4]

    @cached_property
    def unit_regular_rows(self) -> list[tuple]:
        """The invertible witness's images of B3 (the inverse of f's
        corestriction to U) and B4 (a basis of a complement of W + U)."""
        p, n, f, u = self.w.p, self.w.ambient_dim, self.f, self.transversal.u
        _, _, b3, b4 = self.chain
        mu = GFMatrix._unchecked(p, u.dim, n, tuple(f.apply(r) for r in u.basis))
        # the coordinates are unique: U is a transversal of ker(f)
        rows = [u.from_coordinates(solve_row_vector(mu, v)) for v in b3]
        c4 = independent_extension(p, n, self.w_plus_u.basis, unit_rows(n))
        if len(c4) != len(b4):
            raise AssertionError("complement bases of W+R(f) and W+U differ in size")
        return rows + c4

    def witness(self, mode: str, partner: GFMatrix) -> GFMatrix:
        """The witness for ``mode`` built on the S(W)-partner of f|W,
        assembled once per (mode, partner).

        regular: a pseudo-inverse h, the partner on W, chosen preimages on
        the rest of R(f) and zero on a complement of W + R(f).
        unit_regular: an invertible g, the S(W)-unit on W, the inverse of
        f's corestriction to U on the rest of R(f), and a deterministic
        matching between the complement bases of W + R(f) and W + U.
        Nothing is checked here; see ``witness_problem`` on the instance."""
        if self.w.is_full():
            return partner  # B1 + B2 is a basis of W = V, so the map is the partner
        key = (mode, partner)
        found = self._witnesses.get(key)
        if found is None:
            rest = self.regular_rows if mode == "regular" else self.unit_regular_rows
            w = self.w
            rows = [w.from_coordinates(partner.apply(c)) for c in self.w_coordinates]
            rows.extend(rest)
            found = self._witnesses[key] = self.chain_inverse * GFMatrix._unchecked(
                w.p, len(rows), w.ambient_dim, tuple(rows))
        return found


class LInstance(RestrictedInstance):
    """Prime p, ambient dimension n, a subspace W and a closed S(W).

    Elements of ``s_w`` are dim(W) x dim(W) coordinate matrices in W's
    canonical basis.  dim(W) = 0 is fully supported: S(W) is then the
    trivial group of the 0 x 0 matrix and the build is all of L(V).
    Implements the family interface described on
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
    SMALL_N, SMALL = 1, "dim V = 1"
    restrict = staticmethod(restriction_matrix)
    is_unit = staticmethod(GFMatrix.is_invertible)

    def __init__(self, p: int, n: int, w: Subspace, s_w: FiniteSemigroup) -> None:
        if w.p != p or w.ambient_dim != n:
            raise ValueError("dimension mismatch")
        k = w.dim
        for el in s_w.elements:
            if not isinstance(el, GFMatrix) or el.p != p or el.rows != k or el.cols != k:
                raise ValueError("S(W) elements must be dim(W) x dim(W) matrices over GF(p)")
        self.p = p
        self.n = n
        self.w = w
        self.s_w = s_w
        self.radix, self.width, self.codim = p, n, w.codim
        super().__init__(w, s_w, GFMatrix.identity(p, k))

    @classmethod
    def from_dict(cls, data: dict) -> "LInstance":
        """The instance of its JSON form: spanning rows for ``W``; ``sW``
        holds ``elements`` or ``generators`` of dim(W)-sized matrices."""
        p = json_int(data["p"], "p")
        n = json_int(data["n"], "n")
        w = Subspace(p, n, [[json_int(x, "W") for x in row] for row in data["W"]])
        block = data["sW"]
        s_w = prescribed_semigroup(
            lambda items: [GFMatrix(p, [[json_int(x, "sW") for x in row] for row in e], cols=w.dim)
                           for e in items],
            block.get("generators"), block.get("elements"))
        return cls(p, n, w, s_w)

    @classmethod
    def whole(cls, size: int, p: int) -> "LInstance":
        """The instance over W = 0, whose build is all of L(GF(p)^size)."""
        return cls(p, size, Subspace._unchecked(p, size, ()), FiniteSemigroup([GFMatrix(p, ())]))

    def point(self, d: int) -> tuple:
        """Vector d of GF(p)^n in ``all_vectors`` order: d's n digits in
        base p."""
        return tuple(d // self.p ** k % self.p for k in reversed(range(self.n)))

    @cached_property
    def _complement_cols(self) -> list[int]:
        """The non-pivot columns of W, whose unit rows complete W's basis;
        listed on first use, so a refused build of a large space never
        lists them."""
        return [j for j in range(self.n) if j not in self.w.pivots]

    @cached_property
    def _c_inv(self) -> GFMatrix:
        """The inverse of the matrix whose rows are W's basis and then the
        complement basis; only ``extend`` needs it, so a refused build of a
        large space never inverts it."""
        basis_rows = list(self.w.basis) + [unit_rows(self.n)[j] for j in self._complement_cols]
        return mat_inverse(GFMatrix(self.p, basis_rows, cols=self.n))

    def __repr__(self) -> str:
        return (
            f"LInstance(p={self.p}, n={self.n}, dim W={self.w.dim}, |S(W)|={len(self.s_w)})"
        )

    def key(self) -> dict:
        return {
            "kind": "linear",
            "p": self.p,
            "n": self.n,
            "W": [list(r) for r in self.w.basis],
            "sW": sorted(el.to_text() for el in self.s_w.elements),
        }

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

    def lift_on_w(self, alpha: GFMatrix, v) -> tuple:
        """Apply the coordinate matrix alpha, as a map on W, to ambient v."""
        return self.w.from_coordinates(alpha.apply(self.w.coordinates(v)))

    def extend(self, alpha: GFMatrix, images) -> GFMatrix:
        """The unique matrix restricting to alpha on W and sending the
        deterministic complement basis vectors to the given images
        (vectors with entries already reduced mod p)."""
        rows = [self.w.from_coordinates(alpha.entries[i]) for i in range(self.w.dim)]
        rows.extend(tuple(v) for v in images)
        return self._c_inv * GFMatrix._unchecked(self.p, len(rows), self.n, tuple(rows))


def build_lsw(inst: LInstance) -> FiniteSemigroup:
    """``family.build``, under the name ``bench/layers.py`` traces."""
    return build(inst)


def thm_element_l(inst: LInstance, f: GFMatrix, mode: str) -> PropertyVerdict:
    """``family.element_verdict``, under the name ``bench/layers.py`` traces."""
    return element_verdict(inst, f, mode)


def thm_semigroup_l(inst: LInstance, mode: str) -> PropertyVerdict:
    """The semigroup theorems of ``LInstance``: ``family.semigroup_verdict``,
    apart from the completely-regular theorem, which is the linear
    family's alone."""
    if mode == "completely_regular":
        if not semigroup_oracle(inst.s_w, "completely_regular").holds:
            return PropertyVerdict(mode, False, clause="S(W) not completely regular")
        if inst.codim == 0:
            return PropertyVerdict(mode, True, clause="S(W) completely regular and W = V")
        if inst.codim == 1 and inst.unit_group:
            return PropertyVerdict(
                mode, True, clause="codim(W) = 1 and S(W) is a subgroup of Aut(W)"
            )
        return PropertyVerdict(mode, False, clause="W != V and the codim-1 clause fails")
    return semigroup_verdict(inst, mode)


def alpha_family_check(inst: LInstance, build: FiniteSemigroup) -> PropertyVerdict:
    """For codim(W) = 1 and S(W) a group of units, the whole semigroup is
    the family of maps indexed by (z, lam): restrict to lam on W and send
    the distinguished complement vector x to z.  Verifies the family, made
    by ``inst.extend`` apart from the build and the region's store of
    elements, equals ``build``, the instance's build (``inst.build()``,
    which the sweep has already made), elementwise and that composition
    acts on indices by (z, lam)(z', del) = (x, lam.del) when z = x, and
    (y, lam)(z', del) = (y.del, lam.del) for y in W.  Both laws are read
    by index in the Cayley tables of ``build`` and S(W)."""
    if inst.codim != 1 or not inst.unit_group:
        raise ValueError("precondition violated")
    s_w, vectors = inst.s_w, all_vectors(inst.p, inst.n)
    x = unit_rows(inst.n)[inst._complement_cols[0]]
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
                want = at[(inst.lift_on_w(delta, y), lam_delta)]
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
