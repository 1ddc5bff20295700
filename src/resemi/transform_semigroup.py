"""Transformations of X whose restriction to an invariant subset Y lies in
a prescribed semigroup S(Y): construction, classification predicates and
constructive witnesses.

The semigroup-level predicates inspect only (n, Y, S(Y)); they never build
the full semigroup.  Brute-force builds exist for oracle cross-checks and
element classification.
"""

from __future__ import annotations

from itertools import product

from .semigroups import (
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    TABLE_CAP,
    element_oracle,
    prescribed_semigroup,
    semigroup_oracle,
)
from .transformations import (
    IndexSubset,
    Transformation,
    canonical_transversal,
    image_kernel,
    restriction,
)


class TInstance:
    """Ambient size n, a subset Y and a closed semigroup S(Y) on |Y| points.

    Elements of ``s_y`` act on the dense range 0..|Y|-1 (Y re-indexed in
    sorted order).  Y may be empty: S(Y) is then the trivial semigroup of
    the empty map, the restriction of every f is that map, and the build
    is all of T(X).

    ``TInstance`` and ``LInstance`` share one interface: the family's
    ``SEMIGROUP_MODES`` and ``ELEMENT_MODES``, ``prescribed`` (S(Y) or
    S(W)), ``has_identity`` (whether it holds the identity of T(Y) or
    L(W)), ``unit_group`` (whether it is a subgroup of Sym(Y) or Aut(W):
    it holds the identity and is a group, as a finite group of bijections
    holds the identity map, and a group holding it has it as identity),
    ``key()``, ``parse_element(text)``, ``expected_size()``,
    ``build(size_cap)``, ``thm_semigroup(mode)``, ``thm_element(f, mode)``,
    ``witness_problem(f, w, mode)`` and ``transversal_problem(f)``.
    """

    SEMIGROUP_MODES = ("regular", "inverse", "unit_regular")
    ELEMENT_MODES = ("regular", "unit_regular")

    def __init__(self, n: int, y: IndexSubset, s_y: FiniteSemigroup) -> None:
        if y.n != n:
            raise ValueError("dimension mismatch")
        k = len(y)
        for el in s_y.elements:
            if not isinstance(el, Transformation) or el.n != k:
                raise ValueError("S(Y) elements must be transformations on |Y| points")
        self.n = n
        self.y = y
        self.s_y = s_y
        self.has_identity = Transformation.identity(k) in s_y
        self.unit_group = self.has_identity and semigroup_oracle(s_y, "group").holds

    def __repr__(self) -> str:
        return f"TInstance(n={self.n}, Y=[{self.y.to_text()}], |S(Y)|={len(self.s_y)})"

    def key(self) -> dict:
        """JSON-friendly identifying record, stable across runs."""
        return {
            "kind": "transformation",
            "n": self.n,
            "Y": list(self.y.members),
            "sY": sorted(el.to_text() for el in self.s_y.elements),
        }

    @property
    def prescribed(self) -> FiniteSemigroup:
        return self.s_y

    def parse_element(self, text: str) -> Transformation:
        return Transformation.from_text(text)

    def expected_size(self) -> int:
        """|S(Y)| * n^(n-|Y|), the size of the build."""
        return len(self.s_y) * self.n ** (self.n - len(self.y))

    def build(self, size_cap: int = 1_000_000) -> FiniteSemigroup:
        return build_tsy(self, size_cap)

    def thm_semigroup(self, mode: str) -> PropertyVerdict:
        return thm_semigroup_t(self, mode)

    def thm_element(self, f: Transformation, mode: str) -> PropertyVerdict:
        return thm_element_t(self, f, mode)

    def transversal_problem(self, f: Transformation) -> str | None:
        """What is wrong with f's canonical transversal pair, or None."""
        pair = canonical_transversal(f, self.y)
        t_set = set(pair.t.members)
        ty_set = set(pair.t_on_y.members)
        image, _, classes = image_kernel(f)
        if len(t_set) != len(image):
            return "transversal size differs from image size"
        for cls in classes:
            if len(t_set.intersection(cls)) != 1:
                return "a fibre does not meet T exactly once"
        if ty_set != t_set.intersection(self.y.members):
            return "T on Y is not the trace of T"
        y_fibers: dict[int, set] = {}
        for x in self.y.members:
            y_fibers.setdefault(f.map[x], set()).add(x)
        for fiber in y_fibers.values():
            if len(ty_set & fiber) != 1:
                return "a restricted fibre does not meet T on Y exactly once"
        return None

    def witness_problem(self, f: Transformation, w: Transformation, mode: str) -> str | None:
        """What is wrong with w as the theorem's ``mode`` witness for f, or
        None: w must restrict into S(Y), be bijective for
        ``unit_regular``, and satisfy fwf = f.  Checked by multiplication,
        so it needs no build; the sweep checks its witnesses in the
        build's Cayley table instead (``semigroups.witness_problem``)."""
        label, name = (("unit-regular", "g") if mode == "unit_regular"
                       else ("regular", "h"))
        if mode == "unit_regular" and not w.is_bijective():
            return f"{label} witness is not bijective"
        try:
            inside = restriction(w, self.y) in self.s_y
        except ValueError:  # Y is not invariant under w
            inside = False
        if not inside:
            return f"{label} witness leaves the semigroup"
        if f * w * f != f:
            return f"{label} witness fails f{name}f = f"
        return None


def t_instance_from_dict(data: dict) -> TInstance:
    """Build a TInstance from its JSON form.

    ``sY`` holds either ``elements`` (must already be closed) or
    ``generators`` (closed over).
    """
    n = int(data["n"])
    y = IndexSubset.from_iterable(n, data["Y"])
    block = data["sY"]
    s_y = prescribed_semigroup(lambda items: [Transformation(e) for e in items],
                               block.get("generators"), block.get("elements"))
    return TInstance(n, y, s_y)


def _embedded(inst: TInstance, alpha: Transformation, extension) -> Transformation:
    arr = [0] * inst.n
    for i, x in enumerate(inst.y.members):
        arr[x] = inst.y.members[alpha.map[i]]
    for x, v in zip(inst.y.complement().members, extension):
        arr[x] = v
    return Transformation._unchecked(tuple(arr))


def build_tsy(inst: TInstance, size_cap: int = 1_000_000) -> FiniteSemigroup:
    """Enumerate every f on X whose restriction to Y lies in S(Y).

    For each alpha in S(Y) and each assignment of X minus Y into X there
    is exactly one such f, so the result has |S(Y)| * n^(n-|Y|) elements.
    """
    n, k = inst.n, len(inst.y)
    count = inst.expected_size()
    if count > min(size_cap, TABLE_CAP):
        raise SizeCapExceeded("size cap exceeded")
    if k == n:
        return inst.s_y  # Y = X: the build is S(Y) itself, table reused
    out = []
    for alpha in inst.s_y.elements:
        for extension in product(range(n), repeat=n - k):
            out.append(_embedded(inst, alpha, extension))
    s = FiniteSemigroup(out)
    if len(s) != count:
        raise AssertionError("build size disagrees with the counting formula")
    return s


def restriction_to_y(inst: TInstance, f: Transformation) -> Transformation:
    """f restricted to Y (re-indexed), raising if f is not a member."""
    if f.n != inst.n:
        raise ValueError("f not in T_S(Y)(X): wrong ambient size")
    try:
        alpha = restriction(f, inst.y)
    except ValueError:
        raise ValueError("f not in T_S(Y)(X): Y is not invariant") from None
    if alpha not in inst.s_y:
        raise ValueError("f not in T_S(Y)(X): restriction outside S(Y)")
    return alpha


def _ambient_sets(inst: TInstance, f: Transformation):
    image, _, _ = image_kernel(f)
    r_set = set(image.members)
    y_set = set(inst.y.members)
    ry_set = {f.map[x] for x in inst.y.members}  # image of the restriction, ambient
    return r_set, y_set, ry_set


def thm_element_t(inst: TInstance, f: Transformation, mode: str) -> PropertyVerdict:
    """Element classification via the characterization, not via search.

    regular:      f|Y regular in S(Y)  and  R(f) meet Y = R(f|Y).
    unit_regular: f|Y unit-regular in S(Y), the same image-trace equality,
                  and |C(f) minus C(f|Y)| = |D(f) minus D(f|Y)| computed
                  from the canonical transversal pair.  On success a
                  bijective witness g with fgf = f is assembled.

    The witness is not checked here: the sweep checks it in the build's
    Cayley table (``semigroups.witness_problem``), and the CLI by
    multiplication (``TInstance.witness_problem``).  A regular verdict
    carries no witness yet.
    """
    alpha = restriction_to_y(inst, f)
    r_set, y_set, ry_set = _ambient_sets(inst, f)
    trace_ok = (r_set & y_set) == ry_set
    if mode == "regular":
        alpha_reg = element_oracle(inst.s_y, alpha, "regular").holds
        if alpha_reg and trace_ok:
            return PropertyVerdict(mode, True, clause="restriction regular and image trace matches")
        clause = "restriction not regular in S(Y)" if not alpha_reg else "image trace differs"
        return PropertyVerdict(mode, False, clause=clause)
    if mode == "unit_regular":
        if not inst.has_identity:
            raise ValueError("identity required")
        ur = element_oracle(inst.s_y, alpha, "unit_regular")
        pair = canonical_transversal(f, inst.y)
        t_set = set(pair.t.members)
        ty_set = set(pair.t_on_y.members)
        x_set = set(range(inst.n))
        d_extra = (x_set - r_set) - (y_set - ry_set)   # D(f) \ D(f|Y)
        c_extra = (x_set - t_set) - (y_set - ty_set)   # C(f) \ C(f|Y)
        counts_ok = len(c_extra) == len(d_extra)
        holds = ur.holds and trace_ok and counts_ok
        if not holds:
            if not ur.holds:
                clause = "restriction not unit-regular in S(Y)"
            elif not trace_ok:
                clause = "image trace differs"
            else:
                clause = f"complement counts differ ({len(c_extra)} vs {len(d_extra)})"
            return PropertyVerdict(mode, False, clause=clause)
        witness = _unit_regular_witness_t(inst, f, ur.witness, pair,
                                          sorted(d_extra), sorted(c_extra), r_set, y_set)
        return PropertyVerdict(mode, True, witness=witness,
                               clause="all three element conditions hold")
    raise ValueError(f"unknown element mode {mode!r}")


def _unit_regular_witness_t(inst, f, alpha_unit, pair, d_extra, c_extra, r_set, y_set):
    """Assemble the bijective g with fgf = f from its three pieces: the
    S(Y)-unit on Y, fibre representatives on R(f) minus Y, and an
    order-preserving matching of the leftover defect onto the leftover
    complement."""
    n = inst.n
    g = [None] * n
    for i, x in enumerate(inst.y.members):
        g[x] = inst.y.members[alpha_unit.map[i]]
    t_set = set(pair.t.members)
    image, _, classes = image_kernel(f)
    for v, cls in zip(image.members, classes):
        if v in r_set - y_set:
            g[v] = next(x for x in cls if x in t_set)
    for src, dst in zip(d_extra, c_extra):
        g[src] = dst
    if None in g:
        raise AssertionError("witness pieces do not cover X")
    return Transformation(g)


def thm_semigroup_t(inst: TInstance, mode: str) -> PropertyVerdict:
    """Semigroup classification from (n, Y, S(Y)) alone.

    regular:      S(Y) a subgroup of the symmetric group on Y,  or
                  S(Y) regular and Y = X.
    inverse:      S(Y) inverse  and  (Y = X or |X| = 2); for an empty Y,
                  where the build is all of T(X), |X| <= 1.
    unit_regular: S(Y) a subgroup of the symmetric group (the complement
                  of Y is finite here by construction),  or  S(Y)
                  unit-regular and Y = X.
    """
    s_y = inst.s_y
    y_is_x = len(inst.y) == inst.n
    if mode == "regular":
        if inst.unit_group:
            return PropertyVerdict(mode, True, clause="S(Y) is a subgroup of Sym(Y)")
        if y_is_x and semigroup_oracle(s_y, "regular").holds:
            return PropertyVerdict(mode, True, clause="S(Y) regular and Y = X")
        return PropertyVerdict(mode, False, clause="neither clause holds")
    if mode == "inverse":
        if len(inst.y) == 0:  # the build is all of T(X)
            holds = inst.n <= 1
            clause = "Y empty and |X| " + ("<= 1" if holds else "> 1")
            return PropertyVerdict(mode, holds, clause=clause)
        shape_ok = y_is_x or inst.n == 2
        sy_ok = semigroup_oracle(s_y, "inverse").holds
        if sy_ok and shape_ok:
            clause = "S(Y) inverse and " + ("Y = X" if y_is_x else "|X| = 2")
            return PropertyVerdict(mode, True, clause=clause)
        clause = "S(Y) not inverse" if not sy_ok else "Y != X and |X| != 2"
        return PropertyVerdict(mode, False, clause=clause)
    if mode == "unit_regular":
        if not inst.has_identity:
            raise ValueError("identity required")
        if inst.unit_group:
            return PropertyVerdict(
                mode, True, clause="S(Y) is a subgroup of Sym(Y) and X \\ Y is finite"
            )
        if y_is_x and semigroup_oracle(s_y, "unit_regular").holds:
            return PropertyVerdict(mode, True, clause="S(Y) unit-regular and Y = X")
        return PropertyVerdict(mode, False, clause="neither clause holds")
    raise ValueError(f"unknown semigroup mode {mode!r}")
