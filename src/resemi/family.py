"""What the two restriction-constrained families share: the instance
interface, the inline grammar, the build and its size, the regular,
unit-regular and inverse semigroup theorems, the per-region store of
elements and their records, the element theorem and the product check of
its witnesses.

The paper proves the element theorems for T_S(Y)(X) and L_S(W)(V) in one
shape: f is regular iff its restriction is regular in the prescribed
semigroup and the image trace matches, and unit-regular iff its
restriction is unit-regular there, the trace matches and the complements
of a compatible transversal pair balance.  ``element_verdict`` states
that shape once; each family supplies only its record of f (the
restriction, the trace test, the complement sizes and the witness
assembly) and its words for the clauses.  The regular, unit-regular and
inverse semigroup theorems share one shape too (``semigroup_verdict``),
and so do both builds: one element for each alpha in the prescribed
semigroup and each choice of images of the points outside the region,
numbered once (``element_at``, which ``build`` enumerates).  Nothing in
an element or its record depends on the prescribed semigroup, so every
instance on one region shares them (``RegionStore``): ``extend`` runs and
each record is made once per element of the region.  Every inline
text, an element, a region or a sweep's sizes, is read by the grammar's
two atoms, ``parse_ints`` and ``parse_rows``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .semigroups import (
    TABLE_CAP,
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    element_oracle,
    semigroup_oracle,
)


class RestrictedInstance:
    """A region (Y or W) of an ambient space and a closed semigroup S(Y) or
    S(W) prescribed on it.

    ``TInstance`` and ``LInstance`` share one interface: the family's
    ``SEMIGROUP_MODES`` and ``ELEMENT_MODES``, ``prescribed`` (S(Y) or
    S(W)), ``has_identity`` (whether it holds the identity of T(Y) or
    L(W)), ``unit_group`` (whether it is a subgroup of Sym(Y) or Aut(W):
    it holds the identity and is a group, as a finite group of bijections
    holds the identity map, and a group holding it has it as identity),
    ``from_dict(data)`` (the instance of its JSON form), ``whole(size, p)``
    (the instance over an empty region, whose build is all of T(size) or
    L(GF(p)^size)), ``key()``, ``parse_element(text)``
    (the element ``text`` spells in the inline grammar),
    ``decidable(modes)``, ``expected_size()``, ``build()``,
    ``thm_semigroup(mode)``, ``thm_element(f, mode)``, ``record(f)``,
    ``witness_problem(f, w, mode)`` and ``transversal_problem(f)``.

    A subclass names its record class (``RECORD``), the restriction of an
    element to the region (``restrict``), its unit test (``is_unit``),
    whether an element lives in its ambient space (``in_ambient``), and
    the words of its clauses and messages.  For the inverse theorem it
    names the ambient size ``SMALL_N`` at which the region need not be
    everything, and that clause's words ``SMALL``.  For the build it gives
    the points outside the region whose images, with the restriction alpha,
    determine an element (``codim`` of them: the points of X \\ Y, or a
    basis of a complement of W), the ``radix`` and ``width`` that number
    the possible images (one digit below |X|, or n digits below p, so
    ``point_count`` = radix^width images: |X| points, or p^n vectors),
    image number d (``point(d)``, worked out from d alone, so a draw from
    a large space lists none of it) and the one element restricting to
    alpha with the given images (``extend(alpha, images)``).
    """

    ELEMENT_MODES = ("regular", "unit_regular")

    def __init__(self, region, prescribed: FiniteSemigroup, identity) -> None:
        self.region = region
        self.prescribed = prescribed
        self.has_identity = identity in prescribed
        self._verdicts: dict[tuple, PropertyVerdict] = {}

    @cached_property
    def unit_group(self) -> bool:
        """Asked of the oracle on first use, so an instance whose verdicts
        never read it (a sweep's base, a build or an element query) never
        runs the group check."""
        return self.has_identity and semigroup_oracle(self.prescribed, "group").holds

    @cached_property
    def point_count(self) -> int:
        """radix^width, worked out on first use, so a refused build of a
        large space never forms it."""
        return self.radix ** self.width

    def decidable(self, modes) -> list[str]:
        """``modes`` in order, without ``unit_regular`` when the prescribed
        semigroup has no identity: neither that theorem nor its oracle
        applies then."""
        return [m for m in modes if m != "unit_regular" or self.has_identity]

    def expected_size(self) -> int:
        """|S| * point_count^codim, the size of the build."""
        return len(self.prescribed) * self.point_count ** self.codim

    def record(self, f):
        """f's record, shared by the element predicates, their witnesses
        and the transversal check of every instance on this region; raises,
        on every call, if f is not a member of this instance."""
        if not self.in_ambient(f):
            raise ValueError(f"f not in {self.FAMILY}: wrong ambient size")
        records = _store_on(self.region).records
        rec = records.get(f)
        if rec is None:
            rec = records[f] = self.RECORD(self.region, f)
        if rec.alpha is None:
            raise ValueError(f"f not in {self.FAMILY}: {self.REGION} is not invariant")
        if rec.alpha not in self.prescribed:
            raise ValueError(f"f not in {self.FAMILY}: restriction outside {self.PRESCRIBED}")
        return rec

    def transversal_problem(self, f) -> str | None:
        """What is wrong with f's canonical transversal pair, or None.
        The pair depends on f and the region only, so the check is made
        once per record (its ``transversal_problem``); f's membership in
        this instance is still decided on every call."""
        return self.record(f).transversal_problem

    def prescribed_verdict(self, alpha, mode: str) -> PropertyVerdict:
        """``element_oracle`` on the prescribed semigroup for alpha, asked
        once per (alpha, mode)."""
        verdict = self._verdicts.get((alpha, mode))
        if verdict is None:
            verdict = self._verdicts[alpha, mode] = element_oracle(self.prescribed, alpha, mode)
        return verdict

    def witness_problem(self, f, w, mode: str) -> str | None:
        """What is wrong with w as the theorem's ``mode`` witness for f, or
        None: w must restrict into the prescribed semigroup, be a unit of
        the ambient monoid for ``unit_regular``, and satisfy fwf = f.
        Checked by multiplication, so it needs no build; the sweep checks
        its witnesses in the build's Cayley table instead
        (``semigroups.witness_problem``)."""
        label, name = (("unit-regular", "g") if mode == "unit_regular"
                       else ("regular", "h"))
        if mode == "unit_regular" and not self.is_unit(w):
            return f"{label} witness is not {self.UNIT}"
        try:
            inside = self.restrict(w, self.region) in self.prescribed
        except ValueError:  # the region is not invariant under w
            inside = False
        if not inside:
            return f"{label} witness leaves the semigroup"
        if f * w * f != f:
            return f"{label} witness fails f{name}f = f"
        return None


def parse_ints(text: str) -> list[int]:
    """A comma list of integers, e.g. "0,0,1"; "" is the empty list."""
    return [int(v) for v in text.split(",")] if text.strip() else []


def parse_rows(text: str) -> list[list[int]]:
    """';'-separated comma lists, e.g. "1,0;1,1", blank ones skipped."""
    return [parse_ints(row) for row in text.split(";") if row.strip()]


def is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: a bool, a float or a string is
    not, and is never truncated or read as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(value, name: str) -> int:
    """``value``, read from the instance JSON field ``name`` (n, p, or an
    entry of Y, sY, W or sW), refused unless it is an integer
    (``is_int``)."""
    if not is_int(value):
        raise ValueError(f"instance field {name!r} must hold integers, not {value!r}")
    return value


def element_at(inst: RestrictedInstance, i: int, point=None):
    """Element i of the build, in the one order every build has: alpha is
    ``prescribed.elements[i // point_count**codim]``, and the images of the
    points outside the region are the points (``point``, by default
    ``inst.point``) at the digits of the remainder in base
    ``point_count``, most significant first."""
    point = point or inst.point
    images = [None] * inst.codim
    for pos in reversed(range(inst.codim)):
        i, digit = divmod(i, inst.point_count)
        images[pos] = point(digit)
    return inst.extend(inst.prescribed.elements[i], images)


def build(inst: RestrictedInstance) -> FiniteSemigroup:
    """Every element of the ambient monoid whose restriction to the region
    lies in the prescribed semigroup S, in ``element_at`` order.

    For each alpha in S and each choice of images of the ``codim`` points
    outside the region there is exactly one such element, so the result
    should have ``expected_size()`` elements; the sweep checks that it
    does.  That size is multiplied out one ``radix`` factor at a time and
    the build refused once it passes the Cayley table's ``TABLE_CAP``, the
    only bound on work, so a refusal costs no work that grows with the
    space.  When the region is everything the build is S itself, table
    reused.  Otherwise each element is taken from the region's store,
    where the first build on the region to meet (alpha, image number)
    put it, so every instance on the region shares its element objects
    and ``extend`` runs once per element of the region; the
    ``point_count`` points are worked out once per build, not once per
    element.
    """
    count = len(inst.prescribed)
    for _ in range(inst.width * inst.codim):
        if count > TABLE_CAP:
            break
        count *= inst.radix
    if count > TABLE_CAP:
        raise SizeCapExceeded("size cap exceeded")
    if inst.codim == 0:
        return inst.prescribed
    point = [inst.point(d) for d in range(inst.point_count)].__getitem__
    per_alpha = count // len(inst.prescribed)
    store = _store_on(inst.region).elements
    out = []
    for a, alpha in enumerate(inst.prescribed.elements):
        known = store.get(alpha)
        if known is None:
            known = store[alpha] = [None] * per_alpha
        for r, f in enumerate(known):
            if f is None:
                f = known[r] = element_at(inst, a * per_alpha + r, point)
            out.append(f)
    return FiniteSemigroup(out)


def semigroup_verdict(inst: RestrictedInstance, mode: str) -> PropertyVerdict:
    """The regular, unit-regular and inverse semigroup theorems of both
    families, from the instance's data alone.  The build is regular or
    unit-regular iff S is a subgroup of the region's unit group (Sym(Y) or
    Aut(W); for unit-regular the complement of the region is finite here
    by construction), or S has the property and the region is everything.
    It is inverse iff S is inverse and the region is everything or the
    ambient size is ``SMALL_N`` (|X| = 2 or dim V = 1); the
    transformation family's empty Y is its own case
    (``thm_semigroup_t``)."""
    if mode == "inverse":
        inverse = semigroup_oracle(inst.prescribed, mode).holds
        if inverse and (inst.codim == 0 or inst.n == inst.SMALL_N):
            shape = inst.WHOLE if inst.codim == 0 else inst.SMALL
            return PropertyVerdict(mode, True, clause=f"{inst.PRESCRIBED} inverse and {shape}")
        clause = (f"{inst.PRESCRIBED} not inverse" if not inverse
                  else f"{inst.WHOLE} and {inst.SMALL}".replace(" = ", " != "))
        return PropertyVerdict(mode, False, clause=clause)
    if mode not in ("regular", "unit_regular"):
        raise ValueError(f"unknown semigroup mode {mode!r}")
    if mode == "unit_regular" and not inst.has_identity:
        raise ValueError("identity required")
    if inst.unit_group:
        clause = f"{inst.PRESCRIBED} is a subgroup of {inst.UNIT_GROUP}"
        if mode == "unit_regular":
            clause += f" and {inst.FINITE}"
        return PropertyVerdict(mode, True, clause=clause)
    if inst.codim == 0 and semigroup_oracle(inst.prescribed, mode).holds:
        label = "regular" if mode == "regular" else "unit-regular"
        return PropertyVerdict(mode, True, clause=f"{inst.PRESCRIBED} {label} and {inst.WHOLE}")
    return PropertyVerdict(mode, False, clause="neither clause holds")


class RegionStore:
    """What every instance on one region shares: ``records``, f -> f's
    record, and ``elements``, alpha -> the list of the elements
    restricting to alpha, each made by ``extend`` when first met, by
    image number (the remainder of the element's ``element_at``
    number)."""

    def __init__(self) -> None:
        self.records: dict = {}
        self.elements: dict = {}


@lru_cache(maxsize=1)
def _store_on(region) -> RegionStore:
    """The store of one region (Y or W, of either family); asking about
    another region drops it.  A sweep takes the instances of one region
    back to back, so that loses no reuse, and keying on every region
    would hold the elements and records of every region at once."""
    return RegionStore()


def element_verdict(inst: RestrictedInstance, f, mode: str) -> PropertyVerdict:
    """The element theorem of both families, read from ``inst.record(f)``:
    its restriction ``alpha``, the image-trace test ``trace_ok``, the sizes
    of the two complements of a compatible transversal pair
    (``complement_sizes``, C-side first) and the witness assembled on the
    prescribed semigroup's partner of alpha (``witness(mode, partner)``).
    The witness is not checked here.

    The complement clause of ``unit_regular`` never decides an instance
    that can be built.  Given the trace clause, codim(W + U) = n - dim W -
    rank f + rank(f|W) = codim(W + R(f)), and the same count holds for the
    sizes of the complements in X \\ Y.  So the clause decides only when
    X \\ Y or codim W is infinite; it is kept because it is the theorem
    as stated."""
    rec = inst.record(f)
    if mode == "regular":
        reg = inst.prescribed_verdict(rec.alpha, "regular")
        if reg.holds and rec.trace_ok:
            return PropertyVerdict(mode, True, witness=rec.witness(mode, reg.witness),
                                   clause="restriction regular and image trace matches")
        clause = (f"restriction not regular in {inst.PRESCRIBED}" if not reg.holds
                  else "image trace differs")
        return PropertyVerdict(mode, False, clause=clause)
    if mode == "unit_regular":
        if not inst.has_identity:
            raise ValueError("identity required")
        ur = inst.prescribed_verdict(rec.alpha, "unit_regular")
        if not ur.holds:
            return PropertyVerdict(
                mode, False, clause=f"restriction not unit-regular in {inst.PRESCRIBED}")
        if not rec.trace_ok:
            return PropertyVerdict(mode, False, clause="image trace differs")
        c_size, d_size = rec.complement_sizes
        if c_size != d_size:
            clause = f"complement {inst.SIZES} differ ({c_size} vs {d_size})"
            return PropertyVerdict(mode, False, clause=clause)
        return PropertyVerdict(mode, True, witness=rec.witness(mode, ur.witness),
                               clause="all three element conditions hold")
    raise ValueError(f"unknown element mode {mode!r}")

