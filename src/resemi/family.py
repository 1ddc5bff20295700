"""What the two restriction-constrained families share: the lookup from
an instance kind to its family's class (``KINDS``), the instance
interface and its one mode rule, the inline grammar, the build and its
size, the four semigroup theorems, the per-region store of elements and
their records, the element theorem and the product check of its
witnesses.

The paper proves the element theorems for T_S(Y)(X) and L_S(W)(V) in one
shape: f is regular iff its restriction is regular in the prescribed
semigroup and the image trace matches, and unit-regular iff its
restriction is unit-regular there, the trace matches and the complements
of a compatible transversal pair balance.  ``element_theorem`` states
that shape once, from f's record and its restriction's partner in S;
each family supplies only its record of f (the restriction, the trace
test, the complement sizes and the witness assembly) and its words for
the clauses.  Two paths lead to it: ``element_verdict`` looks one f up
(its record and its restriction's index in S), and the sweep reads a
whole build by block (``block_records``), asking S for each block's
partner once.  All four semigroup theorems share one shape too, a
property of the prescribed semigroup and either "the region is
everything" or a small clause (``semigroup_verdict``), and so do both
builds (``build``): one block for each alpha in the prescribed
semigroup, holding one element for each choice of images of the points
outside the region, in the order ``element_at`` numbers from an index
alone.  Nothing in an element or its record depends on the prescribed
semigroup, so the instances on one region that hold one store
(``RegionStore``, one per region in a sweep) share them: ``extend`` runs
and each record is made once per element, its parts worked out on first
use (``lazy``), and a build's Cayley table reads the point actions of
the generators the store's earlier tables took.  Every inline text, an
element, a region or a sweep's sizes, is read by the grammar's two
atoms, ``parse_ints`` and ``parse_rows``, and every instance JSON by one
loader, which checks it against its family's declared ``FIELDS``
(``checked_fields``).  The same ``FIELDS`` are the one statement of an
instance's shape: they spell its ``key()``, and the CLI reads one inline
flag per field by its form's inline reading (``INLINE``).
"""

from __future__ import annotations

from itertools import product

from .semigroups import (
    TABLE_CAP,
    FiniteSemigroup,
    PropertyVerdict,
    SizeCapExceeded,
    _shown,
    lazy,
    semigroup_oracle,
)

# The words of the modes in clauses, where they differ from the mode's name.
LABELS = {"unit_regular": "unit-regular", "completely_regular": "completely regular"}

# The module and instance class of each kind, an instance JSON's "kind" and
# a plan's family: the one map from a kind to its family (``family_class``).
KINDS = {"transformation": ("transform_semigroup", "TInstance"),
         "linear": ("linear_semigroup", "LInstance")}


def family_class(kind: str) -> type:
    """The instance class of ``kind`` (``KINDS``), importing its module
    alone, so a CLI command on one family never loads the other.
    ``__import__`` is the import statement's own path, which ``python -X
    importtime`` reports; ``importlib.import_module`` is not."""
    module, name = KINDS[kind]
    return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)


class RestrictedInstance:
    """A region (Y or W) of an ambient space and a closed semigroup S(Y) or
    S(W) prescribed on it.

    ``TInstance(y, s_y, store=None)`` and ``LInstance(w, s_w, store=None)``,
    each built from the region and S alone, share one interface: ``store``
    (the ``RegionStore`` given, or a fresh one; the sweep gives one to
    every instance on a region), the family's ``SEMIGROUP_MODES`` and
    ``ELEMENT_MODES``, ``prescribed`` (S(Y) or S(W)), ``has_identity``
    (whether it holds the identity of T(Y) or L(W)), ``unit_group``
    (whether it is a subgroup of Sym(Y) or Aut(W): it holds the identity
    and is a group, as a finite group of bijections holds the identity
    map, and a group holding it has it as identity), ``from_dict(data)``
    (the instance of its JSON form, one loader for both families, below),
    ``whole(size, p)`` (the instance over an empty region, whose build is
    all of T(size) or L(GF(p)^size)), ``key()`` (below),
    ``parse_element(text)`` (the element ``text`` spells in the inline
    grammar), ``decidable(modes)``, ``check_mode(mode, level)``,
    ``expected_size()``, ``block_size``, ``exceeds(bound)``, ``build()``,
    ``thm_semigroup(mode)``, ``thm_element(f, mode)``, ``record(f)``,
    ``witness_problem(f, w, mode)`` and ``alpha_family(build)`` (the
    linear family's index-family check of the build where it applies,
    else None).  What a sweep reads
    of a family is stated on the class too: its regions of size k in an
    ambient of size n, each with its cell's key, which seeds the cell's
    draws (``cells(n, k, p)``), how many there are (``region_count``),
    and a bound on the steps of one seeded closure in the base monoid
    ``BASE`` (``closure_steps(k, p)``, in the unit ``STEPS``).

    A subclass names its record class (``RECORD``, whose ``alpha`` is the
    restriction of an element to the region), its unit test
    (``is_unit``), whether an element lives in its ambient space
    (``in_ambient``), and the words of its clauses and messages, among
    them ``CODIM_ONE``, codimension 1.  For the inverse theorem it names
    the ambient size ``SMALL_N`` at which the region need not be
    everything, and that clause's words ``SMALL``.  For the build it gives
    the points outside the region whose images, with the restriction
    alpha, determine an element (``codim`` of them: the points of X \\ Y,
    or a basis of a complement of W), the ``radix`` and ``width`` that
    number the possible images (one digit below |X|, or n digits below p,
    so ``point_count`` = radix^width images: |X| points, or p^n vectors),
    image number d (``point(d)``, worked out from d alone, so a draw from
    a large space lists none of it) and the one element restricting to
    alpha with the given images (``extend(alpha, images)``).

    The instance JSON is declared once per family, as ``FIELDS``: (name,
    form) pairs, each form "int", "ints" (a list of integers) or "rows" (a
    list of rows), the last pair the prescribed block, {"elements" |
    "generators": [...]} of items of its form.  ``from_dict`` checks the
    JSON against them (``checked_fields``, which refuses a wrong form by
    the field's name) and gives the values, in order, to the family's
    ``from_fields``, which keeps only the rules on what they mean: the
    region (distinct members of Y, or W's rows), the shape of S's
    elements, and S closed over its generators or its elements already
    closed (``prescribed_semigroup``).  The same ``FIELDS`` give the
    instance's ``key()``, with the family's ``KIND`` (its name in
    ``KINDS``) and ``field_values()`` (the value of each field but the
    block), and the CLI's inline flags, one per field, each read by its
    form's ``INLINE`` reading.
    """

    ELEMENT_MODES = ("regular", "unit_regular")

    def __init__(self, region, prescribed: FiniteSemigroup, identity, store) -> None:
        self.region = region
        self.prescribed = prescribed
        self.has_identity = identity in prescribed
        self.store = RegionStore() if store is None else store

    @lazy
    def unit_group(self) -> bool:
        """Asked of the oracle on first use, so an instance whose verdicts
        never read it (a sweep's base, a build or an element query) never
        runs the group check."""
        return self.has_identity and semigroup_oracle(self.prescribed, "group").holds

    @lazy
    def point_count(self) -> int:
        """radix^width, worked out on first use, so a refused build of a
        large space never forms it."""
        return self.radix ** self.width

    @lazy
    def block_size(self) -> int:
        """point_count^codim, the elements of the build restricting to one
        alpha (``element_at``), worked out on first use as ``point_count``."""
        return self.point_count ** self.codim

    @classmethod
    def from_dict(cls, data) -> "RestrictedInstance":
        """The instance of its JSON form: the values at the family's
        ``FIELDS``, checked against their forms (``checked_fields``), go to
        its ``from_fields``, the prescribed block's as its "generators" and
        its "elements", each None when not given."""
        *values, block = checked_fields(data, cls.FIELDS)
        return cls.from_fields(*values, block.get("generators"), block.get("elements"))

    def decidable(self, modes) -> list[str]:
        """``modes`` in order, without ``unit_regular`` when the prescribed
        semigroup has no identity: neither that theorem nor its oracle
        applies then."""
        return [m for m in modes if m != "unit_regular" or self.has_identity]

    def check_mode(self, mode: str, level: str) -> None:
        """The one rule for the modes an instance answers at ``level``
        ("semigroup" or "element"): one outside the family's
        ``SEMIGROUP_MODES`` or ``ELEMENT_MODES`` is refused by name, and so
        is ``unit_regular``, which ``decidable`` drops, without the
        identity."""
        if mode not in (self.ELEMENT_MODES if level == "element" else self.SEMIGROUP_MODES):
            raise ValueError(f"unknown {level} mode {_shown(mode)} for {self.FAMILY}")
        if mode == "unit_regular" and not self.has_identity:
            raise ValueError("identity required")

    def key(self) -> dict:
        """JSON-friendly identifying record, stable across runs: the
        ``KIND``, each of the ``FIELDS`` but the block at its value
        (``field_values``), and the block as the sorted texts of S's
        elements."""
        *fields, (block, _) = self.FIELDS
        values = {name: value for (name, _), value in zip(fields, self.field_values())}
        return {"kind": self.KIND, **values,
                block: sorted(el.to_text() for el in self.prescribed.elements)}

    def expected_size(self) -> int:
        """|S| * point_count^codim (``block_size``), the size of the build."""
        return len(self.prescribed) * self.block_size

    def exceeds(self, bound: int) -> bool:
        """Whether ``expected_size()`` passes ``bound``, found without a
        huge power: the power is taken over at most ``bound.bit_length()``
        digits, which a radix of 2 or more already carries past the bound,
        so the answer costs no work that grows with the space."""
        digits = min(self.width * self.codim, bound.bit_length())
        return len(self.prescribed) * self.radix ** digits > bound

    def record(self, f):
        """f's record, the one the element theorem, its witnesses and the
        transversal check read, shared by every instance holding this
        one's ``store`` (the sweep reads the same records, a whole build at
        a time, through ``block_records``); raises, on every call, if f is
        not a member of this instance."""
        return self._record_at(f)[0]

    def _record_at(self, f) -> tuple:
        """``record(f)`` and the index of f's restriction in the prescribed
        semigroup, which is looked up once for both the membership test
        and the partner (``element_verdict``)."""
        if not self.in_ambient(f):
            raise ValueError(f"f not in {self.FAMILY}: wrong ambient size")
        rec = self._stored(self.store.records, f)
        if rec.alpha is None:
            raise ValueError(f"f not in {self.FAMILY}: {self.REGION} is not invariant")
        try:
            return rec, self.prescribed.index_of(rec.alpha)
        except ValueError:
            raise ValueError(
                f"f not in {self.FAMILY}: restriction outside {self.PRESCRIBED}") from None

    def _stored(self, records: dict, f):
        """f's record in the region's ``records``, made there if missing."""
        rec = records.get(f)
        if rec is None:
            rec = records[f] = self.RECORD(self.region, f)
        return rec

    @classmethod
    def region_count(cls, n: int, k: int, p: int | None, bound: int) -> int:
        """The number of regions of size k (``cells``): the product over
        i <= min(k, n - k) of q(n - k + i) / q(i), where q (``_q``) is m
        for C(n, k) and p^m - 1 for the Gaussian binomial [n k]_p.  Once
        the count passes ``bound`` some number past it is returned, so no
        work grows with the count: each partial product is a count itself,
        at least twice the last."""
        k = min(k, n - k)
        count = 1
        for i in range(1, k + 1):
            count = count * cls._q(n - k + i, p) // cls._q(i, p)
            if count > bound:
                break
        return count

    def alpha_family(self, build: FiniteSemigroup) -> PropertyVerdict | None:
        """None: only the linear family has an index-family check."""
        return None

    def witness_problem(self, f, w, mode: str) -> str | None:
        """What is wrong with w as the theorem's ``mode`` witness for f, or
        None: w must be a member of this instance (``record(w)`` does not
        raise), be a unit of the ambient monoid for ``unit_regular``, and
        satisfy fwf = f.  Checked by multiplication, so it needs no build;
        the sweep checks its witnesses in the build's Cayley table instead
        (``semigroups.witness_problem``)."""
        label, name = (("unit-regular", "g") if mode == "unit_regular"
                       else ("regular", "h"))
        if mode == "unit_regular" and not self.is_unit(w):
            return f"{label} witness is not {self.UNIT}"
        try:
            self.record(w)
        except ValueError:  # w is not a member of this instance
            return f"{label} witness leaves the semigroup"
        if f * w * f != f:
            return f"{label} witness fails f{name}f = f"
        return None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {_shown(text)}") from None


def parse_ints(text: str) -> list[int]:
    """A comma list of integers, e.g. "0,0,1"; "" is the empty list.  The
    first part that is not an integer is refused by its text."""
    return list(map(_int, text.split(","))) if text.strip() else []


def parse_rows(text: str) -> list[list[int]]:
    """';'-separated comma lists, e.g. "1,0;1,1", blank ones skipped."""
    return [parse_ints(row) for row in text.split(";") if row.strip()]


def is_int(value) -> bool:
    """Whether ``value`` is a JSON integer: a bool, a float or a string is
    not, and is never truncated or read as 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


# The JSON forms of an instance's ``FIELDS``: how many lists deep the
# integers are, and the words of a refusal.
FORMS = {"int": (0, "an integer"), "ints": (1, "a list of integers"),
         "rows": (2, "a list of rows of integers")}

# The inline reading of each form: a flag's text as a value of the form,
# and a prescribed block's text as its items, ';'-separated "ints" ("" is
# the one empty map of an empty Y) or '|'-separated "rows".
INLINE = {"int": (int, None),
          "ints": (parse_ints, lambda text: parse_rows(text) or [[]]),
          "rows": (parse_rows, lambda text: [parse_rows(m) for m in text.split("|")])}


def _has_form(value, depth: int) -> bool:
    """Whether ``value`` is an integer (``is_int``) nested in ``depth``
    lists: each item of each list a list, down to the integers."""
    if not depth:
        return is_int(value)
    return isinstance(value, list) and all(_has_form(v, depth - 1) for v in value)


def checked_fields(data, fields) -> list:
    """The values at an instance's ``fields`` (its family's ``FIELDS``) in
    its JSON ``data``, in order, each checked against its form; other keys
    are ignored.  The last field is the prescribed block, an object whose
    "elements" and "generators", each where given and not null, list items
    of that field's form.  A ``data`` that is not an object, a missing
    field and a value of another form are refused by name.  What the
    values mean (a repeated member of Y, an element of the wrong size,
    both or neither of "elements" and "generators") is left to the
    family's ``from_fields``."""
    if not isinstance(data, dict):
        raise ValueError(f"instance JSON must be an object, not {_shown(data)}")
    for name, form in fields:
        if name not in data:
            raise ValueError(f"instance field {name!r} is missing")
        value, (depth, words) = data[name], FORMS[form]
        if name == fields[-1][0]:  # the block: the lists it gives, each of items of the form
            value = isinstance(value, dict) and [
                value[k] for k in ("elements", "generators") if value.get(k) is not None]
            depth, words = depth + 2, f'{{"elements" | "generators": [...]}} with each item {words}'
        if not _has_form(value, depth):
            raise ValueError(f"instance field {name!r} must be {words}, not {_shown(data[name])}")
    return [data[name] for name, _ in fields]


def element_at(inst: RestrictedInstance, i: int):
    """Element i of the build, in the one order every build has, worked
    out from i alone (a seeded draw from a large space makes no build):
    alpha is ``prescribed.elements[i // block_size]``, and the
    images of the points outside the region are the points at the digits
    of the remainder in base ``point_count``, most significant first."""
    images = [None] * inst.codim
    for pos in reversed(range(inst.codim)):
        i, digit = divmod(i, inst.point_count)
        images[pos] = inst.point(digit)
    return inst.extend(inst.prescribed.elements[i], images)


def build(inst: RestrictedInstance) -> FiniteSemigroup:
    """Every element of the ambient monoid whose restriction to the region
    lies in the prescribed semigroup S, in ``element_at`` order: for each
    alpha in S, its block, one element for each choice of images of the
    ``codim`` points outside the region (``itertools.product`` of the
    ``point_count`` points, the first outside point's image most
    significant).

    So the result should have ``expected_size()`` elements; the sweep
    checks that it does.  The build is refused when that size passes the
    Cayley table's ``TABLE_CAP``, the only bound on work (``exceeds``, so
    a refusal forms no huge integer and costs no work that grows with the
    space).  When the region is everything the build is S itself, table
    reused.  Otherwise each alpha's block is taken whole from the
    instance's store, where the first build on that store to meet alpha
    put it, so every instance holding the store shares its element objects
    and ``extend`` runs once per element of the region.
    """
    if inst.exceeds(TABLE_CAP):
        raise SizeCapExceeded("size cap exceeded")
    if inst.codim == 0:
        return inst.prescribed
    points = [inst.point(d) for d in range(inst.point_count)]
    store = inst.store
    out = []
    for alpha in inst.prescribed.elements:
        block = store.elements.get(alpha)
        if block is None:
            block = store.elements[alpha] = [inst.extend(alpha, images)
                                             for images in product(points, repeat=inst.codim)]
        out.extend(block)
    return FiniteSemigroup(out, store.actions)


def semigroup_verdict(inst: RestrictedInstance, mode: str) -> PropertyVerdict:
    """The four semigroup theorems of both families, from the instance's
    data alone, each a property of S and either "the region is everything"
    or a small clause.  Regular or unit-regular: S is a subgroup of the
    region's unit group (Sym(Y) or Aut(W); the complement of the region is
    finite here by construction), or S has the property and the region is
    everything.  Inverse: S is inverse, and the region is everything or the
    ambient size is ``SMALL_N`` (the empty Y is ``thm_semigroup_t``'s own
    case).  Completely regular: S is completely regular, and the region is
    everything, or has codimension 1 (``CODIM_ONE``) and S is a subgroup of
    the unit group."""
    inst.check_mode(mode, "semigroup")
    label, s = LABELS.get(mode, mode), inst.PRESCRIBED
    subgroup = f"{s} is a subgroup of {inst.UNIT_GROUP}"
    if mode in ("regular", "unit_regular"):
        if inst.unit_group:
            clause = subgroup + (f" and {inst.FINITE}" if mode == "unit_regular" else "")
            return PropertyVerdict(mode, True, clause=clause)
        if inst.codim == 0 and semigroup_oracle(inst.prescribed, mode).holds:
            return PropertyVerdict(mode, True, clause=f"{s} {label} and {inst.WHOLE}")
        return PropertyVerdict(mode, False, clause="neither clause holds")
    if not semigroup_oracle(inst.prescribed, mode).holds:
        return PropertyVerdict(mode, False, clause=f"{s} not {label}")
    if inst.codim == 0:
        return PropertyVerdict(mode, True, clause=f"{s} {label} and {inst.WHOLE}")
    if mode == "inverse" and inst.n == inst.SMALL_N:
        return PropertyVerdict(mode, True, clause=f"{s} inverse and {inst.SMALL}")
    if mode == "completely_regular" and inst.codim == 1 and inst.unit_group:
        return PropertyVerdict(mode, True, clause=f"{inst.CODIM_ONE} and {subgroup}")
    fails = "the codim-1 clause fails" if mode == "completely_regular" else inst.SMALL
    return PropertyVerdict(mode, False, clause=f"{inst.WHOLE} and {fails}".replace(" = ", " != "))


class RegionStore:
    """What the instances holding it share, all on one region (Y or W):
    ``records``, f -> f's record; ``elements``, alpha -> alpha's block,
    the elements restricting to alpha in ``element_at`` order, made whole
    by the first build to meet alpha; and ``actions``, the point actions
    of the elements the builds' Cayley tables took as generators
    (``FiniteSemigroup``).  It lives as long as the instances that hold
    it: the sweep makes one per region (``sweep._instances``), and every
    other instance has its own."""

    def __init__(self) -> None:
        self.records: dict = {}
        self.elements: dict = {}
        self.actions: dict = {}


def block_records(inst: RestrictedInstance, build: FiniteSemigroup) -> list:
    """The record of every element of ``build``, in build order, each read
    from the instance's store (and made there if missing): what the sweep's
    element theorems and transversal checks read, with no lookup in S.
    Element i of a build restricts to ``prescribed.elements[i // block]``,
    block = ``block_size`` (``element_at``), and each record's
    restriction is compared with that alpha by equality, so a verdict read
    by block never trusts the build's order: an element outside its block
    is refused as ``record`` refuses a restriction outside S."""
    records, alphas, block = inst.store.records, inst.prescribed.elements, inst.block_size
    out = []
    for i, f in enumerate(build.elements):
        rec = inst._stored(records, f)
        if rec.alpha != alphas[i // block]:
            raise ValueError(f"f not in {inst.FAMILY}: element {i} of the build has its "
                             f"restriction outside {inst.PRESCRIBED} element {i // block}")
        out.append(rec)
    return out


def element_verdict(inst: RestrictedInstance, f, mode: str) -> PropertyVerdict:
    """The element theorem for one f (``element_theorem``), after the one
    lookup it needs: f's record and the index of its restriction in the
    prescribed semigroup (``_record_at``, which refuses an f outside the
    ambient space, one that leaves the region moving, and one restricting
    outside S), then alpha's first partner in S's own Cayley table
    (``FiniteSemigroup.partner``, searched for once per element of S and
    mode).  A mode outside ``ELEMENT_MODES``, or ``unit_regular`` without
    the identity, is refused (``check_mode``).  The CLI's ``element``
    command and ``thm_element`` come this way; the sweep reads a whole
    build by block instead (``block_records``)."""
    rec, a = inst._record_at(f)
    inst.check_mode(mode, "element")
    return element_theorem(inst, rec, mode, inst.prescribed.partner(a, mode))


def element_theorem(inst: RestrictedInstance, rec, mode: str, partner: int) -> PropertyVerdict:
    """The element theorem of both families and both modes, for the f
    whose record is ``rec``, given the index ``partner`` in the prescribed
    semigroup S of its restriction alpha's first partner in ``mode`` (-1
    when alpha has none): f has the property iff alpha has it in S, the
    image-trace test ``trace_ok`` holds and, for ``unit_regular`` alone,
    the two complements of a compatible transversal pair have equal sizes
    (``complement_sizes``, C-side first).  Without a partner the verdict
    reads nothing of ``rec``, so one serves a whole block.  A yes carries
    the witness assembled on the partner (``witness(mode, partner)``),
    unchecked here and kept on the record keyed on (mode, partner), so
    each is assembled once.  The mode is not checked here
    (``element_verdict`` does that).

    The complement clause of ``unit_regular`` never decides an instance
    that can be built.  Given the trace clause, codim(W + U) = n - dim W -
    rank f + rank(f|W) = codim(W + R(f)), and the same count holds for the
    sizes of the complements in X \\ Y.  So the clause decides only when
    X \\ Y or codim W is infinite; it is kept because it is the theorem
    as stated."""
    if partner < 0:
        label = LABELS.get(mode, mode)
        return PropertyVerdict(mode, False, clause=f"restriction not {label} in {inst.PRESCRIBED}")
    if not rec.trace_ok:
        return PropertyVerdict(mode, False, clause="image trace differs")
    if mode == "regular":
        clause = "restriction regular and image trace matches"
    else:
        c_size, d_size = rec.complement_sizes
        if c_size != d_size:
            clause = f"complement {inst.SIZES} differ ({c_size} vs {d_size})"
            return PropertyVerdict(mode, False, clause=clause)
        clause = "all three element conditions hold"
    key = (mode, inst.prescribed.elements[partner])
    kept = vars(rec).get("witnesses", {})  # a record holds the dict from its first witness on
    witness = kept.get(key)
    if witness is None and (witness := rec.witness(*key)) is not None:
        kept[key] = witness
        rec.witnesses = kept
    return PropertyVerdict(mode, True, witness=witness, clause=clause)
