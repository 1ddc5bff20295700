"""Differential sweep harness: enumerate instance families, compare every
classification predicate against its brute-force oracle, and aggregate.

Any disagreement is reported as a counterexample; since the
characterizations are proved, a nonempty mismatch list indicts the
implementation, never the mathematics.  Reports are deterministic for a
fixed plan (including the seed), apart from the wall-time field.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache

from .family import (KINDS, RegionStore, block_records, element_at, element_theorem,
                     family_class, is_int)
from .semigroups import (
    MEMO_BOUND,
    TABLE_CAP,
    FiniteSemigroup,
    SizeCapExceeded,
    _shown,
    closure_elements,
    inverse_by_unique_inverses,
    semigroup_oracle,
    subgroup_containing,
    witness_problem,
)

SCHEMA_VERSION = 1

# The keys a schema-1 report's plan block holds besides the plan's fields,
# which the determinism comparison and the recorded report digests read:
# the checks every sweep makes, each stated as run, and a "size_cap" that
# never bound a build (the Cayley table's TABLE_CAP does).
SCHEMA1_PLAN_KEYS = {"definition_checks": True, "transversal_checks": True,
                     "alpha_family_checks": True, "size_cap": 1_000_000}

_EXHAUSTIVE_BASE_LIMIT = 27
# The most steps one seeded closure may cost by its family's
# ``closure_steps``: GF(2)^14 (9,633,792 row steps) and T(813) (9,990,144
# point steps) are admitted, GF(2)^15 and T(814) are not.
_CLOSURE_BUDGET = 10_000_000
# The most steps all the draws of one seeded cell may cost, the draw count
# times ``closure_steps``: GF(2)^14 with 10 draws (96,337,920), GF(2)^10
# with the default 200 (61,440,000, about half a minute) and T(200) with
# 3 (7,372,800) are admitted; GF(2)^14 with 200 draws (1,926,758,400) is
# not.
_CELL_BUDGET = 100_000_000
# The most instances one sweep may run, counted up front (``region_count``
# times the draws or the exhaustive list): the 12,980 of T(3)'s 1,298
# subsemigroups on each 3-point Y of a 5-point X are admitted, and so is
# every acceptance plan; C(30, 15) regions with one draw each are not.
_INSTANCE_BOUND = 100_000
_DEFINITION_CHECK_LIMIT = 200

_IMPLICATIONS = (
    ("inverse", "regular"),
    ("unit_regular", "regular"),
    ("completely_regular", "regular"),
)


@dataclass(frozen=True)
class SweepPlan:
    """One homogeneous slice of a sweep.

    ``source`` is ``("exhaustive",)`` or ``("seeded", count, seed)``; the
    per-cell RNG seed is derived from the seed and the cell key, so
    identical plans reproduce identical reports.  ``element_cap`` bounds
    the build size for element-level checks (0 disables them; by default
    it is the Cayley table's ``TABLE_CAP``); builds beyond ``TABLE_CAP``
    are skipped, not run.  Negative sizes, dimensions, seeded counts and
    element caps are refused, and so are repeated sizes, dimensions,
    (p, n) cells and modes, which would run their cells or checks twice;
    a size out of range for one n is skipped, so one plan can span
    several n.  A transformation plan reads its ambient sizes from ``ns``
    and a linear one its (p, n) cells from ``pns``; the other family's
    field must be empty (a report's plan block carries both keys), and a
    cell's p must be prime, so that no cell runs before a later one is
    refused.  A seed is a string or an integer, not a boolean.  Without
    ``subset_sizes``, a transformation plan takes 1 <= |Y| <= n and a
    linear one 0 <= dim W <= n; an explicit |Y| = 0 is taken too.

    Every run makes the transversal, definition and alpha-family checks
    on every instance they apply to; no field turns them off
    (``SCHEMA1_PLAN_KEYS``).
    """

    family: str
    ns: tuple = ()
    pns: tuple = ()
    subset_sizes: tuple | None = None
    source: tuple = ("exhaustive",)
    modes: tuple = ("regular",)
    element_cap: int = TABLE_CAP

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in KINDS:
            raise ValueError(f"plan field 'family' names an unknown family, {_shown(self.family)}")
        for name, ok, expected in (
            ("ns", _naturals(self.ns), "a list of distinct non-negative integers"),
            ("pns", isinstance(self.pns, tuple)
             and all(_ints(c) and len(c) == 2 and _prime(c[0]) and c[1] >= 0 for c in self.pns)
             and _distinct(self.pns), "a list of distinct [p, n] pairs with p prime and "
             "non-negative n"),
            ("subset_sizes", self.subset_sizes is None or _naturals(self.subset_sizes),
             "null or a list of distinct non-negative integers"),
            ("modes", isinstance(self.modes, tuple) and all(isinstance(m, str) for m in self.modes)
             and _distinct(self.modes), "a list of distinct mode names"),
            ("element_cap", is_int(self.element_cap) and self.element_cap >= 0,
             "a non-negative integer"),
        ):
            if not ok:
                raise ValueError(f"plan field {name!r} must be {expected}, "
                                 f"not {_shown(getattr(self, name))}")
        other = "pns" if self.family == "transformation" else "ns"
        if getattr(self, other):
            raise ValueError(f"plan field {other!r} must be empty for family {self.family!r}, "
                             f"not {_shown(getattr(self, other))}")
        for m in self.modes:
            if m not in family_class(self.family).SEMIGROUP_MODES:
                raise ValueError(f"mode {_shown(m)} not available for family {self.family!r}")
        src = self.source
        seeded = (isinstance(src, tuple) and len(src) == 3 and src[0] == "seeded"
                  and is_int(src[1]) and (isinstance(src[2], str) or is_int(src[2])))
        if src != ("exhaustive",) and not seeded:
            raise ValueError(f"plan field 'source' names an unknown source, {_shown(src)}")
        if seeded and src[1] < 0:
            raise ValueError(f"seeded source count must be non-negative, not {src[1]}")

    def to_dict(self) -> dict:
        """JSON form: every field, tuples as lists, then the
        ``SCHEMA1_PLAN_KEYS``."""
        return {**{f.name: _as_lists(getattr(self, f.name)) for f in fields(self)},
                **SCHEMA1_PLAN_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepPlan":
        """Inverse of ``to_dict``; missing keys take their defaults.  The
        ``SCHEMA1_PLAN_KEYS`` of a report's plan block are read past,
        whatever their values; any other key is refused, so a misspelled
        field cannot leave its default in force.  A ``d`` that is not an
        object, or that has no ``family``, is refused by name, and so is a
        field nesting lists past ``pns``'s two deep."""
        if not isinstance(d, dict):
            raise ValueError(f"plan JSON must be an object, not {_shown(d)}")
        if "family" not in d:
            raise ValueError("plan field 'family' is missing")
        names = [f.name for f in fields(cls)]
        unknown = [k for k in d if k not in names and k not in SCHEMA1_PLAN_KEYS]
        if unknown:  # the first named, so the line stays short however many there are
            raise ValueError(f"unknown plan key {_shown(unknown[0])} "
                             f"(the fields are {', '.join(names)})")
        return cls(**{name: _as_tuples(name, d[name], 2) for name in names if name in d})


def _prime(p: int) -> bool:
    from .gflinear import is_prime  # only a linear plan's cells need it

    return is_prime(p)


def _ints(v) -> bool:
    return isinstance(v, tuple) and all(is_int(x) for x in v)


def _naturals(v) -> bool:
    """Distinct non-negative integers: a repeat would run its cells twice."""
    return _ints(v) and all(x >= 0 for x in v) and _distinct(v)


def _distinct(v) -> bool:
    return len(set(v)) == len(v)


def _as_lists(v):
    return [_as_lists(x) for x in v] if isinstance(v, tuple) else v


def _as_tuples(name: str, v, depth: int):
    """Field ``name``'s ``v`` with lists as tuples, refused past ``depth`` lists deep."""
    if isinstance(v, list) and not depth:
        raise ValueError(f"plan field {name!r} nests lists too deeply")
    return tuple(_as_tuples(name, x, depth - 1) for x in v) if isinstance(v, list) else v


@dataclass
class SweepReport:
    """Aggregate of one run_sweep call; see SweepPlan for determinism.

    ``transversal_checks_run`` counts the (instance, element) pairs the
    transversal check covered, and ``transversal_failures`` holds one
    entry per such pair whose check fails.  The check itself is made once
    per element of a region, on its shared record: the
    ``transversal_problem`` of the record the element pass reads for each
    element of the build, the same list its theorems read
    (``family.block_records``)."""

    plan: dict
    instances_run: int = 0
    semigroup_checks: dict = field(default_factory=dict)
    semigroup_agreements: dict = field(default_factory=dict)
    element_checks: dict = field(default_factory=dict)
    element_agreements: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    implication_violations: list = field(default_factory=list)
    size_formula_violations: list = field(default_factory=list)
    transversal_failures: list = field(default_factory=list)
    transversal_checks_run: int = 0
    definition_failures: list = field(default_factory=list)
    definition_checks_run: int = 0
    alpha_family_failures: list = field(default_factory=list)
    alpha_family_checks_run: int = 0
    witnesses_checked: int = 0
    skipped: list = field(default_factory=list)
    wall_time_s: float = 0.0
    schema_version: int = SCHEMA_VERSION

    # The lists whose entries each make the report unclean.
    FAILURE_KINDS = ("mismatches", "implication_violations", "size_formula_violations",
                     "transversal_failures", "definition_failures", "alpha_family_failures")

    @property
    def failure_count(self) -> int:
        return sum(len(getattr(self, kind)) for kind in self.FAILURE_KINDS)

    @property
    def clean(self) -> bool:
        return not self.failure_count

    def to_dict(self, include_timing: bool = True) -> dict:
        """Every field; ``wall_time_s`` only with ``include_timing``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if include_timing or f.name != "wall_time_s"}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), sort_keys=True, indent=2)


# -- subsemigroup sources -------------------------------------------------


@lru_cache(maxsize=MEMO_BOUND)
def enumerate_subsemigroups(kind: str, base_size: int, source: tuple, p: int | None = None) -> tuple:
    """Nonempty composition-closed subsets of the base monoid T(base_size)
    or L(GF(p)^base_size), exhaustively or as deduplicated seeded-random
    closures of 1-3 generators.

    The base monoid is the build of the family's instance over an empty
    region (``whole``), and a seeded draw of number i is its element i
    (``family.element_at``).  The exhaustive list is a closure-extension
    walk by index in the base's Cayley table (East, Egri-Nagy, Mitchell &
    Peresse 2019) along greedy generator chains (``_subsemigroup_masks``):
    it closes each subsemigroup S found, and the empty set, with each x
    past S's last generator, and keeps only the closures whose least new
    element is x, so it reaches each subsemigroup once.  Its work grows
    with the number of subsemigroups, not of subsets; the list is in
    increasing index mask (the sum of 2^i over S's indices), each S's
    elements in index order.  It is refused past a 27-element base
    monoid, so T(3) (1,298 subsemigroups) is listed and T(4) and
    L(GF(3)^2) are not.
    Exhaustive entries are tabled ``FiniteSemigroup``s, shared, with the
    partners they keep, by every region of the size.  A seeded entry is a
    ``Closure``, the element list with the right Cayley graph its pass
    found, and no table: each is tabled only while its one instance runs
    (``_instances``), so the cache keeps no seeded table.  A cell closes
    each distinct generator set once (a closure reads only the set of its
    generators: ``closure_elements`` sorts them first), so a set drawn
    again in the cell reuses its ``Closure`` object or its refusal; no
    other cell or call shares it, so a closure the cell drops lives no
    longer than the call.  Seeded closures are deduplicated on their
    element set (``FiniteSemigroup.key``).  A
    seeded draw whose closure passes the Cayley table appears, in draw
    order, as the record ``{"generators": [texts], "reason": ...}`` in
    place of a closure, listing that draw's own generators.

    The lists are a pure ``lru_cache`` of at most ``MEMO_BOUND`` entries,
    keyed on the call's arguments, as the package's caching rule has it
    (``semigroups.MEMO_BOUND``)."""
    if source[0] == "exhaustive":
        base = _exhaustive_base(kind, base_size, p).build()
        return tuple(FiniteSemigroup([x for i, x in enumerate(base.elements) if mask >> i & 1])
                     for mask in _subsemigroup_masks(base.table))
    whole = family_class(kind).whole(base_size, p)
    m = whole.expected_size()
    _, count, seed = source
    rng = random.Random(seed)
    out = []
    seen: set[frozenset] = set()
    closures = {}  # each drawn generator set -> its Closure, or why it was refused
    for _ in range(count):
        k = rng.randint(1, 3)
        gens = [element_at(whole, rng.randrange(m)) for _ in range(k)]
        drawn = frozenset(gens)
        if drawn not in closures:
            try:
                closures[drawn] = closure_elements(drawn)
            except SizeCapExceeded as exc:
                closures[drawn] = str(exc)
        elems = closures[drawn]
        if isinstance(elems, str):
            out.append({"generators": [g.to_text() for g in gens], "reason": elems})
            continue
        key = frozenset(elems)
        if key not in seen:
            seen.add(key)
            out.append(elems)
    return tuple(out)


def _exhaustive_base(kind: str, base_size: int, p: int | None = None):
    """The family's instance over an empty region (``whole``), whose
    build is the base monoid of an exhaustive listing; refused past
    ``_EXHAUSTIVE_BASE_LIMIT`` elements, the one statement of that
    bound."""
    whole = family_class(kind).whole(base_size, p)
    if whole.exceeds(_EXHAUSTIVE_BASE_LIMIT):
        bound = f"more than {_EXHAUSTIVE_BASE_LIMIT} elements, the exhaustive base bound"
        raise SizeCapExceeded("intractable exhaustive request", bound)
    return whole


def _subsemigroup_masks(table: list) -> list:
    """Every nonempty subsemigroup of the table's semigroup, as its index
    mask, in increasing order: the closure-extension walk of
    ``enumerate_subsemigroups``, along greedy generator chains.  From S =
    <g_1, ..., g_k> (k = 0 for the empty set) it closes S with each x >
    g_k outside S, and keeps the closure only when x is the least element
    it adds, abandoning it as soon as a smaller new element appears.  The
    kept chain of a subsemigroup T takes each g_(i+1) as the least member
    of T outside <g_1, ..., g_i>, so T is reached exactly once.  Each new
    element y of a closure is multiplied on both sides by every member at
    the time; members that come later multiply y in their own turn."""
    columns = list(zip(*table))
    masks = []
    todo = [(frozenset(), -1)]
    while todo:
        s, last = todo.pop()
        for x in range(last + 1, len(table)):
            if x in s:
                continue
            members = {*s, x}
            fresh = [x]
            while fresh:
                y = fresh.pop()
                known = list(members)
                products = {*map(table[y].__getitem__, known), *map(columns[y].__getitem__, known)}
                products -= members
                if products and min(products) < x:
                    break  # reached through a smaller generator
                members |= products
                fresh.extend(products)
            else:
                t = frozenset(members)
                masks.append(sum(1 << i for i in t))
                todo.append((t, x))
    return sorted(masks)


def _cell_source(plan: SweepPlan, cell_key: str) -> tuple:
    if plan.source[0] == "exhaustive":
        return ("exhaustive",)
    _, count, seed = plan.source
    return ("seeded", count, f"{seed}:{cell_key}")


def _sizes(plan: SweepPlan):
    """(p, n, size) for every region size the plan selects, in plan order
    (p None on a transformation plan): |Y| from 1 or dim W from 0 up to
    n, or the plan's ``subset_sizes`` not past n."""
    if plan.family == "transformation":
        cells, low = [(None, n) for n in plan.ns], 1
    else:
        cells, low = plan.pns, 0
    for p, n in cells:
        for size in plan.subset_sizes if plan.subset_sizes is not None else range(low, n + 1):
            if size <= n:  # sizes are non-negative (``SweepPlan``)
                yield p, n, size


def _instances(plan: SweepPlan):
    """Deterministically ordered (cell_key, instance) pairs for the plan,
    each instance a region and one S on it, built by the plan's family
    (``family_class``); a seeded draw refused at closure comes as
    (cell_key, its record).  The family chooses only the regions of each
    size and the cell key that seeds the draws on each (``cells``).  Here
    alone instances share a store (``RegionStore``): one per region, so it
    is dropped once the sweep leaves the region and its instances are
    gone.  A seeded S is tabled as its instance is yielded, from its
    closure's graph (``_tabled``), so only the running
    instance's table is alive.  It is made here, outside
    ``_run_instance``, so per-instance times do not count S's table."""
    family = family_class(plan.family)
    for p, n, size in _sizes(plan):
        for cell, region in family.cells(n, size, p):
            store = RegionStore()
            for s in enumerate_subsemigroups(plan.family, size, _cell_source(plan, cell), p=p):
                yield cell, s if isinstance(s, dict) else family(region, _tabled(s), store)


def _tabled(s) -> FiniteSemigroup:
    """An entry of ``enumerate_subsemigroups`` as a tabled semigroup: an
    exhaustive one is tabled already, and a seeded closure is tabled now,
    from its own Cayley graph, for the one instance that runs on it."""
    return s if isinstance(s, FiniteSemigroup) else FiniteSemigroup(s)


# -- per-instance checks ----------------------------------------------------


def _definition_failures(s: FiniteSemigroup) -> list[str]:
    """Dual-definition agreement: inverse via unique inverses, completely
    regular via an explicit containing-subgroup search, asked of each
    element by its table index (``subgroup_containing``).  The second
    definitions read only the table, never the answers it keeps, and an
    element is formatted only where they disagree."""
    out = []
    by_idem = semigroup_oracle(s, "inverse").holds
    by_unique = inverse_by_unique_inverses(s).holds
    if by_idem != by_unique:
        out.append(f"inverse definitions disagree ({by_idem} vs {by_unique})")
    for i in range(len(s)):
        std = s.partner(i, "completely_regular") >= 0
        sub = subgroup_containing(s, i) is not None
        if std != sub:
            out.append(f"completely-regular definitions disagree on "
                       f"{s.elements[i].to_text()} ({std} vs {sub})")
    return out


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Run every theorem-vs-oracle comparison the plan asks for.  A plan is
    refused before its first draw if any base it selects is past a bound:
    an exhaustive base (``_exhaustive_base``), or a seeded cell's cost in
    its family's steps, that of one closure (``closure_steps`` against
    ``_CLOSURE_BUDGET``) or of all its draws (against ``_CELL_BUDGET``);
    or if its instances together pass ``_INSTANCE_BOUND``."""
    t0 = time.perf_counter()
    family = family_class(plan.family)
    for p, _, size in _sizes(plan):
        if plan.source == ("exhaustive",):
            _exhaustive_base(plan.family, size, p)
            continue
        steps, draws = family.closure_steps(size, p), plan.source[1]
        base, unit = family.BASE.format(p=p, k=size), family.STEPS
        if steps > _CLOSURE_BUDGET:
            raise SizeCapExceeded(f"intractable seeded request over {base}",
                                  f"more than {_CLOSURE_BUDGET} {unit} per closure, "
                                  "the seeded closure budget")
        if steps * draws > _CELL_BUDGET:
            raise SizeCapExceeded(f"intractable seeded request over {base} with {draws} draws",
                                  f"more than {_CELL_BUDGET} {unit} per cell, the seeded cell budget")
    instances = 0
    for p, n, size in _sizes(plan):
        if plan.source == ("exhaustive",):  # the list ``_instances`` reads
            per_region = len(enumerate_subsemigroups(plan.family, size, plan.source, p=p))
        else:
            per_region = plan.source[1]
        instances += per_region * family.region_count(n, size, p, _INSTANCE_BOUND)
        if instances > _INSTANCE_BOUND:
            raise SizeCapExceeded("intractable sweep request",
                                  f"more than {_INSTANCE_BOUND} instances, the sweep instance bound")
    rep = SweepReport(plan=plan.to_dict())
    rep.semigroup_checks = dict.fromkeys(plan.modes, 0)
    rep.semigroup_agreements = dict.fromkeys(plan.modes, 0)
    element_modes = [m for m in family.ELEMENT_MODES if m in plan.modes]
    rep.element_checks = dict.fromkeys(element_modes, 0)
    rep.element_agreements = dict.fromkeys(element_modes, 0)
    seen_definition_keys: set[frozenset] = set()

    # with no draws, the regions alone would be listed for nothing
    for cell, inst in _instances(plan) if instances else ():
        if isinstance(inst, dict):  # a seeded draw refused at closure
            rep.skipped.append({"cell": cell, **inst})
            continue
        key = cache(inst.key)  # formatted only for an entry that names the instance
        try:
            _run_instance(plan, rep, inst, key, seen_definition_keys)
        except SizeCapExceeded as exc:
            rep.skipped.append({"instance": key(), "reason": str(exc)})
        except Exception as exc:  # recorded, not fatal: the report must survive
            rep.mismatches.append(
                {"instance": key(), "element": None, "mode": "error", "detail": repr(exc)}
            )
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def _tally(rep: SweepReport, key, f, mode: str, thm, oracle_holds: bool) -> None:
    """Count one check of the theorem's verdict ``thm`` against the
    oracle's answer, of the build (f None) or of its element f, and record
    a mismatch.  f, and the instance (``key()``, its key made once), are
    formatted only then."""
    if f is None:
        checks, agreements = rep.semigroup_checks, rep.semigroup_agreements
    else:
        checks, agreements = rep.element_checks, rep.element_agreements
    checks[mode] += 1
    if thm.holds == oracle_holds:
        agreements[mode] += 1
    else:
        rep.mismatches.append({"instance": key(), "element": None if f is None else f.to_text(),
                               "mode": mode, "theorem": thm.holds, "oracle": oracle_holds,
                               "clause": thm.clause})


def _run_instance(plan, rep, inst, key, seen_definition_keys):
    build = inst.build()
    rep.instances_run += 1  # only once the build is made, not when refused
    expected = inst.expected_size()
    if len(build) != expected:
        rep.size_formula_violations.append(
            {"instance": key(), "expected": expected, "actual": len(build)}
        )
    element_modes = []
    if plan.element_cap and len(build) <= plan.element_cap:
        element_modes = [m for m in inst.decidable(inst.ELEMENT_MODES) if m in plan.modes]
    # before any tally: a build out of order counts nothing
    elements = block_records(inst, build, element_modes)

    oracle_holds: dict[str, bool] = {}
    for mode in inst.decidable(plan.modes):
        thm = inst.thm_semigroup(mode)
        oracle_holds[mode] = semigroup_oracle(build, mode).holds
        _tally(rep, key, None, mode, thm, oracle_holds[mode])
    for strong, weak in _IMPLICATIONS:
        if oracle_holds.get(strong) and weak in oracle_holds and not oracle_holds[weak]:
            rep.implication_violations.append(
                {"instance": key(), "implication": f"{strong} => {weak}"}
            )

    # One pass, so that all checks on f run back to back and share f's
    # record; the oracle's answer is f's first partner in the build's
    # table, and the theorem's is the partner in S of f's block.
    for i, f, rec, asks in elements:
        for mode, partner in asks:
            thm = element_theorem(inst, rec, mode, partner)
            _tally(rep, key, f, mode, thm, build.partner(i, mode) >= 0)
            if thm.holds and thm.witness is not None:
                problem = witness_problem(build, i, mode, thm.witness)
                if problem is None:
                    rep.witnesses_checked += 1
                else:
                    rep.mismatches.append({"instance": key(), "element": f.to_text(), "mode": mode,
                                           "witness": thm.witness.to_text(), "problem": problem})
        problem = rec.transversal_problem
        rep.transversal_checks_run += 1
        if problem is not None:
            rep.transversal_failures.append(
                {"instance": key(), "element": f.to_text(), "problem": problem})

    verdict = inst.alpha_family(build)
    if verdict is not None:
        rep.alpha_family_checks_run += 1
        if not verdict.holds:
            rep.alpha_family_failures.append({"instance": key(), "clause": verdict.clause})

    for s in (build, inst.prescribed):
        if len(s) > _DEFINITION_CHECK_LIMIT:
            continue  # before its key, a frozenset of up to TABLE_CAP elements
        skey = s.key()
        if skey not in seen_definition_keys:
            seen_definition_keys.add(skey)
            rep.definition_checks_run += 1
            for problem in _definition_failures(s):
                rep.definition_failures.append({"instance": key(), "problem": problem})
