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
from functools import lru_cache
from itertools import combinations

from . import linear_semigroup as lsg
from . import transform_semigroup as tsg
from .family import element_at, is_int
from .gflinear import all_subspaces
from .semigroups import (
    TABLE_CAP,
    FiniteSemigroup,
    SizeCapExceeded,
    closure_elements,
    element_oracle,
    inverse_by_unique_inverses,
    semigroup_oracle,
    subgroup_containing,
    witness_problem,
)
from .transformations import IndexSubset

SCHEMA_VERSION = 1

# A plan's family names the instance class; both implement one interface.
FAMILIES = {"transformation": tsg.TInstance, "linear": lsg.LInstance}

# The checks every sweep makes.  A schema-1 report carries its plan, which
# the determinism comparison and the recorded report digests read, so the
# plan's JSON form keeps these keys, stating that each check ran.
ALWAYS_RUN_CHECKS = {"definition_checks": True, "transversal_checks": True,
                     "alpha_family_checks": True}

# The plan's JSON form keeps the "size_cap" key of schema-1 reports, whose
# plan block the determinism comparison and the recorded report digests
# read.  Its value never bound a build: the Cayley table's TABLE_CAP does.
SCHEMA1_SIZE_CAP = {"size_cap": 1_000_000}

_EXHAUSTIVE_BASE_LIMIT = 27
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
    element caps are refused, and so are repeated modes; a size out of
    range for one n is skipped, so one plan can span several n.  Without
    ``subset_sizes``, a transformation plan takes 1 <= |Y| <= n and a
    linear one 0 <= dim W <= n; an explicit |Y| = 0 is taken too.

    Every run makes the transversal, definition and alpha-family checks
    on every instance they apply to; no field turns them off
    (``ALWAYS_RUN_CHECKS``).
    """

    family: str
    ns: tuple = ()
    pns: tuple = ()
    subset_sizes: tuple | None = None
    source: tuple = ("exhaustive",)
    modes: tuple = ("regular",)
    element_cap: int = TABLE_CAP

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name, ok, expected in (
            ("ns", _naturals(self.ns), "a list of non-negative integers"),
            ("pns", isinstance(self.pns, tuple)
             and all(_ints(c) and len(c) == 2 and c[1] >= 0 for c in self.pns),
             "a list of [p, n] pairs with non-negative n"),
            ("subset_sizes", self.subset_sizes is None or _naturals(self.subset_sizes),
             "null or a list of non-negative integers"),
            ("modes", isinstance(self.modes, tuple) and all(isinstance(m, str) for m in self.modes)
             and len(set(self.modes)) == len(self.modes), "a list of distinct mode names"),
            ("element_cap", is_int(self.element_cap) and self.element_cap >= 0,
             "a non-negative integer"),
        ):
            if not ok:
                raise ValueError(f"plan field {name!r} must be {expected}, "
                                 f"not {_as_lists(getattr(self, name))!r}")
        for m in self.modes:
            if m not in FAMILIES[self.family].SEMIGROUP_MODES:
                raise ValueError(f"mode {m!r} not available for family {self.family!r}")
        src = self.source
        seeded = (isinstance(src, tuple) and len(src) == 3 and src[0] == "seeded"
                  and is_int(src[1]) and isinstance(src[2], (str, int)))
        if src != ("exhaustive",) and not seeded:
            raise ValueError(f"unknown source {src!r}")
        if seeded and src[1] < 0:
            raise ValueError(f"seeded source count must be non-negative, not {src[1]}")

    def to_dict(self) -> dict:
        """JSON form: every field, tuples as lists, then the
        ``ALWAYS_RUN_CHECKS`` and ``SCHEMA1_SIZE_CAP`` keys."""
        return {**{f.name: _as_lists(getattr(self, f.name)) for f in fields(self)},
                **ALWAYS_RUN_CHECKS, **SCHEMA1_SIZE_CAP}

    @classmethod
    def from_dict(cls, d: dict) -> "SweepPlan":
        """Inverse of ``to_dict``; missing keys take their defaults and
        unknown keys, the ``ALWAYS_RUN_CHECKS`` and ``SCHEMA1_SIZE_CAP``
        ones included, are ignored."""
        return cls(**{f.name: _as_tuples(d[f.name]) for f in fields(cls) if f.name in d})


def _ints(v) -> bool:
    return isinstance(v, tuple) and all(is_int(x) for x in v)


def _naturals(v) -> bool:
    return _ints(v) and all(x >= 0 for x in v)


def _as_lists(v):
    return [_as_lists(x) for x in v] if isinstance(v, tuple) else v


def _as_tuples(v):
    return tuple(_as_tuples(x) for x in v) if isinstance(v, list) else v


@dataclass
class SweepReport:
    """Aggregate of one run_sweep call; see SweepPlan for determinism.

    ``transversal_checks_run`` counts the (instance, element) pairs the
    transversal check covered, and ``transversal_failures`` holds one
    entry per such pair whose check fails.  The check itself is made once
    per element of a region, on its shared record
    (``RestrictedInstance.transversal_problem``)."""

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


@lru_cache(maxsize=None)
def enumerate_subsemigroups(kind: str, base_size: int, source: tuple, p: int | None = None) -> tuple:
    """Nonempty composition-closed subsets of the base monoid T(base_size)
    or L(GF(p)^base_size), exhaustively or as deduplicated seeded-random
    closures of 1-3 generators.

    The base monoid is the build of the family's instance over an empty
    region (``whole``), and a seeded draw of number i is its element i
    (``family.element_at``).  The exhaustive list is a closure-extension
    walk by index in the base's Cayley table (East, Egri-Nagy, Mitchell &
    Peresse 2019): from each subsemigroup S found, and from the empty
    set, it closes S with each x outside S.  Its work grows with the
    number of subsemigroups, not of subsets; the list is in increasing
    index mask (the sum of 2^i over S's indices), each S's elements in
    index order.  It is refused past a 27-element base monoid, so T(3)
    (1,298 subsemigroups) is listed and T(4) and L(GF(3)^2) are not.  A
    seeded draw whose closure passes the Cayley table appears, in draw
    order, as the record ``{"generators": [texts], "reason": ...}`` in
    place of a semigroup."""
    whole = FAMILIES[kind].whole(base_size, p)
    m = whole.expected_size()
    if source[0] == "exhaustive":
        if m > _EXHAUSTIVE_BASE_LIMIT:
            raise ValueError("intractable exhaustive request")
        base = whole.build()
        return tuple(FiniteSemigroup([base.elements[i] for i in range(m) if mask >> i & 1])
                     for mask in _subsemigroup_masks(base.table))
    _, count, seed = source
    rng = random.Random(seed)
    out = []
    seen: set[frozenset] = set()
    for _ in range(count):
        k = rng.randint(1, 3)
        gens = [element_at(whole, rng.randrange(m)) for _ in range(k)]
        try:
            elems = closure_elements(gens)
        except SizeCapExceeded as exc:
            out.append({"generators": [g.to_text() for g in gens], "reason": str(exc)})
            continue
        key = frozenset(elems)
        if key not in seen:
            seen.add(key)
            out.append(FiniteSemigroup(elems))
    return tuple(out)


def _subsemigroup_masks(table: list) -> list:
    """Every nonempty subsemigroup of the table's semigroup, as its index
    mask, in increasing order: the closure-extension walk of
    ``enumerate_subsemigroups``.  Each new element y of a closure is
    multiplied on both sides by every member at the time; members that
    come later multiply y in their own turn."""
    columns = list(zip(*table))
    found = set()
    todo = [frozenset()]
    while todo:
        s = todo.pop()
        for x in range(len(table)):
            if x in s:
                continue
            members = {*s, x}
            fresh = [x]
            while fresh:
                y = fresh.pop()
                known = list(members)
                products = {*map(table[y].__getitem__, known), *map(columns[y].__getitem__, known)}
                products -= members
                members |= products
                fresh.extend(products)
            t = frozenset(members)
            if t not in found:
                found.add(t)
                todo.append(t)
    return sorted(sum(1 << i for i in t) for t in found)


def _cell_source(plan: SweepPlan, cell_key: str) -> tuple:
    if plan.source[0] == "exhaustive":
        return ("exhaustive",)
    _, count, seed = plan.source
    return ("seeded", count, f"{seed}:{cell_key}")


def _instances(plan: SweepPlan):
    """Deterministically ordered (cell_key, instance) pairs for the plan; a
    seeded draw refused at closure comes as (cell_key, its record)."""
    if plan.family == "transformation":
        for n in plan.ns:
            sizes = plan.subset_sizes if plan.subset_sizes is not None else range(1, n + 1)
            for size in sizes:
                if size > n:  # sizes are non-negative (``SweepPlan``)
                    continue
                for members in combinations(range(n), size):
                    y = IndexSubset(n, members)
                    cell = f"t:{n}:{y.to_text()}"
                    source = _cell_source(plan, cell)
                    for s_y in enumerate_subsemigroups("transformation", size, source):
                        yield cell, s_y if isinstance(s_y, dict) else tsg.TInstance(n, y, s_y)
    else:
        for p, n in plan.pns:
            sizes = plan.subset_sizes if plan.subset_sizes is not None else range(n + 1)
            for dim in sizes:
                if dim > n:
                    continue
                for w in all_subspaces(p, n, dim):
                    cell = f"l:{p}:{n}:{w.to_text()}"
                    source = _cell_source(plan, cell)
                    for s_w in enumerate_subsemigroups("linear", dim, source, p=p):
                        yield cell, s_w if isinstance(s_w, dict) else lsg.LInstance(p, n, w, s_w)


# -- per-instance checks ----------------------------------------------------


def _definition_failures(s: FiniteSemigroup) -> list[str]:
    """Dual-definition agreement: inverse via unique inverses, completely
    regular via an explicit containing-subgroup search."""
    out = []
    by_idem = semigroup_oracle(s, "inverse").holds
    by_unique = inverse_by_unique_inverses(s).holds
    if by_idem != by_unique:
        out.append(f"inverse definitions disagree ({by_idem} vs {by_unique})")
    for a in s.elements:
        std = element_oracle(s, a, "completely_regular").holds
        sub = subgroup_containing(s, a) is not None
        if std != sub:
            out.append(
                f"completely-regular definitions disagree on {a.to_text()} ({std} vs {sub})"
            )
    return out


def run_sweep(plan: SweepPlan) -> SweepReport:
    """Run every theorem-vs-oracle comparison the plan asks for."""
    t0 = time.perf_counter()
    rep = SweepReport(plan=plan.to_dict())
    rep.semigroup_checks = dict.fromkeys(plan.modes, 0)
    rep.semigroup_agreements = dict.fromkeys(plan.modes, 0)
    element_modes = [m for m in FAMILIES[plan.family].ELEMENT_MODES if m in plan.modes]
    rep.element_checks = dict.fromkeys(element_modes, 0)
    rep.element_agreements = dict.fromkeys(element_modes, 0)
    seen_definition_keys: set[frozenset] = set()

    for cell, inst in _instances(plan):
        if isinstance(inst, dict):  # a seeded draw refused at closure
            rep.skipped.append({"cell": cell, **inst})
            continue
        key = inst.key()
        try:
            _run_instance(plan, rep, inst, key, seen_definition_keys)
        except SizeCapExceeded as exc:
            rep.skipped.append({"instance": key, "reason": str(exc)})
        except Exception as exc:  # recorded, not fatal: the report must survive
            rep.mismatches.append(
                {"instance": key, "element": None, "mode": "error", "detail": repr(exc)}
            )
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def _tally(rep: SweepReport, key: dict, f, mode: str, thm, orc) -> None:
    """Count one theorem-vs-oracle check, of the build (f None) or of its
    element f, and record a mismatch.  f is formatted only then."""
    if f is None:
        checks, agreements = rep.semigroup_checks, rep.semigroup_agreements
    else:
        checks, agreements = rep.element_checks, rep.element_agreements
    checks[mode] += 1
    if thm.holds == orc.holds:
        agreements[mode] += 1
    else:
        rep.mismatches.append({"instance": key, "element": None if f is None else f.to_text(),
                               "mode": mode, "theorem": thm.holds, "oracle": orc.holds,
                               "clause": thm.clause})


def _run_instance(plan, rep, inst, key, seen_definition_keys):
    build = inst.build()
    rep.instances_run += 1  # only once the build is made, not when refused
    expected = inst.expected_size()
    if len(build) != expected:
        rep.size_formula_violations.append(
            {"instance": key, "expected": expected, "actual": len(build)}
        )

    oracle_holds: dict[str, bool] = {}
    for mode in inst.decidable(plan.modes):
        thm, orc = inst.thm_semigroup(mode), semigroup_oracle(build, mode)
        oracle_holds[mode] = orc.holds
        _tally(rep, key, None, mode, thm, orc)
    for strong, weak in _IMPLICATIONS:
        if oracle_holds.get(strong) and weak in oracle_holds and not oracle_holds[weak]:
            rep.implication_violations.append(
                {"instance": key, "implication": f"{strong} => {weak}"}
            )

    element_modes = []
    if plan.element_cap and len(build) <= plan.element_cap:
        element_modes = [m for m in inst.decidable(inst.ELEMENT_MODES) if m in plan.modes]
    # One pass, so that all checks on f run back to back and share the
    # family's per-element record (``record(f)`` on the instance).
    for f in build.elements:
        for mode in element_modes:
            thm = inst.thm_element(f, mode)
            _tally(rep, key, f, mode, thm, element_oracle(build, f, mode))
            if thm.holds and thm.witness is not None:
                problem = witness_problem(build, f, mode, thm.witness)
                if problem is None:
                    rep.witnesses_checked += 1
                else:
                    rep.mismatches.append({"instance": key, "element": f.to_text(), "mode": mode,
                                           "witness": thm.witness.to_text(), "problem": problem})
        problem = inst.transversal_problem(f)
        rep.transversal_checks_run += 1
        if problem is not None:
            rep.transversal_failures.append(
                {"instance": key, "element": f.to_text(), "problem": problem})

    if plan.family == "linear" and inst.codim == 1 and inst.unit_group:
        verdict = lsg.alpha_family_check(inst, build)
        rep.alpha_family_checks_run += 1
        if not verdict.holds:
            rep.alpha_family_failures.append({"instance": key, "clause": verdict.clause})

    for s in (build, inst.prescribed):
        skey = s.key()
        if len(s) <= _DEFINITION_CHECK_LIMIT and skey not in seen_definition_keys:
            seen_definition_keys.add(skey)
            rep.definition_checks_run += 1
            for problem in _definition_failures(s):
                rep.definition_failures.append({"instance": key, "problem": problem})
