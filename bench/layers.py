"""Wrap points of the traced run: each resemi boundary and its layer metric.

A boundary is wrapped wherever its name can be looked up: every resemi
module attribute bound to the function is replaced (``semigroup_oracle``
is imported by name into ``sweep``, ``cli`` and both family modules), and
methods are replaced on their class.  ``GFMatrix.__mul__`` and
``Transformation.__mul__`` call the module-level ``mat_compose`` and
``compose``, so replacing those catches every product.
"""

from __future__ import annotations

import sys

from resemi import cli, gflinear, linear_semigroup, semigroups, sweep, transform_semigroup, transformations

# (metric prefix, owner, attribute, recorded as a span).  Spans mark the
# coarse boundaries (a sweep, a build, a CLI call); everything else is a
# leaf counted and timed under its enclosing span.
BOUNDARIES = (
    ("gflinear.mat_compose", gflinear, "mat_compose", False),
    ("gflinear.subspace_init", gflinear.Subspace, "__init__", False),
    ("transformations.compose", transformations, "compose", False),
    ("transformations.canonical_transversal", transformations, "canonical_transversal", False),
    ("semigroups.table_build", semigroups.FiniteSemigroup, "__init__", False),
    ("semigroups.closure", semigroups, "closure_elements", False),
    ("semigroups.element_oracle", semigroups, "element_oracle", False),
    ("semigroups.semigroup_oracle", semigroups, "semigroup_oracle", False),
    ("semigroups.definition_oracles", semigroups, "inverse_by_unique_inverses", False),
    ("semigroups.definition_oracles", semigroups, "subgroup_containing", False),
    ("transform_semigroup.build", transform_semigroup, "build_tsy", True),
    ("transform_semigroup.thm_element", transform_semigroup, "thm_element_t", False),
    ("transform_semigroup.thm_semigroup", transform_semigroup, "thm_semigroup_t", False),
    ("linear_semigroup.build", linear_semigroup, "build_lsw", True),
    ("linear_semigroup.thm_element", linear_semigroup, "thm_element_l", False),
    ("linear_semigroup.thm_semigroup", linear_semigroup, "thm_semigroup_l", False),
    ("linear_semigroup.alpha_family", linear_semigroup, "alpha_family_check", False),
    ("sweep.enumerate", sweep, "enumerate_subsemigroups", False),
    ("sweep.run", sweep, "run_sweep", True),
    ("cli.main", cli, "main", True),
)
BOUNDARY_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))

# Per-layer metrics beyond calls and self time: (name, unit).
EXTRA_METRICS = (
    ("semigroups.table_build.products", "count"),
    ("sweep.enumerate.distinct_ratio", "ratio"),
    ("sweep.instances", "count"),
    ("trace.overhead_ratio", "ratio"),
)
PER_LAYER = (
    *[(f"{name}.{q}", unit) for name in BOUNDARY_NAMES for q, unit in (("calls", "count"), ("self_s", "s"))],
    *EXTRA_METRICS,
)


def _replace_everywhere(orig, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "resemi" or name.startswith("resemi."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(tracer) -> dict:
    """Wrap every boundary; returns the counters the wrappers fill in:
    ``products`` (sum of m^2 over Cayley tables built) and, for seeded
    enumerations actually computed, ``closures`` attempted and ``distinct``
    subsemigroups kept."""
    counts = {"products": 0, "closures": 0, "distinct": 0}
    init = semigroups.FiniteSemigroup.__init__

    def table_build(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.table is not None:
            counts["products"] += len(self.elements) ** 2

    enumerate_cached = sweep.enumerate_subsemigroups

    def enumerate_counted(*args, **kwargs):
        misses = enumerate_cached.cache_info().misses
        out = enumerate_cached(*args, **kwargs)
        source = args[2] if len(args) > 2 else kwargs["source"]
        if source[0] == "seeded" and enumerate_cached.cache_info().misses > misses:
            counts["closures"] += source[1]
            counts["distinct"] += len(out)
        return out

    counted = {init: table_build, enumerate_cached: enumerate_counted}
    for name, owner, attr, is_span in BOUNDARIES:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = tracer.wrap(counted.get(orig, orig), name, span=is_span)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(orig, wrapped)
    return counts


def layer_metrics(totals: dict, counts: dict, instances: int) -> dict:
    """Every per-layer metric but ``trace.overhead_ratio``, which needs the
    untraced run."""
    out = {}
    for name in BOUNDARY_NAMES:
        t = totals.get(name, {"calls": 0, "self_ns": 0})
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_ns"] / 1e9
    out["semigroups.table_build.products"] = counts["products"]
    out["sweep.enumerate.distinct_ratio"] = (
        counts["distinct"] / counts["closures"] if counts["closures"] else 0.0
    )
    out["sweep.instances"] = instances
    return out

