#!/usr/bin/env python3
"""Differential sweeps: every characterization against every oracle.

A sweep enumerates instances (ambient size, subset/subspace, prescribed
semigroup), builds each restriction semigroup, and compares the
characterization predicates with brute-force search on semigroup and
element level.  The mismatch list of a correct implementation is empty;
anything else is a bug, and the report says exactly where.
"""

import json

from resemi import SweepPlan, SweepReport, run_sweep

# Exhaustive over every nonempty Y and every closed S(Y) for n <= 2,
# plus seeded random subsemigroups of T(3) on Y = X.
plan = SweepPlan(
    family="transformation",
    ns=(1, 2, 3),
    subset_sizes=(1, 2),
    source=("exhaustive",),
    modes=("regular", "inverse", "unit_regular"),
)
report = run_sweep(plan)
print("instances:", report.instances_run)
print("semigroup checks:", report.semigroup_checks)
print("element checks:", report.element_checks)
print("witnesses verified:", report.witnesses_checked)
print("mismatches:", len(report.mismatches))

# Linear family, exhaustive subsemigroup enumeration where the base monoid
# is small enough (up to 27 elements, so up to T(3)).
lplan = SweepPlan(
    family="linear",
    pns=((2, 1), (2, 2), (3, 1)),
    source=("exhaustive",),
    modes=("regular", "inverse", "unit_regular", "completely_regular"),
)
lreport = run_sweep(lplan)
print("\nlinear instances:", lreport.instances_run)
print("dual-definition checks:", lreport.definition_checks_run)
print("index-family checks:", lreport.alpha_family_checks_run)
print("clean:", lreport.clean)

# Reports are deterministic for a fixed plan (the per-cell RNG is derived
# from the plan seed), so repeated runs are byte-identical apart from the
# timing field -- and they serialize losslessly.
again = run_sweep(lplan)
same = again.to_json(include_timing=False) == lreport.to_json(include_timing=False)
print("\nrepeat run byte-identical (timing aside):", same)

round_trip = SweepReport.from_dict(json.loads(lreport.to_json()))
print("report JSON round-trips:", round_trip.to_json() == lreport.to_json())
