"""Print the traffic of every memo in ``resemi`` over one seed-0 pass of
the benchmark's tsweep and lsweep plans: each ``lru_cache`` with its hits
and misses, and the number of ``closure_elements`` calls.

The memos are found by ``tests/test_caching_rule.py``'s own helpers:
every attribute a ``resemi`` module defines, and every attribute of the
classes it defines, that is an ``lru_cache``.  Every memo is cleared
before each workload, so each workload's counts stand alone.  The plans
are read from ``bench/workloads.py``, which is imported and not changed.

Run from the repository root: ``python tools/memo_traffic.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from resemi import semigroups  # noqa: E402
from resemi.sweep import SweepPlan, run_sweep  # noqa: E402
from test_caching_rule import _defined, _modules  # noqa: E402
from workloads import DEFAULT_SEED, sweep_plans  # noqa: E402

WORKLOADS = ("tsweep", "lsweep")


def memos() -> dict:
    """Dotted name -> every ``lru_cache`` the package's modules define."""
    return {f"{module.__name__}.{name}": obj for module in _modules()
            for name, obj in _defined(module) if hasattr(obj, "cache_parameters")}


def count_closures() -> list:
    """Replace ``closure_elements`` wherever a ``resemi`` module binds it;
    the returned list gets one entry per call."""
    calls, closure = [], semigroups.closure_elements

    def counted(gens):
        calls.append(None)
        return closure(gens)

    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is closure:
                setattr(module, attr, counted)
    return calls


def main() -> int:
    found = memos()
    calls = count_closures()
    width = max(map(len, found))
    for workload in WORKLOADS:
        for memo in found.values():
            memo.cache_clear()
        calls.clear()
        for _, kw in sweep_plans(workload, DEFAULT_SEED, 0):
            run_sweep(SweepPlan(**kw))
        print(f"{workload} (one seed-{DEFAULT_SEED} pass): "
              f"{len(calls)} closure_elements calls")
        print(f"  {'memo':<{width}} {'hits':>8} {'misses':>8}")
        for name, memo in sorted(found.items()):
            info = memo.cache_info()
            print(f"  {name:<{width}} {info.hits:>8} {info.misses:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
