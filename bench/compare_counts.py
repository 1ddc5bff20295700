"""Count-determinism check: two traced runs on the same seed must agree on
every count (``*.calls``, ``*.products``, ``sweep.instances``).

    python3 bench/run.py --workload W --seed N --trace 1 && cp bench/out/trace-W-seedN.json bench/out/first.json
    python3 bench/run.py --workload W --seed N --trace 1
    python3 bench/compare_counts.py bench/out/first.json bench/out/trace-W-seedN.json

Exits 1 and lists the differing counts when they do not repeat exactly;
a claim may rest on a count only when this passes.
"""

import json
import sys


def _counts(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["counts"]


def main(a: str, b: str) -> int:
    ca, cb = _counts(a), _counts(b)
    diff = {k: (ca.get(k), cb.get(k)) for k in sorted(set(ca) | set(cb)) if ca.get(k) != cb.get(k)}
    for k, (x, y) in diff.items():
        print(f"{k}: {x} != {y}")
    print(f"{len(ca)} counts compared, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
