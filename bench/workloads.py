"""Workload inputs: the acceptance sweep plans and the seeded CLI query stream.

Nothing here imports resemi, so the generated inputs and the expected
values used to check outputs are independent of the code under test.
"""

from __future__ import annotations

import random

T_MODES = ("regular", "inverse", "unit_regular")
L_MODES = ("regular", "inverse", "unit_regular", "completely_regular")

DEFAULT_SEED = 0
# The second seed named for the "claim also holds on an unseen seed" rule:
# a change is tuned on the default seed and re-measured on this one.
UNSEEN_SEED = 7

# (label, SweepPlan keyword arguments).  The plans are those of
# tests/test_acceptance.py (criteria 1-3); "c2e" is the criterion-2 plan with
# element checks on at the default element_cap.  A seeded plan's source names
# a seed string, which sweep_plans() derives from the run's seed.
TSWEEP_PLANS = (
    ("c1a", dict(family="transformation", ns=(1, 2, 3), subset_sizes=(1, 2),
                 source=("exhaustive",), modes=T_MODES)),
    ("c1b", dict(family="transformation", ns=(3,), subset_sizes=(3,),
                 source=("seeded", 200, "criterion1"), modes=T_MODES)),
    ("c2", dict(family="transformation", ns=(4,), subset_sizes=(1, 2, 3),
                source=("seeded", 50, "criterion2"), modes=T_MODES, element_cap=0)),
    ("c2e", dict(family="transformation", ns=(4,), subset_sizes=(1, 2, 3),
                 source=("seeded", 50, "criterion2"), modes=T_MODES)),
)
LSWEEP_PLANS = (
    ("c3a", dict(family="linear", pns=((2, 1), (2, 2), (3, 1)), subset_sizes=None,
                 source=("exhaustive",), modes=L_MODES)),
    ("c3b", dict(family="linear", pns=((3, 2),), subset_sizes=(0, 1),
                 source=("exhaustive",), modes=L_MODES)),
    ("c3c", dict(family="linear", pns=((3, 2),), subset_sizes=(2,),
                 source=("seeded", 50, "criterion3"), modes=L_MODES)),
    ("c3d", dict(family="linear", pns=((2, 3),), subset_sizes=None,
                 source=("seeded", 50, "criterion3"), modes=L_MODES)),
)
SWEEP_PLANS = {"tsweep": TSWEEP_PLANS, "lsweep": LSWEEP_PLANS}
# lsweep keeps the acceptance suite's seed strings whatever the run's seed.
# One pass is all a run has time for, so nothing averages seed effects out:
# c3d's sampled closures in L(GF(2)^3) change its work by about 20 % from
# seed to seed, and c3c's decide which instances make up the slowest 5 %.
FIXED_SEED_PLANS = {"c3c", "c3d"}

# Per-plan wall times (s) at the ROADMAP re-anchor (2-core VM, Python 3.11).
ROADMAP_PLAN_S = {"c1a": 0.04, "c1b": 0.17, "c2": 2.0, "c3a": 1.4, "c3b": 0.5,
                  "c3c": 0.9, "c3d": 39.2}


def seed_string(name: str, label: str, seed: int, pass_no: int) -> str:
    """Seed string of seeded plan ``label`` in pass ``pass_no`` of a run.

    Pass 0 at the default seed keeps the acceptance suite's own string, so
    its reports are the acceptance suite's reports byte for byte.  Elsewhere
    each plan draws its own sample, c2e too, although it shares c2's seed
    name: tsweep's median instance is one of c2's or c2e's, and which
    instances a sample holds moves a pass's median by about 15 %, and two
    samples per pass average more of that out at no extra cost."""
    if seed == DEFAULT_SEED and pass_no == 0:
        return name
    return f"{name}:{label}:{seed}:{pass_no}"


def sweep_plans(workload: str, seed: int, pass_no: int) -> list[tuple[str, dict]]:
    out = []
    for label, kw in SWEEP_PLANS[workload]:
        kw = dict(kw)
        if kw["source"][0] == "seeded" and label not in FIXED_SEED_PLANS:
            _, count, name = kw["source"]
            kw["source"] = ("seeded", count, seed_string(name, label, seed, pass_no))
        out.append((label, kw))
    return out


# -- query stream -------------------------------------------------------------

# Instance shapes for the query stream.  t: (n, |Y|), build size
# |S(Y)| * n^(n-|Y|); l: (p, n, dim W), build size |S(W)| * p^(n(n-dim W)).
# S is the closure of the identity and 1-3 random generators: always a
# monoid, so every query exercises the unit-regular modes and every build
# pays the same unit scan (a mix of monoids and non-monoids would make the
# latency of one size class bimodal).
T_SHAPES = ((3, 2), (4, 2), (4, 3), (4, 4), (5, 3), (5, 4))
L_SHAPES = ((2, 2, 1), (3, 2, 1), (5, 2, 1), (3, 2, 2), (2, 3, 1), (2, 3, 2), (2, 3, 3))

# One block of 20 queries: (command, lowest build size, highest build size),
# shuffled within the block; a "-t" or "-l" suffix fixes the family.  Fixing
# the mix per block keeps each run's share of each class the same, so the
# latency percentiles do not depend on what a seed happens to draw: p50 falls
# inside the four medium T_S(Y)(X) queries (ranks 9-12 of 20) and p95 inside
# the two largest T_S(Y)(X) builds (the top 10 %).
BLOCK = (
    *[(c, 6, 31) for c in ("build", "build", "build", "classify", "classify", "classify",
                           "element", "element")],
    ("build-t", 48, 64), ("classify-t", 48, 64), ("element-t", 48, 64), ("build-t", 48, 64),
    ("build-l", 32, 64), ("classify-l", 32, 64), ("element-l", 32, 64),
    ("build-t", 128, 160), ("classify-t", 128, 160),
    ("build-t", 200, 225), ("build-t", 200, 225),
    ("sweep", 0, 0),
)
# The small sweep of the "sweep" slot; one plan, so that its check count,
# which outweighs a block's other queries together, varies only a little.
SWEEP_QUERY = ["--kind", "l", "--pn", "2,2", "--sizes", "1", "--source", "seeded", "--samples", "8"]


def _t_mul(f: tuple, g: tuple) -> tuple:
    return tuple(g[x] for x in f)  # left to right: x(fg) = (xf)g


def _l_mul(p: int):
    def mul(f: tuple, g: tuple) -> tuple:
        cols = list(zip(*g))
        return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols) for row in f)
    return mul


def _closure(gens: list, mul) -> list:
    elems = list(dict.fromkeys(gens))
    known = set(elems)
    frontier = elems
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in known:
                    known.add(y)
                    new.append(y)
        elems.extend(new)
        frontier = new
    return elems


def _random_rref(rng: random.Random, p: int, n: int, d: int) -> list[tuple]:
    """A uniformly chosen pivot set with random free entries: a canonical
    (reduced row echelon) basis of a d-dimensional subspace of GF(p)^n."""
    pivots = sorted(rng.sample(range(n), d))
    rows = []
    for piv in pivots:
        row = [0] * n
        row[piv] = 1
        for c in range(piv + 1, n):
            if c not in pivots:
                row[c] = rng.randrange(p)
        rows.append(tuple(row))
    return rows


def _size_range(kind: str, shape: tuple) -> tuple[int, int]:
    """Smallest and largest build size a shape can give."""
    if kind == "t":
        n, k = shape
        return n ** (n - k), k ** k * n ** (n - k)
    p, n, d = shape
    return p ** (n * (n - d)), p ** (d * d) * p ** (n * (n - d))


def _mat_text(m) -> str:
    return ";".join(",".join(map(str, r)) for r in m)


class QueryStream:
    """Seeded stream of distinct CLI queries, in blocks of ``BLOCK``.

    Each query is a dict with ``argv`` (for ``resemi.cli.main``), the
    command, the output format and, for builds, the size a correct answer
    must show.  No instance (invariant part plus closed S) appears twice in
    one stream.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"queries:{seed}")
        self.seen: set = set()
        self._pending: list = []

    def __iter__(self):
        return self

    def __next__(self) -> dict:
        if not self._pending:
            self._pending = list(BLOCK)
            self.rng.shuffle(self._pending)
        command, lo, hi = self._pending.pop()
        rng = self.rng
        if command == "sweep":
            argv = ["sweep", *SWEEP_QUERY, "--seed", str(rng.randrange(10**9)), "--format", "json"]
            return {"command": "sweep", "format": "json", "argv": argv}
        command, _, family = command.partition("-")
        kinds = (family,) if family else ("t", "l")
        shapes = [(k, s) for k in kinds for s in (T_SHAPES if k == "t" else L_SHAPES)
                  if _size_range(k, s)[0] <= hi and _size_range(k, s)[1] >= lo]
        while True:
            kind, shape = rng.choice(shapes)
            q = self._t_query(shape) if kind == "t" else self._l_query(shape)
            if lo <= q["size"] <= hi and q["key"] not in self.seen:
                break
        self.seen.add(q["key"])
        fmt = rng.choice(("text", "json"))
        argv = [command, *q["flags"], "--format", fmt]
        if command == "element":
            argv += ["--f", q["element"]]
        return {"command": command, "format": fmt, "argv": argv, "expect_size": q["size"]}

    def _t_query(self, shape):
        rng = self.rng
        n, k = shape
        y = sorted(rng.sample(range(n), k))
        gens = [tuple(range(k))]
        gens += [tuple(rng.randrange(k) for _ in range(k)) for _ in range(rng.randint(1, 3))]
        s = _closure(gens, _t_mul)
        alpha = rng.choice(s)
        f = [rng.randrange(n) for _ in range(n)]
        for i, x in enumerate(y):
            f[x] = y[alpha[i]]
        return {
            "key": ("t", n, tuple(y), frozenset(s)),
            "flags": ["--kind", "t", "--n", str(n), "--y", ",".join(map(str, y)),
                      "--gens", ";".join(",".join(map(str, g)) for g in gens)],
            "element": ",".join(map(str, f)),
            "size": len(s) * n ** (n - k),
        }

    def _l_query(self, shape):
        rng = self.rng
        p, n, d = shape
        w = _random_rref(rng, p, n, d)
        gens = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
        gens += [tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in range(d))
                 for _ in range(rng.randint(1, 3))]
        s = _closure(gens, _l_mul(p))
        return {
            "key": ("l", p, n, tuple(w), frozenset(s)),
            "flags": ["--kind", "l", "--p", str(p), "--n", str(n), "--w", _mat_text(w),
                      "--gens", "|".join(_mat_text(g) for g in gens)],
            "element": _mat_text(self._l_element(p, n, w, rng.choice(s))),
            "size": len(s) * p ** (n * (n - d)),
        }

    def _l_element(self, p, n, w, alpha):
        """A member of L_S(W)(V) acting as alpha on W: the images of W's
        canonical basis are fixed by alpha, those of the unit vectors
        outside the pivot columns are random."""
        pivots = [row.index(1) for row in w]
        free = [c for c in range(n) if c not in pivots]
        image = {c: [self.rng.randrange(p) for _ in range(n)] for c in free}
        rows = [None] * n
        for c in free:
            rows[c] = image[c]
        for i, piv in enumerate(pivots):
            # e_piv = w_i - sum over free c of w_i[c] e_c
            v = [sum(alpha[i][j] * w[j][t] for j in range(len(w))) for t in range(n)]
            for c in free:
                if w[i][c]:
                    v = [a - w[i][c] * b for a, b in zip(v, image[c])]
            rows[piv] = [a % p for a in v]
        return rows
