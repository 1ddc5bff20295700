"""resemi benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload tsweep|lsweep|queries --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (bench/worker.py), because every
real ``resemi`` command does and pays for its lazily built tables.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced pass on the same inputs and reports the
per-layer metrics and the tracing overhead.  All outputs are checked; the
command exits 1 on any wrong output and 2 when there is nothing to measure.
Lines before the last are JSON records of the machine, the samples and the
per-plan times; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import speed_factor
from workloads import BLOCK, DEFAULT_SEED, ROADMAP_PLAN_S, sweep_plans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

WORKLOADS = ("tsweep", "lsweep", "queries")
SETUP_PROBES = 11
# A run's work depends on --seed and --seconds only, never on how fast the
# machine happens to be: a run that got one pass fewer in a slow moment
# would hold other instances, and tsweep's median instance moved with
# that.  The rates below fill about --seconds on the 2-core VM in its slow
# state (about two thirds of that in its fast one); a sweep run makes at
# least one full pass.
SWEEP_PASS_S = {"tsweep": 4.0, "lsweep": 40.0}
QUERIES_PER_S = 30
MIN_QUERIES = 200  # p95 then has at least ten samples beyond it
TRACE_QUERIES = 200  # fixed, so that traced counts repeat exactly
DEADLINE_S = 170
HD_STEPS = 20  # integration points per rank in _quantile
# lsweep's median instance is one of c3a-c3c, whose instances all run within
# a few seconds of each other, or one of c3d's fastest.  A few seconds is
# one state of the shared machine (see calibration.py), and calibration
# cancels only part of a state change, so a single pass's median swings with
# the state it happened to meet.  lsweep therefore times c3a-c3c in
# LATENCY_PASSES more fresh interpreters, half before the full pass and half
# after it, and an instance's latency is its mean over the run.
LATENCY_PLANS = {"lsweep": ("c3a", "c3b", "c3c")}
LATENCY_PASSES = 6
# Hash randomisation changes set iteration order and so the counts of some
# early-exit loops; a fixed hash seed keeps traced counts reproducible.
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("ops_per_s", "1/s"), ("checks_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_p95_ms", "ms"), ("peak_rss_mb", "MB"),
)


class Failed(Exception):
    """A worker died, timed out or printed no result."""


def _worker(arg: str, deadline: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([sys.executable, str(WORKER), arg], cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise Failed("worker timed out") from exc


def run_job(job: dict, deadline: float) -> dict:
    proc = _worker(json.dumps(job), deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise Failed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(deadline: float) -> tuple[list[float], list[float]]:
    """Interpreter start until ``import resemi`` and the CLI parser are
    ready, once unmeasured (bytecode caches) and then SETUP_PROBES times;
    calibrated by a reference sample taken just before each probe, and raw."""
    calibrated, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        factor = speed_factor()
        t0 = time.monotonic()
        proc = _worker("setup", deadline)
        if proc.returncode != 0:
            raise Failed(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        raw.append(float(proc.stdout.strip()) - t0)
        calibrated.append(raw[-1] * factor)
    return calibrated[1:], raw[1:]


def _quantile(values: list[float], q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: the mean of all order
    statistics weighted by the Beta(a, b) probability of each rank's slice
    of [0, 1], a = q/100 (n+1), b = (1 - q/100)(n+1).  It estimates the same
    percentile as one interpolated order statistic, but about twenty
    neighbouring ranks carry it at p95 of 600 samples, so one instance that
    happened to meet a slow moment moves it less."""
    xs = sorted(values)
    n = len(xs)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # midpoint rule, HD_STEPS points per rank
        xs_i = ((i + (k + 0.5) / HD_STEPS) / n for k in range(HD_STEPS))
        weights.append(sum(math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
                           for x in xs_i))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# -- verification ---------------------------------------------------------------


def verify_sweep_pass(res: dict, workload: str, seed: int, pass_no: int,
                      problems: list) -> int:
    """Failed instances of one pass; problems are appended to ``problems``.

    A plan whose inputs equal those of pass 0 at the default seed (every
    exhaustive plan, every lsweep plan) must also reproduce its recorded
    report digest."""
    failed = 0
    recorded = _recorded_digests().get(workload, {})
    reference = dict(sweep_plans(workload, DEFAULT_SEED, 0))
    current = dict(sweep_plans(workload, seed, pass_no))
    for rep in res["reports"]:
        label = rep["label"]
        bad = rep["failed_instances"]
        if not rep["clean"] or not rep["agreements_ok"]:
            problems.append(f"{label} pass {pass_no}: report not clean")
            bad = max(bad, 1)
        if current[label] == reference[label] and recorded.get(label) != rep["digest"]:
            problems.append(f"{label}: report digest differs from the recorded one")
            bad = rep["instances"]
        failed += bad
    return failed


def verify_queries(res: dict, seed: int, problems: list) -> int:
    for f in res["failures"][:5]:
        problems.append(f"query {' '.join(f['argv'])}: {f['problem']} {f['stderr']}".strip())
    if seed == DEFAULT_SEED and res["digest"] != _recorded_digests().get("queries"):
        problems.append("default-seed query outputs differ from the recorded digest")
        return max(len(res["failures"]), 1)
    return len(res["failures"])


def instance_means(passes: list, problems: list) -> list:
    """Per-instance latency over passes of the same instances, the first a
    full pass and the others repeating all or some of its plans: the mean of
    each instance's timings."""
    timings = {r["label"]: [[v] for v in r["latencies_ms"]] for r in passes[0]["reports"]}
    for res in passes[1:]:
        for r in res["reports"]:
            if len(r["latencies_ms"]) != len(timings[r["label"]]):
                problems.append(f"{r['label']}: a latency pass ran other instances")
                continue
            for slot, v in zip(timings[r["label"]], r["latencies_ms"]):
                slot.append(v)
    return [statistics.fmean(slot) for slots in timings.values() for slot in slots]


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, deadline: float,
               problems: list, info: dict) -> tuple[dict, int, int]:
    """Calibrated metrics (see calibration.py); raw wall times go to ``info``."""
    setup, setup_raw = setup_seconds(deadline)
    if workload == "queries":
        blocks = math.ceil(max(MIN_QUERIES, seconds * QUERIES_PER_S) / len(BLOCK))
        res = run_job({"workload": "queries", "seed": seed, "queries": blocks * len(BLOCK)},
                      deadline)
        failed = verify_queries(res, seed, problems)
        lat = res["latencies_ms"]
        attempted = len(lat)
        metrics = {
            "pass_s": statistics.median(res["block_s"]),
            "ops_per_s": attempted / res["busy_s"],
            "checks_per_s": res["checks"] / res["busy_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        info["samples"] = {"queries": attempted, "blocks": len(res["block_s"])}
        info["raw"] = {"loop_s": res["wall_s"], "speed": res["speed"]}
    else:
        failed = 0

        def sweep_pass(pass_no: int, plans=None) -> dict:
            nonlocal failed
            res = run_job({"workload": workload, "seed": seed, "pass": pass_no, "plans": plans},
                          deadline)
            failed += verify_sweep_pass(res, workload, seed, pass_no, problems)
            return res

        plans = LATENCY_PLANS.get(workload)
        extra = [sweep_pass(0, plans) for _ in range(LATENCY_PASSES // 2)] if plans else []
        passes = [sweep_pass(i) for i in range(max(1, round(seconds / SWEEP_PASS_S[workload])))]
        if plans:
            extra += [sweep_pass(0, plans) for _ in range(LATENCY_PASSES - len(extra))]
            lat = instance_means(passes + extra, problems)
        else:
            lat = [v for p in passes for v in p["latencies_ms"]]
        attempted = sum(p["instances"] for p in passes + extra)
        total = sum(p["calibrated_s"] for p in passes)
        metrics = {
            "pass_s": statistics.median(p["calibrated_s"] for p in passes),
            "ops_per_s": sum(p["instances"] for p in passes) / total,
            "checks_per_s": sum(r["checks"] for p in passes for r in p["reports"]) / total,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        info["samples"] = {"passes": len(passes), "latency_passes": len(extra),
                           "instances": attempted, "latencies": len(lat)}
        info["raw"] = {"pass_s": statistics.median(p["wall_s"] for p in passes),
                       "speed": statistics.median(p["speed"] for p in passes)}
        info["plan_s"] = {
            label: {"median": statistics.median(r["wall_s"] for p in passes for r in p["reports"]
                                                if r["label"] == label),
                    "roadmap": ROADMAP_PLAN_S.get(label)}
            for label in (r["label"] for r in passes[0]["reports"])
        }
    metrics.update(setup_s=statistics.median(setup), op_p50_ms=_quantile(lat, 50),
                   op_p95_ms=_quantile(lat, 95))
    info["samples"]["beyond_p95"] = sum(v > metrics["op_p95_ms"] for v in lat)
    info["raw"]["setup_s"] = statistics.median(setup_raw)
    info["setup_probes_s"] = setup_raw
    return metrics, attempted, failed


def traced(workload: str, seed: int, deadline: float, problems: list,
           info: dict) -> tuple[dict, dict, int, int]:
    """One untraced and one traced pass over the same inputs."""
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    job = {"workload": workload, "seed": seed, "pass": 0, "queries": TRACE_QUERIES}
    plain = run_job(job, deadline)
    res = run_job({**job, "trace_file": str(trace_file)}, deadline)
    if workload == "queries":
        failed = verify_queries(plain, seed, problems) + verify_queries(res, seed, problems)
        attempted = 2 * len(res["latencies_ms"])
        if plain["digest"] != res["digest"]:
            problems.append("tracing changed a query output")
    else:
        failed = (verify_sweep_pass(plain, workload, seed, 0, problems)
                  + verify_sweep_pass(res, workload, seed, 0, problems))
        attempted = plain["instances"] + res["instances"]
        if [r["digest"] for r in plain["reports"]] != [r["digest"] for r in res["reports"]]:
            problems.append("tracing changed a sweep report")
        info["plan_s"] = {r["label"]: r["wall_s"] for r in res["reports"]}
    tr = res["trace"]
    if tr["roots"] != 1 or not tr["self_sum_exact"] or not tr["covers_wall"]:
        problems.append(f"trace does not account for the run: {tr}")
    metrics = tr["metrics"]
    metrics["trace.overhead_ratio"] = res["wall_s"] / plain["wall_s"]
    if any(v < 0 for k, v in metrics.items() if k.endswith(".self_s")):
        problems.append("negative self time")
    info["trace"] = {"file": str(trace_file.relative_to(ROOT)), "wall_s": res["wall_s"],
                     "untraced_wall_s": plain["wall_s"], "self_sum_s": tr["self_sum_s"]}
    return metrics, tr["units"], attempted, failed


def record_digests(workload: str) -> None:
    """Store the default-seed digests this commit produces (deliberate use only)."""
    deadline = time.monotonic() + 10 * DEADLINE_S
    digests = _recorded_digests()
    if workload == "queries":
        res = run_job({"workload": "queries", "seed": DEFAULT_SEED, "queries": TRACE_QUERIES},
                      deadline)
        if res["failures"]:
            raise SystemExit(f"refusing to record failing outputs: {res['failures'][:3]}")
        digests["queries"] = res["digest"]
    else:
        res = run_job({"workload": workload, "seed": DEFAULT_SEED, "pass": 0}, deadline)
        if not all(r["clean"] and r["agreements_ok"] for r in res["reports"]):
            raise SystemExit("refusing to record an unclean sweep")
        digests[workload] = {r["label"]: r["digest"] for r in res["reports"]}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this commit's default-seed output digests and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "resemi" / "__init__.py").is_file():
        print(f"error: no resemi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(args.workload)
        return 0

    deadline = time.monotonic() + DEADLINE_S
    info = {"machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                        "commit": _git_commit(), "loadavg_before": os.getloadavg()},
            "workload": args.workload, "seed": args.seed, "trace": args.trace}
    problems: list[str] = []
    try:
        if args.trace:
            metrics, units, attempted, failed = traced(args.workload, args.seed, deadline,
                                                       problems, info)
        else:
            metrics, attempted, failed = end_to_end(args.workload, args.seed, args.seconds,
                                                    deadline, problems, info)
            units = dict(END_TO_END)
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info["machine"]["loadavg_after"] = os.getloadavg()
    info["problems"] = problems
    print(json.dumps({"info": info}))
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
