"""One measured pass in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py setup
    python3 bench/worker.py '<job JSON>'

``setup`` imports resemi and builds the CLI parser, then prints the
CLOCK_MONOTONIC reading at which it was ready; the caller subtracts its own
reading taken just before starting the process.  A job runs one sweep pass
or one closed loop of CLI queries (see run.py for the job fields), with the
tracer installed when the job names a trace file.  Every real ``resemi``
command is a fresh process that pays for its lazily built tables, so no
pass may reuse another's interpreter.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

if __name__ == "__main__" and sys.argv[1:] == ["setup"]:
    import resemi.cli

    resemi.cli.build_parser()
    print(time.monotonic())
    sys.exit(0)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import resemi  # noqa: E402
from resemi import cli, sweep  # noqa: E402

from calibration import CalibratedClock  # noqa: E402  (the script directory is on sys.path)
from tracer import Tracer  # noqa: E402
from workloads import BLOCK, QueryStream, sweep_plans  # noqa: E402

# Tolerance for the traced run: the root span must cover the measured wall
# time to within this share, or part of the run escaped the trace.
TRACE_TOLERANCE = 0.01
PROBLEM_LISTS = ("mismatches", "implication_violations", "size_formula_violations",
                 "transversal_failures", "definition_failures", "alpha_family_failures", "skipped")
DIGEST_QUERIES = 200
_CHECK_LINE = re.compile(r"^(\w+): theorem=(True|False) \(.*\), oracle=(True|False)$")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_summary(label: str, rep) -> dict:
    """What the runner verifies and aggregates from one SweepReport."""
    bad = set()
    for lst in PROBLEM_LISTS:
        for entry in getattr(rep, lst):
            bad.add(json.dumps(entry.get("instance"), sort_keys=True))
    return {
        "label": label,
        "instances": rep.instances_run,
        "failed_instances": len(bad),
        "checks": sum(rep.semigroup_checks.values()) + sum(rep.element_checks.values()),
        "agreements_ok": (rep.semigroup_agreements == rep.semigroup_checks
                          and rep.element_agreements == rep.element_checks),
        "clean": rep.clean and not rep.skipped,
        "wall_s": rep.wall_time_s,
        "digest": _sha(rep.to_json(include_timing=False)),
    }


def run_sweep_pass(job: dict, tracer) -> dict:
    """One pass over the workload's plans, or over ``job["plans"]`` only."""
    only = job.get("plans")
    plans = [(label, sweep.SweepPlan(**kw)) for label, kw in
             sweep_plans(job["workload"], job["seed"], job["pass"]) if not only or label in only]
    latencies = []
    clock = None
    if tracer is None:
        # Per-instance latency, the sweep's unit of work, calibrated between
        # instances.
        run_instance = sweep._run_instance

        def timed_instance(*args):
            clock.tick()
            before = clock.factor
            t = time.perf_counter()
            try:
                return run_instance(*args)
            finally:
                dt = time.perf_counter() - t
                clock.tick()
                latencies.append(dt * (before + clock.factor) / 2 * 1e3)

        sweep._run_instance = timed_instance
        clock = CalibratedClock()
    reports = []
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
        for label, plan in plans:
            first = len(latencies)
            reports.append(_report_summary(label, sweep.run_sweep(plan)))
            reports[-1]["latencies_ms"] = latencies[first:]
    out = {"wall_s": time.perf_counter() - t0, "reports": reports, "latencies_ms": latencies,
           "instances": sum(r["instances"] for r in reports)}
    if clock is not None:
        clock.tick(force=True)
        out.update(wall_s=clock.raw_s, calibrated_s=clock.calibrated_s,
                   speed=statistics.median(clock.factors))
    return out


def check_query(q: dict, rc, out: str) -> tuple[str | None, int, int]:
    """(problem or None, oracle checks shown, sweep instances run)."""
    if rc != 0:
        return f"exit code {rc}", 0, 0
    cmd, fmt = q["command"], q["format"]
    if fmt == "json":
        data = json.loads(out)
        if cmd == "build":
            ok = data["size"] == q["expect_size"]
            return (None if ok else f"size {data['size']} != {q['expect_size']}"), 0, 0
        if cmd == "sweep":
            ok = (not any(data[k] for k in PROBLEM_LISTS)
                  and data["semigroup_agreements"] == data["semigroup_checks"]
                  and data["element_agreements"] == data["element_checks"])
            checks = sum(data["semigroup_checks"].values()) + sum(data["element_checks"].values())
            return (None if ok else "sweep report not clean"), checks, data["instances_run"]
        results = data["results"]
        ok = results and all(r["agree"] is True for r in results)
        return (None if ok else "theorem and oracle disagree"), len(results), 0
    lines = out.splitlines()
    if cmd == "build":
        ok = f"semigroup size: {q['expect_size']}" in lines
        return (None if ok else "wrong size line"), 0, 0
    matches = [_CHECK_LINE.match(line) for line in lines]
    ok = lines and all(m and m.group(2) == m.group(3) for m in matches)
    return (None if ok else "theorem and oracle disagree"), len(lines), 0


def _normalized(q: dict, out: str) -> str:
    if q["command"] == "sweep" and out.startswith("{"):
        data = json.loads(out)
        data.pop("wall_time_s", None)
        return json.dumps(data, sort_keys=True)
    return out


def run_query_loop(job: dict, tracer) -> dict:
    """Closed loop, one client: the next query is sent when the previous
    answer is back and checked.  Stops after ``queries`` queries, a whole
    number of blocks.  Untraced, latencies are calibrated; traced, they are raw."""
    stream = QueryStream(job["seed"])
    latencies, failures, blocks = [], [], []
    checks = instances = 0
    digest = hashlib.sha256()
    block_busy = 0.0
    clock = CalibratedClock() if tracer is None else None
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
        for n, q in enumerate(stream, 1):
            out, err = io.StringIO(), io.StringIO()
            if clock:
                clock.tick()
            before = clock.factor if clock else 1.0
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(q["argv"])
            except (Exception, SystemExit) as exc:  # a traceback or argparse exit is a failed query
                rc = repr(exc)
            dt = time.perf_counter() - t
            if clock:
                clock.tick()
                dt *= (before + clock.factor) / 2
            latencies.append(dt * 1e3)
            block_busy += dt
            try:
                problem, c, i = check_query(q, rc, out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                problem, c, i = f"unreadable output: {exc!r}", 0, 0
            checks += c
            instances += i
            if problem:
                failures.append({"argv": q["argv"], "problem": problem, "stderr": err.getvalue()[-500:]})
            if n <= DIGEST_QUERIES:
                digest.update(_normalized(q, out.getvalue()).encode())
            if n % len(BLOCK) == 0:
                blocks.append(block_busy)
                block_busy = 0.0
                if n >= job["queries"]:
                    break
    result = {"wall_s": time.perf_counter() - t0, "latencies_ms": latencies, "failures": failures,
              "checks": checks, "instances": instances, "block_s": blocks,
              "busy_s": sum(latencies) / 1e3,
              "digest": digest.hexdigest() if len(latencies) >= DIGEST_QUERIES else None}
    if clock:
        clock.tick(force=True)
        result.update(wall_s=clock.raw_s, speed=statistics.median(clock.factors))
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    if not os.path.abspath(resemi.__file__).startswith(SRC + os.sep):
        print(f"error: resemi imported from {resemi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = counts = None
    if job.get("trace_file"):
        import layers

        tracer = Tracer(f"{job['workload']}:{job['seed']}")
        counts = layers.install(tracer)
    run = run_query_loop if job["workload"] == "queries" else run_sweep_pass
    result = run(job, tracer)
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        root = [s for s in tracer.spans if s["parent"] == -1]
        root_ns = root[0]["end_ns"] - root[0]["start_ns"]
        totals = tracer.totals()
        metrics = layers.layer_metrics(totals, counts, result["instances"])
        result["trace"] = {
            "roots": len(root),
            "root_s": root_ns / 1e9,
            "self_sum_s": tracer.self_sum_ns() / 1e9,
            "self_sum_exact": tracer.self_sum_ns() == root_ns,
            "covers_wall": abs(root_ns / 1e9 - result["wall_s"]) <= TRACE_TOLERANCE * result["wall_s"],
            "metrics": metrics,
            "units": dict(layers.PER_LAYER),
        }
        counts_only = {k: v for k, v in metrics.items()
                       if k.endswith((".calls", ".products")) or k == "sweep.instances"}
        tracer.write(job["trace_file"], {"job": job, "counts": counts_only})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
