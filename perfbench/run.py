"""aktest benchmark: seeded gate workloads, checked outputs, optional trace.

Run from the repository root:

    python3 perfbench/run.py                          # every workload, trace off
    python3 perfbench/run.py --workload hist-equal-k16 --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --workload exact --trace 1   # per-layer metrics
    python3 perfbench/run.py --smoke                  # every workload at minimal size

A run sets the workload up (``setup_s`` is the median of several fresh
processes timed from spawn until their job list is built), then runs its
whole job list again and again in this one process, starting another pass
only while it fits in ``--seconds``. Every pass must reproduce the first
bit for bit. With ``--trace 1`` it runs one untraced and one traced pass
instead, checks that the two agree bit for bit, and reports per-layer self
times and counts (see tracing.py). Metric names and units come from
BENCHMARK.json. The last line of standard output is the result object;
the line before it holds the details (environment, digest, checks).
A copy of both, plus the spans of a traced pass, goes to ``.perfbench/``.

On ``exact``, which runs no tester, a "trial" is one pass over its job
list, so ``trial_s.p50`` is the median pass time, and each job counts as
one sample, so ``ns_per_sample`` is the mean nanoseconds per job. Its jobs
are mostly interpreter-bound runs of 0.02-0.3 s, and the median of those
moved by over a fifth between runs on a shared host; the pass, most of it
two ~5 s suites, holds steadier.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
CRITERION04_TRIALS = 100  # per cell, as the gate runs them
CRITERION04_CAP_S = 300.0


@dataclass
class PassRecord:
    seconds: float = 0.0
    job_seconds: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    correct: list = field(default_factory=list)
    samples: int = 0
    errors: list = field(default_factory=list)


def run_pass(jobs, tracer=None) -> PassRecord:
    record = PassRecord()
    gc.collect()
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.trial = job.job_id
        t0 = time.perf_counter()
        try:
            outcome = job.run(tracer)
        except Exception:  # a failed job is counted and reported, not fatal
            record.job_seconds.append(time.perf_counter() - t0)
            record.keys.append(None)
            record.correct.append(False)
            record.errors.append(f"{job.job_id}: {traceback.format_exc()}")
            continue
        record.job_seconds.append(time.perf_counter() - t0)
        record.keys.append(outcome.key)
        record.correct.append(outcome.correct)
        record.samples += outcome.samples
    record.seconds = time.perf_counter() - start
    return record


def measure(jobs, seconds: float) -> list[PassRecord]:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def probe_setup(workload: str, seed: int, smoke: bool) -> float:
    """Seconds from spawning a fresh interpreter until its jobs are built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    started = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_done"] - started


def digest(keys) -> str:
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()[:16]


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(ROOT)).encode())
            source.update(path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def layer_metrics(tracer, traced: PassRecord, plain: PassRecord, names) -> dict:
    values = dict.fromkeys(names, 0)
    self_times = tracer.self_times()
    for name, seconds in self_times.items():
        if name in values:
            values[name] = seconds
    counts = tracer.counts
    for name in names:
        if name in counts:
            values[name] = counts[name]
    spans = tracer.span_counts()
    values["oracle.bruteforce_calls"] = spans["oracle.bruteforce"]
    values["oracle.dp1d_calls"] = spans["oracle.dp1d"]
    if counts["covering.codes"]:
        values["covering.empty_frac"] = counts["covering.empty"] / counts["covering.codes"]
    values["trace.overhead"] = traced.seconds / plain.seconds
    values["trace.accounted_frac"] = sum(self_times.values()) / traced.seconds
    unknown = set(self_times) - set(names)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    return values


def run_workload(name: str, seed: int, seconds: float, traced: bool, smoke: bool, bench: dict) -> dict:
    from tracing import Tracer, patched
    from workloads import WORKLOADS, TesterCell

    spec = WORKLOADS[name]
    probes = [probe_setup(name, seed, smoke) for _ in range(1 if smoke else SETUP_PROBES)]
    jobs = spec.setup(seed, smoke)

    if traced:
        plain = run_pass(jobs)
        tracer = Tracer()
        with patched(tracer):
            traced_pass = run_pass(jobs, tracer)
        passes = [plain, traced_pass]
        agree = traced_pass.keys == plain.keys
    else:
        passes = measure(jobs, seconds)
        plain = passes[0]
        agree = all(p.keys == plain.keys for p in passes)

    attempted = sum(len(p.keys) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    correct_frac = sum(plain.correct) / len(jobs)
    timed = passes[:1] if traced else passes
    job_seconds = [s for p in timed for s in p.job_seconds]
    ok = failed == 0 and agree and correct_frac >= spec.floor

    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_metrics(tracer, traced_pass, plain, names)
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        values = {
            "wall_s": statistics.median(p.seconds for p in timed),
            "trial_s.p50": statistics.median(
                job_seconds if isinstance(spec, TesterCell) else [p.seconds for p in timed]
            ),
            "ns_per_sample": 1e9 * sum(job_seconds) / max(1, sum(p.samples for p in timed)),
            "setup_s": statistics.median(probes),
            "correct_frac": correct_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if set(values) != set(names):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")

    run_digest = digest(plain.keys)
    baseline_path = HERE / "baseline.json"
    reference = None
    if baseline_path.exists() and not smoke:
        known = json.loads(baseline_path.read_text()).get("digests", {}).get(name, {})
        if str(seed) in known:
            reference = known[str(seed)] == run_digest
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "smoke": smoke,
        "env": environment(seed),
        "jobs": len(jobs),
        "job_ids": [jobs[0].job_id, jobs[-1].job_id],
        "passes": len(passes),
        "digest": run_digest,
        "digest_matches_baseline": reference,
        "checks": {"rate_floor": correct_frac >= spec.floor, "bit_identical_passes": agree},
        "failed_frac": failed / attempted,
        "pass_s": [p.seconds for p in passes],
        "job_s": {
            job.job_id: statistics.median(times)
            for job, times in zip(jobs, zip(*(p.job_seconds for p in timed)))
        },
        "setup_probes_s": probes,
        "errors": [e for p in passes for e in p.errors],
    }
    if spec.criterion04:
        detail["criterion04_share_s"] = CRITERION04_TRIALS * statistics.fmean(job_seconds)
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}{'-smoke' if smoke else ''}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if traced:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    return {"detail": detail, "result": result}


def summary(runs: list[dict]) -> tuple[dict, dict]:
    """Detail and result lines for a run over several workloads."""
    metrics = {
        f"{r['detail']['workload']}.{m}": v for r in runs for m, v in r["result"]["metrics"].items()
    }
    shares = [r["detail"]["criterion04_share_s"] for r in runs if "criterion04_share_s" in r["detail"]]
    detail = {"workloads": [r["detail"]["workload"] for r in runs]}
    if len(shares) == 2:
        projected = sum(shares)
        metrics["criterion04.projected_s"] = {"value": projected, "unit": "s"}
        detail["criterion04"] = {
            "projected_s": projected,
            "cap_s": CRITERION04_CAP_S,
            "within_cap": projected < CRITERION04_CAP_S,
        }
    result = {
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0, help="0 runs the gate's own inputs")
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal job lists, one setup probe")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "aktest" / "__init__.py").is_file():
        print(f"aktest sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.probe_setup:
        WORKLOADS[args.workload].setup(args.seed, args.smoke)
        print(json.dumps({"setup_done": time.time()}))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else bench["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke, bench)
        if len(names) > 1:
            print(json.dumps(run["detail"]))
            print(json.dumps(run["result"]), flush=True)
        runs.append(run)
    if len(names) > 1:
        detail, result = summary(runs)
    else:
        detail, result = runs[0]["detail"], runs[0]["result"]
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
