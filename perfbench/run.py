#!/usr/bin/env python3
"""Fleet benchmark for the news-on-demand negotiation broker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload metro --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package beside this file (release profile, into
$CARGO_TARGET_DIR, default `.bench_build`), then runs benchmark passes
until `--seconds` have elapsed:

- `--trace 0`: plain passes (tracing off), all in one fresh process.
  Reports the end-to-end metrics: each fleet's and each negotiation
  attempt's fastest time over the passes, the median set-up time, and
  the peak RSS of the first pass.
- `--trace 1`: traced passes, each in a fresh process. Reports the
  per-layer table as medians over the passes and keeps the last pass's
  spans.

Every pass checks its own outputs; the run also checks that every pass of
one seed produced the same outcome-log digest, and that the digest matches
the one recorded by earlier runs of the same source tree, workload, seed
and size. The last line of stdout is the result object; the lines before it
are a readable summary, the run metadata and the workload census. Each run
is also appended to `.perfbench/results.jsonl`, and the passes' stderr is
kept in `.perfbench/<workload>.stderr`.

See perfbench/README.md for the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"

# Sessions per pass of each workload, split into independent fleets by
# the benchmark binary. Why each one is in the benchmark,
# and the metrics with their units, are read from BENCHMARK.json.
SESSIONS = {"metro": 30_000, "observed": 8_000}

CENSUS = [
    "census.attempts",
    "census.retry_share",
    "census.refused_per_attempt.server",
    "census.refused_per_attempt.path_qos",
    "census.refused_per_attempt.network",
    "census.refused_per_attempt.other",
    "census.distinct_pairs",
    "census.peak_live_sessions",
    "census.log_len",
]

SIM = ["sim.admitted", "sim.degraded", "sim.starved", "sim.rejected", "sim.errored", "sim.retries"]

# A traced run makes at least this many passes, however long they take.
MIN_PASSES = 3
# One traced pass, or a plain process beyond its measuring period, may
# not run longer than this, s.
PASS_TIMEOUT_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    """stdout of a short command, or None when it cannot run."""
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def build():
    """Build the benchmark package; return the binary's path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def source_digest():
    """SHA-256 over the files the benchmark's binary is built from."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH_DIR / "Cargo.toml",
             BENCH_DIR / "Cargo.lock"]
    for base in (ROOT / "crates", BENCH_DIR / "src"):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            files += [Path(dirpath) / f for f in sorted(filenames)
                      if f.endswith(".rs") or f == "Cargo.toml"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def metadata(args, sessions, digest):
    rev = dirty = None
    if (ROOT / ".git").exists():
        rev = tool_output(["git", "rev-parse", "HEAD"])
        status = tool_output(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = None if status is None else bool(status)
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "source_digest": digest,
        "nproc": usable,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": tool_output(["rustc", "--version"]),
        "build_profile": "release (perfbench/Cargo.toml: debug = line-tables-only), workers 1",
        "workload": args.workload,
        "seed": args.seed,
        "sessions": sessions,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(binary, mode, args, sessions, stderr_file, extra, timeout):
    cmd = [str(binary), mode, "--workload", args.workload, "--seed", str(args.seed),
           "--sessions", str(sessions)] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=stderr_file,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} pass exceeded {timeout:.0f} s")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"{mode} pass printed nothing (exit code {r.returncode})")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{mode} pass printed no result: {lines[-1][:200]}")
    if r.returncode not in (0, 1):
        fail(f"{mode} pass exited with code {r.returncode}")
    return out


def median(passes, key):
    return statistics.median(p[key] for p in passes)


def check_digest(key, digest, problems):
    """Compare against earlier runs of the same tree, workload, seed, size."""
    path = OUT_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    seen = known.setdefault(key, digest)
    if seen != digest:
        problems.append(f"outcome-log digest {digest} differs from {seen} of an earlier run")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def load_spec():
    """BENCHMARK.json: (why by workload, end-to-end and per-layer metrics)."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return why, e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SESSIONS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    sessions = SESSIONS[args.workload]
    why, end_to_end, per_layer = load_spec()

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    src = source_digest()
    meta = metadata(args, sessions, src)
    mode = "traced" if args.trace else "plain"
    stderr_path = OUT_DIR / f"{args.workload}.stderr"
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None

    passes = []
    start = time.monotonic()
    with open(stderr_path, "w") as stderr_file:
        if args.trace:
            while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
                passes.append(run_pass(binary, mode, args, sessions, stderr_file,
                                       ["--spans-out", str(spans_path)], PASS_TIMEOUT_S))
        else:
            passes.append(run_pass(binary, mode, args, sessions, stderr_file,
                                   ["--seconds", str(args.seconds)],
                                   args.seconds + PASS_TIMEOUT_S))
    elapsed = time.monotonic() - start
    # A plain process reports how many passes it made.
    made = sum(p.get("passes", 1) for p in passes)

    problems = [f"pass {i}: {p}" for i, q in enumerate(passes) for p in q["problems"]]
    digests = sorted({p["sim.digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"passes of one seed produced different outcome logs: {digests}")
    check_digest(f"{src}:{args.workload}:{args.seed}:{sessions}", digests[0], problems)
    correct = not problems

    if args.trace:
        metrics = {name: {"value": median(passes, name), "unit": unit} for name, unit in per_layer}
        summary = {}
    else:
        metrics = {name: {"value": median(passes, name), "unit": unit} for name, unit in end_to_end}
        summary = {k: passes[0][k] for k in ["sessions_offered", "sessions_failed"] + SIM}
        for k in ["negotiation_p99_us", "negotiation_samples"]:
            summary[k] = passes[0][k]
    census = {k: passes[0][k] for k in CENSUS}
    offered = sum(p["sessions"] * p.get("passes", 1) for p in passes)
    # An operation is one session driven to a terminal fate. Refusals
    # (starved, rejected) are correct simulated outcomes, reported as
    # `sessions_failed`; an operation fails only when its negotiation
    # errors. A failed check makes `correct` false instead.
    failed = sum(p.get("sim.errored", 0) * p.get("passes", 1) for p in passes)

    record = {
        "meta": meta,
        "why": why[args.workload],
        "passes": made,
        "elapsed_s": round(elapsed, 3),
        "stderr_bytes": stderr_path.stat().st_size,
        "correct": correct,
        "problems": problems,
        "metrics": metrics,
        "summary": summary,
        "census": census,
        "digest": digests[0],
    }
    with open(OUT_DIR / "results.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload} ({why[args.workload]})")
    print(f"{made} {mode} passes of {sessions} sessions ({passes[0]['fleets']} fleets) "
          f"in {elapsed:.1f} s, "
          f"seed {args.seed}, outcome-log digest {digests[0]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for k, v in summary.items():
        print(f"  {k:<36} {v:>16}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("census " + json.dumps(census, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": offered, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
