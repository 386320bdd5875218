#!/usr/bin/env python3
"""perfbench: the ccov serve benchmark.

Builds `ccov` and the load generator from the sources around this
directory, drives the real `ccov serve` over stdio, TCP, HTTP and shm,
checks every response, and prints one JSON result as the last line of
standard output.

  python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py ... --record results.jsonl   # also append the result
  python3 perfbench/run.py --summary results.jsonl      # medians and spreads
  python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
  python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the server and the load generator."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no ccov sources in {ROOT}: cannot build the server")
    bdir = build_root() / "cmake"
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "--target", "ccov", "ccov_loadgen",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir


def cmake_cache(bdir, key):
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the git
    sha where the checkout is not a repository)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "tools", "perfbench"]:
        p = ROOT / top
        files = [p] if p.is_file() else sorted(x for x in p.rglob("*") if x.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(bdir):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version,
        "build_type": cmake_cache(bdir, "CMAKE_BUILD_TYPE"),
        "git_sha": git.stdout.strip() if git.returncode == 0 else "none",
        "source_sha256": source_digest(),
    }


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (have {', '.join(names)})")
    bdir = build()
    work = build_root() / f"work-{os.getpid()}"
    cmd = [str(bdir / "ccov_loadgen"), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", str(bdir / "ccov" / "tools" / "ccov"),
           "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"load generator exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"load generator failed (exit {proc.returncode})")
    report = json.loads(lines[-1])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        fail(f"load generator did not report {', '.join(missing)}")
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    detail = {k: v for k, v in report.items() if k not in result}
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  host=fingerprint(bdir),
                  all_metrics=report["metrics"])
    print(json.dumps(detail))
    if report["errors"]:
        print("\n".join(report["errors"]), file=sys.stderr)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result,
                                "host": detail["host"],
                                "steal": report["metrics"]["host.steal_ratio"]})
                    + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Summaries and comparisons over --record files
# ---------------------------------------------------------------------------

def read_records(path):
    """{(workload, metric): [values]} from a --record file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(m["value"])
    return out


def spread(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_specs():
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summary(path):
    specs = metric_specs()
    rows = read_records(path)
    print(f"{'workload':12} {'metric':28} {'n':>3} {'median':>14} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for (w, name), vals in sorted(rows.items()):
        bound = specs.get(name, {}).get("bound")
        s = spread(vals)
        verdict = ""
        if bound is not None:
            verdict = "ok" if s <= bound / 3 else ("within bound" if s <= bound else "TOO NOISY")
        print(f"{w:12} {name:28} {len(vals):>3} {statistics.median(vals):>14.6g} "
              f"{s:>8.3f} {bound if bound is not None else '-':>6}  {verdict}")
    return 0


def compare(old_path, new_path):
    """Per workload and metric: median delta against the metric's bound.
    A metric whose spread exceeds its bound on either side is unresolved
    unless every new run beats every old run."""
    specs = metric_specs()
    old, new = read_records(old_path), read_records(new_path)
    regressed = 0
    print(f"{'workload':12} {'metric':28} {'old':>12} {'new':>12} {'worse':>8} "
          f"{'bound':>6} {'spread':>13}  verdict")
    for key in sorted(set(old) & set(new)):
        w, name = key
        m = specs.get(name)
        if m is None:
            continue
        o, n = statistics.median(old[key]), statistics.median(new[key])
        lower = m["better"] == "lower"
        worse = ((n - o) if lower else (o - n)) / abs(o) if o else 0.0
        bound = m.get("bound")
        so, sn = spread(old[key]), spread(new[key])
        all_better = (max(new[key]) < min(old[key])) if lower else (min(new[key]) > max(old[key]))
        if bound is None:
            verdict = "(per layer)"
        elif max(so, sn) > bound and not all_better:
            verdict = "UNRESOLVED (spread > bound)"
        elif worse > bound:
            verdict = "REGRESSED"
            regressed += 1
        elif -worse > max(so, sn):
            verdict = "improved"
        else:
            verdict = "within bound"
        print(f"{w:12} {name:28} {o:>12.6g} {n:>12.6g} {worse:>+8.3f} "
              f"{bound if bound is not None else '-':>6} {so:>6.3f}/{sn:<6.3f}  {verdict}")
    return 1 if regressed else 0


def selftest():
    bdir = build()
    rc = subprocess.run([str(bdir / "ccov_loadgen"), "selftest"]).returncode
    # Spread and compare arithmetic on hand-made records.
    ok = abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 5.5 / 5.5) < 1e-9
    print(("ok   " if ok else "FAIL ") + "spread = IQR / median")
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append the result to this JSONL file")
    ap.add_argument("--summary", metavar="RECORDS")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.summary:
        return summary(args.summary)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
