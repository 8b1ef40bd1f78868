#!/usr/bin/env python3
"""Layered end-to-end benchmark of twistkit.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27

Workloads (see README.md): ``homology``, ``algebra``, ``extensions`` and
``cli``, plus ``caps``, two CLI requests inside the documented caps that
miss their deadline by design and are therefore not a default workload.

Each run is a closed loop with one client.  ``--seconds`` sizes the run: it
runs as many whole passes over the workload's ops as fit in that many
seconds at the pass cost measured on the baseline (``NOMINAL_PASS_S``), so
every commit measured with the same settings runs the same ops and the
percentiles compare like with like.  Set-up is timed in ``SETUP_REPEATS``
fresh worker processes (the last one goes on to run the ops) and reported
as the median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
line before it is a JSON report: environment, tail percentile and sample
count, failed-op ratio, failures, the self-time check and the span file.
``--workload all`` runs every workload untraced and traced and prints all
six end-to-end metrics and the tracing overhead per workload.

Exit status is 0 when the run completed (wrong answers are reported as
failed ops), and nonzero without a result line when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

# wall seconds one pass (ops and their checks) took on the baseline:
# 2 CPUs, Python 3.11.7, numpy 2.4.6, backend numpy-object
NOMINAL_PASS_S = {"homology": 12.5, "algebra": 9.0, "extensions": 5.5, "cli": 5.5, "caps": 20.0}
DEFAULT_WORKLOADS = ("homology", "algebra", "extensions", "cli")
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    pass


def passes_for(workload: str, seconds: int) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def _worker(workload, seed, passes, trace, out_dir, setup_only, deadline):
    """Start a worker; return (set-up seconds, remaining stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes), "--trace", str(trace), "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    # its own process group, so a timeout also ends a CLI request it started
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    watchdog = threading.Timer(left, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker for {workload} exited with code {code} before reporting")
    return setup_s, rest


def cpu_times():
    """(steal, total) jiffies of the machine, or None where /proc/stat is absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def measure(workload, seed, seconds, trace):
    """Run one workload: set-up samples plus one measured worker; returns its doc."""
    if not os.path.isdir(os.path.join(ROOT, "src", "twistkit")):
        raise BenchError(f"no twistkit sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    passes = passes_for(workload, seconds)
    out_dir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        samples = [_worker(workload, seed, passes, trace, out_dir, True, deadline)[0]
                   for _ in range(SETUP_REPEATS - 1)]
        before = cpu_times()
        setup_s, rest = _worker(workload, seed, passes, trace, out_dir, False, deadline)
        after = cpu_times()
        samples.append(setup_s)
        lines = [ln for ln in rest.splitlines() if ln.strip()]
        if not lines:
            raise BenchError("worker printed no result")
        doc = json.loads(lines[-1])
    finally:
        for name in os.listdir(out_dir):
            if name.startswith("in") and name.endswith(".json"):
                os.remove(os.path.join(out_dir, name))
        if not os.listdir(out_dir):
            os.rmdir(out_dir)
    doc.update(workload=workload, seed=seed, passes=passes, trace=trace, setup_samples_s=samples)
    if before and after and after[1] > before[1]:
        # time the hypervisor gave to others while this run wanted the CPU
        doc["env"]["cpu_steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return doc


def end_to_end(doc) -> dict:
    records = doc["records"]
    ok = [r for r in records if r["error"] is None]
    lat = sorted(r["latency_s"] for r in ok)
    busy = sum(r["latency_s"] for r in records)
    n = len(lat)
    idx = max(0, n - 1 - TAIL_BEYOND)
    child_rss = [r["rss_mb"] for r in records if "rss_mb" in r]
    return {
        "ops_per_s": len(ok) / busy if busy > 0 else 0.0,
        "latency_p50_s": statistics.median(lat) if lat else 0.0,
        "latency_tail_s": lat[idx] if lat else 0.0,
        "setup_s": statistics.median(doc["setup_samples_s"]),
        "peak_rss_mb": max(child_rss) if child_rss else doc["peak_rss_mb"],
        "failed_ops": (len(records) - len(ok)) / len(records) if records else 0.0,
        "tail": {"percentile": 100.0 * (idx + 1) / n if n else 0.0, "samples": n,
                 "beyond": n - 1 - idx if n else 0},
    }


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def report(doc, e2e) -> dict:
    records = doc["records"]
    failures = [{"op": r["op"], "error": r["error"]} for r in records if r["error"] is not None]
    rep = {
        "workload": doc["workload"], "seed": doc["seed"], "passes": doc["passes"], "trace": doc["trace"],
        "env": doc["env"], "end_to_end": e2e, "setup_samples_s": doc["setup_samples_s"],
        "attempted": len(records), "failed": len(failures), "failures": failures[:10],
    }
    by_op: dict[str, list[float]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(round(r["latency_s"], 4))
    rep["latency_by_op_s"] = by_op
    sub_rss: dict[str, float] = {}
    for r in records:
        if "rss_mb" in r:
            sub = r["op"].split(":", 1)[1]
            sub_rss[sub] = max(sub_rss.get(sub, 0.0), r["rss_mb"])
    if sub_rss:
        rep["peak_rss_mb_by_subcommand"] = sub_rss
    if doc["trace"]:
        rep["trace_check"] = doc["trace_check"]
        rep["span_file"] = doc["span_file"]
        rep["staralg.basis_bytes"] = "computed from StarAlgebra.basis.nbytes"
    return rep


def result_line(doc, e2e) -> dict:
    records = doc["records"]
    failed = sum(1 for r in records if r["error"] is not None)
    if doc["trace"]:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in doc["layers"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def run_all(seed, seconds):
    """Every workload, untraced then traced; all six metrics and the overhead."""
    summary = {}
    names = list(END_TO_END) + ["failed_ops"]
    print(f"{'workload':11s} " + " ".join(f"{n:>15s}" for n in names))
    for workload in DEFAULT_WORKLOADS + ("caps",):
        plain = measure(workload, seed, seconds, 0)
        traced = measure(workload, seed, seconds, 1)
        e2e, e2e_t = end_to_end(plain), end_to_end(traced)
        overhead = {n: e2e_t[n] - e2e[n] for n in names}
        summary[workload] = {"end_to_end": {n: e2e[n] for n in names}, "tail": e2e["tail"],
                             "trace_overhead": overhead, "trace_check": traced["trace_check"],
                             "failures": report(plain, e2e)["failures"]}
        print(f"{workload:11s} " + " ".join(f"{e2e[n]:15.6g}" for n in names))
        print(f"{'  traced-Δ':11s} " + " ".join(f"{overhead[n]:+15.3g}" for n in names))
    print("units: " + ", ".join(f"{k} {u}" for k, u in END_TO_END.items()) + ", failed_ops ratio")
    print(json.dumps({"env": plain["env"], "seed": seed, "seconds": seconds, "workloads": summary}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=DEFAULT_WORKLOADS + ("caps", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args.seed, args.seconds)
            return 0
        doc = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    e2e = end_to_end(doc)
    print(json.dumps({"report": report(doc, e2e)}))
    print(json.dumps(result_line(doc, e2e)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
