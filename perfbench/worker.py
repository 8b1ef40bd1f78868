"""One benchmark client: set up, announce readiness, run the ops, report.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed N
--passes P --trace 0|1 --out DIR [--setup-only]``.  It imports twistkit,
builds the seeded corpus and makes one warm-up call per layer, then prints
``READY`` so the parent can time set-up from process start.  It then runs
the ops one after another (a closed loop with one client), checks every
result, and prints one JSON line with the raw results.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_library():
    sys.path.insert(0, SRC)
    import twistkit  # noqa: F401
    from twistkit import (bounds, cli, cocycles, descriptors, extensions, groups, homology,  # noqa: F401
                          intlin, staralg, witness)

    return sys.modules["twistkit"]


def warm_up(tk, workload, env):
    """One call per layer, so first-call costs land in set-up."""
    g = tk.groups
    tk.intlin.smith_normal_form([[2, 0], [0, 3]])
    tk.homology.h2(g.klein())
    g.is_isomorphic_small(g.klein(), g.klein())
    tk.cocycles.normalize(tk.cocycles.klein_bicharacter())
    tk.extensions.classify_extension(tk.extensions.sample_extension(g.klein(), seed=0))
    S4 = g.symmetric(4)
    tk.staralg.block_profile(tk.staralg.twisted_group_algebra(S4, tk.cocycles.trivial_cocycle(S4)))
    tk.bounds.f_bound(2)
    tk.descriptors.hirsch_length(tk.descriptors.FreeAbelian(2))
    oracle = tk.witness.ORACLES["Z"]
    tk.witness.verify_witness(oracle, tk.witness.finite_subset_witness(oracle, 3), 4)
    if workload in ("cli", "caps"):
        import workloads

        workloads.run_request(["bound", "--f", "1"], env)


def blas_threads():
    """Threads of the BLAS numpy loaded, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return {"library": os.path.basename(path), "threads": int(fn())}
    return None


def environment(tk) -> dict:
    import numpy

    return {
        "backend": tk.intlin.backend_name(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_threads(),
    }


def build_ops(tk, workload, seed, passes, env, out_dir):
    import workloads

    rng = random.Random(seed)
    if workload == "cli":
        return workloads.build_cli(tk, rng, passes, env, out_dir)
    if workload == "caps":
        return workloads.build_caps(tk, rng, passes, env)
    return getattr(workloads, f"build_{workload}")(tk, rng, passes)


def run_ops(ops, tracer=None) -> dict:
    """Run every op in order; time ``run`` only, then reference and check."""
    from contextlib import nullcontext

    records = []
    for i, op in enumerate(ops):
        result, ref, error = None, None, None
        traced_run = tracer is not None and op.reference is None
        t0 = time.perf_counter()
        try:
            with tracer.op(i) if traced_run else nullcontext():
                result = op.run()
        except Exception as exc:  # a failed op is data, not the end of the run
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        record = {"op": op.name, "latency_s": latency}
        if hasattr(result, "rss_mb"):
            record["rss_mb"] = result.rss_mb
        if error is None and op.reference is not None:
            t1 = time.perf_counter()
            try:
                with tracer.op(i) if tracer is not None else nullcontext():
                    ref = op.reference(result)
            except Exception as exc:
                error = f"reference {type(exc).__name__}: {exc}"
            record["reference_s"] = time.perf_counter() - t1
        if error is None:
            try:
                error = op.check(result, ref) if op.reference is not None else op.check(result)
            except Exception as exc:
                error = f"check {type(exc).__name__}: {exc}"
        record["error"] = error
        records.append(record)
    return {"records": records}


def cli_layer_metrics(records) -> dict:
    """cli.startup_s and cli.<subcommand>.process_s from subprocess walls."""
    import expected

    out = {"cli.startup_s": 0.0}
    for sub in expected.CLI_SUBCOMMANDS:
        out[f"cli.{sub}.process_s"] = 0.0
    by_sub: dict[str, list[float]] = {}
    startup = []
    for r in records:
        if not r["op"].startswith("cli:") or r["error"] is not None:
            continue
        by_sub.setdefault(r["op"].split(":", 1)[1], []).append(r["latency_s"])
        startup.append(r["latency_s"] - r["reference_s"])
    for sub, walls in by_sub.items():
        out[f"cli.{sub}.process_s"] = statistics.median(walls)
    if startup:
        out["cli.startup_s"] = statistics.median(startup)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for inputs and span files")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    env = child_env()
    tk = import_library()
    ops = build_ops(tk, args.workload, args.seed, args.passes, env, args.out)
    warm_up(tk, args.workload, env)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import spans

        with spans.Tracer() as tracer:
            doc = run_ops(ops, tracer)
        doc["layers"] = tracer.layer_metrics()
        doc["layers"].update(cli_layer_metrics(doc["records"]))
        doc["trace_check"] = tracer.self_time_check()
        span_file = os.path.join(args.out, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(span_file)
        doc["span_file"] = os.path.relpath(span_file, ROOT)
    else:
        doc = run_ops(ops)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    doc["peak_rss_mb"] = usage.ru_maxrss / 1024
    doc["env"] = environment(tk)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
