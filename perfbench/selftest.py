#!/usr/bin/env python3
"""Self-test of the benchmark, run from a checkout root:

    python3 perfbench/selftest.py

1. Smoke: a few small ops of every workload pass their checks, untraced
   and traced; the traced run reports every per-layer metric of
   BENCHMARK.json and its self times cover the op wall time.
2. A corrupted expected value makes the matching op fail, so a fast but
   wrong answer cannot pass.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.
4. BENCHMARK.json names the end-to-end metrics run.py prints.

Exits 0 when all of it holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expected  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SMALL_OPS = {
    "homology": {"homology:klein", "homology:S3"},
    "algebra": {"twist:Q8", "twist:klein/paper-klein", "imprimitivity:S3"},
    "extensions": {"extension:klein", "count:klein"},
    "cli": {"cli:h1", "cli:classify", "cli:bound", "cli:witness"},
}

# (workload, op, table in expected.py, key, corrupted value)
CORRUPTIONS = (
    ("homology", "homology:klein", "H2", "klein", (3,)),
    ("algebra", "twist:Q8", "TWISTED_PROFILE", "Q8", (1, 1, 1, 1, 1, 1, 1, 1)),
    ("extensions", "extension:klein", "EXTENSION_FIBERS", "klein", [[2], [1, 1, 1, 1]]),
    ("cli", "cli:classify", "EXTENSION_LABELS", "klein", set()),
)


def small_ops(tk, workload, env, out_dir, names):
    """The first op of each named kind from one seeded pass."""
    picked = {}
    for op in worker.build_ops(tk, workload, 7, 1, env, out_dir):
        if op.name in names:
            picked.setdefault(op.name, op)
    return list(picked.values())


def main() -> int:
    problems: list[str] = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)
            print("FAIL", msg)

    env = worker.child_env()
    tk = worker.import_library()
    out_dir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    try:
        # 1. smoke, untraced and traced
        for workload, names in SMALL_OPS.items():
            records = worker.run_ops(small_ops(tk, workload, env, out_dir, names))["records"]
            expect(len(records) == len(names), f"{workload}: ran {len(records)} of {len(names)} ops")
            for r in records:
                expect(r["error"] is None, f"{workload} {r['op']}: {r['error']}")
            with spans.Tracer() as tracer:
                traced = worker.run_ops(small_ops(tk, workload, env, out_dir, names), tracer)
            layers = tracer.layer_metrics()
            layers.update(worker.cli_layer_metrics(traced["records"]))
            missing = {m["name"] for m in bench["per_layer"]} - set(layers)
            expect(not missing, f"{workload}: traced run lacks {sorted(missing)}")
            check = tracer.self_time_check()
            expect(check["ok"], f"{workload}: self times cover {check['coverage']:.3f} of op wall")
            expect(all(r["error"] is None for r in traced["records"]), f"{workload}: traced op failed")
        leftover = [f for f in (tk.homology.h2, tk.cli.h2, tk.staralg.normalize,
                                tk.staralg.StarAlgebra.__init__)
                    if hasattr(f, "__wrapped_original__")]
        expect(not leftover, f"tracer left wrappers installed: {leftover}")

        # 2. a corrupted expected value is caught
        for workload, name, table, key, bad in CORRUPTIONS:
            frozen = getattr(expected, table)
            good = frozen[key]
            frozen[key] = bad
            try:
                records = worker.run_ops(small_ops(tk, workload, env, out_dir, {name}))["records"]
            finally:
                frozen[key] = good
            expect(len(records) == 1 and records[0]["error"] is not None,
                   f"{workload} {name}: corrupted {table}[{key!r}] was not reported")

        # 3. a directory without the sources
        bare = os.path.join(out_dir, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "homology",
                               "--seed", "1", "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    # 4. metric names agree
    expect([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([w["name"] for w in bench["workloads"]] == list(run.DEFAULT_WORKLOADS),
           "BENCHMARK.json workloads differ from run.DEFAULT_WORKLOADS")

    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
