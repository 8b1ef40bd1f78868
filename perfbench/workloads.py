"""The four workloads: seeded inputs, the ops that run on them, and checks.

Each ``build_*`` function takes the imported library, a ``random.Random`` seeded from
``--seed`` and the number of passes, builds every input up front (that is
part of set-up), and returns ``Op`` objects in the order they run.  A pass
runs every op kind of the workload once, in a seeded order; the seed also
picks relabelings, coboundary twists and splitting seeds.  The library
only ever receives the generated tables.

An op's ``run`` is what is timed.  ``check`` returns None for a correct
result and a message otherwise.  CLI ops also have a ``reference``: the
in-process ``cli.run`` of the same argv, which ``check`` compares against
and which the traced run times instead of the subprocess.
"""

from __future__ import annotations

import io
import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import expected
import oracles

# a CLI request that has not exited after this long is killed and failed
CLI_DEADLINE_S = 5.0
RSS_POLL_S = 0.02
COBOUNDARY_DENOMINATORS = (2, 3, 4, 6)


@dataclass
class Op:
    name: str  # "<kind>:<input>"
    run: Callable[[], Any]
    check: Callable[..., str | None]
    reference: Callable[[Any], Any] | None = None


class Corpus:
    """Base groups and their seeded relabelings, built through the library."""

    def __init__(self, tk, rng):
        self.tk = tk
        self.rng = rng
        g = tk.groups
        c2, c4 = g.cyclic(2), g.cyclic(4)
        self.bases = {
            "klein": g.klein(),
            "C4": c4,
            "C6": g.cyclic(6),
            "S3": g.symmetric(3),
            "D4": g.dihedral(4),
            "Q8": g.quaternion8(),
            "C2xC4": g.direct_product(c2, c4),
            "C2^3": g.direct_product(c2, g.klein()),
            "D5": g.dihedral(5),
            "C10": g.cyclic(10),
            "C12": g.cyclic(12),
            "D6": g.dihedral(6),
            "S4": g.symmetric(4),
            "D4xC4": g.direct_product(g.dihedral(4), c4),
        }

    def relabeled(self, key):
        """A fresh relabeling of a base group: (group, perm) with perm[old] = new."""
        base = self.bases[key].table
        m = len(base)
        perm = np.array([0] + self.rng.sample(range(1, m), m - 1), dtype=np.int64)
        table = np.empty_like(base)
        table[np.ix_(perm, perm)] = perm[base]
        return self.tk.groups.FiniteGroup(table, name=f"{key}~"), perm

    def twisted_cocycle(self, G, angles=None):
        """A cocycle cohomologous to ``angles`` (trivial when None) on G,
        moved by the coboundary of a seeded 1-cochain."""
        m = G.order
        tbl = G.table
        d = self.rng.choice(COBOUNDARY_DENOMINATORS)
        gamma = [Fraction(self.rng.randrange(d), d) for _ in range(m)]
        table = np.empty((m, m), dtype=object)
        for i in range(m):
            for j in range(m):
                base = angles[i][j] if angles is not None else Fraction(0)
                table[i, j] = (base + gamma[i] + gamma[j] - gamma[tbl[i, j]]) % 1
        return self.tk.cocycles.Cocycle2(G, table)

    def paper_klein_on(self, perm):
        """The shipped Klein bicharacter carried through a relabeling."""
        src = self.tk.cocycles.klein_bicharacter().angles
        out = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                out[perm[i]][perm[j]] = src[i, j]
        return out


def _shuffled_passes(rng, passes, make_pass):
    ops: list[Op] = []
    for _ in range(passes):
        batch = make_pass()
        rng.shuffle(batch)
        ops.extend(batch)
    return ops


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# homology: h1 and h2 of one relabeled table per op; intlin elimination dominates


def build_homology(tk, rng, passes):
    corpus = Corpus(tk, rng)
    hm = tk.homology

    def homology_op(key):
        G, _ = corpus.relabeled(key)
        table = G.table.tolist()

        def check(pair):
            one, two = pair
            counted = oracles.invariants_by_counting(oracles.abelianization_orders(table))
            return (_mismatch(f"free ranks of {key}", (one.free_rank, two.free_rank), (0, 0))
                    or _mismatch(f"H1({key}) vs counting", one.torsion, counted)
                    or _mismatch(f"H1({key}) vs frozen", one.torsion, expected.H1[key])
                    or _mismatch(f"H2({key})", two.torsion, expected.H2[key]))

        return Op(f"homology:{key}", lambda: (hm.h1(G), hm.h2(G)), check)

    return _shuffled_passes(rng, passes, lambda: [homology_op(k) for k in expected.HOMOLOGY_GROUPS])


# ---------------------------------------------------------------------------
# algebra: dense *-algebra builds and checks; intlin idle


def build_algebra(tk, rng, passes):
    corpus = Corpus(tk, rng)
    sa, g = tk.staralg, tk.groups

    def twisted(key, angles_of=None):
        G, perm = corpus.relabeled(key)
        omega = corpus.twisted_cocycle(G, angles_of(perm) if angles_of else None)
        table = G.table.tolist() if angles_of is None else None
        seed = rng.randrange(1000)

        def run():
            return sa.block_profile(sa.twisted_group_algebra(G, omega), seed=seed).blocks

        def check(blocks):
            want = expected.TWISTED_PROFILE[key if angles_of is None else f"{key}/paper-klein"]
            if table is not None and len(blocks) != oracles.conjugacy_class_count(table):
                return f"{key}: {len(blocks)} blocks for a trivial class, not the class count"
            return _mismatch(f"twisted profile of {key}", blocks, want)

        name = key if angles_of is None else f"{key}/paper-klein"
        return Op(f"twist:{name}", run, check)

    def crossed(key):
        G, _ = corpus.relabeled(key)
        seed = rng.randrange(1000)

        def run():
            system = sa.system_from_normal(G, g.center(G))
            return sa.block_profile(sa.crossed_product(system), seed=seed).blocks

        return Op(f"crossed:{key}", run,
                  lambda blocks: _mismatch(f"crossed profile of {key}", blocks,
                                           expected.TWISTED_PROFILE[key]))

    def imprimitivity(key):
        G, perm = corpus.relabeled(key)
        gen = int(perm[expected.IMPRIMITIVITY_GENERATOR[key]])
        seed = rng.randrange(1000)

        def run():
            S = g.generated_subgroup(G, [gen])
            H, _ = g.subgroup_as_group(S)
            system = sa.scalar_system(H, tk.cocycles.trivial_cocycle(H))
            return sa.verify_imprimitivity(system.algebra, S, system, seed=seed)

        def check(rep):
            got = {k: rep[k] for k in ("matches", "index", "ambient_profile", "compressed_profile")}
            return _mismatch(f"imprimitivity of {key}", got, expected.IMPRIMITIVITY[key])

        return Op(f"imprimitivity:{key}", run, check)

    def stabilization(key):
        G, perm = corpus.relabeled(key.split("/", 1)[0])
        seed = rng.randrange(1000)
        if key == "Q8/center":
            def make_system():
                return sa.system_from_normal(G, g.center(G))
        else:
            angles = corpus.paper_klein_on(perm) if key == "klein/paper-klein" else None
            omega = corpus.twisted_cocycle(G, angles)

            def make_system():
                return sa.scalar_system(G, omega)

        def check(rep):
            got = {k: rep[k] for k in ("matches", "twisted_profile", "stabilized_profile")}
            return _mismatch(f"stabilization of {key}", got, expected.STABILIZATION[key])

        return Op(f"stabilization:{key}", lambda: sa.verify_stabilization(make_system(), seed=seed), check)

    def one_pass():
        batch = [twisted(k) for k in ("S4", "D4xC4", "D6", "Q8")]
        batch.append(twisted("klein", corpus.paper_klein_on))
        batch += [crossed(k) for k in ("S4", "D4xC4")]
        batch += [imprimitivity(k) for k in ("D6", "D5", "S3", "D4")]
        batch += [stabilization(k) for k in ("C4", "klein/paper-klein", "S3", "Q8/center")]
        return batch

    return _shuffled_passes(rng, passes, one_pass)


# ---------------------------------------------------------------------------
# extensions: many small presentations, exact splittings, classification


def build_extensions(tk, rng, passes):
    corpus = Corpus(tk, rng)
    ex = tk.extensions

    def extension(key, G):
        seed = rng.randrange(expected.SPLITTING_SEEDS)

        def run():
            ext = ex.sample_extension(G, seed=seed)
            label = ex.classify_extension(ext).label if ext.total.order <= ex.CLASSIFY_CAP else None
            return label, ex.extension_report(ext, seed=seed)

        def check(result):
            label, rep = result
            if label not in expected.EXTENSION_LABELS[key]:
                return f"extension of {key} at splitting seed {seed}: label {label!r} not in the zoo"
            fibers = [f["blocks"] for f in rep["fibers"]]
            return (_mismatch(f"report label of {key}", rep["class"], label)
                    or _mismatch(f"fibers of {key}", fibers, expected.EXTENSION_FIBERS[key])
                    or _mismatch(f"H2 of {key}", rep["h2"]["torsion"], list(expected.H2[key])))

        return Op(f"extension:{key}", run, check)

    def count(key, G):
        def check(pair):
            got = tuple(inv.torsion for inv in pair)
            return _mismatch(f"extension classes of {key}", got, expected.EXTENSION_CLASSES[key])

        return Op(f"count:{key}", lambda: ex.count_extension_classes(G), check)

    def one_pass():
        batch = []
        for key in expected.EXTENSION_BASES:
            G = corpus.bases[key]
            batch += [extension(key, G) for _ in range(expected.SPLITTINGS_PER_PASS)]
            batch.append(count(key, G))
        return batch

    return _shuffled_passes(rng, passes, one_pass)


# ---------------------------------------------------------------------------
# cli: one subprocess per request, compared with the in-process cli.run


@dataclass
class Request:
    returncode: int | None
    stdout: bytes
    stderr: bytes
    rss_mb: float
    timed_out: bool


def _high_water_mb(pid) -> float | None:
    """VmHWM of a live process.  A child's ru_maxrss from wait4 would not do:
    Linux carries the forking parent's peak into the child at exec."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def run_request(argv, env) -> Request:
    """Run ``python -m twistkit.cli argv``; its peak RSS is polled while it runs
    and read again whenever it writes (its JSON comes last)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "twistkit.cli", *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    rss = 0.0
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = CLI_DEADLINE_S - (time.perf_counter() - t0)
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            events = sel.select(timeout=min(left, RSS_POLL_S))
            rss = max(rss, _high_water_mb(proc.pid) or 0.0)
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    status = os.waitpid(proc.pid, 0)[1]
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Request(None if timed_out else proc.returncode, b"".join(chunks[proc.stdout]),
                   b"".join(chunks[proc.stderr]), rss, timed_out)


def in_process(tk, argv) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    code = tk.cli.run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue().encode()


class CliInputs:
    """Group and cocycle documents written as @file.json inputs."""

    def __init__(self, tk, rng, directory):
        self.corpus = Corpus(tk, rng)
        self.dir = directory
        self.count = 0

    def _write(self, doc) -> str:
        self.count += 1
        path = os.path.join(self.dir, f"in{self.count}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return "@" + path

    def group(self, key):
        G, perm = self.corpus.relabeled(key)
        return G, perm, self._write(G.to_json())

    def cocycle(self, G, angles=None):
        return self._write(self.corpus.twisted_cocycle(G, angles).to_json())


def cli_requests(tk, rng, inputs):
    """One request per subcommand, with seeded inputs: [(argv, pinned check)]."""
    seed = str(rng.randrange(1000))
    reqs = []
    _, _, d4 = inputs.group("D4")
    reqs.append((["h2", "--group", d4], expected.pin_exact('{"h2":{"free_rank":0,"torsion":[2]}}\n')))
    _, _, c12 = inputs.group("C12")
    reqs.append((["h1", "--group", c12], expected.pin_json({"h1": {"free_rank": 0, "torsion": [12]}})))
    K, perm, klein = inputs.group("klein")
    reqs.append((["extend", "--group", klein, "--seed", seed],
                 expected.pin_fields({"order": 8, "abelian": False})))
    reqs.append((["classify", "--group", klein, "--seed", seed], expected.pin_label))
    paper = inputs.cocycle(K, inputs.corpus.paper_klein_on(perm))
    reqs.append((["twist", "--group", klein, "--cocycle", paper, "--blocks", "--seed", seed],
                 expected.pin_exact('{"blocks":[2]}\n')))
    reqs.append((["fibers", "--group", klein, "--seed", seed], expected.pin_fibers))
    _, _, d4b = inputs.group("D4")
    reqs.append((["crossed", "--group", d4b, "--normal", "center", "--seed", seed],
                 expected.pin_fields({"blocks": [1, 1, 1, 1, 2], "dim": 8})))
    gen = str(int(perm[1]))
    reqs.append((["imprimitivity", "--group", klein, "--subgroup", f"gen:{gen}", "--seed", seed],
                 expected.pin_fields({"matches": True, "index": 2})))
    paper2 = inputs.cocycle(K, inputs.corpus.paper_klein_on(perm))
    reqs.append((["stabilize", "--group", klein, "--cocycle", paper2, "--seed", seed],
                 expected.pin_fields({"matches": True, "twisted_profile": [2], "stabilized_profile": [8]})))
    reqs.append((["hirsch", "--descriptor", expected.HIRSCH_DESCRIPTOR],
                 expected.pin_fields({"hirsch": 2, "cardinality": "infinite"})))
    argv, out = rng.choice(expected.BOUND_REQUESTS)
    reqs.append((list(argv), expected.pin_exact(out)))
    argv, verdict = rng.choice(expected.VERDICT_REQUESTS)
    reqs.append((list(argv), expected.pin_json({"verdict": verdict})))
    reqs.append((["witness", "--group", "Z", "--n", "5", "--radius", "20", "--seed", seed],
                 expected.pin_fields({"passed": True, "checked": 40})))
    return reqs


def _cli_op(tk, argv, pinned, env):
    def failed(req):
        if req.timed_out:
            return f"missed the {CLI_DEADLINE_S:g} s deadline"
        if req.returncode != 0:
            return f"exit code {req.returncode}: {req.stderr.decode(errors='replace')[-300:]}"
        return None

    def reference(req):
        return None if failed(req) else in_process(tk, argv)

    def check(req, ref):
        if failed(req):
            return failed(req)
        code, out = ref
        if code != 0 or out != req.stdout:
            return f"stdout differs from in-process cli.run (exit {code})"
        return pinned(req.stdout.decode())

    return Op(f"cli:{argv[0]}", lambda: run_request(argv, env), check, reference)


def build_cli(tk, rng, passes, env, directory):
    inputs = CliInputs(tk, rng, directory)

    def one_pass():
        return [_cli_op(tk, argv, pinned, env) for argv, pinned in cli_requests(tk, rng, inputs)]

    return _shuffled_passes(rng, passes, one_pass)


def build_caps(tk, rng, passes, env):
    """Requests inside the documented caps that do not finish in time.

    They fail by design (missed deadline) and are counted, never dropped."""
    def one_pass():
        return [_cli_op(tk, argv, pinned, env) for argv, pinned in expected.CAP_REQUESTS]

    return _shuffled_passes(rng, passes, one_pass)
