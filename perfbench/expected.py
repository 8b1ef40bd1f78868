"""Frozen answers every op is checked against.

H2 values are the Schur multipliers of ``tests/oracles.py`` (``EXPECTED_H2``)
extended to D5, C10 and D6 (dihedral of odd degree and cyclic groups have
trivial multiplier, D6 has Z/2).  H1 is also recomputed per op by counting
in ``oracles.py``.  Block profiles are character degrees (for a trivial
class) or the unique profile of the nontrivial Klein class, and agree with
``tests/test_cli.py`` where it pins them.  The extension zoos list every
label ``classify_extension`` gives over the whole splitting-seed pool.
"""

from __future__ import annotations

import json

HOMOLOGY_GROUPS = ("klein", "C6", "S3", "D4", "Q8", "C2xC4", "C2^3", "D5", "C10", "C12", "D6")

H2 = {
    "klein": (2,), "C6": (), "S3": (), "D4": (2,), "Q8": (), "C2xC4": (2,), "C2^3": (2, 2, 2),
    "D5": (), "C10": (), "C12": (), "D6": (2,), "S4": (2,),
}

H1 = {
    "klein": (2, 2), "C6": (6,), "S3": (2,), "D4": (2, 2), "Q8": (2, 2), "C2xC4": (2, 4),
    "C2^3": (2, 2, 2), "D5": (2,), "C10": (10,), "C12": (12,), "D6": (2, 2),
}

TWISTED_PROFILE = {
    "S4": (1, 1, 2, 3, 3),
    "D4xC4": (1,) * 16 + (2,) * 4,
    "D6": (1, 1, 1, 1, 2, 2),
    "Q8": (1, 1, 1, 1, 2),
    "klein/paper-klein": (2,),
}

# original-label element whose cyclic subgroup is induced from
IMPRIMITIVITY_GENERATOR = {"D6": 2, "D5": 5, "S3": 1, "D4": 2}

IMPRIMITIVITY = {
    "D6": {"matches": True, "index": 4, "ambient_profile": [4, 4, 4], "compressed_profile": [1, 1, 1]},
    "D5": {"matches": True, "index": 5, "ambient_profile": [5, 5], "compressed_profile": [1, 1]},
    "S3": {"matches": True, "index": 3, "ambient_profile": [3, 3], "compressed_profile": [1, 1]},
    "D4": {"matches": True, "index": 4, "ambient_profile": [4, 4], "compressed_profile": [1, 1]},
}

STABILIZATION = {
    "C4": {"matches": True, "twisted_profile": [1, 1, 1, 1], "stabilized_profile": [4, 4, 4, 4]},
    "klein/paper-klein": {"matches": True, "twisted_profile": [2], "stabilized_profile": [8]},
    "S3": {"matches": True, "twisted_profile": [1, 1, 2], "stabilized_profile": [6, 6, 12]},
    "Q8/center": {"matches": True, "twisted_profile": [1, 1, 1, 1, 2],
                  "stabilized_profile": [4, 4, 4, 4, 8]},
}

EXTENSION_BASES = ("klein", "D4", "C2xC4", "C2^3", "Q8")
SPLITTINGS_PER_PASS = 4
SPLITTING_SEEDS = 400  # splitting seeds are drawn from range(SPLITTING_SEEDS)

EXTENSION_LABELS = {
    "klein": {"Q8", "D4(a)", "D4(b)", "D4(ab)"},
    "D4": {"dihedral(8)", "unclassified:6feee6c4d5a1298a", "unclassified:fbe91c000bb60530"},
    "C2xC4": {"unclassified:724218481d9e60be", "unclassified:9a51ff069f32cd4f",
              "unclassified:dd9b4b0ee0b94bb1"},
    "C2^3": {None},  # total order 64, above the classification cap
    "Q8": {"quaternion8"},
}

EXTENSION_FIBERS = {
    "klein": [[1, 1, 1, 1], [2]],
    "D4": [[1, 1, 1, 1, 2], [2, 2]],
    "C2xC4": [[1, 1, 1, 1, 1, 1, 1, 1], [2, 2]],
    "C2^3": [[1] * 8] + [[2, 2]] * 7,
    "Q8": [[1, 1, 1, 1, 2]],
}

# (strong, weak) class counts as invariant factors: Ext(H1, H2), Ext(H1, free part)
EXTENSION_CLASSES = {
    "klein": ((2, 2), ()),
    "D4": ((2, 2), ()),
    "C2xC4": ((2, 2), ()),
    "C2^3": ((2,) * 9, ()),
    "Q8": ((), ()),
}


# ---------------------------------------------------------------------------
# CLI: values pinned in tests/test_cli.py

CLI_SUBCOMMANDS = ("h2", "h1", "extend", "classify", "twist", "fibers", "crossed", "imprimitivity",
                   "stabilize", "hirsch", "bound", "verdict", "witness")


def pin_exact(want: str):
    return lambda out: None if out == want else f"stdout {out!r}, expected {want!r}"


def pin_json(want: dict):
    return lambda out: None if json.loads(out) == want else f"stdout {out!r}, expected {want!r}"


def pin_fields(want: dict):
    def check(out):
        doc = json.loads(out)
        got = {k: doc.get(k) for k in want}
        return None if got == want else f"fields {got!r}, expected {want!r}"

    return check


def pin_label(out):
    label = json.loads(out)["class"]
    return None if label in EXTENSION_LABELS["klein"] else f"class {label!r} not in the Klein zoo"


def pin_fibers(out):
    fibers = [f["blocks"] for f in json.loads(out)["fibers"]]
    return None if fibers == EXTENSION_FIBERS["klein"] else f"fibers {fibers!r}"


HIRSCH_DESCRIPTOR = ('{"kind":"ext","normal":{"kind":"free_abelian","rank":2},'
                     '"quotient":{"kind":"finite","order":5}}')

BOUND_REQUESTS = (
    (("bound", "--f", "2"), "485\n"),
    (("bound", "--f", "3"), "1417175\n"),
    (("bound", "--twisted", "1", "1"), "485\n"),
    (("bound", "--hw", "3", "9", "0"), "26\n"),
    (("bound", "--nilpotent", "1", "2"), "[3,9]\n"),
    (("bound", "--wreath-finite-k", "1"), "18\n"),
)

VERDICT_REQUESTS = (
    (("verdict", "--base", "Z", "--top", "Z"), "infinite"),
    (("verdict", "--base", "finite:2", "--top", "Z^3"), "finite"),
    (("verdict", "--base", "Zinv:2", "--top", "Z"), "out_of_hypotheses"),
    (("verdict", "--base", "finite:2", "--top", "Z", "--which", "dr"), "infinite"),
)

# requests inside the documented caps that do not finish under the deadline
CAP_REQUESTS = (
    (["h2", "--group", "symmetric:4"], pin_exact('{"h2":{"free_rank":0,"torsion":[2]}}\n')),
    (["imprimitivity", "--group", "symmetric:4", "--subgroup", "gen:1"],
     pin_fields({"matches": True})),
)
