"""CLI dispatch, canonical output, exit codes, determinism."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import twistkit
from twistkit import cli, staralg
from twistkit import descriptors as dsc
from twistkit.cli import load_descriptor, load_group, load_subgroup, run
from twistkit.descriptors import Finite, FreeAbelian, Zinv
from twistkit.errors import ResourceCapError
from twistkit.extensions import abelian_group
from twistkit.groups import FiniteGroup, cyclic, klein, quaternion8


def _child_env():
    # the child imports the same twistkit as this process
    env = dict(os.environ)
    src = str(Path(twistkit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestDocumentedExamples:
    def test_h2_klein(self):
        code, out, _ = invoke("h2", "--group", "klein")
        assert code == 0
        assert out == '{"h2":{"free_rank":0,"torsion":[2]}}\n'

    def test_bound_f2(self):
        code, out, _ = invoke("bound", "--f", "2")
        assert code == 0
        assert out == "485\n"

    def test_twist_klein_blocks(self):
        code, out, _ = invoke("twist", "--group", "klein", "--cocycle", "paper-klein", "--blocks")
        assert code == 0
        assert out == '{"blocks":[2]}\n'


class TestOutputs:
    def test_h1_cyclic(self):
        code, out, _ = invoke("h1", "--group", "cyclic:12")
        assert code == 0
        assert json.loads(out) == {"h1": {"free_rank": 0, "torsion": [12]}}

    def test_extend_and_classify(self):
        code, out, _ = invoke("extend", "--group", "klein", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 8 and doc["abelian"] is False
        code, out, _ = invoke("classify", "--group", "klein", "--seed", "7")
        assert code == 0
        assert json.loads(out)["class"] in {"Q8", "D4(a)", "D4(b)", "D4(ab)"}

    def test_fibers(self):
        code, out, _ = invoke("fibers", "--group", "klein")
        assert code == 0
        doc = json.loads(out)
        assert [f["blocks"] for f in doc["fibers"]] == [[1, 1, 1, 1], [2]]

    def test_twist_without_blocks(self):
        code, out, _ = invoke("twist", "--group", "cyclic:6", "--cocycle", "trivial")
        assert code == 0
        assert json.loads(out) == {"dim": 6}

    def test_crossed_center(self):
        code, out, _ = invoke("crossed", "--group", "dihedral:4", "--normal", "center")
        assert code == 0
        doc = json.loads(out)
        assert doc["blocks"] == [1, 1, 1, 1, 2] and doc["dim"] == 8

    def test_imprimitivity(self):
        code, out, _ = invoke("imprimitivity", "--group", "klein", "--subgroup", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["matches"] is True and doc["index"] == 2

    def test_stabilize(self):
        code, out, _ = invoke("stabilize", "--group", "klein", "--cocycle", "paper-klein")
        assert code == 0
        doc = json.loads(out)
        assert doc["matches"] is True
        assert doc["twisted_profile"] == [2] and doc["stabilized_profile"] == [8]

    def test_hirsch_inline_descriptor(self):
        code, out, err = invoke(
            "hirsch",
            "--descriptor",
            '{"kind":"ext","normal":{"kind":"free_abelian","rank":2},'
            '"quotient":{"kind":"finite","order":5}}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hirsch"] == 2 and doc["cardinality"] == "infinite"
        assert "extension" in err

    def test_bound_variants(self):
        assert invoke("bound", "--twisted", "1", "1")[1] == "485\n"
        assert invoke("bound", "--hw", "3", "9", "0")[1] == "26\n"
        assert invoke("bound", "--nilpotent", "1", "2")[1] == "[3,9]\n"
        assert invoke("bound", "--wreath-finite-k", "1")[1] == "18\n"

    def test_verdicts(self):
        assert json.loads(invoke("verdict", "--base", "Z", "--top", "Z")[1]) == {
            "verdict": "infinite"
        }
        code, out, _ = invoke("verdict", "--base", "finite:2", "--top", "Z^3")
        assert json.loads(out) == {"verdict": "finite"}
        code, out, _ = invoke("verdict", "--base", "Zinv:2", "--top", "Z")
        assert json.loads(out) == {"verdict": "out_of_hypotheses"}
        code, out, _ = invoke("verdict", "--base", "finite:2", "--top", "Z", "--which", "dr")
        assert json.loads(out) == {"verdict": "infinite"}

    def test_witness(self):
        code, out, _ = invoke("witness", "--group", "Z", "--n", "5", "--radius", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["checked"] == 40


class TestLoading:
    def test_group_file(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(quaternion8().to_json()))
        G = load_group(f"@{path}")
        assert G.order == 8
        code, out, _ = invoke("h2", "--group", f"@{path}")
        assert code == 0
        assert json.loads(out) == {"h2": {"free_rank": 0, "torsion": []}}

    def test_subgroup_forms(self):
        G = quaternion8()
        assert load_subgroup("center", G).order == 2
        assert load_subgroup("gen:1", G).order == 4
        K = klein()
        assert load_subgroup("0,1", K).members == (0, 1)

    def test_descriptor_forms(self, tmp_path):
        assert load_descriptor("Z") == FreeAbelian(1)
        assert load_descriptor("Z^4") == FreeAbelian(4)
        assert load_descriptor("finite:9") == Finite(9)
        assert load_descriptor("trivial") == Finite(1)
        assert load_descriptor("Zinv:3") == Zinv(3)
        path = tmp_path / "d.json"
        path.write_text('{"kind":"finite","order":3}')
        assert load_descriptor(f"@{path}") == Finite(3)
        with pytest.raises(ValueError):
            load_descriptor("whatever")


class TestErrors:
    def test_unknown_group_is_domain_error(self):
        code, out, err = invoke("h2", "--group", "nosuch")
        assert code == 1 and out == "" and "nosuch" in err

    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = invoke("frobnicate")
        assert code == 2

    def test_missing_required_flag_is_usage_error(self):
        code, _, _ = invoke("h2")
        assert code == 2

    def test_conflicting_bound_flags(self):
        code, _, err = invoke("bound", "--f", "2", "--hw", "1", "1", "1")
        assert code == 1 and "exactly one" in err

    def test_bound_too_many_digits_is_domain_error(self):
        # f(93) has more digits than Python converts to a string by default
        for argv in (("--f", "100"), ("--f", "93"), ("--twisted", "50", "43")):
            code, out, err = invoke("bound", *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "92" in err
        code, out, _ = invoke("bound", "--twisted", "46", "46")
        assert code == 0 and len(out) == 4227

    def test_bound_too_many_digits_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twistkit.cli", "bound", "--f", "100"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")

    def test_huge_builtin_parameter_no_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twistkit.cli", "h1", "--group", "cyclic:1000000000000"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        # h1's bar-complex cap reads the order off the string, before the group builder's own cap
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: bar complex capped at order 24, got 1000000000000\n"

    def test_descriptor_missing_field_is_domain_error(self):
        code, out, err = invoke("hirsch", "--descriptor", '{"kind":"finite"}')
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'order'" in err

    def test_internal_error_exit_3(self, monkeypatch):
        def broken(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "_cmd_h1", broken)
        code, out, err = invoke("h1", "--group", "klein")
        assert code == 3 and out == ""
        assert err == "internal error: KeyError: 'missing'\n"
        assert "Traceback" not in err

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = invoke("h2", "--group", f"@{path}")
        assert code == 1 and "error" in err

    def test_bad_cocycle_field_pointer(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"angles": [["0", "x"], ["0", "0"]]}))
        code, _, err = invoke("twist", "--group", "cyclic:2", "--cocycle", f"@{path}", "--blocks")
        assert code == 1 and "angles[0][1]" in err

    def test_wrong_group_for_builtin_cocycle(self):
        code, _, err = invoke("twist", "--group", "cyclic:4", "--cocycle", "paper-klein")
        assert code == 1 and "klein" in err


class TestExplicitMembers:
    """Comma lists of element indices are checked as given; the first failing
    member (its inverse, then its products in member order) is named."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("crossed", "--group", "symmetric:3", "--normal", "1,3"), "subgroup not closed under product at (1, 3)"),
            (("crossed", "--group", "dihedral:4", "--normal", "1"), "subgroup not closed under inverse at 1"),
            (("crossed", "--group", "dihedral:4", "--normal", "2,4"), "subgroup not closed under product at (2, 4)"),
            (("crossed", "--group", "quaternion8", "--normal", "1"), "subgroup not closed under inverse at 1"),
            (("imprimitivity", "--group", "dihedral:3", "--subgroup", "1,3"), "subgroup not closed under inverse at 1"),
            (("imprimitivity", "--group", "symmetric:4", "--subgroup", "1,2,5"), "subgroup not closed under product at (1, 2)"),
            (("imprimitivity", "--group", "klein", "--subgroup", "1,9"), "subgroup member out of range"),
            (("crossed", "--group", "symmetric:3", "--normal", "1"), "subgroup is not normal"),
            (("crossed", "--group", "dihedral:4", "--normal", "4"), "subgroup is not normal"),
        ],
    )
    def test_rejected_with_first_witness(self, argv, message):
        assert invoke(*argv) == (1, "", f"error: {message}\n")

    def test_closed_lists_accepted(self):
        code, out, _ = invoke("crossed", "--group", "symmetric:3", "--normal", "3,4")
        assert (code, out) == (0, '{"blocks":[1,1,2],"dim":6}\n')
        code, out, _ = invoke("imprimitivity", "--group", "dihedral:3", "--subgroup", "3")
        assert code == 0 and json.loads(out)["compressed_profile"] == [1, 1]


class TestCapsAndHoles:
    @pytest.mark.parametrize("radius", ["0", "-3"])
    def test_witness_radius_below_one_is_domain_error(self, radius):
        code, out, err = invoke("witness", "--group", "Z", "--n", "5", "--radius", radius)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "radius" in err

    @pytest.mark.parametrize(
        "argv, digits",
        [
            (("--f", "92"), [4226]),
            (("--twisted", "46", "46"), [4226]),
            (("--hw", str(10**2150), str(10**2150), "0"), [4300]),
            (("--nilpotent", "9012", "0"), [4300, 4300]),
            (("--wreath-finite-k", "4505"), [4300]),
        ],
    )
    def test_bound_at_cap(self, argv, digits):
        code, out, _ = invoke("bound", *argv)
        assert code == 0
        doc = json.loads(out)
        assert [len(str(v)) for v in (doc if isinstance(doc, list) else [doc])] == digits

    @pytest.mark.parametrize(
        "argv",
        [
            ("--f", "93"),
            ("--twisted", "46", "47"),
            ("--hw", str(10**2150), str(10**2150), "1"),
            ("--hw", "9" * 4000, "9" * 4000, "3"),
            ("--nilpotent", "9013", "0"),
            ("--nilpotent", "9012", "1"),
            ("--nilpotent", "100000", "2"),
            ("--nilpotent", str(10**12), "0"),
            ("--wreath-finite-k", "4506"),
            ("--wreath-finite-k", str(10**12)),
        ],
    )
    def test_bound_past_cap_is_domain_error(self, argv):
        # a power past its cap is never computed, so 10**12 fails at once
        code, out, err = invoke("bound", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Exceeds" not in err


def _wreath_chain(levels):
    doc = {"kind": "finite", "order": 2}
    for _ in range(levels):
        doc = {"kind": "wreath", "base": doc, "top": {"kind": "finite", "order": 2}}
    return json.dumps(doc)


class TestClassifyCap:
    def test_checked_before_sampling(self, tmp_path, monkeypatch):
        # C2 x C2 x C4 has H2 = (Z/2)^3, so its extension has order 128: the cap is
        # read off homology.h2 and no extension is sampled
        path = tmp_path / "c2c2c4.json"
        path.write_text(json.dumps(abelian_group((2, 2, 4)).to_json()))

        def refuse(*args, **kwargs):
            raise AssertionError("sample_extension ran")

        monkeypatch.setattr(cli, "sample_extension", refuse)
        code, out, err = invoke("classify", "--group", f"@{path}")
        assert (code, out, err) == (1, "", "error: classification capped at order 16, got 128\n")

    def test_below_cap_still_classifies(self):
        code, out, _ = invoke("classify", "--group", "klein", "--seed", "3")
        assert code == 0 and json.loads(out)["class"] == "Q8"


class TestCrossedCap:
    # each request's largest crossed product is refused before any cocycle or system
    @pytest.mark.parametrize(
        "argv,dim",
        [
            (("crossed", "--group", "dihedral:2049", "--normal", "center"), 4098),
            (("imprimitivity", "--group", "cyclic:65", "--subgroup", "0"), 65 * 65),
            (("stabilize", "--group", "cyclic:17"), 17**3),
            (("stabilize", "--group", "cyclic:65"), 65**3),
        ],
    )
    def test_checked_before_any_system(self, argv, dim, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a cocycle or system was built")

        for name in ("trivial_cocycle", "load_cocycle", "system_from_normal", "scalar_system"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", f"error: crossed product dimension {dim} exceeds 4096\n")

    @pytest.mark.parametrize(
        "argv,dim",
        [
            (("crossed", "--group", "cyclic:4097", "--normal", "0"), 4097),
            (("crossed", "--group", "dihedral:2049", "--normal", "center"), 4098),
            (("imprimitivity", "--group", "cyclic:4097", "--subgroup", "0"), 4097),
            (("stabilize", "--group", "dihedral:9"), 18**3),
        ],
    )
    def test_builtin_checked_before_its_table(self, argv, dim, monkeypatch):
        # a builtin's order comes from its parameters; the imprimitivity cap
        # reads |G|, a lower bound of the induced crossed product's [G:H] |G|
        def refuse(*args, **kwargs):
            raise AssertionError("a group table was built")

        monkeypatch.setattr(FiniteGroup, "__init__", refuse)
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", f"error: crossed product dimension {dim} exceeds 4096\n")

    def test_at_cap_still_runs(self):
        code, out, _ = invoke("stabilize", "--group", "cyclic:2")
        assert code == 0 and json.loads(out)["matches"]


class TestTwistCap:
    # the closure check and the cocycle identity check are each |G|^3
    def test_builtin_checked_before_its_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a group table was built")

        monkeypatch.setattr(FiniteGroup, "__init__", refuse)
        code, out, err = invoke("twist", "--group", "dihedral:400", "--cocycle", "trivial")
        assert (code, out, err) == (
            1, "", "error: twisted group algebra of order 800: 512000000 entries exceed 16777216\n"
        )

    def test_file_group_checked_before_its_cocycle(self, tmp_path, monkeypatch):
        path = tmp_path / "c257.json"
        path.write_text(json.dumps(cyclic(257).to_json()))

        def refuse(*args, **kwargs):
            raise AssertionError("a cocycle was built")

        monkeypatch.setattr(cli, "load_cocycle", refuse)
        code, out, err = invoke("twist", "--group", f"@{path}", "--cocycle", "trivial")
        assert (code, out, err) == (
            1, "", "error: twisted group algebra of order 257: 16974593 entries exceed 16777216\n"
        )

    def test_coefficient_algebra_checked_before_it_is_built(self, monkeypatch):
        # crossed over the center of C1024 would build C[N] for |N| = 1024
        def refuse(*args, **kwargs):
            raise AssertionError("a twisted group algebra was built")

        monkeypatch.setattr(staralg, "twisted_group_algebra", refuse)
        code, out, err = invoke("crossed", "--group", "cyclic:1024", "--normal", "center")
        assert (code, out, err) == (
            1, "", "error: twisted group algebra of order 1024: 1073741824 entries exceed 16777216\n"
        )

    def test_cap_edge(self):
        staralg.check_twist_cap(256)  # dihedral:128 and cyclic:256 are admitted
        with pytest.raises(ResourceCapError):
            staralg.check_twist_cap(257)


class TestBarComplexCap:
    @pytest.mark.parametrize("command", ["h1", "h2", "extend", "classify", "fibers"])
    def test_builtin_checked_before_its_table(self, command, monkeypatch):
        # a builtin's order comes from its parameters, so no table of order 5000 is built
        def refuse(*args, **kwargs):
            raise AssertionError("a group table was built")

        monkeypatch.setattr(FiniteGroup, "__init__", refuse)
        code, out, err = invoke(command, "--group", "cyclic:5000")
        assert (code, out, err) == (1, "", "error: bar complex capped at order 24, got 5000\n")


class TestCardinalityCap:
    def test_twelve_levels_print_exactly(self):
        # |K wr C2| = 2 |K|^2, so level n has 2^(2^(n+1) - 1) elements
        code, out, _ = invoke("hirsch", "--descriptor", _wreath_chain(12))
        assert code == 0
        assert json.loads(out)["cardinality"] == 2 ** (2**13 - 1)
        assert len(str(2 ** (2**13 - 1))) == 2466

    @pytest.mark.parametrize("levels", [13, 40])
    def test_deeper_chains_are_one_line_domain_errors(self, levels):
        code, out, err = invoke("hirsch", "--descriptor", _wreath_chain(levels))
        assert (code, out) == (1, "")
        assert err == f"error: cardinality has more than {dsc.PRINT_DIGITS} decimal digits\n"


def _deep_descriptor(levels):
    doc = '{"kind":"finite","order":2}'
    for _ in range(levels):
        doc = '{"kind":"ext","normal":%s,"quotient":{"kind":"finite","order":2}}' % doc
    return doc


class TestJsonDepth:
    def test_inline_descriptor_too_deep(self):
        code, out, err = invoke("hirsch", "--descriptor", _deep_descriptor(3000))
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(cli._JSON_DEPTH_CAP) in err

    def test_files_too_deep(self, tmp_path):
        nested = "[" * 5000 + "]" * 5000
        files = {"group": nested, "cocycle": '{"angles":%s}' % nested, "descriptor": _deep_descriptor(3000)}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        for argv in (
            ("h2", "--group", f"@{tmp_path / 'group.json'}"),
            ("twist", "--group", "klein", "--cocycle", f"@{tmp_path / 'cocycle.json'}"),
            ("hirsch", "--descriptor", f"@{tmp_path / 'descriptor.json'}"),
            ("verdict", "--base", "Z", "--top", f"@{tmp_path / 'descriptor.json'}"),
        ):
            code, out, err = invoke(*argv)
            assert code == 1 and out == "", argv
            assert err.startswith("error:") and str(cli._JSON_DEPTH_CAP) in err, argv

    def test_depth_counts_brackets_outside_strings(self):
        cap = cli._JSON_DEPTH_CAP
        assert cli._parse_json('{"label":"%s"}' % ("[{" * 1000)) == {"label": "[{" * 1000}
        assert cli._parse_json(r'["\\\"[", []]') == ['\\"[', []]  # escaped quote, then a bracket
        assert len(cli._parse_json("[" * cap + "]" * cap)) == 1
        with pytest.raises(ValueError, match=str(cap)):
            cli._parse_json("[" * (cap + 1) + "]" * (cap + 1))

    def test_deepest_descriptor_runs(self, tmp_path):
        # cap - 1 ext levels nest the document exactly cap deep; run in a
        # fresh process, whose stack starts as shallow as the command's
        path = tmp_path / "d.json"
        path.write_text(_deep_descriptor(cli._JSON_DEPTH_CAP - 1))
        proc = subprocess.run(
            [sys.executable, "-m", "twistkit.cli", "hirsch", "--descriptor", f"@{path}"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == 0 and json.loads(proc.stdout)["hirsch"] == 0


def _called_from(frames, fn):
    """fn() called that many Python frames below this one."""
    return fn() if frames == 0 else _called_from(frames - 1, fn)


class TestDescriptorsAtAnyStackDepth:
    @pytest.mark.parametrize(
        "argv",
        [("hirsch", "--descriptor", "@{}"), ("verdict", "--base", "@{}", "--top", "Z")],
        ids=["hirsch", "verdict"],
    )
    def test_deepest_descriptor_answers_the_same(self, tmp_path, argv):
        # the deepest document the depth cap admits, evaluated in this process
        path = tmp_path / "d.json"
        path.write_text(_deep_descriptor(cli._JSON_DEPTH_CAP - 1))
        argv = [a.format(path) for a in argv]
        answers = [_called_from(frames, lambda: invoke(*argv)) for frames in (0, 30, 300)]
        assert answers[0][0] == 0 and answers[0][1], answers[0][2][-200:]
        assert answers[1] == answers[0] and answers[2] == answers[0]


class TestBadArgvFuzz:
    """Seeded malformed argv through cli.run: every one ends in exit 0, 1 or
    2, never a traceback or an internal error."""

    SUBCOMMANDS = [
        "h2", "h1", "extend", "classify", "twist", "fibers", "crossed",
        "imprimitivity", "stabilize", "hirsch", "bound", "verdict", "witness",
    ]

    @staticmethod
    def _pools(tmp_path):
        files = {
            "deep.json": "[" * 5000 + "]" * 5000,
            "broken.json": "{not json",
            "list.json": "[1, 2]",
            "group.json": '{"order": 2, "table": [[0, 1], [1, 2]]}',
            "over.json": json.dumps(
                {"angles": [["0"] * 3, ["0", f"3/{2**53}", "0"], ["0", "0", f"{2**53 - 3}/{2**53}"]]}
            ),
            "badcoc.json": '{"angles": [["0", "1/3"], ["0", "0"]]}',
            "desc.json": _deep_descriptor(3000),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        at = {name: f"@{tmp_path / name}" for name in files}
        ints = ["-3", "0", "2", "9" * 4000, str(10**12)]
        descriptors = ["Z", "Z^x", "Z^-2", "finite:0", "finite:-3", "Zinv:x", "{", "{}", "[]",
                       '{"kind":"finite"}', '{"kind":"wreath"}', _deep_descriptor(3000),
                       at["desc.json"], at["deep.json"], at["broken.json"], "garbage", ""]
        return {
            "--group": ["klein", "cyclic:3", "cyclic:2", "dihedral:3", "quaternion8", "nosuch",
                        "cyclic:", "cyclic:-2", "cyclic:0", "cyclic:x", "dihedral:0", "", "@",
                        at["deep.json"], at["broken.json"], at["list.json"], at["group.json"],
                        "@/nonexistent/g.json"],
            "--cocycle": ["trivial", "paper-klein", "nosuch", "", at["over.json"],
                          at["badcoc.json"], at["deep.json"], at["list.json"], "@/nonexistent/c.json"],
            "--normal": ["center", "0,1", "gen:1", "gen:", "x", "-1", "99", "1,,2", "gen:a"],
            "--subgroup": ["center", "0,1", "gen:", "x", "-1", "99", "gen:a,b"],
            "--descriptor": descriptors,
            "--base": descriptors,
            "--top": descriptors,
            "--which": ["dimnuc", "dr", "bogus"],
            "--n": ["-1", "0", "3"],
            "--radius": ["-3", "0", "2"],
            "--seed": ["7", "0", "-1"],
            "--f": ints + ["92", "93"],
            "--wreath-finite-k": ints + ["4505", "4506", "100000"],
            "--twisted": ints + ["46", "47"],
            "--hw": ints + [str(10**2150)],
            "--nilpotent": ints + ["9012", "9013", "100000"],
            "witness --group": ["Z", "Dinf", "ZxZ2", "nosuch"],
        }

    FLAGS = {
        "h2": ["--group"], "h1": ["--group"], "extend": ["--group"], "classify": ["--group"],
        "twist": ["--group", "--cocycle"], "fibers": ["--group"],
        "crossed": ["--group", "--normal", "--cocycle"],
        "imprimitivity": ["--group", "--subgroup", "--cocycle"],
        "stabilize": ["--group", "--cocycle"], "hirsch": ["--descriptor"],
        "verdict": ["--base", "--top", "--which"], "witness": ["--group", "--n", "--radius"],
    }
    BOUND_FLAGS = ["--f", "--twisted", "--hw", "--nilpotent", "--wreath-finite-k"]
    NARGS = {"--twisted": 2, "--hw": 3, "--nilpotent": 2}
    UNPARSABLE = ["x", "", "1.5", "9" * 5000]

    def _argv(self, rng, pools, sub):
        if sub == "bound":
            flags = rng.sample(self.BOUND_FLAGS, 1 if rng.random() < 0.8 else 2)
        else:
            flags = [f for f in self.FLAGS[sub] if rng.random() > 0.1]  # sometimes one is missing
        argv = [sub]
        for flag in flags + ["--seed"]:
            pool = pools.get(f"{sub} {flag}", pools[flag])
            argv.append(flag)
            for _ in range(self.NARGS.get(flag, 1)):
                argv.append(rng.choice(self.UNPARSABLE if rng.random() < 0.05 else pool))
        if rng.random() < 0.05:
            argv.append(rng.choice(["--bogus", "--blocks", "-h", "--group"]))
        return argv

    def test_malformed_argv(self, tmp_path, capsys):
        rng = random.Random(20261018)
        pools = self._pools(tmp_path)
        holes = [  # each once ended in a pass, a Python digit-limit message or exit 3
            ["witness", "--group", "Z", "--n", "5", "--radius", "-3"],
            ["witness", "--group", "Z", "--n", "5", "--radius", "0"],
            ["bound", "--nilpotent", "100000", "2"],
            ["bound", "--wreath-finite-k", "100000"],
            ["bound", "--hw", "9" * 4000, "9" * 4000, "9"],
            ["hirsch", "--descriptor", _deep_descriptor(3000)],
            ["h2", "--group", f"@{tmp_path / 'deep.json'}"],
            ["twist", "--group", "cyclic:3", "--cocycle", f"@{tmp_path / 'over.json'}"],
        ]
        argvs = holes + [[], ["bogus"], ["h2", "--group"], ["--seed", "x"]]
        argvs += [self._argv(rng, pools, self.SUBCOMMANDS[i % 13]) for i in range(200)]
        codes = {0: 0, 1: 0, 2: 0}
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, stdout=out, stderr=err)
            captured = capsys.readouterr()
            text = err.getvalue() + captured.err + captured.out
            assert code in codes, (argv, err.getvalue())
            assert "Traceback" not in text and "internal error" not in text, argv
            assert code == 1 or argv not in holes, argv
            codes[code] += 1
        assert codes[1] > 100  # most of the corpus gets past argparse to the handlers


class TestDeterminism:
    COMMANDS = [
        ("h2", "--group", "dihedral:4"),
        ("extend", "--group", "klein", "--seed", "7"),
        ("classify", "--group", "klein", "--seed", "7"),
        ("fibers", "--group", "klein", "--seed", "7"),
        ("twist", "--group", "klein", "--cocycle", "paper-klein", "--blocks", "--seed", "7"),
        ("crossed", "--group", "quaternion8", "--normal", "center", "--seed", "7"),
        ("imprimitivity", "--group", "dihedral:3", "--subgroup", "gen:1", "--seed", "7"),
        ("stabilize", "--group", "cyclic:4", "--seed", "7"),
        ("hirsch", "--descriptor", "Z^3"),
        ("bound", "--f", "3"),
        ("verdict", "--base", "Z", "--top", "Z"),
        ("witness", "--group", "Dinf", "--n", "8", "--radius", "10", "--seed", "7"),
    ]

    def test_two_runs_byte_identical(self):
        def transcript():
            chunks = []
            for argv in self.COMMANDS:
                code, out, _ = invoke(*argv)
                assert code == 0, argv
                chunks.append(out)
            return "".join(chunks).encode()

        assert transcript() == transcript()


class TestAlgebraGoldenBytes:
    """Exact stdout and stderr of the *-algebra subcommands at seeds 0-3.

    A tuple of four outputs is one per seed; a single string holds for all
    four.  The stabilize deviation for paper-klein is the float the phase
    table leaves behind (2 sin(pi) in double precision), so any change in
    how the stabilization cocycle is evaluated shows here."""

    GOLDEN = [
        ("twist --group klein --cocycle paper-klein --blocks",
         '{"blocks":[2]}\n',
         "twisted group algebra over klein, cocycle paper-klein\n"),
        ("twist --group dihedral:4 --cocycle trivial --blocks",
         '{"blocks":[1,1,1,1,2]}\n',
         "twisted group algebra over dihedral(4), cocycle trivial\n"),
        ("crossed --group quaternion8 --normal center",
         '{"blocks":[1,1,1,1,2],"dim":8}\n',
         "crossed product: fiber over subgroup of order 2, quotient of order 4\n"),
        ("crossed --group klein --normal 0,1 --cocycle paper-klein",
         '{"blocks":[2],"dim":4}\n',
         "crossed product: fiber over subgroup of order 2, quotient of order 2\n"),
        ("imprimitivity --group dihedral:3 --subgroup gen:1",
         '{"ambient_dim":12,"ambient_profile":[2,2,2],"compressed_dim":3,'
         '"compressed_profile":[1,1,1],"index":2,"matches":true}\n',
         "induced from a subgroup of index 2\n"),
        ("imprimitivity --group dihedral:4 --subgroup gen:2",
         '{"ambient_dim":32,"ambient_profile":[4,4],"compressed_dim":2,'
         '"compressed_profile":[1,1],"index":4,"matches":true}\n',
         "induced from a subgroup of index 4\n"),
        ("imprimitivity --group symmetric:4 --subgroup gen:1",
         '{"ambient_dim":288,"ambient_profile":[12,12],"compressed_dim":2,'
         '"compressed_profile":[1,1],"index":12,"matches":true}\n',
         "induced from a subgroup of index 12\n"),
        ("crossed --group symmetric:4 --normal center",
         '{"blocks":[1,1,2,3,3],"dim":24}\n',
         "crossed product: fiber over subgroup of order 1, quotient of order 24\n"),
        ("stabilize --group klein --cocycle paper-klein",
         '{"matches":true,"sigma_deviation":2.4492935982947064e-16,'
         '"stabilized_profile":[8],"tensored_profile":[8],"twisted_profile":[2]}\n',
         "stabilized over klein; deviation 2.45e-16\n"),
        ("stabilize --group cyclic:4",
         '{"matches":true,"sigma_deviation":0.0,"stabilized_profile":[4,4,4,4],'
         '"tensored_profile":[4,4,4,4],"twisted_profile":[1,1,1,1]}\n',
         "stabilized over cyclic(4); deviation 0.00e+00\n"),
        # the stabilized crossed product has dimension 1728, a basis of 1728 x 144 row maps
        ("stabilize --group cyclic:12",
         '{"matches":true,"sigma_deviation":0.0,"stabilized_profile":[%s],"tensored_profile":[%s],'
         '"twisted_profile":[%s]}\n' % (",".join(["12"] * 12), ",".join(["12"] * 12), ",".join(["1"] * 12)),
         "stabilized over cyclic(12); deviation 0.00e+00\n"),
        ("fibers --group klein",
         tuple(
             '{"base":"klein","class":"%s","fibers":[{"blocks":[1,1,1,1],"chi":["0"]},'
             '{"blocks":[2],"chi":["1/2"]}],"h2":{"free_rank":0,"torsion":[2]},'
             '"order4_lifts":%s}\n' % pair
             for pair in [("D4(b)", "[2]"), ("D4(a)", "[1]"), ("D4(ab)", "[3]"), ("Q8", "[1,2,3]")]
         ),
         "2 character fibers over H2 of klein\n"),
        ("fibers --group dihedral:4",
         '{"base":"dihedral(4)","class":"unclassified:6feee6c4d5a1298a","fibers":'
         '[{"blocks":[1,1,1,1,2],"chi":["0"]},{"blocks":[2,2],"chi":["1/2"]}],'
         '"h2":{"free_rank":0,"torsion":[2]},"order4_lifts":[]}\n',
         "2 character fibers over H2 of dihedral(4)\n"),
    ]

    # fibers of @file groups whose H2 is not Z/2: (Z/2)^3 prints three "chi"
    # coordinates, Z/4 prints quarter angles; both extensions are above the
    # classification cap, so "class" is null
    FILE_GOLDEN = {
        (2, 2, 2): (
            '{"base":"Z/2+Z/2+Z/2","class":null,"fibers":['
            '{"blocks":[1,1,1,1,1,1,1,1],"chi":["0","0","0"]},'
            '{"blocks":[2,2],"chi":["0","0","1/2"]},{"blocks":[2,2],"chi":["0","1/2","0"]},'
            '{"blocks":[2,2],"chi":["0","1/2","1/2"]},{"blocks":[2,2],"chi":["1/2","0","0"]},'
            '{"blocks":[2,2],"chi":["1/2","0","1/2"]},{"blocks":[2,2],"chi":["1/2","1/2","0"]},'
            '{"blocks":[2,2],"chi":["1/2","1/2","1/2"]}],'
            '"h2":{"free_rank":0,"torsion":[2,2,2]},"order4_lifts":[]}\n',
            "8 character fibers over H2 of Z/2+Z/2+Z/2\n",
        ),
        (4, 4): (
            '{"base":"Z/4+Z/4","class":null,"fibers":['
            '{"blocks":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"chi":["0"]},'
            '{"blocks":[4],"chi":["1/4"]},{"blocks":[2,2,2,2],"chi":["1/2"]},'
            '{"blocks":[4],"chi":["3/4"]}],'
            '"h2":{"free_rank":0,"torsion":[4]},"order4_lifts":[]}\n',
            "4 character fibers over H2 of Z/4+Z/4\n",
        ),
    }

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("command,stdout,stderr", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_bytes(self, command, stdout, stderr, seed):
        want = stdout if isinstance(stdout, str) else stdout[seed]
        assert invoke(*command.split(), "--seed", str(seed)) == (0, want, stderr)

    @pytest.mark.parametrize(
        "factors,seed", [((2, 2, 2), s) for s in range(4)] + [((4, 4), 0)], ids=str
    )
    def test_file_fibers_bytes(self, tmp_path, factors, seed):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(abelian_group(factors).to_json()))
        assert invoke("fibers", "--group", f"@{path}", "--seed", str(seed)) == (0, *self.FILE_GOLDEN[factors])
