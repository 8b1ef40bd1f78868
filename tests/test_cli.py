"""CLI dispatch, canonical output, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistkit
from twistkit import cli
from twistkit.cli import load_descriptor, load_group, load_subgroup, run
from twistkit.descriptors import Finite, FreeAbelian, Zinv
from twistkit.groups import klein, quaternion8


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
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:") and "5000" in proc.stderr

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
