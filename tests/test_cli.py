"""Command-line surface: exit codes, output formats, and schema round-trips."""

import json
from dataclasses import replace

import pytest

from p4groups import classify, verification
from p4groups.classify import ClassificationError
from p4groups.cli import main
from p4groups.groups import AxiomReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_type(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


ROW1 = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 3], [0, 1]], "v": [0, 0]}
SCALING_E2 = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[4, 0], [0, 1]], "v": [0, 1]}
SHEAR_E2 = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 0], [1, 1]], "v": [0, 1]}
SCALING_V0 = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[4, 0], [0, 1]], "v": [0, 0]}
SHEAR_V0 = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 0], [1, 1]], "v": [0, 0]}
BAD_V = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 3], [0, 1]], "v": [0, 1]}
IDENTITY_TAU = {"p": 3, "shape": "p2xp", "n": 3, "tau": [[1, 0], [0, 1]], "v": [0, 0]}


class TestClassifyCommand:
    def test_p3_table(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "3")
        assert code == 0
        assert "total: 15 classes (5 abelian, 10 nonabelian)" in out

    def test_composite_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "4")
        assert code == 2
        assert "prime" in err

    def test_even_prime_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "2")
        assert code == 2
        assert "odd" in err

    def test_guard_requires_force(self, capsys):
        code, _, err = run(capsys, "classify", "--p", "11")
        assert code == 2
        assert "--force" in err

    @pytest.mark.parametrize("command", ["classify", "tables", "verify"])
    def test_guard_precedes_config(self, capsys, monkeypatch, command):
        # A huge --p must be refused before any O(p) residue work starts.
        def refuse(p):
            raise AssertionError("for_prime called before the guard")

        monkeypatch.setattr("p4groups.cli.ClassifyConfig.for_prime", refuse)
        code, _, err = run(capsys, command, "--p", "2147483647")
        assert code == 2
        assert "--force" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["counts"] == {"abelian": 5, "nonabelian": 10, "total": 15}
        nonabelian = [c for c in data["classes"] if c["tau"] is not None]
        assert len(nonabelian) == 10
        assert all("fingerprint" in c and "merged_labels" in c for c in data["classes"])

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--p", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("label,group_order,center_invariants")
        assert len(lines) == 16


class TestConstructCommand:
    def test_census(self, capsys, tmp_path):
        path = write_type(tmp_path, "row1.json", ROW1)
        code, out, _ = run(capsys, "construct", "--type", path, "--emit", "census")
        assert code == 0
        census = json.loads(out)
        assert census == {"1": 1, "3": 26, "9": 54}

    def test_fingerprint_of_direct_product(self, capsys, tmp_path):
        path = write_type(tmp_path, "abelian.json", IDENTITY_TAU)
        code, out, _ = run(capsys, "construct", "--type", path)
        assert code == 0
        fp = json.loads(out)
        assert fp["derived_order"] == 1
        assert fp["group_order"] == 81

    def test_cayley_csv(self, capsys, tmp_path):
        path = write_type(tmp_path, "row1.json", ROW1)
        code, out, _ = run(capsys, "construct", "--type", path, "--emit", "cayley")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "81"
        assert len(lines) == 82
        first_row = [int(x) for x in lines[1].split(",")]
        assert first_row == list(range(81))

    def test_invalid_type_diagnostic(self, capsys, tmp_path):
        path = write_type(tmp_path, "bad.json", BAD_V)
        code, _, err = run(capsys, "construct", "--type", path)
        assert code == 1
        assert "v-not-fixed" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "construct", "--type", str(tmp_path / "absent.json"))
        assert code == 1
        assert err

    def test_output_file(self, capsys, tmp_path):
        path = write_type(tmp_path, "row1.json", ROW1)
        out_path = tmp_path / "census.json"
        code, _, _ = run(capsys, "construct", "--type", path, "--emit", "census",
                         "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text()) == {"1": 1, "3": 26, "9": 54}

    @pytest.mark.parametrize("record, out, message", [
        ({**ROW1, "p": 3.7}, None, "p must be an integer, got 3.7"),
        ({**ROW1, "tau": [[1.9, 3], [0, 1]]}, None, "tau entry must be an integer, got 1.9"),
        ({**ROW1, "v": [0.5, 0]}, None, "v entry must be an integer, got 0.5"),
        ({**ROW1, "n": True}, None, "n must be an integer, got True"),
        ([ROW1], None, "must be a JSON object"),
        (ROW1, "missing/dir/x", "No such file or directory"),
    ], ids=["float-p", "float-tau", "float-v", "bool-n", "list-record", "missing-out-dir"])
    def test_malformed_input_is_one_line_error(self, capsys, tmp_path, monkeypatch,
                                               record, out, message):
        monkeypatch.chdir(tmp_path)
        path = write_type(tmp_path, "t.json", record)
        argv = ["construct", "--type", path] + (["--out", out] if out else [])
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


    def test_huge_prime_rejected_before_primality_test(self, capsys, tmp_path, monkeypatch):
        def no_trial_division(n):
            raise AssertionError(f"is_prime({n}) called on a p above the bound")

        monkeypatch.setattr("p4groups.residues.is_prime", no_trial_division)
        path = write_type(tmp_path, "t.json", {**ROW1, "p": 1000000000000000000000000000057})
        code, _, err = run(capsys, "construct", "--type", path)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "profile prime must be <= 97" in err


class TestIsoCommand:
    def test_isomorphic_pair(self, capsys, tmp_path):
        a = write_type(tmp_path, "a.json", SCALING_E2)
        b = write_type(tmp_path, "b.json", SHEAR_E2)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        data = json.loads(out)
        assert data["isomorphic"] is True
        assert sorted(data["witness"]) == list(range(81))

    def test_nonisomorphic_pair(self, capsys, tmp_path):
        a = write_type(tmp_path, "a.json", SCALING_V0)
        b = write_type(tmp_path, "b.json", SHEAR_V0)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 3
        assert json.loads(out)["isomorphic"] is False

    def test_self_comparison(self, capsys, tmp_path):
        a = write_type(tmp_path, "a.json", ROW1)
        b = write_type(tmp_path, "b.json", ROW1)
        code, out, _ = run(capsys, "iso", a, b)
        assert code == 0
        assert json.loads(out)["witness"] == list(range(81))

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        a = write_type(tmp_path, "a.json", ROW1)
        code, _, err = run(capsys, "iso", str(bad), a)
        assert code == 1
        assert err


class TestTablesCommand:
    def test_p3(self, capsys):
        code, out, _ = run(capsys, "tables", "--p", "3")
        assert code == 0
        assert "[[1,6],[1,1]]" in out  # epsilon = 2 substituted
        assert "63" in out and "45" in out

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "tables", "--p", "6")
        assert code == 2

    def test_table2_check_failure_is_one_line_error(self, capsys, monkeypatch):
        real = classify.census_closed_form
        monkeypatch.setattr(classify, "census_closed_form", lambda t: real(t) + 1)
        code, out, err = run(capsys, "tables", "--p", "3")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("classification failed: census closed form")


def _flip_call(n):
    """Wrap isomorphic so that its n-th call (1-based) returns the wrong verdict.

    The pair checks make the suite's first isomorphic calls, in order."""
    def wrap(real):
        calls = []

        def flipped(g1, g2):
            calls.append(None)
            ok, witness = real(g1, g2)
            return (not ok if len(calls) == n else ok), witness
        return flipped
    return wrap


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


# check name -> (name patched in p4groups.verification, wrapper of the real callable)
CHECK_BREAKERS = {
    "tau-catalog-order": ("mat_order", lambda real: lambda m: real(m) + 1),
    "candidate-validation": ("candidate_types",
                             lambda real: _raising(ClassificationError("injected"))),
    "group-axioms": ("verify_group_axioms",
                     lambda real: lambda g, **kw: AxiomReport(False, ("identity", 0))),
    "power-norm-law": ("ext_power", lambda real: lambda t, g, k: real(t, g, k + 1)),
    "census-closed-form": ("census_closed_form", lambda real: lambda t: real(t) + 1),
    # The suite runs at p = 3: flip whether the last element satisfies x^3 = e.
    "coset-census-balance": ("element_order",
                             lambda real: lambda g, x: real(g, x) if x < g.size - 1
                             else 9 if real(g, x) in (1, 3) else 3),
    "table2-reverification": ("emit_table2",
                              lambda real: _raising(ClassificationError("injected"))),
    "classification-counts": ("classify_p4",
                              lambda real: lambda cfg: replace(real(cfg), abelian_count=4)),
    "abelian-subgroup-property": ("verify_prop_abelian_subgroup", lambda real: lambda g: False),
    "order-p2xp-subgroup-property": ("verify_prop_no_cyclic", lambda real: lambda g: False),
    "iso-pair-shared-relations": ("isomorphic", _flip_call(1)),
    "noniso-pair-split-v0": ("isomorphic", _flip_call(2)),
    "transform-equivalence": ("v_power", lambda real: _raising(ValueError("injected"))),
}


class TestVerifyCommand:
    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--p", "9")
        assert code == 2

    @pytest.mark.parametrize("check", list(CHECK_BREAKERS))
    def test_broken_library_call_fails_only_its_check(self, capsys, monkeypatch, check):
        name, breaker = CHECK_BREAKERS[check]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 1
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == [check]
