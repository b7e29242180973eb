"""Command-line surface: exit codes, output formats, and schema round-trips."""

import contextlib
import io
import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import p4groups
from p4groups import classify, extension, groups, verification
from p4groups.classify import ClassificationError, ClassifyConfig, candidate_types
from p4groups.cli import main
from p4groups.extension import build_group
from p4groups.groups import AxiomReport
from p4groups.residues import MixedModulusMatrix, mat_inverse


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

    def test_classification_failure_is_one_line_error(self, capsys, monkeypatch):
        # classify_p4 raises unless the counts are 10 + 5; the CLI reports it.
        monkeypatch.setattr("p4groups.cli.classify_p4",
                            _raising(ClassificationError("injected")))
        code, out, err = run(capsys, "classify", "--p", "3")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("classification failed:")

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

    @pytest.mark.parametrize("command", ["classify", "tables", "verify"])
    def test_forced_p_above_bound_is_usage_error(self, capsys, command):
        code, out, err = run(capsys, command, "--p", "101", "--force")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "p must be <= 97" in err

    @pytest.mark.parametrize("command", ["classify", "tables", "verify"])
    def test_forced_huge_prime_rejected_before_primality_test(self, capsys, monkeypatch,
                                                              command):
        def no_trial_division(n):
            raise AssertionError(f"is_prime({n}) called on a p above the bound")

        monkeypatch.setattr("p4groups.residues.is_prime", no_trial_division)
        monkeypatch.setattr("p4groups.classify.is_prime", no_trial_division)
        code, _, err = run(capsys, command, "--p", "1000000000000000000000000000057", "--force")
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "p must be <= 97" in err

    @pytest.mark.parametrize("command", ["classify", "tables", "verify"])
    @pytest.mark.parametrize("p", ["17", "97"])
    def test_forced_p_past_the_table_limit_is_usage_error(self, capsys, monkeypatch, command, p):
        # 17^4 > 2^16: the tables would not fit two-byte entries, so the
        # command stops before it makes a config, let alone a table.
        monkeypatch.setattr("p4groups.cli.ClassifyConfig.for_prime",
                            _raising(AssertionError("for_prime called past the table limit")))
        code, out, err = run(capsys, command, "--p", p, "--force")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: p={p}: a group of order {int(p)**4} exceeds")
        assert err.count("\n") == 1 and "table limit of 65536 elements" in err

    def test_forced_p13_is_within_the_table_limit(self, capsys, monkeypatch):
        # 13^4 = 28561 <= 2^16: the command goes on to the config.
        monkeypatch.setattr("p4groups.cli.ClassifyConfig.for_prime",
                            _raising(ValueError("config reached")))
        code, _, err = run(capsys, "classify", "--p", "13", "--force")
        assert code == 2
        assert err == "error: config reached\n"

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

    @pytest.mark.parametrize("command", ["construct", "iso"])
    def test_invalid_type_diagnostic(self, capsys, tmp_path, command):
        path = write_type(tmp_path, "bad.json", BAD_V)
        if command == "construct":
            argv = ["construct", "--type", path]
        else:
            argv = ["iso", write_type(tmp_path, "row1.json", ROW1), path]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {path}: invalid extension type: v-not-fixed"]

    @pytest.mark.parametrize("command", ["construct", "iso"])
    @pytest.mark.parametrize("record, message", [
        ({**ROW1, "tau": "ab"}, "tau must be a JSON array, got 'ab'"),
        ({**ROW1, "tau": {"a": 1}}, "tau must be a JSON array, got {'a': 1}"),
        ({**ROW1, "tau": ["ab", [0, 1]]}, "tau row must be a JSON array, got 'ab'"),
        ({**ROW1, "v": {"a": 1}}, "v must be a JSON array, got {'a': 1}"),
        ({**ROW1, "v": "00"}, "v must be a JSON array, got '00'"),
    ], ids=["string-tau", "object-tau", "string-tau-row", "object-v", "string-v"])
    def test_non_array_field_is_named(self, capsys, tmp_path, command, record, message):
        # A string or an object would otherwise be iterated, and the error
        # would name one of its characters or keys as a bad entry.
        path = write_type(tmp_path, "t.json", record)
        if command == "construct":
            argv = ["construct", "--type", path]
        else:
            argv = ["iso", write_type(tmp_path, "row1.json", ROW1), path]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: {path}: {message}"]

    @pytest.mark.parametrize("command", ["construct", "iso"])
    def test_deeply_nested_json_is_one_line_error(self, capsys, tmp_path, command):
        # json.load recurses once per array and runs out of stack here.
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000)
        if command == "construct":
            argv = ["construct", "--type", str(path)]
        else:
            argv = ["iso", write_type(tmp_path, "row1.json", ROW1), str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "recursion" in err

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



# Arbitrary JSON values: nested arrays and objects over null, booleans,
# integers, floats (NaN and infinities included) and strings.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=4),
    max_leaves=12,
)
# A whole record, or ROW1 with one field replaced.
TYPE_RECORDS = JSON_VALUES | st.builds(lambda field, value: {**ROW1, field: value},
                                       st.sampled_from(sorted(ROW1)), JSON_VALUES)


def run_type_file(tmp_dir, command, text):
    """main on a type file holding text, for construct or for iso against
    ROW1: (exit code, stdout, stderr), with any exception out of main
    left to fail the test."""
    path = tmp_dir / "fuzz.json"
    path.write_text(text)
    if command == "construct":
        argv = ["construct", "--type", str(path)]
    else:
        argv = ["iso", str(path), write_type(tmp_dir, "row1.json", ROW1)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestTypeFileFuzz:
    """Any JSON in a type file ends in a documented exit code: 0 or 3 with
    nothing on stderr, or 1 or 2 with exactly one ``error:`` line."""

    @pytest.mark.parametrize("command", ["construct", "iso"])
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(record=TYPE_RECORDS)
    def test_any_json_value(self, tmp_path, command, record):
        code, _, err = run_type_file(tmp_path, command, json.dumps(record))
        assert code in (0, 1, 2, 3)
        if code in (1, 2):
            assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        else:
            assert err == ""

    @pytest.mark.parametrize("command", ["construct", "iso"])
    def test_huge_integer_is_one_line_error(self, tmp_path, command):
        # json.load refuses to convert an integer of more than 4300 digits.
        text = json.dumps({**ROW1, "n": 0}).replace('"n": 0', '"n": ' + "1" * 5000)
        code, out, err = run_type_file(tmp_path, command, text)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4300 digits" in err

    @pytest.mark.parametrize("command", ["construct", "iso"])
    def test_nan_in_tau_is_one_line_error(self, tmp_path, command):
        text = json.dumps({**ROW1, "tau": [[1, math.nan], [0, 1]]})
        code, out, err = run_type_file(tmp_path, command, text)
        assert (code, out) == (1, "")
        assert err == f"error: {tmp_path / 'fuzz.json'}: tau entry must be an integer, got nan\n"


@pytest.mark.parametrize("argv", [["construct", "--type", "{a}"], ["iso", "{a}", "{b}"]])
def test_forced_type_past_the_table_limit_is_usage_error(capsys, monkeypatch, tmp_path, argv):
    # Order 17^3 * 17 = 83521 > 2^16: refused before build_group runs.
    monkeypatch.setattr("p4groups.cli.build_group",
                        _raising(AssertionError("build_group called past the table limit")))
    big = {"p": 17, "shape": "p2xp", "n": 17, "tau": [[1, 0], [0, 1]], "v": [0, 0]}
    paths = {"a": write_type(tmp_path, "a.json", big), "b": write_type(tmp_path, "b.json", ROW1)}
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv], "--force")
    assert code == 2
    assert out == ""
    assert err == (f"error: {paths['a']}: a group of order 83521 exceeds the table limit "
                   "of 65536 elements\n")


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


def _raising(exc):
    def fail(*args):
        raise exc
    return fail


# check name -> (name patched in p4groups.verification, wrapper of the real callable)
CHECK_BREAKERS = {
    "tau-catalog-order": ("tau_catalog", lambda real: lambda cfg: [
        (name, MixedModulusMatrix.identity(tau.profile)) for name, tau in real(cfg)]),
    "candidate-validation": ("candidate_types",
                             lambda real: _raising(ClassificationError("injected"))),
    "group-axioms": ("verify_group_axioms",
                     lambda real: lambda g: AxiomReport(False, ("identity", 0))),
    "power-norm-law": ("norm_apply", lambda real: lambda t, x: real(t, x) + t.v),
    "census-closed-form": ("census_closed_form", lambda real: lambda t: real(t) + 1),
    # The suite runs at p = 3: flip whether the last element satisfies x^3 = e.
    "coset-census-balance": ("element_order",
                             lambda real: lambda g, x: real(g, x) if x < g.size - 1
                             else 9 if real(g, x) in (1, 3) else 3),
    "table2-reverification": ("_table2_values",
                              lambda real: _raising(ClassificationError("injected"))),
    "classification-counts": ("_certified", lambda real: lambda *args: replace(
        real(*args), abelian_count=4)),
    "abelian-subgroup-property": ("verify_prop_abelian_subgroup", lambda real: lambda g: False),
    "order-p2xp-subgroup-property": ("verify_prop_no_cyclic", lambda real: lambda g: False),
    # The suite's one isomorphic call is the positive pair's search; the
    # negative pairs are told apart by their classes' values.
    "iso-pair-shared-relations": ("isomorphic", lambda real: lambda g1, g2: (
        not real(g1, g2)[0], None)),
    "noniso-pair-split-v0": ("_told_apart", lambda real: lambda a, b: not real(a, b)),
    "transform-equivalence": ("conjugate_type", lambda real: _raising(ValueError("injected"))),
}


# broken transform -> (name patched in p4groups.verification, wrapper of the
# real transform).  Each keeps part of the type the transform should change.
TRANSFORM_BREAKERS = {
    "shift-keeps-v": ("shift_generator",
                      lambda real: lambda t, x: replace(real(t, x), v=t.v)),
    "power-keeps-v": ("power_substitute",
                      lambda real: lambda t, i: replace(real(t, i), v=t.v)),
    "conjugate-raises": ("conjugate_type", lambda real: _raising(ValueError("injected"))),
    "conjugate-keeps-tau": ("conjugate_type",
                            lambda real: lambda t, phi: replace(real(t, phi), tau=t.tau)),
}


@pytest.fixture(scope="module")
def p5_transform_inputs():
    """The candidates the transform check tries at p = 5, the first three,
    with their tables."""
    return [(c, build_group(c.ext)) for c in candidate_types(ClassifyConfig.for_prime(5))[:3]]


def first_transform_problem(inputs, count=1):
    """The transform check's detail: that of the first candidate that fails."""
    return next(filter(None, (verification._transforms_problem(c, g, count)
                              for c, g in inputs)), "")


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

    def test_every_check_has_a_breaker(self, capsys):
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 0
        printed = {line.split()[1] for line in out.splitlines() if line.startswith("[")}
        assert set(CHECK_BREAKERS) == printed

    def test_table_built_with_twice_v_fails_power_norm_law(self, capsys, monkeypatch):
        # 2v is fixed by tau whenever v is, so the wrong table is a valid
        # type's table; the first candidate with v != 0 is caught at x = 0.
        monkeypatch.setattr(classify, "build_group",
                            lambda t: build_group(replace(t, v=t.v.scale(2))))
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 1
        assert "[FAIL] power-norm-law — 2x2-r1-v-e1: x=(0, 0)" in out.splitlines()

    def test_table_built_with_tau_inverse_fails_group_axioms(self, capsys, monkeypatch):
        # tau^-1 has the same norm as tau, so power-norm-law cannot see it;
        # the relations on the standard generators name the moved basis
        # vector of the first candidate.
        monkeypatch.setattr(classify, "build_group",
                            lambda t: build_group(replace(t, tau=mat_inverse(t.tau))))
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 1
        assert "[FAIL] group-axioms — 2x2-r1-v0: a e2 a^-1 != tau(e2)" in out.splitlines()

    def test_verification_shares_no_table_builder(self):
        # The certificates must not share the builder's bugs.
        for name in ("_plus_ranks", "_linear_ranks", "_table_of_translates", "_rotated",
                     "build_group"):
            assert not hasattr(verification, name), name

    @pytest.mark.parametrize("breakage", ["shift-keeps-v", "power-keeps-v", "conjugate-keeps-tau"])
    def test_broken_transform_fails_only_transform_equivalence(self, capsys, monkeypatch,
                                                               breakage):
        name, breaker = TRANSFORM_BREAKERS[breakage]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 1
        failed = [line.split()[1] for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failed == ["transform-equivalence"]

    def test_transform_check_passes_at_p5(self, p5_transform_inputs):
        assert first_transform_problem(p5_transform_inputs) == ""

    @pytest.mark.parametrize("breakage", list(TRANSFORM_BREAKERS))
    def test_broken_transform_is_caught_at_p5(self, monkeypatch, p5_transform_inputs, breakage):
        name, breaker = TRANSFORM_BREAKERS[breakage]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        assert f" {name}: " in first_transform_problem(p5_transform_inputs)

    def test_failed_trial_names_the_relation(self, monkeypatch, p5_transform_inputs):
        name, breaker = TRANSFORM_BREAKERS["shift-keeps-v"]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        assert first_transform_problem(p5_transform_inputs) == (
            "2x2-r1-v0 shift_generator: its map is not an isomorphism (a^5 != v)")

    def test_transforms_run_no_isomorphism_search(self, capsys, monkeypatch):
        # 1 call, the positive pair's search.  The negative pairs read their
        # classes' fingerprints and twist counts.  classify does not import
        # the oracle: it certifies its 5 expected merges by explicit maps and
        # its 105 pairs of classes by fingerprint or twist count.  The
        # Table 2 rows make none, and the transform trials check their own
        # maps instead.
        calls = []

        def counting(g1, g2):
            calls.append(None)
            return groups.isomorphic(g1, g2)
        assert not hasattr(classify, "isomorphic")
        monkeypatch.setattr(verification, "isomorphic", counting)
        code, _, _ = run(capsys, "verify", "--p", "3")
        assert code == 0
        assert len(calls) == 1

    def test_one_build_per_candidate(self, capsys, monkeypatch):
        # 15 candidates, one pass: the per-candidate checks, the Table 2
        # rows, the classes and the transform trials read the table the pass
        # holds, and the 261 transform trials build none.
        calls = []

        def counting(t):
            calls.append(None)
            return build_group(t)
        monkeypatch.setattr(classify, "build_group", counting)
        code, _, _ = run(capsys, "verify", "--p", "3")
        assert code == 0
        assert len(calls) == 15

    def test_transform_trials_build_no_table(self, monkeypatch):
        # Each trial checks its images on the relations in the candidate's group.
        inputs = [(c, build_group(c.ext)) for c in candidate_types(ClassifyConfig.for_prime(3))]
        calls = []

        def counting(t):
            calls.append(None)
            return build_group(t)
        for module in (p4groups, classify, extension):
            monkeypatch.setattr(module, "build_group", counting)
        assert first_transform_problem(inputs, 5) == ""
        assert calls == []

    def test_catalog_entry_with_tau_to_the_p_not_identity_fails(self, capsys, monkeypatch):
        # 2*I on C9 x C3 has order 6, so tau^3 != I although tau != I.
        real = verification.tau_catalog
        monkeypatch.setattr(verification, "tau_catalog", lambda cfg: [
            (name, MixedModulusMatrix.scalar(tau.profile, 2) if name == "2x2-r1" else tau)
            for name, tau in real(cfg)])
        code, out, _ = run(capsys, "verify", "--p", "3")
        assert code == 1
        assert "[FAIL] tau-catalog-order — catalog entries of wrong order: ['2x2-r1']" in out

    def test_seed_has_no_effect(self, capsys):
        code0, out0, _ = run(capsys, "verify", "--p", "3", "--seed", "0")
        code7, out7, _ = run(capsys, "verify", "--p", "3", "--seed", "7")
        assert code0 == code7 == 0
        assert out0 == out7

    @pytest.mark.slow
    def test_p7_passes_every_check(self, capsys):
        # group-axioms proves the 19 order-2401 candidate tables associative.
        code, out, _ = run(capsys, "verify", "--p", "7")
        assert code == 0
        assert out.splitlines()[-1] == "14/14 checks passed"
