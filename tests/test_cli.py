"""Command-line surface: exit codes, output formats, and schema round-trips."""

import json
from dataclasses import replace

import pytest

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
    "table2-reverification": ("emit_table2",
                              lambda real: _raising(ClassificationError("injected"))),
    "classification-counts": ("classify_p4", lambda real: lambda cfg, cands: replace(
        real(cfg, cands), abelian_count=4)),
    "abelian-subgroup-property": ("verify_prop_abelian_subgroup", lambda real: lambda g: False),
    "order-p2xp-subgroup-property": ("verify_prop_no_cyclic", lambda real: lambda g: False),
    "iso-pair-shared-relations": ("isomorphic", _flip_call(1)),
    "noniso-pair-split-v0": ("isomorphic", _flip_call(2)),
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
    """The arguments of the transform check at p = 5: it tries the first
    three candidates there."""
    cfg = ClassifyConfig.for_prime(5)
    return cfg, candidate_types(cfg)[:3]


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
        assert verification._check_transforms(*p5_transform_inputs).ok

    @pytest.mark.parametrize("breakage", list(TRANSFORM_BREAKERS))
    def test_broken_transform_is_caught_at_p5(self, monkeypatch, p5_transform_inputs, breakage):
        name, breaker = TRANSFORM_BREAKERS[breakage]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        result = verification._check_transforms(*p5_transform_inputs)
        assert not result.ok
        assert f" {name}: " in result.detail

    def test_failed_trial_names_the_relation(self, monkeypatch, p5_transform_inputs):
        name, breaker = TRANSFORM_BREAKERS["shift-keeps-v"]
        monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
        result = verification._check_transforms(*p5_transform_inputs)
        assert result.detail == (
            "2x2-r1-v0 shift_generator: its map is not an isomorphism (a^5 != v)")

    def test_transforms_run_no_isomorphism_search(self, capsys, monkeypatch):
        # 52 calls: 50 from classify_p4's same_class and 2 from the pair
        # checks.  classify_p4 certifies the 60 pairs that include an
        # abelian class by a fingerprint field, without the oracle;
        # emit_table2 makes none, and the transform trials check their own
        # maps instead.
        calls = []

        def counting(g1, g2):
            calls.append(None)
            return groups.isomorphic(g1, g2)
        for module in (classify, verification):
            monkeypatch.setattr(module, "isomorphic", counting)
        code, _, _ = run(capsys, "verify", "--p", "3")
        assert code == 0
        assert len(calls) == 52

    def test_one_build_per_candidate(self, capsys, monkeypatch):
        # 15 candidates: the per-candidate checks, the Table 2 rows,
        # classify_p4 and the transform trials share each candidate's group,
        # and the 261 transform trials build none.
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
        cfg = ClassifyConfig.for_prime(3)
        cands = candidate_types(cfg)
        for c in cands:
            c.group
        calls = []

        def counting(t):
            calls.append(None)
            return build_group(t)
        for module in (p4groups, classify, extension):
            monkeypatch.setattr(module, "build_group", counting)
        assert verification._check_transforms(cfg, cands).ok
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
