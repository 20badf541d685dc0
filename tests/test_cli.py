import dataclasses
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from crepcond import verify
from crepcond.cli import build_report, main, write_report
from crepcond.crep import CertificationError, RankCertificate, RankHypothesisError, condition_numbers
from crepcond.empirical import EmpiricalEstimate
from crepcond.linalg import InconsistentSystemError
from crepcond.problems import polar_problem
from crepcond.tensor import save_tensor
from crepcond.tucker import random_tucker_point


@pytest.fixture(scope="module")
def schema():
    with resources.files("crepcond").joinpath("report_schema.json").open("r") as fh:
        return json.load(fh)


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


def canonical_without_timing(path):
    doc = json.loads(path.read_text())
    doc.pop("timing_seconds")
    return json.dumps(doc, sort_keys=True)


def test_analyze_polar_report(tmp_path, schema, capsys):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    out = tmp_path / "report.json"
    code = main(["analyze", str(spec), "--seed", "3", "--empirical", "8:1e-4", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert abs(doc["condition"]["kappa_y"] - 1.0) <= 1e-10
    assert abs(doc["condition"]["kappa_z"]) <= 1e-10
    assert abs(doc["condition"]["kappa_yz"] - 1.0) <= 1e-10
    assert doc["certificate"]["passed"] is True
    assert doc["empirical"]["n_failed"] == 0
    assert 0.95 <= doc["empirical"]["max_ratio"] <= 1.05
    stdout = capsys.readouterr().out
    assert "kappa_y" in stdout


def test_analyze_deterministic_reports(tmp_path):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", str(spec), "--seed", "5", "--empirical", "4:1e-4", "--json", str(out1)]) == 0
    assert main(["analyze", str(spec), "--seed", "5", "--empirical", "4:1e-4", "--json", str(out2)]) == 0
    assert canonical_without_timing(out1) == canonical_without_timing(out2)


def test_report_objects_are_the_library_records(tmp_path, schema):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--empirical", "2:1e-4", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    for key, record in (("certificate", RankCertificate), ("empirical", EmpiricalEstimate)):
        names = [f.name for f in dataclasses.fields(record)]
        assert sorted(doc[key]) == sorted(names)
        assert sorted(schema["properties"][key]["required"]) == sorted(names)


def test_build_report_writes_null_for_non_finite_floats(tmp_path, schema):
    problem, point = polar_problem(0.0)
    report = condition_numbers(problem, point, n_samples=0)
    report = dataclasses.replace(report, certificate=dataclasses.replace(report.certificate, min_gap=math.inf))
    estimate = EmpiricalEstimate(radius=1.0, n_samples=4, max_ratio=math.nan, seed=0, n_failed=5)
    out = tmp_path / "report.json"
    write_report(build_report(problem.name, None, problem.dims, report, estimate, 0, None, 0.0), out)
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["certificate"]["min_gap"] is None
    assert doc["empirical"]["max_ratio"] is None


def test_analyze_custom_linearized_kappa_is_spectral_norm(tmp_path, schema):
    spec = write_spec(
        tmp_path,
        "lin.json",
        {"kind": "custom_linearized", "J_x": [[1.0], [2.0]], "J_y": [[1.0, 0.0], [0.0, 1.0]], "J_z": []},
    )
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["condition"]["kappa_y"] == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_analyze_tucker_spec(tmp_path, schema):
    from crepcond.tensor import TuckerPoint
    from crepcond.tucker import random_stiefel

    rng = np.random.default_rng(80)
    point = TuckerPoint(
        core=np.diag([2.0, 0.5]),
        factors=(random_stiefel(rng, 4, 2), random_stiefel(rng, 3, 2)),
    )
    save_tensor(point.product, tmp_path / "t.json")
    spec = write_spec(
        tmp_path, "tuck.json", {"kind": "tucker", "tensor": "t.json", "ranks": [2, 2], "output_variable": "U1"}
    )
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["dims"] == {"dim_x": 10, "dim_y": 5, "dim_z": 7, "n_residual": 12}
    assert doc["condition"]["kappa_y"] == pytest.approx(2.0, rel=1e-6)


def test_analyze_certificate_failure_exits_2(tmp_path, schema):
    # rank DF exceeds rank [J_y J_z]: the feasibility hypothesis fails
    spec = write_spec(
        tmp_path, "bad.json", {"kind": "custom_linearized", "J_x": [[1.0], [0.0]], "J_y": [[0.0], [1.0]], "J_z": []}
    )
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--json", str(out)]) == 2
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert doc["certificate"]["passed"] is False
    assert doc["condition"]["kappa_y"] is None


@pytest.mark.parametrize("error", [RankHypothesisError, InconsistentSystemError])
def test_analyze_exits_2_when_the_kappa_stage_raises(tmp_path, monkeypatch, capsys, error):
    def raising(*args, **kwargs):
        raise error("stacked system is singular")

    monkeypatch.setattr("crepcond.cli.condition_numbers", raising)
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    assert main(["analyze", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: constant-rank hypotheses violated numerically: stacked system is singular\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "polar"},
        {"kind": "unknown"},
        {"kind": "matrix_factorization", "m": 4, "n": 3},
    ],
)
def test_analyze_malformed_spec_exits_1(tmp_path, spec, capsys):
    path = write_spec(tmp_path, "bad.json", spec)
    assert main(["analyze", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"kind": "polar", "x0": NaN}',
        '{"kind": "matrix_factorization", "m": true, "n": 3, "k_rank": 1}',
        '{"kind": "tucker", "tensor": {"shape": [2, 2], "data": [1, 0, 0, 1]}, "ranks": [2, 2], '
        '"output_variable": true}',
        '{"kind": "custom_linearized", "J_x": [["1"], [true]], "J_y": [[1, 0], [0, 1]]}',
    ],
)
def test_analyze_rejects_nan_and_boolean_spec_values(tmp_path, text, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)  # Python's json reads NaN and true
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_analyze_missing_and_invalid_files(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nothere.json")]) == 1
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    assert main(["analyze", str(bad)]) == 1
    capsys.readouterr()
    # Unparsable flag values and missing arguments are usage errors too; 2 is
    # reserved for failed certificates.
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    for argv in (
        ["analyze", str(spec), "--rtol", "abc"],
        ["analyze", str(spec), "--seed", "x"],
        ["analyze"],
        ["tucker", str(spec)],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err


def test_analyze_bad_empirical_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    assert main(["analyze", str(spec), "--empirical", "banana"]) == 1
    assert "--empirical" in capsys.readouterr().err
    for bad in ("4:nan", "4:inf"):
        assert main(["analyze", str(spec), "--empirical", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--empirical" in err


def test_analyze_empirical_past_the_polar_pole_reports_failed_samples(tmp_path, capsys):
    # Radius 1 around x0 = 0 puts samples on the pole x = 1 of the polar system.
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0})
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec), "--empirical", "4:1", "--json", str(out)]) == 0
    empirical = json.loads(out.read_text())["empirical"]
    assert 1 <= empirical["n_failed"] < 5
    assert f"{empirical['n_failed']} failed" in capsys.readouterr().out


def test_rtol_env_override(tmp_path, monkeypatch, capsys):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    out = tmp_path / "report.json"
    monkeypatch.setenv("CREPCOND_RTOL", "1e-9")
    assert main(["analyze", str(spec), "--json", str(out)]) == 0
    assert json.loads(out.read_text())["rtol"] == 1e-9
    monkeypatch.setenv("CREPCOND_RTOL", "not-a-number")
    assert main(["analyze", str(spec)]) == 1
    capsys.readouterr()
    tensor = tmp_path / "t.json"
    save_tensor(random_tucker_point((4, 3), (2, 2), 85).product, tensor)
    commands = (["analyze", str(spec)], ["tucker", str(tensor), "--ranks", "2,2"])
    for bad in ("nan", "inf", "0", "-1"):
        for command in commands:
            for env, args in ((bad, command), ("", [*command, "--rtol", bad])):
                monkeypatch.setenv("CREPCOND_RTOL", env)
                assert main(args) == 1
                err = capsys.readouterr().err
                assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_analyze_rtol_reaches_tucker_spec(tmp_path, capsys):
    # Rank (2, 2, 2) plus noise: full multilinear rank at the default rtol, rank (2, 2, 2) at 1e-6.
    rng = np.random.default_rng(87)
    tensor = random_tucker_point((4, 3, 3), (2, 2, 2), 87).product + 1e-10 * rng.standard_normal((4, 3, 3))
    save_tensor(tensor, tmp_path / "t.json")
    spec = write_spec(tmp_path, "tuck.json", {"kind": "tucker", "tensor": "t.json", "ranks": [2, 2, 2]})
    out = tmp_path / "report.json"
    assert main(["analyze", str(spec)]) == 1
    assert "multilinear rank (4, 3, 3)" in capsys.readouterr().err
    assert main(["analyze", str(spec), "--rtol", "1e-6", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["certificate"]["passed"] is True
    capsys.readouterr()
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "2,2,2", "--rtol", "1e-6"]) == 0
    rows = {line.split()[0]: float(line.split()[1]) for line in capsys.readouterr().out.splitlines()[1:]}
    assert doc["condition"]["kappa_y"] == pytest.approx(rows["U1"], rel=1e-8)


def test_tucker_command_table_and_cross_validation(tmp_path, capsys):
    rng = np.random.default_rng(81)
    from crepcond.tensor import TuckerPoint
    from crepcond.tucker import random_stiefel

    core = np.diag([2.0, 0.5])
    point = TuckerPoint(core=core, factors=(random_stiefel(rng, 4, 2), random_stiefel(rng, 3, 2)))
    save_tensor(point.product, tmp_path / "t.json")
    code = main(["tucker", str(tmp_path / "t.json"), "--ranks", "2,2", "--all-variables", "--cross-validate"])
    assert code == 0
    out = capsys.readouterr().out
    lines = {line.split()[0]: line.split() for line in out.splitlines() if line and not line.startswith(("variable", "max"))}
    assert float(lines["core"][1]) == pytest.approx(1.0)
    assert float(lines["U1"][1]) == pytest.approx(2.0)
    assert float(lines["U2"][1]) == pytest.approx(2.0)
    assert float(lines["all"][1]) == pytest.approx(2.0)
    assert float(lines["U1"][3]) <= 1e-5  # relative difference column


def test_tucker_cross_validate_exits_2_when_certification_fails(tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise CertificationError("rank certificate failed for tucker-4x3-rank-2x2-core: sample 0: ...")

    monkeypatch.setattr("crepcond.cli.cross_validate", failing)
    save_tensor(random_tucker_point((4, 3), (2, 2), 87).product, tmp_path / "t.json")
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "2,2", "--cross-validate"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: cross-validation failed: rank certificate failed for tucker-4x3-rank-2x2-core: sample 0: ...\n"
    )
    assert captured.out == ""


def test_tucker_command_square_factors_show_zero(tmp_path, capsys):
    point = random_tucker_point((2, 2), (2, 2), 82)
    save_tensor(point.product, tmp_path / "t.json")
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "2,2"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("U")]
    assert all(float(r[1]) == 0.0 for r in rows)


def test_tucker_command_rank_mismatch_exits_1(tmp_path, capsys):
    point = random_tucker_point((4, 3), (2, 2), 83)
    save_tensor(point.product, tmp_path / "t.json")
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "3,3"]) == 1
    assert "multilinear rank" in capsys.readouterr().err


def test_tucker_command_bad_inputs(tmp_path, capsys):
    point = random_tucker_point((4, 3), (2, 2), 84)
    save_tensor(point.product, tmp_path / "t.json")
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "2,2,2"]) == 1
    assert main(["tucker", str(tmp_path / "t.json"), "--ranks", "a,b"]) == 1
    assert main(["tucker", str(tmp_path / "missing.json"), "--ranks", "2,2"]) == 1
    capsys.readouterr()
    (tmp_path / "strings.json").write_text('{"shape": [2, 2], "data": ["1", 0, false, true]}')
    assert main(["tucker", str(tmp_path / "strings.json"), "--ranks", "2,2"]) == 1
    assert "'data' must hold only numbers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify", "tucker"])
def test_negative_seed_exits_1(tmp_path, capsys, command):
    spec = write_spec(tmp_path, "polar.json", {"kind": "polar", "x0": 0.0})
    tensor = tmp_path / "t.json"
    save_tensor(random_tucker_point((4, 3), (2, 2), 86).product, tensor)
    argv = {
        "analyze": ["analyze", str(spec)],
        "verify": ["verify"],
        "tucker": ["tucker", str(tensor), "--ranks", "2,2", "--cross-validate"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match=r"unknown suite 'nope'; choose from \['full', 'quick'\]"):
        verify.run_suite("nope")


def test_polar_check_certifies_at_the_suite_seed(monkeypatch):
    seeds = []

    def recording(problem, point, **kwargs):
        seeds.append(kwargs["seed"])
        return condition_numbers(problem, point, **kwargs)

    monkeypatch.setattr(verify, "condition_numbers", recording)
    assert verify.check_polar_exact(seed=3).passed
    assert seeds == [3]


def test_verify_command_quick(capsys):
    assert main(["verify", "--suite", "quick", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
