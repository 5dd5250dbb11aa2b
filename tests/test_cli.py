import json
import os
import subprocess
import sys

import pytest

import qhjqes
from qhjqes.cli import canonical_json, main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SEXTIC_N2 = {"family": {"name": "sextic", "alpha": -7.0, "beta": 0.0, "gamma": 1.0}}


# ------------------------------------------------------------ config layer


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grod": {}})
    assert main(["derive", "--config", cfg]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_family_parameter_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": 1.0, "beta": 0.0, "gamma": 1.0, "x": 2}}
    )
    assert main(["derive", "--config", cfg]) == 1


def test_missing_family_field_rejected(tmp_path):
    cfg = write_config(tmp_path, {"family": {"name": "sextic", "alpha": 1.0}})
    assert main(["derive", "--config", cfg]) == 1


def test_invalid_parameter_range_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": 1.0, "beta": 0.0, "gamma": -1.0}}
    )
    assert main(["derive", "--config", cfg]) == 1


def test_missing_file_is_a_config_error():
    assert main(["derive", "--config", "/nonexistent/nope.json"]) == 1


# ----------------------------------------------------------------- derive


def test_derive_sextic_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == "1"
    assert report["results"]["n"] == 2
    assert abs(report["results"]["solved_condition"]["lhs_value"] - 7.0) < 1e-12
    assert all(c["pass"] for c in report["checks"])
    selected = [b for b in report["results"]["branches_at_infinity"] if b["selected"]]
    assert len(selected) == 1
    assert abs(selected[0]["leading_coefficient"]["im"] - 1.0) < 1e-12


def test_derive_radial_shows_fixed_residue(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "radial_sextic", "S": 1.0, "a": 1.0, "b": 0.0, "M": 3}}
    )
    assert main(["derive", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solved_condition"]["rhs_form"] == "M=n"
    assert report["results"]["n"] == 3
    fixed = [e for e in report["results"]["ledger"] if "fixed" in e["source"]]
    assert "-1.5" in fixed[0]["detail"]  # residue -(i/2)(4S-1) = -3i/2


def test_derive_non_qes_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": -4.0, "beta": 0.0, "gamma": 1.0}}
    )
    assert main(["derive", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert "non-QES" in report["results"]["error"]


def test_derive_report_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["derive", "--config", cfg, "--out", out1]) == 0
    assert main(["derive", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_derive_reverifies_from_echoed_inputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    first = capsys.readouterr().out
    echoed = json.loads(first)["inputs"]
    cfg2 = write_config(tmp_path, echoed, name="echo.json")
    assert main(["derive", "--config", cfg2]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == json.loads(first)["checks"]


# ---------------------------------------------------------------- spectrum


def test_spectrum_sextic_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["spectrum", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    alg = report["results"]["algebraic_energies"]
    assert abs(alg[0] + 2.8284271247461903) < 1e-10
    assert abs(alg[1] - 2.8284271247461903) < 1e-10
    assert all(c["pass"] for c in report["checks"])


def test_spectrum_sanity_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["spectrum", "--config", cfg, "--sanity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [round(e) for e in report["results"]["oracle"]] == [1, 3, 5]


def test_spectrum_ground_state_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 0}}
    )
    assert main(["spectrum", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["algebraic_energies"][0]) < 1e-12


# ------------------------------------------------------------------- poles


def test_poles_levels_and_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    census = report["results"]["census"]
    assert (census["n_real"], census["n_complex"]) == (0, 2)
    assert abs(census["quantization_value"]) < 1e-8
    assert abs(census["global_count"] - 2) < 1e-8

    csv_lines = (tmp_path / "poles.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "re_z,im_z,kind,re_residue,im_residue"
    assert len(csv_lines) == 3
    for line in csv_lines[1:]:
        fields = line.split(",")
        assert fields[2] == "moving"
        assert abs(float(fields[4]) + 1.0) < 1e-8

    assert main(["poles", "--config", cfg, "--level", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    census = report["results"]["census"]
    assert (census["n_real"], census["n_complex"]) == (2, 0)
    assert abs(census["quantization_value"] - 2) < 1e-8


def test_poles_origin_node(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 1}}
    )
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    poles = report["results"]["poles"]
    assert len(poles) == 1
    assert abs(poles[0]["location"]["re"]) < 1e-12
    assert abs(poles[0]["residue"]["im"] + 1.0) < 1e-8


def test_poles_level_out_of_range(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["poles", "--config", cfg, "--level", "5"]) == 1


# ------------------------------------------------------------------ verify


def test_verify_sextic_instances_pass(tmp_path, capsys):
    for n in (0, 1, 2):
        cfg = write_config(
            tmp_path,
            {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": n}},
            name=f"v{n}.json",
        )
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["first_failure"] is None


def test_verify_perturbed_family_fails_with_truncation(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": -6.9, "beta": 0.0, "gamma": 1.0}}
    )
    assert main(["verify", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["name"] == "recursion_truncates"
    assert not report["checks"][0]["pass"]
    assert "truncate" in report["checks"][0]["measured"]


def test_verify_radial_example(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "family": {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
            "tolerances": {"oracle_tol": 2e-4},
        },
    )
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "state_0_infinity_exponent" in names


# ------------------------------------------------------------ serialization


def test_canonical_json_formatting():
    text = canonical_json({"b": 1.5, "a": [True, None, 2], "z": 1j})
    assert text.index('"a"') < text.index('"b"') < text.index('"z"')
    assert "1.5" in text and "true" in text and "null" in text


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(qhjqes.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qhjqes.cli", "derive", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["n"] == 2
