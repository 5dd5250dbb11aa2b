import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import qhjqes
import qhjqes.cli as cli_module
import qhjqes.qmf as qmf_module
from qhjqes import oracle, spectra
from qhjqes.cli import build_family, main
from qhjqes.families import FAMILIES, PotentialFamily

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SEXTIC_N2 = {"family": {"name": "sextic", "alpha": -7.0, "beta": 0.0, "gamma": 1.0}}
HUGE = 10**400  # a JSON integer literal that no float can hold


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


@pytest.mark.parametrize("name", [["circular"], {"circular": 1}, 3])
def test_family_name_that_is_not_a_string_is_a_config_error(tmp_path, capsys, name):
    cfg = write_config(tmp_path, {"family": {"name": name, "S1": 1.0, "S2": 1.2, "q1": 1.0, "M": 2}})
    assert main(["derive", "--config", cfg]) == 1
    assert "config error: unknown family name" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "grid",
    [
        {},
        {"x_min": 1.0, "x_max": -1.0},
        {"x_min": "a", "x_max": 1.0},
        {"x_min": "-6", "x_max": True},
        {"x_min": -6, "x_max": HUGE},
    ],
    ids=["no-ends", "reversed-ends", "non-numeric-end", "string-and-boolean-ends", "end-too-large-for-a-float"],
)
def test_invalid_grid_is_a_config_error(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grid": grid})
    assert main(["spectrum", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "grid" in err


@pytest.mark.parametrize(
    "outputs",
    [{"csv": 1}, {"report": 7}, {"report": 2.5}, {"csv": ["poles.csv"]}, {"report": ""}, {"csv": None}],
    ids=["int-csv", "int-report", "float-report", "list-csv", "empty-report", "null-csv"],
)
def test_non_string_output_path_is_a_config_error(tmp_path, capsys, outputs):
    # an integer path would be taken as a file descriptor and closed after writing
    cfg = write_config(tmp_path, {**SEXTIC_N2, "outputs": outputs})
    assert main(["poles", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "output path" in err


@pytest.mark.parametrize("via_out", [False, True], ids=["outputs-report", "out-flag"])
def test_report_and_csv_on_one_path_is_a_config_error(tmp_path, monkeypatch, capsys, via_out):
    # the report would overwrite the CSV; the second spelling of the same file is relative to the working directory
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "poles.out"
    outputs = {"csv": str(path)} if via_out else {"report": "poles.out", "csv": str(path)}
    cfg = write_config(tmp_path, {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": 2}, "outputs": outputs})
    assert main(["poles", "--config", cfg] + (["--out", "./poles.out"] if via_out else [])) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "both be written" in err
    assert not path.exists()


@pytest.mark.parametrize(
    "config",
    [
        {**SEXTIC_N2, "tolerances": {"oracle_tol": "a"}},
        {**SEXTIC_N2, "tolerances": {"residue_tol": float("nan")}},
        {**SEXTIC_N2, "tolerances": {"oracle_tol": -1}},
        {**SEXTIC_N2, "tolerances": {"oracle_tol": True}},
        {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2.7}},
        {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": 2.5}},
        {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": True, "M": 2}},
        {"family": {"name": "circular", "S1": "1.0", "S2": 1.2, "q1": 1.5, "M": 2}},
        {**SEXTIC_N2, "tolerances": {"oracle_tol": HUGE}},
        {"family": {**SEXTIC_N2["family"], "gamma": HUGE}},
        {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": HUGE}},
        {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": HUGE}},
        {**SEXTIC_N2, "grid": {"x_min": -6.0, "x_max": 6.0, "n": 48}},
    ],
    ids=["string-tol", "nan-tol", "negative-tol", "bool-tol", "fractional-M", "fractional-n",
         "bool-param", "string-param", "huge-tol", "huge-param", "huge-n", "huge-M", "grid-n-is-an-unknown-key"],
)
def test_malformed_number_is_a_config_error(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    assert main(["verify", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err
    if "grid" in config:  # the oracle sets its own node counts: even n = 48, N_START's value, is refused
        assert "unknown keys in grid: ['n']" in err


# ----------------------------------------------------------------- derive


def test_derive_sextic_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == "3"
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
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_relative_out_is_written_under_the_working_directory(tmp_path, monkeypatch):
    # no environment variable redirects output paths
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.setenv("QHJQES_OUT_DIR", str(elsewhere))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg, "--out", "report.json"]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["command"] == "derive"
    assert list(elsewhere.iterdir()) == []


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
    csv_path = tmp_path / "levels.csv"
    cfg = write_config(tmp_path, {**SEXTIC_N2, "outputs": {"csv": str(csv_path)}})
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    census = report["results"]["census"]
    assert (census["n_real"], census["n_complex"]) == (0, 2)
    assert abs(census["quantization_value"]) < 1e-8
    assert abs(census["global_count"] - 2) < 1e-8

    csv_lines = csv_path.read_text().strip().splitlines()
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

    # without outputs.csv no CSV is written, in the working directory or elsewhere
    csv_path.unlink()
    assert main(["poles", "--config", write_config(tmp_path, SEXTIC_N2), "--level", "0"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


@pytest.mark.parametrize(
    "command,key,target",
    [("poles", "csv", "missing/p.csv"), ("derive", "report", "missing/r.json"), ("derive", "report", ".")],
    ids=["poles-csv-no-dir", "derive-report-no-dir", "derive-report-is-dir"],
)
def test_unwritable_output_is_an_output_error(tmp_path, capsys, command, key, target):
    path = str(tmp_path / target)
    cfg = write_config(tmp_path, {**SEXTIC_N2, "outputs": {key: path}})
    assert main([command, "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [err.strip()] and err.startswith(f"output error: {path}: ")
    assert "Traceback" not in err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    assert main(["derive", "--config", cfg]) == 0
    assert built == []

    assert main(["frobnicate", "--config", cfg]) == 1
    assert main(["poles"]) == 1
    assert main(["poles", "--config", cfg, "--level", "x"]) == 1
    capsys.readouterr()
    assert main(["poles", "--config", cfg, "--level", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["level"] == 1
    assert main(["poles", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["level"] == 0


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


@pytest.mark.parametrize("alpha, residual", [(-1.0, "1"), (-7.1, "0.05")], ids=["count-below-zero", "count-2.05"])
def test_off_condition_sextic_gives_one_refusal_everywhere(tmp_path, capsys, alpha, residual):
    # condition value -alpha: n = -1 lies below the nonnegative integers, n = 2.05 between two of them
    cfg = write_config(tmp_path, {"family": {"name": "sextic", "alpha": alpha, "beta": 0.0, "gamma": 1.0}})
    texts = set()
    for command, check in [
        ("derive", "qes_condition"),
        ("verify", "recursion_truncates"),
        ("spectrum", "recursion_truncates"),
        ("poles", "recursion_truncates"),
    ]:
        assert main([command, "--config", cfg]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"] if not c["pass"]] == [check]
        texts.add(report["checks"][-1]["measured"])
    assert len(texts) == 1
    (text,) = texts
    assert f"(residual {residual}), so the recursion does not truncate" in text


def test_verify_radial_example(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "family": {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
        },
    )
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "state_0_infinity_exponent" in names


@pytest.mark.parametrize(
    "family",
    [
        {"name": "sextic_qes", "a": 1.0, "b": 4.0, "n": 1},
        {"name": "sextic_qes", "a": 1.0, "b": -4.0, "n": 1},
        {"name": "sextic_qes", "a": 0.5, "b": 2.0, "n": 1},
        {"name": "sextic_qes", "a": 2.0, "b": 8.0, "n": 1},
        {"name": "sextic_qes", "a": 0.05, "b": 1.0, "n": 2},
        {"name": "radial_sextic", "S": 1.1, "a": 0.05, "b": 1.0, "M": 2},
    ],
    ids=["b4", "b-4", "a0.5-b2", "a2-b8", "a0.05-b1", "radial-a0.05-b1"],
)
def test_infinity_fit_starts_where_the_leading_term_dominates(tmp_path, capsys, family):
    # p ~ i(a z^3 + b z): with |b/a| >= 4 a ray at 10 <= |z| <= 100 is not yet asymptotic
    cfg = write_config(tmp_path, {"family": family})
    assert main(["verify", "--config", cfg]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    fits = [c for c in checks if "_infinity_" in c["name"]]
    assert fits and all(c["pass"] for c in fits)


def test_non_finite_residual_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # a NaN residual cannot go in a report as a number; the report records it as a failed check
    monkeypatch.setattr(spectra, "schrodinger_residual", lambda state: float("nan"))
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["verify", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] == "state_0_eigen_identity_residual"
    (check,) = [c for c in report["checks"] if c["name"] == "state_0_eigen_identity_residual"]
    assert check["measured"] == "non-finite measured value nan"


def test_wells_far_from_the_origin_are_sampled(tmp_path, capsys):
    # b = -200 puts the radial wells near x = 14, where exp(-G) is e^10000; the window reaches them and
    # psi is scaled by exp(G_min), so every residual is finite. The top state's 8e-8 is an absolute
    # residual beside potential terms of 1.6e7: it fails the 1e-8 tolerance, which stays as it is.
    cfg = write_config(tmp_path, {"family": {"name": "radial_sextic", "S": 1.1, "a": 1.0, "b": -200.0, "M": 1}})
    main(["verify", "--config", cfg])
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for i in (0, 1):
        assert type(checks[f"state_{i}_eigen_identity_residual"]["measured"]) is float
        assert checks[f"state_{i}_oracle_containment"]["pass"]


def test_window_holds_the_top_states_of_a_large_instance(tmp_path, capsys):
    # x^40 P-degree states reach past the gauge's own envelope; the window counts their degree, so the
    # oracle on it finds every algebraic energy of radial M = 20
    cfg = write_config(tmp_path, {"family": {"name": "radial_sextic", "S": 1.1, "a": 1.0, "b": 0.5, "M": 20}})
    assert main(["spectrum", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
    assert len(report["results"]["matches"]) == 21
    assert max(m["difference"] for m in report["results"]["matches"]) <= 1e-8


@pytest.mark.parametrize(
    "family",
    [
        {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2},
        {"name": "hyperbolic", "S1": 1.0, "S2": 0.9, "q1": 1.0, "M": 2},
        {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 12},
        {"name": "circular", "S1": 0.62, "S2": 0.61, "q1": 1.0, "M": 6},
        # the states reach past any fixed window: small a or q1, or wells at |x| = sqrt(-b/a)
        {"name": "sextic_qes", "a": 0.02, "b": 0.0, "n": 2},
        {"name": "sextic_qes", "a": 0.01, "b": 0.0, "n": 2},
        {"name": "sextic_qes", "a": 0.05, "b": -1.0, "n": 2},
        {"name": "sextic_qes", "a": 1.0, "b": -100.0, "n": 0},
        {"name": "radial_sextic", "S": 1.1, "a": 0.02, "b": 0.0, "M": 2},
        {"name": "hyperbolic", "S1": 1.1, "S2": 1.3, "q1": 0.01, "M": 2},
    ],
    ids=[
        "circular", "hyperbolic", "sextic-n12", "circular-small-exponents", "sextic-a0.02", "sextic-a0.01",
        "sextic-a0.05-b-1", "sextic-b-100", "radial-a0.02", "hyperbolic-q1-0.01",
    ],
)
def test_verify_passes_at_default_tolerances(tmp_path, capsys, family):
    cfg = write_config(tmp_path, {"family": family})
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] is None


_STRONG_WALLS = {
    "radial-S": lambda s: {"name": "radial_sextic", "S": s, "a": 1.0, "b": 0.5, "M": 4},
    "circular-S1": lambda s: {"name": "circular", "S1": s, "S2": 1.3, "q1": 1.0, "M": 4},
    "circular-S1-S2": lambda s: {"name": "circular", "S1": s, "S2": s, "q1": 1.0, "M": 4},
    "hyperbolic-S2": lambda s: {"name": "hyperbolic", "S1": 1.1, "S2": s, "q1": 1.0, "M": 4},
    "hyperbolic-S1": lambda s: {"name": "hyperbolic", "S1": s, "S2": 1.3, "q1": 1.0, "M": 4},
}


@pytest.mark.parametrize("strength", [6.0, 8.0, 10.0, 15.0, 20.0, 30.0])
@pytest.mark.parametrize("row", sorted(_STRONG_WALLS))
def test_verify_passes_next_to_a_strong_wall(tmp_path, capsys, row, strength):
    # wall exponents 2 mu up to 119, far past the sampled ranges (S <= 2.5): the rule must carry the mass
    # weight w^2 / sqrt(Q) exactly, and D's diagonal must not cancel between weights of very different size
    cfg = write_config(tmp_path, {"family": _STRONG_WALLS[row](strength)})
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []


_STRONGER_WALLS = {
    "radial": lambda s: {"name": "radial_sextic", "S": s, "a": 1.0, "b": 0.5, "M": 4},
    "radial-a0.05-b-1": lambda s: {"name": "radial_sextic", "S": s, "a": 0.05, "b": -1.0, "M": 4},
    "circular-S1": lambda s: {"name": "circular", "S1": s, "S2": 1.3, "q1": 1.0, "M": 4},
    "circular-S1-q1-0.01": lambda s: {"name": "circular", "S1": s, "S2": 1.3, "q1": 0.01, "M": 4},
    "circular-S1-q1-neg2": lambda s: {"name": "circular", "S1": s, "S2": 1.3, "q1": -2.0, "M": 4},
    "circular-S1-S2-q1-0.01": lambda s: {"name": "circular", "S1": s, "S2": s, "q1": 0.01, "M": 4},
    "hyperbolic-S2": lambda s: {"name": "hyperbolic", "S1": 1.1, "S2": s, "q1": 1.0, "M": 4},
    "hyperbolic-S2-q1-0.05": lambda s: {"name": "hyperbolic", "S1": 1.1, "S2": s, "q1": 0.05, "M": 4},
}


@pytest.mark.parametrize("argv", [["spectrum"], ["poles", "--level", "0"]], ids=["spectrum", "poles"])
@pytest.mark.parametrize("strength", [40.0, 60.0, 100.0])
@pytest.mark.parametrize("row", sorted(_STRONGER_WALLS))
def test_spectrum_and_census_pass_next_to_a_stronger_wall(tmp_path, capsys, row, strength, argv):
    # hyperbolic S2 >= 60 needs the grown domain refined, as t = cosh x grows by e per unit of x; circular q1 =
    # 0.01 puts the zeros thousands of units apart in t, where a single stadium would need over 1000 panels
    cfg = write_config(tmp_path, {"family": _STRONGER_WALLS[row](strength)})
    assert main(argv + ["--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_oracle_failure_still_emits_report(tmp_path, capsys, command):
    # A box of half-width 1 truncates the sextic's bound states grossly.
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grid": {"x_min": -1.0, "x_max": 1.0}})
    assert main([command, "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["oracle_convergence"]
    assert "gross" in failed[0]["measured"]
    assert report["results"]["first_failure"] == "oracle_convergence"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize(
    "config",
    [
        {**SEXTIC_N2, "grid": {"x_min": -2.2, "x_max": 2.2}},
    ],
    ids=["sextic-short-box"],
)
def test_poorly_certified_oracle_fails_its_check(tmp_path, capsys, command, config):
    # these grids truncate the states: the oracle converges but certifies its
    # levels only to 1e-3..1, so its containment check must not pass
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] == "oracle_certified"
    certified = next(c for c in report["checks"] if c["name"] == "oracle_certified")
    assert certified["measured"] > certified["tolerance"] == 1e-4
    for check in report["checks"]:
        if check["name"].endswith("_oracle_containment"):
            assert check["tolerance"] == 1e-4


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize(
    "family,ends",
    [
        ({"name": "circular", "S1": 0.62, "S2": 0.61, "q1": 1.0, "M": 2}, (1e-3, 1.5697963267948966)),
        ({"name": "circular", "S1": 1.1, "S2": 1.3, "q1": 1.0, "M": 2}, (0.0, 2.0)),
        ({"name": "hyperbolic", "S1": 1.1, "S2": 1.3, "q1": 1.0, "M": 2}, (-1.0, 4.0)),
        ({"name": "radial_sextic", "S": 1.1, "a": 1.0, "b": 0.5, "M": 2}, (-2.0, 4.0)),
    ],
    ids=["circular-off-wall", "circular-past-wall", "hyperbolic-past-wall", "radial-past-wall"],
)
def test_grid_end_off_a_wall_is_a_config_error(tmp_path, capsys, command, family, ends):
    # where the family's interval is finite the grid's end must be that wall: an end off it or past it
    # is refused before the oracle runs, with the interval named
    cfg = write_config(tmp_path, {"family": family, "grid": {"x_min": ends[0], "x_max": ends[1]}})
    assert main([command, "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error" in err and "interval (0.0, " in err


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_grid_n_below_the_level_count_is_raised(tmp_path, capsys, monkeypatch, command):
    # M = 4 asks the oracle for 2 * 5 + 4 = 14 levels, more than the 8 starting nodes
    monkeypatch.setattr(oracle, "N_START", 8)
    cfg = write_config(
        tmp_path,
        {
            "family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 4},
            "grid": {"x_min": 0.0, "x_max": 1.5707963267948966},
        },
    )
    assert main([command, "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["first_failure"] is None


@pytest.mark.parametrize("argv", [["verify"], ["poles", "--level", "20"]], ids=["verify", "poles"])
def test_library_error_still_emits_report(tmp_path, capsys, argv):
    # the top states' stadium integrals pick up imaginary parts of 1e-4 to 1e-3 for this instance
    cfg = write_config(tmp_path, {"family": {"name": "circular", "S1": 1.1, "S2": 1.3, "q1": 1.0, "M": 20}})
    assert main(argv + ["--config", cfg]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert report["results"]["first_failure"] == failed[0]["name"]
    assert re.fullmatch(r"state_\d+_census", failed[-1]["name"])
    for text in (failed[-1]["measured"], report["results"]["error"], err):
        assert "quantization integral is not real" in text
    if argv[0] == "poles":
        assert [c["name"] for c in failed] == ["state_20_census"]


# The poles-large op of seed 6, op 4: the non-symmetric eigensolver's top vector component vanished
# here ("leading recursion coefficient vanished"); the symmetric form solves it.
_CIRCULAR_M12 = {"name": "circular", "S1": 1.154927594323222, "S2": 1.3222843977695171,
                 "q1": -0.6668365686130799, "M": 12}


def test_poles_passes_on_a_formerly_unnormalizable_recursion(tmp_path, capsys):
    cfg = write_config(tmp_path, {"family": _CIRCULAR_M12})
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] is None
    assert [c["name"] for c in report["checks"]] == ["recursion_truncates", "algebraic_energies_real"] + [
        f"state_0_{fact}" for fact in ("degree_law", "quantization", "global_count", "residues")
    ]
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize(
    "family",
    [
        {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2},
        {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
    ],
    ids=lambda f: f["name"],
)
def test_poles_and_verify_emit_the_same_census_checks(tmp_path, capsys, family):
    # one battery builds a state's census checks for both commands, under one set of names
    cfg = write_config(tmp_path, {"family": family})
    assert main(["verify", "--config", cfg]) == 0
    verify_checks = json.loads(capsys.readouterr().out)["checks"]
    for level in range(family["M"] + 1):
        assert main(["poles", "--config", cfg, "--level", str(level)]) == 0
        poles_checks = json.loads(capsys.readouterr().out)["checks"]
        census = [c for c in poles_checks if c["name"].startswith(f"state_{level}_")]
        names = [f"state_{level}_{fact}" for fact in ("degree_law", "quantization", "global_count", "residues")]
        assert [c["name"] for c in census] == names
        assert census == [c for c in verify_checks if c["name"] in names]


@pytest.mark.parametrize("argv", [["verify"], ["poles", "--level", "1"]], ids=["verify", "poles"])
def test_each_residue_is_measured_once(tmp_path, monkeypatch, argv):
    # poles measures its level's moving residues in the census battery and only the fixed ones in pole_reports
    family = {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2}
    states = spectra.algebraic_states(build_family(family))
    if argv[0] == "verify":
        expected = sum(s.n_label for s in states)
    else:
        expected = states[1].n_label + len(states[1].gauge.ledger.fixed_residues)
    real_residue, calls = qmf_module.residue_at_zero, []

    def counting(e, z0):
        calls.append(z0)
        return real_residue(e, z0)

    monkeypatch.setattr(qmf_module, "residue_at_zero", counting)
    monkeypatch.setattr(cli_module, "residue_at_zero", counting)
    cfg = write_config(tmp_path, {"family": family})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("argv,states", [(["verify"], 3), (["poles", "--level", "1"], 1)], ids=["verify", "poles"])
def test_one_root_solve_per_state(tmp_path, monkeypatch, argv, states):
    real_roots, calls = qmf_module.poly_roots, []
    monkeypatch.setattr(qmf_module, "poly_roots", lambda pol: calls.append(pol) or real_roots(pol))
    cfg = write_config(tmp_path, {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2}})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == states


@pytest.mark.parametrize(
    "family",
    [
        SEXTIC_N2["family"],
        {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": 3},
        {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
        {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2},
        {"name": "hyperbolic", "S1": 1.0, "S2": 0.9, "q1": 1.0, "M": 2},
    ],
    ids=lambda f: f["name"],
)
def test_verify_carries_every_derive_check(tmp_path, capsys, family):
    cfg = write_config(tmp_path, {"family": family})
    names = {}
    for command in ("derive", "verify"):
        assert main([command, "--config", cfg]) == 0
        names[command] = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names["derive"] and set(names["derive"]) <= set(names["verify"])


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(REPO, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _load_perfbench(monkeypatch, name):
    """A benchmark module loaded from its file, importable by its name for the rest of the test."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(REPO, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "family,commands,level",
    [
        (SEXTIC_N2["family"], ("derive", "verify", "poles"), 1),
        ({"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2}, ("derive", "verify", "poles"), 1),
        (_CIRCULAR_M12, ("derive", "poles"), 0),  # its verify fails the residual on the top levels
        ({"name": "sextic_qes", "a": 0.02, "b": 0.0, "n": 2}, ("verify",), 0),
    ],
    ids=["sextic", "circular", "circular-M12", "sextic-a0.02"],
)
def test_benchmark_judges_every_report(tmp_path, monkeypatch, family, commands, level):
    # a schema change that drops a key the benchmark reads fails here, not as Unevaluable in a benchmark run
    _load_perfbench(monkeypatch, "workloads")  # outcomes imports it by name
    outcomes = _load_perfbench(monkeypatch, "outcomes")
    report, csv = tmp_path / "report.json", tmp_path / "poles.csv"
    cfg = write_config(tmp_path, {"family": family, "outputs": {"report": str(report), "csv": str(csv)}})
    for command in commands:
        inst = {"command": command, "family": family, "level": level}
        argv = [command, "--config", cfg] + (["--level", str(level)] if command == "poles" else [])
        code = main(argv)
        csv_text = csv.read_text() if command == "poles" else None
        outcome = outcomes.judge(inst, code, "", report.read_text(), csv_text)
        assert (outcome.status, outcome.reason) == ("ok", ""), command


def test_traced_names_resolve_to_functions():
    # the benchmark's tracer wraps these names where the CLI looks them up
    plan = _load_tracing().wrap_plan()
    assert plan
    for owner, attr, *_ in plan:
        assert inspect.isfunction(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
    # the contour spans record their node count from this parameter, by name
    assert "n_points" in inspect.signature(importlib.import_module("qhjqes.series").contour_integral).parameters


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qhjqes.__path__)))
def test_exported_names_resolve(module):
    # a stale export is caught here, not only when the tracer happens to wrap it
    mod = importlib.import_module(f"qhjqes.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qhjqes.__path__)))
def test_exported_names_are_used_in_src(module):
    # a name in __all__ that no code of the package reads serves only the tests; docstrings do not count
    used = set()
    for info in pkgutil.iter_modules(qhjqes.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"qhjqes.{info.name}")))
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in importlib.import_module(f"qhjqes.{module}").__all__ if name not in used] == []


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(qhjqes.__path__)))
def test_exported_names_are_defined_in_their_module(module):
    # one home per name: no module passes on another module's names
    mod = importlib.import_module(f"qhjqes.{module}")
    source = inspect.getsource(mod)
    foreign = []
    for name in mod.__all__:
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            home = obj.__module__ == mod.__name__
        else:
            home = re.search(rf"^{name}\s*(:[^=\n]*)?=", source, re.M) is not None
        if not home:
            foreign.append(name)
    assert foreign == []


def test_the_package_is_its_modules():
    # no name of the package shadows a module: qhjqes.qmf is the census module, not its function qmf
    from qhjqes import qmf

    assert qmf is qmf_module and inspect.ismodule(qmf_module) and qmf_module.__name__ == "qhjqes.qmf"
    assert [n for n, v in vars(qhjqes).items() if inspect.isfunction(v) or inspect.isclass(v)] == []


@pytest.mark.parametrize("module", ["engine", "oracle", "qmf", "series", "spectra"])
def test_only_families_and_cli_name_a_family_class(module):
    # the pipeline reads a family's data; a module that names a concrete family could branch on it
    tree = ast.parse(inspect.getsource(importlib.import_module(f"qhjqes.{module}")))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "families":
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "families":
            named.add(node.attr)
    assert named & {"Sextic", "RadialSextic", "Circular", "Hyperbolic", "FAMILIES", "family_kind"} == set()


# What the pipeline may read of a family: the data every family provides.
_PROTOCOL = {
    "chart", "interval", "singular_points", "moving_weight", "potential_in_chart", "solve_ledger", "ledger_check",
}


def test_no_family_class_transcribes_derived_data():
    # V(x) and the walls are derived from the chart, the potential in the chart and the interval, in one place
    for cls in FAMILIES.values():
        for klass in cls.__mro__[: cls.__mro__.index(PotentialFamily)]:
            assert {"potential", "walls", "infinity_target"} & set(vars(klass)) == set(), klass.__name__


def _family_parameters() -> set:
    """Fields and properties of the family classes that are not in the protocol."""
    names = set()
    for cls in FAMILIES.values():
        names |= {f.name for f in dataclasses.fields(cls)}
        names |= {name for klass in cls.__mro__ for name, v in vars(klass).items() if isinstance(v, property)}
    return names - _PROTOCOL


@pytest.mark.parametrize("module", ["engine", "oracle", "qmf", "series", "spectra", "cli"])
def test_no_module_outside_families_reads_a_family_parameter(module):
    # a module that reads alpha, a, q1 or M knows which family it has; it must read the protocol's data
    tree = ast.parse(inspect.getsource(importlib.import_module(f"qhjqes.{module}")))
    parameters = _family_parameters()
    assert {"a", "S", "q1", "M"} <= parameters
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in parameters}
    assert read == set()


def test_traced_verify_records_oracle_node_counts(tmp_path):
    # the benchmark's traced pass reads node counts from the oracle's spans
    tracing = _load_tracing()
    cfg = write_config(tmp_path, {"family": {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2}})
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(["verify", "--config", cfg, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.root("cli.main", "cli", 0, main, ["verify", "--config", cfg, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    for name in ("oracle.refine", "oracle.low_spectrum", "series.contour_integral"):
        infos = [info for span, info in zip(tracer.name, tracer.info) if span == name]
        assert infos and all(type(info) is int and info > 0 for info in infos), name


def test_derive_loads_no_numpy_polynomial(tmp_path):
    # the ledger is plain arithmetic: one derive per family leaves numpy.polynomial (and LAPACK) unloaded
    package_root = os.path.dirname(os.path.dirname(qhjqes.__file__))
    configs = [
        write_config(tmp_path, {"family": family}, f"{family['name']}.json")
        for family in (
            SEXTIC_N2["family"],
            {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
            {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": -1.5, "M": 2},
            {"name": "hyperbolic", "S1": 1.0, "S2": 0.9, "q1": 1.0, "M": 2},
        )
    ]
    script = (
        "import sys, qhjqes.cli\n"
        f"codes = [qhjqes.cli.main(['derive', '--config', c, '--out', c + '.out']) for c in {configs!r}]\n"
        "print(codes, 'numpy.polynomial' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0] False"


def test_cli_import_loads_no_scipy():
    package_root = os.path.dirname(os.path.dirname(qhjqes.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qhjqes.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------ serialization


def test_report_is_one_line_of_sorted_json(tmp_path, capsys):
    # shortest round-trip floats: re-encoding the parsed report gives back its bytes
    cfg = write_config(tmp_path, {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2}})
    assert main(["poles", "--config", cfg, "--level", "1"]) == 0
    text = capsys.readouterr().out
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True) + "\n"
    assert set(report["results"]["poles"][0]["residue"]) == {"im", "re"}


def test_non_finite_report_value_exits_2_with_no_report(tmp_path, capsys, monkeypatch):
    # a report holds finite numbers only; the writer refuses any other and writes nothing
    monkeypatch.setattr(cli_module, "family_kind", lambda family: float("inf"))
    out = tmp_path / "report.json"
    assert main(["derive", "--config", write_config(tmp_path, SEXTIC_N2), "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith("verification failure: ")


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
