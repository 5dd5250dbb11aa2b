"""Command-line orchestration: derive, spectrum, poles, verify.

Configs and reports are JSON. A report (schema "3") is one line of JSON with
sorted keys, each float written as its shortest round-trip repr and each
complex number as {"im", "re"}, so identical configs give byte-identical
reports and every value parses back bit for bit; ``python -m json.tool``
prints one indented. Each command builds its checks in stages; a library
error inside a stage stops the command and is recorded as a failed check
named after the stage (``state_<i>_census`` for state i's momentum census), so
every run with a valid config writes a report. A check has one name in every
command that reports it: ``poles`` and ``verify`` share the census battery
(``state_<i>_degree_law``, ``_quantization``, ``_global_count``,
``_residues``), but only ``verify`` checks a state's Schrödinger residual.
``results.first_failure`` names the first failed check. Exit codes: 0 pass,
1 usage, config or output error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import json
import math
import os
import sys

from . import engine, oracle, spectra
from .families import FAMILIES, NonQESError, Sextic, family_kind
from .qmf import (
    infinity_order_check,
    pole_reports,
    qmf as build_qmf,
    residue_at_zero,
    zero_census,
)

__all__ = ["main"]

_SCHEMA_VERSION = "3"

_FIELDS = {name: tuple(f.name for f in dataclasses.fields(cls)) for name, cls in FAMILIES.items()}
_FIELDS["sextic_qes"] = ("a", "b", "n")

_DEFAULT_TOLERANCES = {"residue_tol": 1e-8, "contour_tol": 1e-8, "oracle_tol": 1e-4}

# What a library stage raises on an instance it cannot handle.
_STAGE_ERRORS = (ArithmeticError, ValueError, oracle.OracleConvergenceError)


class ConfigError(ValueError):
    pass


class OutputError(Exception):
    """A report or CSV could not be written; the message names the path and the reason."""


def _require_keys(mapping: dict, allowed: tuple, where: str, required: tuple = ()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")


def _is_finite_number(v) -> bool:
    """A JSON number, not a bool, whose float is finite; an integer too large for a float is not one."""
    with contextlib.suppress(OverflowError):
        return type(v) in (int, float) and math.isfinite(v)
    return False


def build_family(spec: dict):
    """The family a config names: a class of ``FAMILIES``, or ``sextic_qes``, the
    sextic at count n with gauge coefficients a and b."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("family must be an object with a 'name'")
    name = spec["name"]
    if not isinstance(name, str) or name not in _FIELDS:
        raise ConfigError(f"unknown family name {name!r}")
    fields = _FIELDS[name]
    _require_keys(spec, ("name",) + fields, f"family {name!r}", fields)
    for key in fields:
        v = spec[key]
        if key in ("n", "M") and type(v) is not int:
            raise ConfigError(f"family {key} must be an integer, got {v!r}")
        if not _is_finite_number(v):
            raise ConfigError(f"family {key} must be a finite number, got {v!r}")
    try:
        if name == "sextic_qes":
            return Sextic.on_condition(float(spec["a"]), float(spec["b"]), spec["n"])
        return FAMILIES[name](**{k: spec[k] if k == "M" else float(spec[k]) for k in fields})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid family parameters: {exc}") from exc


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, ("family", "grid", "tolerances", "outputs"), "config", ("family",))
    tols = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], tuple(_DEFAULT_TOLERANCES), "tolerances")
        for k, v in cfg["tolerances"].items():
            if not (_is_finite_number(v) and v > 0):
                raise ConfigError(f"tolerance {k} must be a finite positive number, got {v!r}")
            tols[k] = float(v)
    if "outputs" in cfg:
        _require_keys(cfg["outputs"], ("report", "csv"), "outputs")
        for k, v in cfg["outputs"].items():
            if type(v) is not str or not v:
                raise ConfigError(f"output path {k} must be a non-empty string, got {v!r}")
    cfg.setdefault("tolerances", {})
    cfg["_family"] = build_family(cfg["family"])  # built once, before any command runs
    if "grid" in cfg:  # the oracle's domain
        _require_keys(cfg["grid"], ("x_min", "x_max"), "grid", ("x_min", "x_max"))
        lo, hi = cfg["grid"]["x_min"], cfg["grid"]["x_max"]
        if not (_is_finite_number(lo) and _is_finite_number(hi) and hi > lo):
            raise ConfigError(f"grid needs finite ends with x_max > x_min, got {lo!r}..{hi!r}")
        try:
            oracle.check_domain(cfg["_family"], (lo, hi))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
    cfg["_tolerances"] = tols
    return cfg


# ----------------------------------------------------------------------
# Reports and checks.


def make_report(command: str, config: dict, results: dict, checks: list) -> dict:
    inputs = {k: v for k, v in config.items() if not k.startswith("_")}
    return {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


def _check(name: str, measured, expected, tolerance: float) -> dict:
    if not cmath.isfinite(measured):  # a report holds finite numbers only
        return _failed_check(name, f"non-finite measured value {measured!r}")
    if isinstance(measured, complex) or isinstance(expected, complex):
        err = abs(complex(measured) - complex(expected))
    else:
        err = abs(float(measured) - float(expected))
    return {
        "name": name,
        "pass": bool(err <= tolerance),
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
    }


def _failed_check(name: str, message: str) -> dict:
    return {"name": name, "pass": False, "measured": message, "expected": "", "tolerance": 0.0}


# ----------------------------------------------------------------------
# Stages and the checks that commands share.


class _StageFailed(Exception):
    """A stage raised a library error; ``check`` names the failed check that records it."""

    def __init__(self, check: str, cause: Exception):
        super().__init__(str(cause))
        self.check = check


@contextlib.contextmanager
def _stage(check: str):
    """Stop the command with the failed check ``check`` if the block raises a library error."""
    try:
        yield
    except _STAGE_ERRORS as exc:
        raise _StageFailed(check, exc) from exc


def _algebraic_states(family, checks: list) -> tuple:
    """The algebraic states, after the checks that the recursion truncates and its energies are real."""
    try:
        states = spectra.algebraic_states(family)
    except NonQESError as exc:
        raise _StageFailed("recursion_truncates", exc) from exc
    except spectra.NonRealEnergyError as exc:
        checks.append(_check("recursion_truncates", 0.0, 0.0, 1.0))
        raise _StageFailed("algebraic_energies_real", exc) from exc
    except _STAGE_ERRORS as exc:
        raise _StageFailed("algebraic_states", exc) from exc
    checks.append(_check("recursion_truncates", 0.0, 0.0, 1.0))
    checks.append(_check("algebraic_energies_real", 0.0, 0.0, 1.0))
    return states


def _ledger_checks(ledger: engine.QuantizationLedger, checks: list) -> None:
    """The ledger's balance check and the check against the family's closed form (sextic) or M."""
    name, target, tolerance = ledger.family.ledger_check
    checks.append(_check("ledger_balance", ledger.balance_residual, 0.0, 1e-10))
    checks.append(_check(name, ledger.solved_condition["lhs_value"], target, tolerance))


def _census_checks(state: spectra.AlgebraicState, tols: dict, checks: list) -> tuple:
    """A state's census checks, one battery for ``poles`` and ``verify``.

    One stage builds the momentum evaluator, takes the zero census and
    measures one residue per moving zero. Then come the degree law, the two
    contour counts and the worst moving-residue error. Returns the evaluator,
    the census and the residues, in the order of ``moving_zeros``.
    """
    tag = f"state_{state.index}"
    with _stage(f"{tag}_census"):
        ev = build_qmf(state)
        census = zero_census(ev)
        residues = [residue_at_zero(ev, z) for z in ev.moving_zeros]
    worst = max((abs(r - ev.moving_residue) for r in residues), default=0.0)
    checks.append(_check(f"{tag}_degree_law", census.total, state.n_label, 0.0))
    checks.append(_check(f"{tag}_quantization", census.quantization_value, census.n_real, tols["contour_tol"]))
    checks.append(_check(f"{tag}_global_count", census.global_count, state.n_label, tols["contour_tol"]))
    checks.append(_check(f"{tag}_residues", worst, 0.0, tols["residue_tol"]))
    return ev, census, residues


def _oracle_matches(family, config: dict, states, checks: list) -> tuple[list, list]:
    """The oracle's energies and each state's nearest oracle level, after the containment checks.

    The oracle's domain is ``grid``'s, or else the gauge's window.
    ``oracle_certified`` fails when the oracle cannot certify the matched
    levels to ``oracle_tol``; each difference is held to ``oracle_tol``
    itself, so a poorly certified oracle cannot widen its own check.
    """
    tol = config["_tolerances"]["oracle_tol"]
    grid = config.get("grid") or {}
    domain = (float(grid["x_min"]), float(grid["x_max"])) if grid else states[0].gauge.window
    with _stage("oracle_convergence"):
        spec = oracle.refine(family, k=2 * len(states) + 4, tol=max(1e-8, tol / 2.0), domain=domain)
    matches = []
    for s in states:
        j = min(range(len(spec.energies)), key=lambda idx: abs(spec.energies[idx] - s.energy))
        matches.append(
            {
                "algebraic": s.energy,
                "oracle": spec.energies[j],
                "difference": abs(spec.energies[j] - s.energy),
                "certified_error": spec.error_estimates[j],
            }
        )
    checks.append(_check("oracle_certified", max(m["certified_error"] for m in matches), 0.0, tol))
    for s, m in zip(states, matches):
        checks.append(_check(f"state_{s.index}_oracle_containment", m["difference"], 0.0, tol))
    return list(spec.energies), matches


def _output_path(config: dict, key: str) -> str | None:
    return (config.get("outputs") or {}).get(key)


# ----------------------------------------------------------------------
# Commands. Each fills ``results`` and ``checks`` in place.


def cmd_derive(config: dict, results: dict, checks: list) -> None:
    family = config["_family"]
    results["family_kind"] = family_kind(family)
    with _stage("qes_condition"):
        ledger = engine.quantization_ledger(family)
    _ledger_checks(ledger, checks)
    results["ledger"] = [
        {"source": e.source, "value": e.value, "detail": e.detail} for e in ledger.entries
    ]
    results["branches_at_infinity"] = [
        {
            "label": c.label,
            "leading_coefficient": c.leading_coefficient,
            "selected": c.label == ledger.selected_branch,
        }
        for c in ledger.infinity_branches
    ]
    results["solved_condition"] = dict(ledger.solved_condition)
    results["n"] = ledger.n


def cmd_spectrum(config: dict, results: dict, checks: list, sanity: bool = False) -> None:
    if sanity:
        with _stage("oracle_convergence"):
            spec = oracle.refine(lambda x: x * x, k=3, tol=1e-6, domain=(-10.0, 10.0))
        results.update({"mode": "harmonic-sanity", "oracle": list(spec.energies)})
        for i, exact in enumerate((1.0, 3.0, 5.0)):
            checks.append(_check(f"harmonic_level_{i}", spec.energies[i], exact, 1e-4))
        return
    family = config["_family"]
    states = _algebraic_states(family, checks)
    results["algebraic_energies"] = [s.energy for s in states]
    results["oracle_energies"], results["matches"] = _oracle_matches(family, config, states, checks)


def cmd_poles(config: dict, results: dict, checks: list, level: int) -> None:
    family = config["_family"]
    states = _algebraic_states(family, checks)
    if not 0 <= level < len(states):
        raise ConfigError(f"level {level} out of range (0..{len(states) - 1})")
    state = states[level]
    results.update({"level": level, "energy": state.energy})
    ev, census, residues = _census_checks(state, config["_tolerances"], checks)
    with _stage(f"state_{level}_census"):
        reports = pole_reports(ev, residues)
    results["census"] = {
        "n_real": census.n_real,
        "n_complex": census.n_complex,
        "total": census.total,
        "quantization_value": census.quantization_value,
        "global_count": census.global_count,
    }
    results["poles"] = [
        {"location": r.location, "residue": r.measured_residue, "kind": r.kind, "axis": r.axis}
        for r in reports
    ]
    csv_path = _output_path(config, "csv")
    if csv_path:
        lines = ["re_z,im_z,kind,re_residue,im_residue"]
        for r in reports:
            z, res = r.location, r.measured_residue
            lines.append(f"{z.real},{z.imag},{r.kind},{res.real},{res.imag}")
        _write_text(csv_path, "\n".join(lines) + "\n")


def cmd_verify(config: dict, results: dict, checks: list) -> None:
    tols = config["_tolerances"]
    family = config["_family"]
    results["family_kind"] = family_kind(family)
    states = _algebraic_states(family, checks)
    results["algebraic_energies"] = [s.energy for s in states]
    _ledger_checks(states[0].gauge.ledger, checks)

    for s in states:
        tag = f"state_{s.index}"
        checks.append(
            _check(f"{tag}_eigen_identity_residual", spectra.schrodinger_residual(s), 0.0, 1e-8)
        )
        ev, _, _ = _census_checks(s, tols, checks)
        if ev.census_variable == "x":  # the leading term of the ledger's infinity series, c_lo z^(-lo)
            with _stage(f"{tag}_census"):
                fit = infinity_order_check(ev)
            ser = s.gauge.ledger.infinity_series
            checks.append(_check(f"{tag}_infinity_exponent", fit["exponent"], -float(ser.lo), 0.01))
            target = ser.coefficient(ser.lo)
            checks.append(
                _check(f"{tag}_infinity_coefficient", fit["coefficient"], target, 1e-3 * abs(target))
            )

    _oracle_matches(family, config, states, checks)


_COMMANDS = {"derive": cmd_derive, "spectrum": cmd_spectrum, "poles": cmd_poles, "verify": cmd_verify}


def run_command(command: str, config: dict, **options) -> tuple[dict, int]:
    """Run one command on a loaded config: its report, and exit code 2 if any check failed."""
    results: dict = {}
    checks: list = []
    try:
        _COMMANDS[command](config, results, checks, **options)
    except _StageFailed as failed:
        print(f"verification failure: {failed}", file=sys.stderr)
        results["error"] = str(failed)
        checks.append(_failed_check(failed.check, str(failed)))
    failing = [c["name"] for c in checks if not c["pass"]]
    results["first_failure"] = failing[0] if failing else None
    return make_report(command, config, results, checks), 2 if failing else 0


# ----------------------------------------------------------------------
# Entry point.


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"{path}: {exc.strerror or exc}") from exc


def _complex_as_pair(obj) -> dict:
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    raise TypeError(f"cannot serialize {type(obj)} in a report")


def _emit(report: dict, out_path: str | None) -> None:
    # One line: json's C encoder; indent= would switch it to the pure-Python one.
    text = json.dumps(report, sort_keys=True, allow_nan=False, default=_complex_as_pair) + "\n"
    if out_path:
        _write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhjqes",
        description="Derive and verify quasi-exact solvability conditions via the residue ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("derive", "spectrum", "poles", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        if name == "poles":
            p.add_argument("--level", type=int, default=0, help="algebraic state index")
        if name == "spectrum":
            p.add_argument("--sanity", action="store_true", help="harmonic-oscillator anchor run")
    return parser


# Built once at import; each parse_args call starts from a fresh namespace.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    options = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}

    try:
        config = load_config(args.config)
        out, csv_path = args.out or _output_path(config, "report"), _output_path(config, "csv")
        if args.command == "poles" and out and csv_path and os.path.abspath(out) == os.path.abspath(csv_path):
            raise ConfigError(f"the report and the CSV would both be written to {csv_path}")
        report, code = run_command(args.command, config, **options)
        _emit(report, out)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except _STAGE_ERRORS as exc:
        # Outside any stage, e.g. a non-finite number that cannot go in a report.
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
