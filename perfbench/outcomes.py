"""Judge one op's exit code, report and CSV against the instance's ground truth.

Outcomes:

* ``ok``    - the op did what the ground truth says;
* ``fail``  - the op refused or crashed: a wrong exit code, no report, or a
  failing check in a report that exits 2. This is a failed op, not a wrong
  answer, and counts in ``failed``;
* ``wrong`` - the op claimed success (exit 0) with output that the
  benchmark's own checks reject, or accepted an instance the ground truth
  rejects. Any wrong op makes the run incorrect.

None of these checks calls the library. A report missing a key that a check
needs raises ``Unevaluable``, which stops the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from workloads import FIXED_POLE_COUNT, GOLDEN, GOLDEN_ENERGIES, condition_value, moving_pole_count, size_of, state_count

EXIT_PASS, EXIT_CONFIG, EXIT_FAIL = 0, 1, 2


class Unevaluable(RuntimeError):
    """A correctness check could not be evaluated."""


@dataclass
class Outcome:
    status: str
    reason: str = ""
    first_failed_check: str | None = None
    residue_margin: float = 0.0  # worst |residue error| / tolerance in the report
    schrodinger_residual: float = 0.0  # worst eigen-identity residual in the report


def _magnitude(value) -> float:
    if isinstance(value, dict):
        return math.hypot(value["re"], value["im"])
    return abs(float(value))


def _difference(a, b) -> float:
    if isinstance(a, dict) or isinstance(b, dict):
        za = complex(a["re"], a["im"]) if isinstance(a, dict) else complex(a)
        zb = complex(b["re"], b["im"]) if isinstance(b, dict) else complex(b)
        return abs(za - zb)
    return abs(float(a) - float(b))


def _report_stats(report: dict, outcome: Outcome) -> None:
    for check in report["checks"]:
        name = check["name"]
        if name.endswith("_residues") or name.startswith("moving_residue_"):
            err = _difference(check["measured"], check["expected"])
            outcome.residue_margin = max(outcome.residue_margin, err / check["tolerance"])
        elif name.endswith("_eigen_identity_residual"):
            outcome.schrodinger_residual = max(outcome.schrodinger_residual, _magnitude(check["measured"]))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _check_derive(inst, report, problems):
    family = inst["family"]
    size = size_of(family)
    if size is None:
        return
    results = report["results"]
    if results["n"] != size:
        problems.append(f"derive n {results['n']} != {size}")
    lhs = results["solved_condition"]["lhs_value"]
    if not _close(lhs, condition_value(family), 1e-9):
        problems.append(f"solved condition {lhs!r} != {condition_value(family)!r}")


def _check_verify(inst, report, problems):
    family = inst["family"]
    energies = report["results"]["algebraic_energies"]
    if len(energies) != state_count(family):
        problems.append(f"{len(energies)} algebraic energies, expected {state_count(family)}")
    if report["results"]["first_failure"] is not None:
        problems.append(f"first_failure is {report['results']['first_failure']!r} on exit 0")
    if family == GOLDEN:
        for got, want in zip(sorted(energies), GOLDEN_ENERGIES):
            if abs(got - want) > 1e-10:
                problems.append(f"golden energy {got!r} != {want!r}")


def _check_poles(inst, report, csv_text, problems):
    family = inst["family"]
    results = report["results"]
    census, poles = results["census"], results["poles"]
    if results["level"] != inst["level"]:
        problems.append(f"report level {results['level']} != {inst['level']}")
    if census["total"] != moving_pole_count(family) or census["n_real"] + census["n_complex"] != census["total"]:
        problems.append(f"census {census} does not count {moving_pole_count(family)} moving poles")
    kinds = [p["kind"] for p in poles]
    if kinds.count("moving") != moving_pole_count(family) or kinds.count("fixed") != FIXED_POLE_COUNT[family["name"]]:
        problems.append(f"pole kinds {kinds.count('moving')} moving / {kinds.count('fixed')} fixed")
    if csv_text is None:
        problems.append("no poles CSV")
        return
    rows = csv_text.splitlines()
    if rows[:1] != ["re_z,im_z,kind,re_residue,im_residue"] or len(rows) != 1 + len(poles):
        problems.append(f"CSV has {len(rows) - 1} rows for {len(poles)} poles")
        return
    for row, pole in zip(rows[1:], poles):
        re_z, im_z, kind, re_r, im_r = row.split(",")
        want = (pole["location"]["re"], pole["location"]["im"], pole["kind"], pole["residue"]["re"], pole["residue"]["im"])
        if (float(re_z), float(im_z), kind, float(re_r), float(im_r)) != want:
            problems.append(f"CSV row {row!r} does not match report pole {pole}")


def judge(inst: dict, code, stderr_line: str, report_text: str | None, csv_text: str | None) -> Outcome:
    """Classify one op from its exit code (None if ``main`` raised), stderr line and outputs."""
    if code == EXIT_CONFIG:
        raise Unevaluable(f"program rejected a generated config ({stderr_line}): {inst}")
    expect_pass = size_of(inst["family"]) is not None
    if code is None:
        return Outcome("fail", f"crash: {stderr_line}")
    if report_text is None:
        return Outcome("fail" if code == EXIT_FAIL else "wrong", f"exit {code} without a report: {stderr_line}")
    problems: list[str] = []
    try:
        report = json.loads(report_text)
        outcome = Outcome("ok")
        _report_stats(report, outcome)
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        outcome.first_failed_check = failing[0] if failing else None
        if report["command"] != inst["command"]:
            problems.append(f"report command {report['command']!r}")
        if not expect_pass:  # off-condition sextic: only derive sees these
            if code == EXIT_PASS:
                return Outcome("wrong", "accepted an off-condition sextic")
            if "qes_condition" not in failing:
                return Outcome("fail", f"exit 2 without a failed qes_condition check ({failing})")
            return outcome
        if code != EXIT_PASS:
            outcome.status = "fail"
            outcome.reason = f"exit {code}, failed checks {failing[:3]}"
            return outcome
        if failing:
            problems.append(f"exit 0 with failing checks {failing}")
        if inst["command"] == "derive":
            _check_derive(inst, report, problems)
        elif inst["command"] == "verify":
            _check_verify(inst, report, problems)
        else:
            _check_poles(inst, report, csv_text, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise Unevaluable(f"cannot check the {inst['command']} report ({exc!r}): {inst}") from exc
    if problems:
        outcome.status = "wrong"
        outcome.reason = "; ".join(problems)
    return outcome
