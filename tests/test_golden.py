"""Golden records: both suites reproduce every record's verdict and numbers.

``tests/golden/suite-<name>.json`` holds, per record of ``suite(name)``, its
``passed`` flag, its ``gates`` and every entry of ``values`` and
``residuals``; timings and the environment are left out.  Flags and strings must match exactly and
numbers to a relative 1e-9 (absolute 1e-12), which leaves room for the last
bits that another numpy build may round differently.

Regenerate the files after an intended change of results with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from singtrace.harness import suite

GOLDEN = Path(__file__).resolve().parent / "golden"
SUITES = ("quick", "full")
REL_TOL = 1e-9
ABS_TOL = 1e-12


def snapshot(report):
    """Record name -> its ``passed``, ``gates``, ``values`` and
    ``residuals``, as the report's JSON writes them."""
    return {rec["name"]: {key: rec[key] for key in
                          ("passed", "gates", "values", "residuals")}
            for rec in report.as_dict(timing=False)["records"]}


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def moved(old, new, path=""):
    """``path: old → new`` for each field of ``new`` that differs from
    ``old``: numbers beyond the tolerances, anything else at all."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else key
            if key not in new:
                out.append(f"{sub}: {old[key]!r} → (missing)")
            elif key not in old:
                out.append(f"{sub}: (missing) → {new[key]!r}")
            else:
                out += moved(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in moved(a, b, f"{path}[{i}]")]
    if _number(old) and _number(new):
        same = math.isclose(old, new, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [f"{path}: {old!r} → {new!r}"]


def _path(name):
    return GOLDEN / f"suite-{name}.json"


@pytest.mark.parametrize("name", SUITES)
def test_suite_matches_golden_records(name):
    golden = json.loads(_path(name).read_text())
    diffs = moved(golden, snapshot(suite(name)))
    assert not diffs, f"suite {name} moved:\n" + "\n".join(diffs)


def test_comparator_reports_each_moved_field():
    golden = json.loads(_path("quick").read_text())
    assert moved(golden, golden) == []
    copy = json.loads(json.dumps(golden))
    rec = copy["circle256:chern"]
    rec["values"]["chern"]["re"] *= 1.0 + 1e-6
    rec["passed"] = not rec["passed"]
    rec["residuals"]["extra"] = 0.0
    nudged = json.loads(json.dumps(golden))
    nudged["circle256:chern"]["values"]["chern"]["re"] *= 1.0 + 1e-12
    assert moved(golden, nudged) == []
    lines = moved(golden, copy)
    assert [line.split(": ")[0] for line in lines] == [
        "circle256:chern.passed",
        "circle256:chern.residuals.extra",
        "circle256:chern.values.chern.re",
    ]
    assert all(" → " in line for line in lines)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in SUITES:
        text = json.dumps(snapshot(suite(name)), indent=1, sort_keys=True)
        _path(name).write_text(text + "\n")
        print(f"wrote {_path(name)}")
