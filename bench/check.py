"""Output checks for the benchmark workloads.

Each check reads the files one command wrote and returns a list of
problems; an empty list means the outputs are correct.  A run whose list is
not empty, or whose exit code is not 0, counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import defaultdict
from pathlib import Path

MIN_KEPT_RATIO = 0.95
FEVD_TOL = 1e-12
METHOD_TOL = 1e-10
NET_TOL = 1e-12


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_bands(out: Path, expect: dict[str, object]) -> list[str]:
    problems = []
    meta = json.loads((out / "bootstrap_meta.json").read_text(encoding="utf-8"))
    kept = meta["replications"] / meta["requested"]
    if kept < MIN_KEPT_RATIO:
        problems.append(f"bootstrap kept {kept:.3f} of requested replications")
    for row in _rows(out / "irf.csv"):
        if not float(row["lower"]) <= float(row["upper"]):
            problems.append(f"irf band inverted at {row['variable']},{row['shock']},{row['horizon']}")
            break
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for row in _rows(out / "fevd.csv"):
        sums[(row["variable"], row["horizon"])] += float(row["value"])
    if not sums:
        problems.append("fevd.csv holds no rows")
    for key, total in sums.items():
        if abs(total - 1.0) > FEVD_TOL:
            problems.append(f"fevd row {key} sums to {total!r}")
            break
    if expect.get("method_check"):
        check = json.loads((out / "method_check.json").read_text(encoding="utf-8"))
        if not check["max_abs_deviation"] <= METHOD_TOL:
            problems.append(f"direct vs stacked deviation {check['max_abs_deviation']!r}")
    return problems


def check_index(out: Path, expect: dict[str, object]) -> list[str]:
    problems = []
    diagnostics = json.loads((out / "index_diagnostics.json").read_text(encoding="utf-8"))
    w = diagnostics["weight"]["value"]
    if diagnostics["weight"]["source"] != "grid_search" or abs(w - expect["weight"]) > 1e-12:
        problems.append(f"grid search chose w={w!r}, planted {expect['weight']!r}")
    lo, hi = expect["normalization_window"]
    on = {r["period"]: float(r["value"]) for r in _rows(out / "index_on.csv")}
    off = {r["period"]: float(r["value"]) for r in _rows(out / "index_off.csv")}
    net = {r["period"]: float(r["value"]) for r in _rows(out / "index_net.csv")}
    in_window = [v for p, v in on.items() if lo <= p <= hi]
    if not in_window or max(in_window) != 1.0:
        problems.append("in-window maximum of the on index is not exactly 1")
    if set(net) != set(on) or set(off) != set(on):
        problems.append("on, off and net indices cover different periods")
    else:
        worst = max(abs(net[p] - (on[p] - w * off[p])) for p in on)
        if worst > NET_TOL:
            problems.append(f"net index departs from on - w*off by {worst!r}")
    return problems


CHECKS = {"dynamics": check_bands, "build-index": check_index}


def check_outputs(command: str, out: Path, expect: dict[str, object]) -> list[str]:
    """Problems found in the outputs of ``command``; missing files count too."""
    try:
        return CHECKS[command](out, expect)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def digest(out: Path) -> str:
    """One hash over every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()
