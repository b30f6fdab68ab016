"""The output checks pass real outputs and reject corrupted copies of them.

Run from the repository root with the source tree on the path::

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import check
import gen
import run
from newsvar import cli


def _run(tmp_path_factory, workload: str) -> tuple[Path, gen.Inputs]:
    root = tmp_path_factory.mktemp(workload)
    inputs = gen.generate(workload, 7, root / "inputs")
    out = root / "out"
    assert cli.main(inputs.argv_head + ["--out", str(out)]) == 0
    return out, inputs


@pytest.fixture(scope="module")
def index_run(tmp_path_factory):
    return _run(tmp_path_factory, "index_build")


@pytest.fixture(scope="module")
def bands_run(tmp_path_factory):
    return _run(tmp_path_factory, "paper_bands")


def _edit_csv(path: Path, row: int, column: str, fn) -> None:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    rows[row][column] = fn(rows[row])
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _corrupted(src: Path, dst: Path, edit) -> Path:
    shutil.copytree(src, dst)
    edit(dst)
    return dst


def test_real_outputs_pass(index_run, bands_run):
    for command, (out, inputs) in (("build-index", index_run), ("dynamics", bands_run)):
        assert check.check_outputs(command, out, inputs.expect) == []


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("net", lambda d: _edit_csv(d / "index_net.csv", 5, "value", lambda r: repr(float(r["value"]) + 1e-9)),
         "net index departs"),
        ("peak", lambda d: _edit_csv(d / "index_on.csv", 0, "value", lambda r: "1.5"), "not exactly 1"),
        ("weight", lambda d: (d / "index_diagnostics.json").write_text(
            (d / "index_diagnostics.json").read_text().replace('"value": 0.4', '"value": 0.5')),
         "grid search chose"),
        ("missing", lambda d: (d / "index_off.csv").unlink(), "unreadable output"),
    ],
)
def test_corrupted_index_output_fails(index_run, tmp_path, name, edit, message):
    out, inputs = index_run
    bad = _corrupted(out, tmp_path / name, edit)
    problems = check.check_outputs("build-index", bad, inputs.expect)
    assert any(message in p for p in problems), problems
    assert check.digest(bad) != check.digest(out)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("fevd", lambda d: _edit_csv(d / "fevd.csv", 3, "value", lambda r: repr(float(r["value"]) + 1e-9)),
         "fevd row"),
        ("band", lambda d: _edit_csv(d / "irf.csv", 7, "lower", lambda r: repr(float(r["upper"]) + 1.0)),
         "irf band inverted"),
        ("kept", lambda d: (d / "bootstrap_meta.json").write_text(
            json.dumps({**json.loads((d / "bootstrap_meta.json").read_text()), "replications": 900})),
         "bootstrap kept"),
    ],
)
def test_corrupted_bands_output_fails(bands_run, tmp_path, name, edit, message):
    out, inputs = bands_run
    bad = _corrupted(out, tmp_path / name, edit)
    problems = check.check_outputs("dynamics", bad, inputs.expect)
    assert any(message in p for p in problems), problems


def test_method_check_is_enforced(bands_run, tmp_path):
    out, _ = bands_run
    bad = _corrupted(out, tmp_path / "method", lambda d: (d / "method_check.json").write_text(
        json.dumps({"max_abs_deviation": 1e-6, "tolerance": 1e-10})))
    problems = check.check_outputs("dynamics", bad, {"method_check": True})
    assert any("direct vs stacked" in p for p in problems), problems


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"][1:] == [str((run.HERE / "run.py").relative_to(run.ROOT))]
    assert {w["name"] for w in spec["workloads"]} == set(run.WHY) == set(gen.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
