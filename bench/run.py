"""newsvar benchmark: one workload, closed loop, fresh interpreter per command.

Usage (from the repository root)::

    python3 bench/run.py --workload paper_bands --seed 1 --seconds 30 --trace 0

The runner writes the workload's inputs from ``--seed`` into a scratch
directory under ``.bench_work/``, then runs the workload's command through
``newsvar.cli.main`` again and again for ``--seconds`` seconds: one client,
each command in its own fresh ``python3`` process (``bench/worker.py``),
the next started only after the previous one ended.  Every command's outputs
are checked (``bench/check.py``) and must be byte-identical across the run.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` and ``setup_s``
are medians over the run's commands of the command's wall time and the cold
``import newsvar.cli`` time, each at the reference speed: a probe timed
every 0.2 s while they run scales them to the machine the bounds were set on
(``bench/worker.py``).  The raw medians are printed beside them.
``--trace 1`` alternates untraced and traced commands; the traced ones
record spans around the
package's public functions (``bench/tracer.py``) and give the per-layer
metrics.  Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import check
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 150  # leaves headroom under the 180 s a run may take

WHY = {
    "paper_bands": (
        "dynamics at the paper's scale (m=4, k=1, 127 quarters, H=24, 1000 "
        "per-equation residual replications, direct route): the bootstrap is "
        "about 98% of the run, so a bootstrap gain must show here"
    ),
    "stress_bands": (
        "dynamics on m=6, k=2, 400 quarters, lags 2, H=40 with VAR(1) controls, "
        "joint-row resampling and the direct-vs-stacked cross-check: the same "
        "layers used differently (9-state system, 400-step simulation loop), so "
        "a bootstrap change that wins on a small system but costs time or "
        "memory on a large one shows"
    ),
    "index_build": (
        "build-index on 20 outlets x 11.6k days of on and off counts, "
        "standardized variant, two off windows, grid-searched weight (planted "
        "w = 0.4): ingest and index building do nearly all the work and the "
        "bootstrap and svar none, so it is the control for bootstrap and OLS "
        "changes and the target for count-panel changes"
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SCALED = {"wall_s": "wall_ref_s", "setup_s": "setup_ref_s"}

PER_LAYER = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "bootstrap.bootstrap_irf.s": "s",
    "bootstrap.self_s": "s",
    "bootstrap.ms_per_replication": "ms",
    "bootstrap.kept_ratio": "ratio",
    "bootstrap.dropped": "count",
    "svar.estimate_svar.s": "s",
    "svar.estimate_svar_arrays.calls": "count",
    "svar.estimate_svar_arrays.s": "s",
    "regression.ols.calls": "count",
    "regression.ols.s": "s",
    "regression.ols.us_per_call": "us",
    "regression.ar_fit.calls": "count",
    "regression.ar_fit.s": "s",
    "dynamics.irf_all.calls": "count",
    "dynamics.irf_all.s": "s",
    "dynamics.fevd.s": "s",
    "dynamics.max_method_deviation.s": "s",
    "dynamics.export.s": "s",
    "intensity.read_counts_csv.s": "s",
    "intensity.read_counts_csv.rows_per_s": "1/s",
    "intensity.monthly_index.s": "s",
    "intensity.grid_search_weight.s": "s",
    "intensity.write_index_csv.s": "s",
    "timeseries.read_series_csv.calls": "count",
    "timeseries.read_series_csv.s": "s",
    "timeseries.aggregate.s": "s",
    "trace.overhead_s": "s",
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_facts() -> dict[str, object]:
    """Core count, CPU, interpreter and numeric stack, BLAS threading as found."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "worker_cpus": 1,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def run_command(inputs: gen.Inputs, out: Path, trace_out: Path | None, timeout: float) -> dict:
    """One command in a fresh interpreter; the worker's report plus ``error`` on failure."""
    request = {"argv": inputs.argv_head + ["--out", str(out)], "trace_out": str(trace_out) if trace_out else None}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(request)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"command exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    message = (proc.stderr.strip().splitlines() or ["no message"])[-1]
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {message}"}
    report = json.loads(lines[-1])
    if report["rc"] != 0:
        report["error"] = f"newsvar exited {report['rc']}: {message}"
    return report


def layer_metrics(spans: list[list], out_meta: dict | None, count_rows: int) -> dict[str, float]:
    """Per-layer numbers of one traced command (all but ``trace.overhead_s``)."""
    summary = tracer.summarize(spans)

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0)

    ols_calls = total("regression.ols", "calls")
    read_s = total("intensity.read_counts_csv")
    requested = out_meta["requested"] if out_meta else 0
    return {
        "cli.main.s": total("cli.main"),
        "cli.self_s": total("cli.main", "self_s"),
        "bootstrap.bootstrap_irf.s": total("bootstrap.bootstrap_irf"),
        "bootstrap.self_s": total("bootstrap.bootstrap_irf", "self_s"),
        "bootstrap.ms_per_replication": 1e3 * total("bootstrap.bootstrap_irf") / requested if requested else 0.0,
        "bootstrap.kept_ratio": out_meta["replications"] / requested if requested else 0.0,
        "bootstrap.dropped": out_meta["dropped"] if out_meta else 0,
        "svar.estimate_svar.s": total("svar.estimate_svar"),
        "svar.estimate_svar_arrays.calls": total("svar.estimate_svar_arrays", "calls"),
        "svar.estimate_svar_arrays.s": total("svar.estimate_svar_arrays"),
        "regression.ols.calls": ols_calls,
        "regression.ols.s": total("regression.ols"),
        "regression.ols.us_per_call": 1e6 * total("regression.ols") / ols_calls if ols_calls else 0.0,
        "regression.ar_fit.calls": total("regression.ar_fit", "calls"),
        "regression.ar_fit.s": total("regression.ar_fit"),
        "dynamics.irf_all.calls": total("dynamics.irf_all", "calls"),
        "dynamics.irf_all.s": total("dynamics.irf_all"),
        "dynamics.fevd.s": total("dynamics.fevd"),
        "dynamics.max_method_deviation.s": total("dynamics.max_method_deviation"),
        "dynamics.export.s": sum(
            total(f"dynamics.{f}") for f in ("write_irf_csv", "write_fevd_csv", "plot_data_json")
        ),
        "intensity.read_counts_csv.s": read_s,
        "intensity.read_counts_csv.rows_per_s": count_rows / read_s if read_s else 0.0,
        "intensity.monthly_index.s": total("intensity.monthly_mean_count")
        + total("intensity.standardized_monthly_count"),
        "intensity.grid_search_weight.s": total("intensity.grid_search_weight"),
        "intensity.write_index_csv.s": total("intensity.write_index_csv"),
        "timeseries.read_series_csv.calls": total("timeseries.read_series_csv", "calls"),
        "timeseries.read_series_csv.s": total("timeseries.read_series_csv"),
        "timeseries.aggregate.s": total("timeseries.aggregate"),
    }


def tail_percentile(values: list[float]) -> str:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    n = len(values)
    best = None
    for q in (50, 75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return f"no percentile has 10 samples beyond it (n={n})"
    value = statistics.quantiles(values, n=100, method="inclusive")[best - 1]
    return f"p{best} {value:.4f}"


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> list[dict]:
    """Closed loop of commands for ``seconds``; one checked report per command."""
    inputs = gen.generate(workload, seed, work / "inputs")
    command = inputs.argv_head[0]
    started = time.perf_counter()
    deadline = started + seconds
    samples: list[dict] = []
    first_digest = None
    while True:
        index = len(samples)
        out = work / f"out{index}"
        trace_out = work / f"spans{index}.json" if traced and index % 2 else None
        t0 = time.perf_counter()
        remaining = RUN_LIMIT_S - (t0 - started)
        report = run_command(inputs, out, trace_out, timeout=max(remaining, 1.0))
        report["traced"] = trace_out is not None
        report["duration_s"] = time.perf_counter() - t0
        if "error" not in report:
            problems = check.check_outputs(command, out, inputs.expect)
            out_digest = check.digest(out)
            first_digest = first_digest or out_digest
            if out_digest != first_digest:
                problems.append("outputs differ from the first command's outputs")
            if problems:
                report["error"] = "; ".join(problems)
            if trace_out is not None:
                meta_path = out / "bootstrap_meta.json"
                meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else None
                spans = json.loads(trace_out.read_text(encoding="utf-8"))
                report["layers"] = layer_metrics(spans, meta, inputs.count_rows)
                report["bootstrap_children"] = tracer.children_by_layer(spans, "bootstrap.bootstrap_irf")
        samples.append(report)
        shutil.rmtree(out, ignore_errors=True)
        now = time.perf_counter()
        if "error" in report and report["error"].startswith("command exceeded"):
            break
        if traced and len(samples) < 2:
            continue
        next_cost = max(s["duration_s"] for s in samples[-2:])
        if now + next_cost > deadline or now - started + next_cost > RUN_LIMIT_S:
            break
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "newsvar" / "cli.py").is_file():
        print(f"error: no newsvar source tree at {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    failed = [s for s in samples if "error" in s]
    timed = [s for s in samples if "wall_s" in s]  # failed checks still give timings

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"why: {WHY[args.workload]}")
    print(f"loop: closed, 1 client, fresh interpreter per command, {len(samples)} commands")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    for s in failed:
        print(f"failed: {s['error']}")
    print(f"error_rate: {len(failed)}/{len(samples)} = {len(failed) / len(samples):.4f}")

    print("commands (wall s, raw / at reference speed): " + ", ".join(
        f"{s['wall_s']:.3f}" + (" traced" if s["traced"] else f" / {s['wall_ref_s']:.3f}")
        for s in timed
    ))

    metrics: dict[str, dict[str, object]] = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            values = [s[SCALED.get(name, name)] for s in timed]
            if not values:
                continue
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            raw = f" (raw median {statistics.median(s[name] for s in timed):.4f} {unit})" if name in SCALED else ""
            print(f"{name}: median {statistics.median(values):.4f} {unit}{raw}, "
                  f"{tail_percentile(values)}, n={len(values)}")
    else:
        traced = [s for s in timed if "layers" in s]
        # Each traced command against the untraced one just before it, so a
        # drift in host speed over the run stays out of the difference.
        pairs = [(samples[i - 1], s) for i, s in enumerate(samples)
                 if "layers" in s and "wall_s" in samples[i - 1]]
        if pairs:
            for name in PER_LAYER:
                if name != "trace.overhead_s":
                    metrics[name] = {"value": statistics.median(s["layers"][name] for s in traced),
                                     "unit": PER_LAYER[name]}
            overhead = statistics.median(s["wall_s"] - before["wall_s"] for before, s in pairs)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            for name, entry in metrics.items():
                print(f"{name}: {entry['value']:.6g} {entry['unit']}")
            if metrics["bootstrap.bootstrap_irf.s"]["value"]:
                children = traced[0]["bootstrap_children"]
                layers = traced[0]["layers"]
                accounted = layers["bootstrap.self_s"] + sum(children.values())
                print(
                    "bootstrap accounting (first traced command): self "
                    f"{layers['bootstrap.self_s']:.4f} s + children "
                    + ", ".join(f"{k} {v:.4f} s" for k, v in sorted(children.items()))
                    + f" = {accounted:.4f} s of bootstrap_irf {layers['bootstrap.bootstrap_irf.s']:.4f} s"
                )

    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
