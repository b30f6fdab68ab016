"""Config-driven command line front end.

Subcommands: ``build-index``, ``convert-calendar``, ``estimate``,
``dynamics``, ``reduced-form``, ``validate``.  Every command reads a JSON
config (see README for the schema), does all of its work, and returns the
files it writes; :func:`main` alone creates the configured directory and
writes them there, so a command that fails leaves no output.  Every command
is deterministic given config plus seed.

Exit codes: 0 success, 1 usage/config error, 2 data/model error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import bootstrap as boot
from . import dynamics as dyn
from . import intensity as ix
from . import regression as reg
from . import svar as sv
from . import timeseries as ts
from .errors import NewsvarError, SampleError

__all__ = ["main", "PipelineConfig", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# a command's output files in writing order, each name with the writer of its path
Outputs = dict[str, Callable[[Path], None]]


class UsageError(Exception):
    """Bad flags or config; maps to exit code 1."""


@dataclass(frozen=True)
class PipelineConfig:
    """Validated view of the JSON config file."""

    raw: Mapping[str, object]
    base_dir: Path
    out_dir: Path
    seed: int
    seed_source: str  # where the seed came from, for messages

    @staticmethod
    def load(path: str | Path, out_override: str | None = None, seed_override: int | None = None) -> "PipelineConfig":
        path = Path(path)
        if not _is_file(path):
            raise UsageError(f"--config: no such file: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        except ValueError as exc:  # bad JSON, a repeated key or bytes that are not UTF-8
            raise UsageError(f"--config: invalid JSON in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("--config: top level must be a JSON object")
        base = path.parent
        out_dir = raw.get("out_dir", "out")
        if not isinstance(out_dir, str):
            raise UsageError(f"config key 'out_dir' must be a string, got {out_dir!r}")
        if out_dir == "":  # it would be the config's own directory, among the inputs
            raise UsageError("config key 'out_dir': empty output directory")
        if out_override == "":
            raise UsageError("--out: empty output directory")
        out_dir = base / out_dir if out_override is None else Path(out_override)
        # mkdir needs the nearest path that exists to be a directory, not a
        # file or a dangling symlink
        blocker = next((p for p in (out_dir, *out_dir.parents) if p.is_symlink() or p.exists()), out_dir)
        if not blocker.is_dir():
            raise UsageError(f"output directory {out_dir}: {blocker} is not a directory")
        seed = seed_override if seed_override is not None else _integer(raw.get("seed", 0), "seed")
        source = "--seed" if seed_override is not None else "config key 'seed'"
        return PipelineConfig(raw=raw, base_dir=base, out_dir=out_dir, seed=seed, seed_source=source)

    def section(self, name: str, keys: tuple[str, ...]) -> Mapping[str, object]:
        """The object under ``name``, which holds only the given keys."""
        section = self.raw.get(name)
        if section is None:
            raise UsageError(f"config lacks a {name!r} section")
        if not isinstance(section, dict):
            raise UsageError(f"config section {name!r} must be an object")
        _known_keys(section, f"config section {name!r}", keys)
        return section

    def path(self, section: Mapping[str, object], key: str, required: bool = True) -> Path | None:
        value = section.get(key)
        if value is None:
            if required:
                raise UsageError(f"config key {key!r} is required")
            return None
        return self._file(key, value)

    def paths(self, section: Mapping[str, object], key: str, required: bool) -> dict[str, Path]:
        """The section's ``{name: CSV path}`` map under ``key``, each path resolved."""
        mapping = section.get(key, None if required else {})
        if not isinstance(mapping, dict) or (required and not mapping):
            raise UsageError(f"config key {key!r} must map names to CSV paths")
        return {str(name): self._file(f"{key}.{name}", rel) for name, rel in mapping.items()}

    def _file(self, key: str, value: object) -> Path:
        resolved = self.base_dir / str(value)
        if not _is_file(resolved):
            raise UsageError(f"config key {key!r}: no such file: {resolved}")
        return resolved


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict; a key given twice is refused, not overwritten."""
    obj: dict[str, object] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _is_file(path: Path) -> bool:
    try:
        return path.is_file()
    except OSError:  # e.g. a name longer than the file system allows
        return False


def _known_keys(section: Mapping[str, object], what: str, keys: tuple[str, ...]) -> None:
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise UsageError(f"{what} has unknown keys: {unknown}")


def _number(value: object, what: str) -> float:
    """A JSON number: a string or a boolean is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"config key {what!r} must be a number, got {value!r}")
    return float(value)


def _integer(value: object, what: str) -> int:
    """A JSON integer: a float, a string or a boolean is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"config key {what!r} must be an integer, got {value!r}")
    return value


def _flag(value: object, what: str) -> bool:
    """A JSON boolean: ``"no"`` or ``0`` is refused, not read as truthy."""
    if not isinstance(value, bool):
        raise UsageError(f"config key {what!r} must be true or false, got {value!r}")
    return value


def _parse_window(
    values: object, what: str, frequency: ts.Frequency
) -> tuple[ts.PeriodLabel | None, ts.PeriodLabel | None]:
    """A [start, end] pair of period labels, each of the given frequency or
    null, whose start does not come after its end."""
    if values is None:
        return (None, None)
    if not isinstance(values, (list, tuple)) or len(values) != 2:
        raise UsageError(f"{what} must be a [start, end] pair")
    out = []
    for v in values:
        if v is None:
            out.append(None)
            continue
        try:
            out.append(ts.PeriodLabel.parse(str(v), frequency)[0])
        except NewsvarError as exc:
            raise UsageError(f"{what}: {exc}") from exc
    if None not in out and out[0].to_index(frequency) > out[1].to_index(frequency):
        raise UsageError(f"{what} {list(values)}: start comes after end")
    return out[0], out[1]


# ---------------------------------------------------------------------------
# build-index
# ---------------------------------------------------------------------------


def _index_series(panel: ix.ArticleCountPanel, variant: str, target: ts.Frequency, name: str) -> ts.CalendarSeries:
    """The variant's monthly means of the panel, averaged to ``target``; a
    data error names the piece the panel came from, ``name``, first."""
    try:
        monthly = (ix.standardized_monthly_count if variant == "standardized" else ix.monthly_mean_count)(panel)
        return monthly if target is ts.Frequency.MONTHLY else ts.aggregate(monthly, target)
    except NewsvarError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _mask_panel_months(
    panel: ix.ArticleCountPanel, lo: ts.PeriodLabel, hi: ts.PeriodLabel, freq: ts.Frequency
) -> ix.ArticleCountPanel | None:
    step = 12 // freq.periods_per_year
    return panel.months(lo.to_index(freq) * step, hi.to_index(freq) * step + step - 1)


class IndexSettings(NamedTuple):
    variant: str
    target: ts.Frequency
    window: tuple[ts.PeriodLabel | None, ts.PeriodLabel | None]
    # (entry as written, start, end) per window, or None for the full span
    off_windows: tuple[tuple[object, ts.PeriodLabel, ts.PeriodLabel], ...] | None
    weight: float | None
    grid_step: float | None
    on_counts: Path
    off_counts: Path | None
    output_growth: Path | None


def _index_settings(config: PipelineConfig) -> IndexSettings:
    """The checked index section, every path present resolved;
    ``build-index`` and ``validate`` both read it here."""
    section = config.section("index", (
        "on_counts", "off_counts", "variant", "target_frequency", "normalization_window",
        "off_windows", "weight", "grid_step", "output_growth",
    ))
    variant = str(section.get("variant", "simple"))
    if variant not in ("simple", "standardized"):
        raise UsageError(f"index variant must be 'simple' or 'standardized', got {variant!r}")
    try:
        target = ts.Frequency(str(section.get("target_frequency", "quarterly")))
    except ValueError as exc:
        raise UsageError(f"config key 'target_frequency': {exc}") from exc
    window = _parse_window(section.get("normalization_window"), "normalization_window", target)
    off_windows = section.get("off_windows")
    if off_windows is not None:
        if not isinstance(off_windows, list) or not off_windows:
            raise UsageError("off_windows must be a non-empty list of [start, end] pairs")
        windows = []
        for entry in off_windows:
            w_lo, w_hi = _parse_window(entry, "off window", target)
            if w_lo is None or w_hi is None:
                raise UsageError("off windows must be [start, end] pairs")
            windows.append((entry, w_lo, w_hi))
        off_windows = tuple(windows)
    # a fixed weight, or else the grid search's step
    weight, grid_step = section.get("weight"), None
    if weight is not None:
        weight = _number(weight, "weight")
        if not 0.0 <= weight <= 1.0:
            raise UsageError(f"config key 'weight' must lie in [0, 1], got {weight}")
    else:
        grid_step = _number(section.get("grid_step", 0.1), "grid_step")
        if not 0.0 < grid_step < 0.5:
            raise UsageError(f"config key 'grid_step' must lie in (0, 0.5), got {grid_step}")
    on_path = config.path(section, "on_counts")
    off_path = config.path(section, "off_counts", required=False)
    dy_path = config.path(section, "output_growth", required=False)
    if off_path is not None and weight is None:
        if dy_path is None:
            raise UsageError("config key 'output_growth' is required for grid search")
        if target is not ts.Frequency.QUARTERLY:
            # the grid search regresses quarterly growth on the lagged index
            raise UsageError(f"grid search needs target_frequency 'quarterly', got {target.value!r}")
    return IndexSettings(variant, target, window, off_windows, weight, grid_step, on_path, off_path, dy_path)


def _off_index(settings: IndexSettings, span: ts.CalendarSeries) -> ix.IntensityIndex:
    """The lifting-coverage index over ``span``, the on index's series: each
    off window of the counts (the whole panel when there are none) is built
    on its own, so the standardized variant uses its within-window dispersion,
    and placed in the span; periods that no piece covers are zeros."""
    panel = ix.read_counts_csv(settings.off_counts)
    target = settings.target
    if settings.off_windows is None:
        pieces = ((f"off counts file {settings.off_counts}", panel),)
    else:
        windows = settings.off_windows
        pieces = ((f"off window {entry}", _mask_panel_months(panel, w_lo, w_hi, target)) for entry, w_lo, w_hi in windows)
    values = np.zeros(len(span))
    covered = np.zeros(len(span), dtype=bool)
    for name, piece_panel in pieces:
        if piece_panel is None:
            raise UsageError(f"{name} contains no count data")
        piece = _index_series(piece_panel, settings.variant, target, name)
        lo = piece.start.to_index(target) - span.start.to_index(target)
        hi = lo + len(piece)
        if lo < 0 or hi > len(values):
            raise UsageError(f"{name} falls outside the index span")
        if covered[lo:hi].any():
            raise UsageError("off windows overlap")
        values[lo:hi] = piece.values
        covered[lo:hi] = True
    return ix.normalize_unit_max(span.replace_values(values), window=settings.window, kind=ix.IndexKind.OFF)


def cmd_build_index(config: PipelineConfig) -> Outputs:
    settings = _index_settings(config)
    variant, target, window, _, weight, grid_step, on_path, off_path, dy_path = settings
    on_series = _index_series(ix.read_counts_csv(on_path), variant, target, f"on counts file {on_path}")
    on_index = ix.normalize_unit_max(on_series, window=window, kind=ix.IndexKind.ON)
    outputs: Outputs = {"index_on.csv": partial(ix.write_index_csv, on_index)}
    diagnostics: dict[str, object] = {
        "variant": variant,
        "target_frequency": target.value,
        "on_normalization_max": on_index.normalization_max,
    }
    if off_path is not None:
        off_index = _off_index(settings, on_index.series)
        diagnostics["off_normalization_max"] = off_index.normalization_max
        if weight is not None:
            diagnostics["weight"] = {"value": weight, "source": "fixed"}
        else:
            result = ix.grid_search_weight(on_index, off_index, ts.read_series_csv(dy_path), grid_step=grid_step)
            weight = result.w_hat
            diagnostics["weight"] = {
                "value": weight,
                "source": "grid_search",
                "nobs": result.nobs,
                "relative_ssr_spread": result.relative_ssr_spread,
                "profile": [{"w": p.weight, "ssr": p.ssr, "loglik": p.loglik} for p in result.points],
            }
        outputs["index_off.csv"] = partial(ix.write_index_csv, off_index)
        outputs["index_net.csv"] = partial(ix.write_index_csv, ix.net_index(on_index, off_index, weight))
    outputs["index_diagnostics.json"] = partial(ts.write_json, diagnostics)
    return outputs


# ---------------------------------------------------------------------------
# convert-calendar
# ---------------------------------------------------------------------------

_CONVERTERS = {
    ts.Frequency.ANNUAL: ts.convert_iranian_annual,
    ts.Frequency.QUARTERLY: ts.convert_iranian_quarterly,
    ts.Frequency.MONTHLY: ts.convert_iranian_monthly,
}


def _calendar_input(config: PipelineConfig) -> Path:
    """The calendar section's resolved ``input`` path."""
    return config.path(config.section("calendar", ("input",)), "input")


def cmd_convert_calendar(config: PipelineConfig) -> Outputs:
    series = ts.read_series_csv(_calendar_input(config), calendar=ts.CalendarKind.IRANIAN)
    return {"converted.csv": partial(ts.write_series_csv, _CONVERTERS[series.frequency](series))}


# ---------------------------------------------------------------------------
# estimate / dynamics
# ---------------------------------------------------------------------------


class BootstrapSettings(NamedTuple):
    replications: int
    quantiles: tuple[float, float]
    seed: int
    joint: bool


class ModelSettings(NamedTuple):
    spec: sv.SvarSpec
    data: dict[str, ts.CalendarSeries]
    controls_var1: bool
    horizon: int
    method: str
    shocked_control: str | None
    bootstrap: BootstrapSettings | None


def _bootstrap_settings(boot_cfg: Mapping[str, object], config: PipelineConfig) -> BootstrapSettings:
    """Checked settings of the bootstrap section; its seed defaults to the config's."""
    _known_keys(boot_cfg, "config key 'bootstrap'", ("replications", "quantiles", "seed", "joint"))
    replications = _integer(boot_cfg.get("replications", 1000), "replications")
    if replications < 1:
        raise UsageError(f"config key 'replications' must be positive, got {replications}")
    quantiles = boot_cfg.get("quantiles", (0.05, 0.95))
    if not isinstance(quantiles, (list, tuple)) or len(quantiles) != 2:
        raise UsageError("config key 'quantiles' must be a [lower, upper] pair")
    lo, hi = (_number(q, "quantiles") for q in quantiles)
    if not 0.0 <= lo < hi <= 1.0:
        raise UsageError(f"config key 'quantiles' must satisfy 0 <= lower < upper <= 1, got {[lo, hi]}")
    seed = _integer(boot_cfg.get("seed", config.seed), "bootstrap.seed")
    source = "config key 'bootstrap.seed'" if "seed" in boot_cfg else config.seed_source
    if seed < 0:
        # numpy's generators take only non-negative seeds
        raise UsageError(f"{source} must be non-negative, got {seed}")
    joint = _flag(boot_cfg.get("joint", False), "joint")
    return BootstrapSettings(replications, (lo, hi), seed, joint)


def _model_settings(config: PipelineConfig) -> ModelSettings:
    """The checked model section with its spec and data panel read;
    ``estimate``, ``dynamics`` and ``validate`` all read it here."""
    section = config.section("model", (
        "spec", "data", "controls_var1", "horizon", "shocked_control", "method", "bootstrap",
    ))
    horizon = _integer(section.get("horizon", 24), "horizon")
    if horizon < 0:
        raise UsageError(f"config key 'horizon' must be non-negative, got {horizon}")
    method = section.get("method", "direct")
    if method not in ("direct", "stacked", "both"):
        raise UsageError(f"method must be direct, stacked, or both; got {method!r}")
    shocked = section.get("shocked_control")
    if shocked is not None and not isinstance(shocked, str):
        raise UsageError(f"config key 'shocked_control' must be a string, got {shocked!r}")
    boot_cfg = section.get("bootstrap")
    if boot_cfg is not None:
        if not isinstance(boot_cfg, dict):
            raise UsageError(f"config key 'bootstrap' must be an object, got {boot_cfg!r}")
        boot_cfg = _bootstrap_settings(boot_cfg, config)
    controls_var1 = _flag(section.get("controls_var1", False), "controls_var1")
    spec_path = config.path(section, "spec")
    try:
        payload = json.loads(spec_path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise UsageError(f"model spec {spec_path}: invalid JSON: {exc}") from exc
    spec = sv.SvarSpec.from_json(payload)
    shocks, _ = spec.shocks(shocked)
    # a size whose largest float64 array, the (H+1, n, n) responses or the bands'
    # (replications, shocks, H+1, m) draws, cannot fit is refused here, not by a MemoryError
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    m, n = spec.m, len(spec.columns)
    draws = (boot_cfg.replications if boot_cfg else 0) * len(shocks) * (horizon + 1) * m
    for key, nbytes in (("horizon", 8 * (horizon + 1) * n * n), ("replications", 8 * draws)):
        if nbytes > memory:
            raise UsageError(
                f"config key {key!r} needs a {nbytes}-byte array, more than the {memory} bytes of physical memory"
            )
    data = {name: ts.read_series_csv(path) for name, path in config.paths(section, "data", required=True).items()}
    return ModelSettings(spec, data, controls_var1, horizon, method, shocked, boot_cfg)


def cmd_estimate(config: PipelineConfig) -> Outputs:
    model = _model_settings(config)
    est = sv.estimate_svar(model.spec, model.data, controls_var1=model.controls_var1)
    outputs: Outputs = {"estimate.json": partial(ts.write_json, sv.estimate_to_json(est))}
    for name, fit in zip(est.variables, est.fits):
        rows = _serial_correlation_rows(fit, f"equation {name!r}: ")
        outputs[f"eq_{name}.csv"] = partial(reg.write_fit_csv, fit, extra_rows=rows)
    return outputs


def _serial_correlation_rows(fit: reg.RegressionFit, where: str = "") -> tuple[tuple[str, str], ...]:
    """A fit table's rows of the lag-4 Breusch-Godfrey test; ``where`` leads
    the message of a sample too short for the test."""
    try:
        bg = reg.breusch_godfrey(fit, lags=4)
    except SampleError as exc:
        raise SampleError(f"{where}{exc}") from None
    return ("bg_lm_stat_lag4", f"{bg.lm_stat:.6f}"), ("bg_p_value", f"{bg.p_value:.6f}")


def cmd_dynamics(config: PipelineConfig) -> Outputs:
    spec, data, controls_var1, horizon, method, shocked, boot_cfg = _model_settings(config)
    est = sv.estimate_svar(spec, data, controls_var1=controls_var1)
    outputs: Outputs = {}
    if method == "both":
        check = {"max_abs_deviation": dyn.max_method_deviation(est, horizon, shocked), "tolerance": 1e-10}
        outputs["method_check.json"] = partial(ts.write_json, check)
        method = "direct"
    # variance shares first: their stationarity refusal carries the eigenvalue report
    fv = dyn.fevd(est, horizon, shocked, method=method)
    irf = dyn.irf_all(est, horizon, shocked, method=method)

    bands = None
    if boot_cfg is not None:
        bands = boot.bootstrap_irf(
            est,
            horizon=horizon,
            replications=boot_cfg.replications,
            quantiles=boot_cfg.quantiles,
            seed=boot_cfg.seed,
            joint_resampling=boot_cfg.joint,
            shocked_control=shocked,
        )
        outputs["bootstrap_meta.json"] = partial(boot.write_bands_metadata, bands)
    outputs["irf.csv"] = partial(dyn.write_irf_csv, irf, bands=bands)
    outputs["fevd.csv"] = partial(dyn.write_fevd_csv, fv)
    # the figure payload is built as it is written, not held beside the others
    outputs["plot_irf.json"] = lambda path: ts.write_json(dyn.plot_data_json(irf, bands=bands), path)
    return outputs


# ---------------------------------------------------------------------------
# reduced-form
# ---------------------------------------------------------------------------


class ReducedFormSettings(NamedTuple):
    intervention: Path
    growth: Path | None
    levels: tuple[Path, Path] | None  # (domestic, region), in place of growth
    lags: tuple[int, ...]
    controls: dict[str, Path]


def _effect_name(lag_: int) -> str:
    """The design's name for the intervention at ``lag_``."""
    return "s" if lag_ == 0 else f"s.L{lag_}"


def _reduced_form_settings(config: PipelineConfig) -> ReducedFormSettings:
    """The checked reduced-form section, every path resolved;
    ``reduced-form`` and ``validate`` both read it here."""
    section = config.section("reduced_form", (
        "growth", "domestic_levels", "region_levels", "intervention", "intervention_lags", "controls",
    ))
    lags = section.get("intervention_lags", [1])
    if not isinstance(lags, list) or not lags:
        raise UsageError("intervention_lags must be a non-empty list")
    lags = tuple(_integer(lag_, "intervention_lags") for lag_ in lags)
    if min(lags) < 0 or len(set(lags)) != len(lags):
        # a repeated lag would enter the long-run effect twice, a negative one as a lead
        raise UsageError(f"config key 'intervention_lags' must be distinct non-negative lags, got {list(lags)}")
    intervention = config.path(section, "intervention")
    sources = [key for key in ("growth", "domestic_levels", "region_levels") if section.get(key) is not None]
    if sources not in (["growth"], ["domestic_levels", "region_levels"]):
        raise UsageError(
            f"config section 'reduced_form' needs 'growth' or both 'domestic_levels' and 'region_levels', got {sources}"
        )
    growth = config.path(section, "growth", required=False)
    levels = None if growth else (config.path(section, "domestic_levels"), config.path(section, "region_levels"))
    controls = config.paths(section, "controls", required=False)
    built = ["const", "dy.L1", *map(_effect_name, lags)]
    clashes = [name for name in controls if name in built]
    if clashes:
        # a control of that name would replace the regressor in the design
        raise UsageError(f"config key 'controls' names regressors the command builds: {clashes}")
    return ReducedFormSettings(intervention, growth, levels, lags, controls)


def cmd_reduced_form(config: PipelineConfig) -> Outputs:
    settings = _reduced_form_settings(config)
    intervention = ts.read_series_csv(settings.intervention)
    if settings.levels is not None:
        growth = reg.relative_series(*(ts.read_series_csv(p) for p in settings.levels))
    else:
        growth = ts.read_series_csv(settings.growth)

    base: dict[str, ts.CalendarSeries] = {"dy.L1": ts.lag(growth, 1)}
    effect_names = []
    for lag_ in settings.lags:
        name = _effect_name(lag_)
        base[name] = ts.lag(intervention, lag_)
        effect_names.append(name)
    for name, csv_path in settings.controls.items():
        base[name] = ts.read_series_csv(csv_path)

    arrays, _ = ts.align(growth, *base.values())
    fit = reg.ols(arrays[0], np.column_stack(arrays[1:]), names=tuple(base))
    effect = reg.long_run_effect(fit, effect_names, "dy.L1")
    rows = (
        ("long_run_effect", f"{effect.theta:.6f}"),
        ("long_run_effect_se", f"{effect.se:.6f}"),
        *_serial_correlation_rows(fit),
    )
    payload = reg.fit_to_json(fit)
    payload["long_run_effect"] = {"theta": effect.theta, "se": effect.se}
    payload["relative_to_region"] = settings.levels is not None
    return {
        "reduced_form.csv": partial(reg.write_fit_csv, fit, extra_rows=rows),
        "reduced_form.json": partial(ts.write_json, payload),
    }


# the parse of each config section, shared by its command and validate
_SECTIONS = {
    "index": _index_settings,
    "calendar": _calendar_input,
    "model": _model_settings,
    "reduced_form": _reduced_form_settings,
}


def cmd_validate(config: PipelineConfig) -> Outputs:
    unknown = set(config.raw) - {"out_dir", "seed", *_SECTIONS}
    if unknown:
        raise UsageError(f"unknown config sections: {sorted(unknown)}")
    for name, parse in _SECTIONS.items():
        if name in config.raw:
            parse(config)
    print("config ok")
    return {}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "build-index": cmd_build_index,
    "convert-calendar": cmd_convert_calendar,
    "estimate": cmd_estimate,
    "dynamics": cmd_dynamics,
    "reduced-form": cmd_reduced_form,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="newsvar", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = PipelineConfig.load(args.config, out_override=args.out, seed_override=args.seed)
        outputs = _COMMANDS[args.command](config)
        # an output name held by a directory or another non-file is refused before any write
        for path in map(config.out_dir.joinpath, outputs):
            if path.exists() and not path.is_file():
                raise UsageError(f"output {path} exists and is not a regular file")
        if outputs:
            config.out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in outputs.items():
            write(config.out_dir / name)
        return EXIT_OK
    except (UsageError, OSError) as exc:  # OSError: a path the config names cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NewsvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size under the physical-memory check of _model_settings
        reason = str(exc) or "out of memory"
        print(f"error: {reason}; lower config key 'horizon' or 'replications'", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
