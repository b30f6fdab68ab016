"""News-coverage intervention-intensity indices and structural VAR dynamics.

Submodules:
    timeseries: calendar-aware series, conversions, aggregation, CSV I/O
    intensity:  article-count indices, netting, grid-searched weights
    regression: OLS engine, serial-correlation test, long-run effects
    svar:       recursive structural VAR estimation
    dynamics:   impulse responses and variance decompositions
    bootstrap:  residual-resampling confidence bands
    cli:        config-driven command line front end
"""

from importlib import import_module

__all__ = [
    "bootstrap",
    "dynamics",
    "errors",
    "intensity",
    "regression",
    "svar",
    "timeseries",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a submodule on first use (PEP 562), so a command loads only
    the modules it needs."""
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
