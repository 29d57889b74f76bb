"""darkscope: dark-fill signalling detection from lit-print timing.

The library scores how surprisingly fast lit-market prints follow dark-venue
fills against locally estimated Poisson trading intensity, aggregates the
per-fill p-values into venue evidence with Fisher's method, measures the
slippage those fills actually suffered, and replays a minimum-fill-size /
pause policy against synthetic tapes with known ground truth.
"""

from importlib import import_module

__version__ = "0.1.0"

# The package's names by the module that defines them. Each module is
# imported on the first access to one of its names (PEP 562), so that
# ``import darkscope.cli`` loads only what the command it runs needs.
_EXPORTS = {
    "evidence": (
        "EvidenceLedger", "FisherResult", "chisq_survival_even", "combine",
        "fisher_statistic", "ledger_update",
    ),
    "policy": (
        "ActionKind", "BacktestReport", "PolicyAction", "PolicyConfig", "replay",
    ),
    "simulator": (
        "PriceModel", "Scenario", "VenueProfile", "fleet", "gen_dark_fills",
        "gen_lit_tape", "gen_price_path", "inject_leakage", "preset",
        "simulate_scenario",
    ),
    "power": ("empirical_crossing", "min_fills_bound"),
    "slippage": (
        "PricePath", "SlippageConfig", "arrival_slippage", "bucket_report",
        "size_threshold_report",
    ),
    "surprise": (
        "SurpriseRecord", "fill_pvalue", "predictive_cdf", "score_tape",
    ),
    "tape": (
        "EventKind", "Side", "Tape", "TapeEvent", "TapeFormatError", "merge_streams",
        "parse_tape", "serialize_tape",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
