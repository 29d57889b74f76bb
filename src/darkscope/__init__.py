"""darkscope: dark-fill signalling detection from lit-print timing.

The library scores how surprisingly fast lit-market prints follow dark-venue
fills against locally estimated Poisson trading intensity, aggregates the
per-fill p-values into venue evidence with Fisher's method, measures the
slippage those fills actually suffered, and replays a minimum-fill-size /
pause policy against synthetic tapes with known ground truth.
"""

from .evidence import (
    EvidenceLedger,
    FisherResult,
    chisq_survival_even,
    combine,
    fisher_statistic,
    ledger_update,
)
from .policy import (
    ActionKind,
    BacktestReport,
    DirectionFilter,
    PolicyAction,
    PolicyConfig,
    decide,
    replay,
)
from .simulator import (
    PriceModel,
    Scenario,
    VenueProfile,
    fleet,
    gen_dark_fills,
    gen_lit_tape,
    gen_price_path,
    inject_leakage,
    preset,
    simulate_scenario,
)
from .slippage import (
    PricePath,
    SlippageConfig,
    arrival_slippage,
    bucket_report,
    empirical_crossing,
    min_fills_bound,
    size_threshold_report,
)
from .surprise import (
    SurpriseRecord,
    exponential_cdf,
    fill_pvalue,
    predictive_cdf,
    score_tape,
)
from .tape import (
    EventKind,
    Side,
    Tape,
    TapeEvent,
    TapeFormatError,
    merge_streams,
    parse_tape,
    serialize_tape,
)

__version__ = "0.1.0"
