"""darkscope: dark-fill signalling detection from lit-print timing.

The library scores how surprisingly fast lit-market prints follow dark-venue
fills against locally estimated Poisson trading intensity, aggregates the
per-fill p-values into venue evidence with Fisher's method, measures the
slippage those fills actually suffered, and replays a minimum-fill-size /
pause policy against synthetic tapes with known ground truth.

Each name is imported from the one module that defines it:

- ``darkscope.tape``: the columnar ``Tape``, its parser, serializers and caches;
- ``darkscope.surprise``: per-fill timing p-values and ``score_columns``;
- ``darkscope.evidence``: the chi-squared survival, ``combine`` and the Fisher fold;
- ``darkscope.policy``: ``PolicyConfig`` and the backtest ``replay``;
- ``darkscope.slippage``: ``PricePath``, fill slippages and their reports;
- ``darkscope.power``: ``min_fills_bound`` and ``empirical_crossing``;
- ``darkscope.simulator``: ``Scenario``, its text form and ``simulate_scenario``;
- ``darkscope.options``: every option's default and cap, and ``PRESETS``.
"""

__version__ = "0.1.0"
