import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope.evidence import (
    EvidenceLedger,
    build_ledgers,
    chisq_survival_even,
    combine,
    fisher_statistic,
    fold,
    ledger_update,
)


def chi2_sf_quadrature(x: float, dof: int) -> float:
    """Independent oracle: adaptive quadrature of the chi-squared density."""
    k = dof // 2

    def pdf(t):
        if t <= 0:
            return 0.0
        return math.exp((k - 1) * math.log(t) - t / 2 - k * math.log(2) - math.lgamma(k))

    # split at the density mode so quad cannot miss a peak far from x
    cut = max(x + 1.0, 2.0 * (k - 1), 1.0)
    head, _ = scipy.integrate.quad(pdf, x, cut, epsabs=1e-14, epsrel=1e-13, limit=300)
    tail, _ = scipy.integrate.quad(pdf, cut, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300)
    return head + tail


class TestFisherStatistic:
    def test_all_ones(self):
        assert fisher_statistic([1.0, 1.0, 1.0]) == 0.0

    def test_single(self):
        assert fisher_statistic([0.05]) == pytest.approx(5.99146454710798199, abs=1e-10)

    def test_pair(self):
        assert fisher_statistic([0.1, 0.1]) == pytest.approx(9.21034037197618274, abs=1e-10)

    def test_additive_over_concatenation(self):
        a, b = [0.2, 0.7], [0.05, 0.9, 0.5]
        assert fisher_statistic(a + b) == pytest.approx(
            fisher_statistic(a) + fisher_statistic(b), rel=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fisher_statistic([])

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, math.nan])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            fisher_statistic([0.5, bad])


class TestChisqSurvival:
    def test_at_zero(self):
        for k in (1, 2, 7, 128):
            assert chisq_survival_even(0.0, 2 * k) == 1.0

    def test_single_p_round_trip(self):
        assert chisq_survival_even(5.99146454710798199, 2) == pytest.approx(0.05, abs=1e-6)

    def test_k2_closed_form(self):
        assert chisq_survival_even(9.21034037197618274, 4) == pytest.approx(
            0.05605170185988091, abs=1e-10
        )

    def test_matches_quadrature_oracle_spot_checks(self):
        for x, k in [(1.0, 1), (25.0, 5), (180.0, 64), (3.5, 2), (60.0, 30)]:
            assert chisq_survival_even(x, 2 * k) == pytest.approx(
                chi2_sf_quadrature(x, 2 * k), abs=1e-12
            )

    def test_deep_tail_log_space_branch(self):
        # x/2 > 700 underflows exp(-x/2); the log-space path must still match
        got = chisq_survival_even(2000.0, 256)
        want = scipy.stats.chi2.sf(2000.0, 256)
        assert got == pytest.approx(want, rel=1e-9)
        assert got > 0.0

    def test_odd_dof_rejected(self):
        with pytest.raises(ValueError):
            chisq_survival_even(1.0, 3)

    def test_negative_statistic_rejected(self):
        with pytest.raises(ValueError):
            chisq_survival_even(-0.5, 2)

    @given(x=st.floats(0.0, 500.0), bump=st.floats(0.001, 100.0), k=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonincreasing_in_x(self, x, bump, k):
        assert chisq_survival_even(x + bump, 2 * k) <= chisq_survival_even(x, 2 * k) + 1e-15

    @given(x=st.floats(0.0, 500.0), k=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_more_dof_means_larger_survival(self, x, k):
        assert chisq_survival_even(x, 2 * k + 2) >= chisq_survival_even(x, 2 * k) - 1e-15


class TestCombine:
    def test_trivial_one(self):
        result = combine([1.0])
        assert result.statistic == 0.0
        assert result.combined_p == 1.0
        assert result.k == 1

    def test_k1_is_identity(self):
        for p in (0.001, 0.05, 0.5, 0.99):
            assert combine([p]).combined_p == pytest.approx(p, abs=1e-12)

    def test_first_five_fills_batch(self):
        # frozen from the quadrature oracle (hand arithmetic agrees):
        # -2 * sum(log p) = 22.8719288476682, survival at 10 dof = 0.0112293102
        result = combine([0.02, 0.03, 0.5, 0.9, 0.04])
        assert result.statistic == pytest.approx(22.8719288476682, abs=1e-10)
        assert result.combined_p == pytest.approx(0.011229310215707, abs=1e-10)
        assert result.combined_p == pytest.approx(
            chi2_sf_quadrature(result.statistic, 10), abs=1e-12
        )

    @given(ps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, ps):
        shuffled = list(reversed(ps))
        assert combine(ps).combined_p == pytest.approx(
            combine(shuffled).combined_p, rel=1e-12, abs=1e-15
        )

    @given(
        ps=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
        idx=st.integers(0, 7),
        shrink=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_evidence(self, ps, idx, shrink):
        idx %= len(ps)
        smaller = list(ps)
        smaller[idx] *= shrink
        assert combine(smaller).combined_p <= combine(ps).combined_p + 1e-12

    def test_null_uniformity_of_combined_p(self):
        rng = np.random.default_rng(99)
        batches = rng.uniform(size=(10_000, 5))
        stats = -2.0 * np.log(batches).sum(axis=1)
        ps = np.array([chisq_survival_even(s, 10) for s in stats])
        d_stat = scipy.stats.kstest(ps, "uniform").statistic
        assert d_stat < 1.628 / math.sqrt(len(ps))


class TestLedger:
    def test_fresh_ledger_single_p(self):
        ledger = EvidenceLedger("V1", k_max=5)
        ledger_update(ledger, 100, 0.5)
        assert ledger.current.k == 1
        assert ledger.current.combined_p == pytest.approx(0.5, abs=1e-12)

    def test_sixth_update_evicts_first(self):
        ledger = EvidenceLedger("V1", k_max=5)
        for i, p in enumerate([0.01, 0.2, 0.3, 0.4, 0.5, 0.6]):
            ledger_update(ledger, i, p)
        assert ledger.buffer == (0.2, 0.3, 0.4, 0.5, 0.6)
        assert ledger.current.k == 5

    def test_all_ones(self):
        ledger = EvidenceLedger("V1", k_max=5)
        for i in range(5):
            ledger_update(ledger, i, 1.0)
        assert ledger.current.combined_p == 1.0

    def test_timestamp_regression_rejected(self):
        ledger = EvidenceLedger("V1")
        ledger_update(ledger, 10, 0.5)
        with pytest.raises(ValueError, match="regression"):
            ledger_update(ledger, 9, 0.5)

    def test_history_append_only(self):
        ledger = EvidenceLedger("V1", k_max=2)
        emitted = []
        for i, p in enumerate([0.9, 0.8, 0.7]):
            ledger_update(ledger, i, p)
            emitted.append(ledger.history[-1])
        assert [e.p for e in emitted] == [0.9, 0.8, 0.7]
        assert [e.result.k for e in emitted] == [1, 2, 2]
        assert [e.ts for e in emitted] == [0, 1, 2]

    def test_history_is_read_only_view_of_updates(self):
        ledger = EvidenceLedger("V1", k_max=2)
        emitted = []
        for i, p in enumerate([0.9, 0.2, 0.5, 0.01]):
            ledger_update(ledger, i, p)
            emitted.append(ledger.history[-1])
            assert ledger.current is emitted[-1].result
            assert ledger.history[-1] is emitted[-1]
        assert [e.p for e in emitted] == [0.9, 0.2, 0.5, 0.01]
        assert [e.result.k for e in emitted] == [1, 2, 2, 2]
        assert len(set(map(id, emitted))) == 4
        history = ledger.history
        assert history == tuple(emitted[-2:])
        assert history[0] is emitted[2] and history[1] is emitted[3]
        with pytest.raises(TypeError):
            history[0] = emitted[-1]
        with pytest.raises(TypeError):
            del history[0]
        assert not hasattr(history, "append")

    def test_memory_is_bounded_by_k_max(self):
        ledger = EvidenceLedger("V1", k_max=5)
        rng = np.random.default_rng(3)
        for i, p in enumerate(rng.uniform(1e-3, 1.0, size=10_000)):
            ledger_update(ledger, i, float(p))
        history = ledger.history
        assert type(history) is tuple
        assert len(history) == ledger.k_max == 5
        assert ledger.buffer == tuple(e.p for e in history)
        assert ledger.updates == 10_000
        assert [e.ts for e in history] == list(range(9_995, 10_000))
        assert ledger.current is history[-1].result

    def test_build_ledgers_with_aggregate(self):
        triples = [("A", 1, 0.5), ("B", 2, 0.1), ("A", 3, 0.9), ("*", 4, 0.2)]
        books = build_ledgers(triples, k_max=5)
        assert books["A"].updates == 2
        assert books["B"].updates == 1
        assert books["*"].updates == 4

    def test_fold_returns_new_entries_in_update_order(self):
        ledgers = {}
        updated = fold(ledgers, "A", 1, 0.5, k_max=3)
        assert [v for v, _ in updated] == ["A", "*"]
        assert [e for _, e in updated] == [ledgers["A"].history[-1], ledgers["*"].history[-1]]
        assert ledgers["A"].k_max == ledgers["*"].k_max == 3
        updated = fold(ledgers, "*", 2, 0.25, k_max=3)
        assert [(v, e.p, e.result.k) for v, e in updated] == [("*", 0.25, 2)]
