import argparse
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkscope import options
from darkscope.cli import build_parser, main
from darkscope.options import DEFAULT_HORIZON_MULT, DEFAULT_WINDOW_SIZE, MAX_BUCKETS
from darkscope.simulator import format_scenario, preset
from darkscope.surprise import score_columns
from darkscope.tape import parse_tape
from oracle import entry_to_obj, fold


def read(path):
    return path.read_bytes()


def run(argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_preset_writes_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--preset", "null", "--seed", "7", "--output", out]) == 0
        assert (out / "tape.jsonl").exists()
        assert (out / "path.jsonl").exists()
        assert (out / "scenario.txt").exists()
        first = (out / "tape.jsonl").read_text().splitlines()[0]
        assert json.loads(first)["kind"] == "meta"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--preset", "leaky", "--seed", "7", "--output", a])
        run(["simulate", "--preset", "leaky", "--seed", "7", "--output", b])
        for name in ("tape.jsonl", "path.jsonl", "scenario.txt"):
            assert read(a / name) == read(b / name)

    def test_scenario_file_input(self, tmp_path):
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text(format_scenario(preset("null", seed=3, duration=500.0)))
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--output", out]) == 0
        assert (out / "tape.jsonl").exists()

    @pytest.mark.parametrize(
        "line, error",
        [
            ("dark_fil_rate=0.9", "error: scenario line 2: unknown key 'dark_fil_rate'"),
            ("lit_schedule=0:1,5", "error: scenario line 2: lit_schedule=0:1,5: expected"),
            ("duration=1e300", "error: scenario line 2: duration=1e300: scenario expects"),
            # each would draw sizes of inf, which parse_tape rejects
            ("venue.D.size_log_mu=800",
             "error: scenario line 2: venue.D.size_log_mu=800: size_log_mu must be in [-100, 100], got 800.0"),
            ("lit_size_log_mu=800",
             "error: scenario line 2: lit_size_log_mu=800: lit_size_log_mu must be in [-100, 100], got 800.0"),
            ("venue.D.size_log_sigma=60",
             "error: scenario line 2: venue.D.size_log_sigma=60: size_log_sigma must be in [0, 10], got 60.0"),
            ("lit_size_log_sigma=-1",
             "error: scenario line 2: lit_size_log_sigma=-1: lit_size_log_sigma must be in [0, 10], got -1.0"),
        ],
    )
    def test_bad_scenario_line_exits_1(self, tmp_path, capsys, line, error):
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text(f"name=x\n{line}\nseed=3\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not (out / "tape.jsonl").exists()

    def test_empty_venue_name_exits_1_before_writing(self, tmp_path, capsys):
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text("duration=200\nvenue..leak_prob=0.5\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: scenario line 2: venue..leak_prob=0.5: venue name must not be empty"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, error",
        [
            # each was a traceback from the simulator's leak injection: the leak print's ns overflow int64
            ("duration=200\nvenue.D.leak_prob=1\nvenue.D.leak_latency_kind=fixed\nvenue.D.leak_latency_mean=1e10\n",
             "scenario line 4: venue.D.leak_latency_mean=1e10: "
             "leak_latency_mean must be <= MAX_LEAK_LATENCY_S = 1e+08, got 10000000000.0"),
            ("duration=200\nvenue.D.leak_prob=1\nvenue.D.leak_latency_kind=fixed\nvenue.D.leak_latency_mean=1e300\n",
             "scenario line 4: venue.D.leak_latency_mean=1e300: "
             "leak_latency_mean must be <= MAX_LEAK_LATENCY_S = 1e+08, got 1e+300"),
            # was three cast warnings and an error naming no line: the fill ns overflow int64
            ("duration=1e10\nlit_schedule=0:1e8\ndark_fill_rate=1e-8\n",
             "scenario line 1: duration=1e10: duration must be <= MAX_DURATION_S = 1e+09, got 10000000000.0"),
        ],
    )
    def test_timestamps_past_int64_exit_1_naming_the_line(self, tmp_path, capsys, text, error):
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text(text)
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            # was "log_mid must be finite": the tape is empty, so it passed the
            # tape check, and the drift-only closing sample is inf
            "duration=200\nlit_schedule=0:1e6\ndark_fill_rate=0\nprice.competing_drift=1e308\n",
            # was "tape fails parse_tape's checks: price must be > 0": mids of 0 and inf
            "duration=200\nprice.sigma_per_trade=1e308\n",
        ],
    )
    def test_price_path_out_of_float_range_exits_1_naming_the_price_keys(self, tmp_path, capsys, text):
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text(text)
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (
            "error: price path leaves the float range: check price.sigma_per_trade, "
            "price.competing_drift, price.leak_impact and price.start_mid"
        )
        assert not out.exists()

    def test_timestamps_at_the_caps_fit_int64(self, tmp_path):
        # the latest timestamps the caps allow: fills near 1e9 s, each with a latent
        # re-time, a sweep and a leak print 1e8 s on; score reads them back
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text(
            "duration=1e9\nlit_schedule=0:1e8\ndark_fill_rate=1e-8\nvenue.D.leak_prob=1\n"
            "venue.D.leak_latency_kind=fixed\nvenue.D.leak_latency_mean=1e8\n"
            "venue.D.sweep_prob=1\nvenue.D.latent_prob=1\n"
        )
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 0
        assert run(["score", "--input", out / "tape.jsonl", "--output", tmp_path / "score"]) == 0

    def test_later_line_can_bring_the_event_count_under_the_cap(self, tmp_path):
        # the expected event count is checked on the whole file: the last duration wins
        scenario_file = tmp_path / "scn.txt"
        scenario_file.write_text("name=x\nduration=1e300\nduration=100.0\n")
        out = tmp_path / "sim"
        assert run(["simulate", "--scenario", scenario_file, "--seed", "1", "--output", out]) == 0
        assert (out / "tape.jsonl").exists()

    def test_seed_required_in_test_mode(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DARKSCOPE_TEST", "1")
        code = run(["simulate", "--preset", "null", "--output", tmp_path / "x"])
        assert code == 2


@pytest.mark.parametrize(
    "command, option, cap",
    [
        *((c, "--window-n", "MAX_WINDOW") for c in ("score", "backtest", "report")),
        *((c, "--kmax", "MAX_KMAX") for c in ("score", "backtest")),
        ("power", "--seeds", "MAX_CROSSING_SEEDS"),
        ("report", "--buckets", "MAX_BUCKETS"),
    ],
)
def test_help_of_each_capped_option_names_its_cap(command, option, cap):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in commands.choices[command]._actions if option in a.option_strings)
    assert action.help.endswith(f", 1 to {getattr(options, cap)}")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--preset", "leaky", "--seed", "11", "--output", str(out)])
    assert code == 0
    return out


class TestScore:
    def test_scored_lines(self, tmp_path, simulated):
        out = tmp_path / "score"
        assert run(["score", "--input", simulated / "tape.jsonl", "--output", out]) == 0
        lines = [json.loads(x) for x in (out / "scored.jsonl").read_text().splitlines()]
        kinds = {l["kind"] for l in lines}
        assert kinds == {"surprise", "evidence"}
        surprise_lines = [l for l in lines if l["kind"] == "surprise"]
        with_fwd = [l for l in surprise_lines if "p_fwd" in l]
        tape_lines = (simulated / "tape.jsonl").read_text().splitlines()
        n_dark = sum(1 for x in tape_lines if '"kind": "dark"' in x)
        # one surprise line per scoreable dark fill; all forward p's in (0, 1]
        assert len(surprise_lines) <= n_dark
        assert all(0 < l["p_fwd"] <= 1 for l in with_fwd)
        venues = {l["venue"] for l in lines if l["kind"] == "evidence"}
        assert "*" in venues and "DARK1" in venues
        ledgers = {l["ledger"] for l in lines if l["kind"] == "evidence"}
        assert ledgers == {"signalling", "latent"}

    def test_deterministic(self, tmp_path, simulated):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["score", "--input", simulated / "tape.jsonl", "--output", a])
        run(["score", "--input", simulated / "tape.jsonl", "--output", b])
        assert read(a / "scored.jsonl") == read(b / "scored.jsonl")

    def test_missing_input_is_data_error(self, tmp_path):
        assert run(["score", "--input", tmp_path / "nope.jsonl", "--output", tmp_path]) == 1

    def test_venue_named_like_the_pool_is_folded_once(self, tmp_path):
        def event(kind, tenths, **extra):
            return json.dumps({"kind": kind, "ts": tenths * 10**8, "symbol": "S", "price": 100.0,
                               "size": 100.0, "side": "buy", **extra})

        lines = [event("lit", 10), event("lit", 20), event("lit", 30),
                 event("dark", 35, venue="*"), event("lit", 40)]
        (tmp_path / "tape.jsonl").write_text("\n".join(lines) + "\n")
        assert run(["score", "--input", tmp_path / "tape.jsonl", "--output", tmp_path / "out"]) == 0
        scored = [json.loads(x) for x in (tmp_path / "out/scored.jsonl").read_text().splitlines()]
        evidence_lines = [l for l in scored if l["kind"] == "evidence"]
        assert [(l["ledger"], l["venue"], l["k"]) for l in evidence_lines] == [
            ("signalling", "*", 1), ("latent", "*", 1),
        ]
        assert all(l["combined_p"] == l["p"] for l in evidence_lines)

    def test_stdout_counts_skipped_and_censored_fills(self, tmp_path, capsys):
        def event(kind, tenths, **extra):
            return json.dumps({"kind": kind, "ts": tenths * 10**8, "symbol": "S", "price": 100.0,
                               "size": 100.0, "side": "buy", **extra})

        lines = [event("dark", 0, venue="V"), event("lit", 10), event("dark", 15, venue="V"),
                 event("lit", 20), event("dark", 22, venue="V"), event("lit", 30),
                 event("dark", 35, venue="V")]  # no lit print after the last fill
        (tmp_path / "tape.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["score", "--input", tmp_path / "tape.jsonl", "--output", out]) == 0
        assert capsys.readouterr().out == (
            f"wrote {out / 'scored.jsonl'}: 2 fills scored, "
            "2 skipped before the window filled, 1 forward-censored\n"
        )
        scored = [json.loads(x) for x in (out / "scored.jsonl").read_text().splitlines()]
        assert [("p_fwd" in l) for l in scored if l["kind"] == "surprise"] == [True, False]

    def test_evidence_lines_match_the_library_fold(self, tmp_path, simulated):
        out = tmp_path / "score"
        assert run(["score", "--input", simulated / "tape.jsonl", "--output", out]) == 0
        last = {}
        for line in (out / "scored.jsonl").read_text().splitlines():
            obj = json.loads(line)
            if obj["kind"] == "evidence":
                last[obj["ledger"], obj["venue"]] = obj
        with open(simulated / "tape.jsonl") as fh:
            tape = parse_tape(fh)
        scores = score_columns(tape, DEFAULT_WINDOW_SIZE, DEFAULT_HORIZON_MULT)
        venues = [(*tape.venues, "")[v] for v in tape.venue[scores.row].tolist()]
        ts = tape.ts[scores.row].tolist()
        expected = {}
        for name, p, scored in (("signalling", scores.p_fwd, scores.fwd),
                                ("latent", scores.p_bwd, [True] * len(scores))):
            ledgers = {}
            for venue, t, p_i, ok in zip(venues, ts, p.tolist(), scored):
                if ok:
                    fold(ledgers, venue, t, p_i)
            for venue, ledger in ledgers.items():
                expected[name, venue] = entry_to_obj(venue, ledger.history[-1], name)
        assert len(expected) == 4
        assert last == expected


# Path lines that fail parsing, by id, each with what its error says.
BAD_PATH_LINES = {
    "array": ("[1, 2]", "expected a JSON object, got list"),
    "kind": ('{"kind": "lit", "ts": 5, "log_mid": 4.6}', "expected kind 'mid', got 'lit'"),
    "no-ts": ('{"kind": "mid", "log_mid": 4.6}', "ts must be an integer, got None"),
    "float-ts": ('{"kind": "mid", "ts": 1.5, "log_mid": 4.6}', "ts must be an integer, got 1.5"),
    "bool-ts": ('{"kind": "mid", "ts": true, "log_mid": 4.6}', "ts must be an integer, got True"),
    "null-log-mid": ('{"kind": "mid", "ts": 5, "log_mid": null}', "log_mid must be a number, got None"),
    "string-log-mid": ('{"kind": "mid", "ts": 5, "log_mid": "4.6"}', "log_mid must be a number, got '4.6'"),
    "huge-log-mid": ('{"kind": "mid", "ts": 5, "log_mid": 1' + "0" * 400 + "}", "log_mid must be finite, got inf"),
    "bad-json": ("nope", r"invalid JSON \(Expecting value\)"),
    "deep-json": ("[" * 100_000 + "]" * 100_000, r"invalid JSON \(maximum recursion depth exceeded"),
}
FIRST_MID = '{"kind": "mid", "ts": 0, "log_mid": 4.6}\n'
TS_PAST_INT64 = '{"kind": "mid", "ts": 9223372036854775808, "log_mid": 4.6}'


class TestBacktest:
    def test_artifacts(self, tmp_path, simulated):
        out = tmp_path / "bt"
        code = run([
            "backtest", "--input", simulated / "tape.jsonl",
            "--path", simulated / "path.jsonl", "--output", out,
        ])
        assert code == 0
        assert (out / "actions.jsonl").exists()
        summary = (out / "summary.tsv").read_text().splitlines()
        assert summary[0].split("\t")[0] == "n_off"
        cohorts = (out / "cohorts.tsv").read_text().splitlines()
        assert cohorts[0].split("\t") == [
            "venue", "order", "side", "fills_off", "fills_on", "slip_off_bp", "slip_on_bp",
        ]
        assert len(cohorts) > 1

    def test_deterministic(self, tmp_path, simulated):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run([
                "backtest", "--input", simulated / "tape.jsonl",
                "--path", simulated / "path.jsonl", "--output", out,
            ])
        for name in ("actions.jsonl", "cohorts.tsv", "summary.tsv"):
            assert read(a / name) == read(b / name)

    @pytest.mark.parametrize("path", ["missing", "none", *BAD_PATH_LINES, "ts-outside-int64"])
    def test_reads_only_its_tape(self, tmp_path, simulated, capsys, path):
        # arrival slippage comes from the tape: what --path names, if anything, changes no byte
        def backtest(out, *path_argv):
            assert run(["backtest", "--input", simulated / "tape.jsonl", *path_argv, "--output", out]) == 0
            return capsys.readouterr(), {f.name: read(f) for f in sorted(out.glob("*"))}

        want = backtest(tmp_path / "want", "--path", simulated / "path.jsonl")
        file = tmp_path / "path.jsonl"  # missing unless a bad line goes into it
        lines = {**{name: line for name, (line, _) in BAD_PATH_LINES.items()}, "ts-outside-int64": TS_PAST_INT64}
        if path in lines:
            file.write_text(FIRST_MID + lines[path] + "\n")
        assert backtest(tmp_path / "got", *([] if path == "none" else ["--path", file])) == want
        assert len(want[1]) == 3

    def test_no_order_ids_warns_about_nan_ratio(self, tmp_path, simulated, capsys):
        objs = [json.loads(x) for x in (simulated / "tape.jsonl").read_text().splitlines()]
        for obj in objs:
            obj.pop("truth", None)
        stripped = tmp_path / "stripped.jsonl"
        stripped.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        code = run([
            "backtest", "--input", stripped,
            "--path", simulated / "path.jsonl", "--output", tmp_path / "bt",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "ratio nan" in captured.out
        warnings = [x for x in captured.err.splitlines() if x.startswith("warning:")]
        assert len(warnings) == 1 and "no fill carries truth.order" in warnings[0]
        assert warnings[0].startswith("warning: abs_ratio nan: ")  # the summary.tsv column

    def test_dark_sizes_near_the_float_limit_write_no_nan(self, tmp_path, simulated, capsys):
        objs = [json.loads(x) for x in (simulated / "tape.jsonl").read_text().splitlines()]
        for obj in objs:
            if obj["kind"] == "dark":
                obj["size"] = 1e308
        huge = tmp_path / "huge.jsonl"
        huge.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        out = tmp_path / "bt"
        code = run(["backtest", "--input", huge, "--path", simulated / "path.jsonl", "--output", out])
        assert code == 0
        cohorts = (out / "cohorts.tsv").read_text()
        assert len(cohorts.splitlines()) > 1
        assert "nan" not in cohorts
        # the size floor leaves one policy-on order: its stderr is nan, and said so
        header, row = [x.split("\t") for x in (out / "summary.tsv").read_text().splitlines()]
        summary = dict(zip(header, row))
        assert summary["n_on"] == "1" and summary["stderr_abs_on_bp"] == "nan"
        warnings = [x for x in capsys.readouterr().err.splitlines() if x.startswith("warning:")]
        assert [x for x in warnings if "stderr" in x] == [
            "warning: stderr_abs_on_bp nan: the policy-on cohort holds 1 order(s); a stderr needs 2"
        ]

    def test_dark_prices_near_the_float_limit_write_no_nan(self, tmp_path, simulated, capsys):
        objs = [json.loads(x) for x in (simulated / "tape.jsonl").read_text().splitlines()]
        for obj in objs:
            if obj["kind"] == "dark":
                obj["price"] *= 1e306  # about 1e308: a price sum overflows
                obj.pop("mid", None)
        huge = tmp_path / "huge.jsonl"
        huge.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        out = tmp_path / "bt"
        code = run(["backtest", "--input", huge, "--path", simulated / "path.jsonl", "--output", out])
        assert code == 0
        assert capsys.readouterr().err == ""
        for name in ("cohorts.tsv", "summary.tsv"):
            text = (out / name).read_text()
            assert len(text.splitlines()) > 1
            assert "nan" not in text and "inf" not in text

    def test_dark_prices_that_underflow_the_vwap_stay_finite(self, tmp_path, simulated, capsys):
        objs = [json.loads(x) for x in (simulated / "tape.jsonl").read_text().splitlines()]
        for obj in objs:
            if obj["kind"] == "dark":
                obj["price"], obj["size"] = 5e-324, 0.1  # price * size rounds to 0
                obj.pop("mid", None)
        tiny = tmp_path / "tiny.jsonl"
        tiny.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        out = tmp_path / "bt"
        code = run(["backtest", "--input", tiny, "--path", simulated / "path.jsonl", "--output", out])
        assert code == 0
        assert "error" not in capsys.readouterr().err
        for name in ("cohorts.tsv", "summary.tsv"):
            text = (out / name).read_text()
            assert len(text.splitlines()) > 1
            assert "inf" not in text
        # equal prices: every order's VWAP is its arrival price
        rows = [x.split("\t") for x in (out / "cohorts.tsv").read_text().splitlines()[1:]]
        assert rows and all(float(row[5]) == 0.0 for row in rows)


class TestPower:
    def test_prints_bound_and_crossing(self, capsys):
        assert run(["power", "--mu", "0.5", "--sigma", "12", "--seed", "1", "--seeds", "50"]) == 0
        out = capsys.readouterr().out
        assert "T = 576" in out
        assert "crossing" in out

    def test_a_small_t_target_walks_to_its_crossing(self, capsys):
        # 16 * 0.01^2 * 576 fills rounds to a walk of 0, which printed 0; t is 0
        # at the first fill, so the median crosses 0.01 at the second
        assert run(["power", "--mu", "0.5", "--sigma", "12", "--seed", "1", "--t-target", "0.01"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "empirical t=0.01 crossing (median of 200 seeds): 2 fills"
        )

    def test_zero_mu_unbounded(self, capsys):
        assert run(["power", "--mu", "0", "--sigma", "12"]) == 0
        assert "unbounded" in capsys.readouterr().out


class TestReport:
    def test_tables(self, tmp_path, simulated):
        out = tmp_path / "rep"
        code = run([
            "report", "--input", simulated / "tape.jsonl",
            "--path", simulated / "path.jsonl", "--output", out, "--buckets", "10",
        ])
        assert code == 0
        buckets = (out / "slippage_by_pvalue.tsv").read_text().splitlines()
        assert buckets[0].split("\t") == ["p_lo", "p_hi", "mean_bp", "stderr_bp", "n"]
        assert len(buckets) == 11
        shares = (out / "signalling_by_min_size.tsv").read_text().splitlines()
        assert shares[0].split("\t") == ["threshold", "share", "n"]
        report_lines = (out / "report.jsonl").read_text().splitlines()
        assert all(json.loads(x)["kind"] == "report" for x in report_lines)

    def test_bad_thresholds_usage_error(self, tmp_path, simulated, capsys):
        # parsed before any file is read or made: a missing --input exited 1, and
        # real inputs left an empty output directory
        for sim in (tmp_path / "absent", simulated):
            out = tmp_path / "r"
            code = run([
                "report", "--input", sim / "tape.jsonl",
                "--path", sim / "path.jsonl", "--output", out,
                "--thresholds", "abc,def",
            ])
            assert code == 2
            assert capsys.readouterr().err.splitlines() == ["error: bad --thresholds list: 'abc,def'"]
            assert not out.exists()

    def test_deterministic(self, tmp_path, simulated):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run([
                "report", "--input", simulated / "tape.jsonl",
                "--path", simulated / "path.jsonl", "--output", out,
            ])
        for name in ("slippage_by_pvalue.tsv", "signalling_by_min_size.tsv", "report.jsonl"):
            assert read(a / name) == read(b / name)

    def test_warns_when_every_fill_is_forward_censored(self, tmp_path, capsys):
        # no lit print follows the one fill, so neither table holds a fill
        tape_file, path_file = tmp_path / "tape.jsonl", tmp_path / "path.jsonl"
        tape_file.write_text("".join(
            json.dumps({"kind": kind, "ts": ts * 10**9, "symbol": "SYM", "price": 100.0, "size": 100.0,
                        "side": "buy", **extra}) + "\n"
            for kind, ts, extra in [("lit", 0, {}), ("lit", 1, {}), ("dark", 2, {"venue": "V1"})]
        ))
        path_file.write_text(
            '{"kind": "mid", "ts": 0, "log_mid": 4.6}\n'
            '{"kind": "mid", "ts": 100000000000, "log_mid": 4.6}\n'
        )
        out = tmp_path / "rep"
        assert run(["report", "--input", tape_file, "--path", path_file, "--output", out]) == 0
        counts = "1 fill(s) scored, 0 with a forward p-value"
        assert capsys.readouterr().err.splitlines() == [
            f"warning: slippage_by_pvalue.tsv holds no fill: {counts}, 1 whose tau horizon the path covers",
            f"warning: signalling_by_min_size.tsv holds no fill: {counts}, "
            "none of them at or above a size threshold",
        ]
        buckets = (out / "slippage_by_pvalue.tsv").read_text().splitlines()[1:]
        assert all(row.endswith("\t0") for row in buckets)

    def test_warns_when_the_path_covers_no_fill(self, tmp_path, simulated, capsys):
        path_file = tmp_path / "path.jsonl"
        path_file.write_bytes((simulated / "path.jsonl").read_bytes().splitlines(keepends=True)[0])
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", path_file, "--output", tmp_path / "rep"]
        assert run(argv) == 0
        with open(simulated / "tape.jsonl") as fh:
            scores = score_columns(parse_tape(fh), DEFAULT_WINDOW_SIZE, DEFAULT_HORIZON_MULT)
        assert capsys.readouterr().err.splitlines() == [
            f"warning: slippage_by_pvalue.tsv holds no fill: {len(scores)} fill(s) scored, "
            f"{int(scores.fwd.sum())} with a forward p-value, 0 whose tau horizon the path covers"
        ]

    def test_writes_empty_tables_when_no_fill_is_scored(self, tmp_path, capsys):
        # the one fill comes before the lit window fills, so score skips it and exits 0; so does report
        tape_file, path_file = tmp_path / "tape.jsonl", tmp_path / "path.jsonl"
        tape_file.write_text("".join(
            json.dumps({"kind": kind, "ts": ts * 1000, "symbol": "SYM", "price": 100.0, "size": 100.0,
                        "side": "buy", **extra}) + "\n"
            for kind, ts, extra in [("lit", 1, {}), ("dark", 2, {"venue": "V1"}), ("lit", 3, {})]
        ))
        path_file.write_text('{"kind": "mid", "ts": 0, "log_mid": 4.6}\n{"kind": "mid", "ts": 4000, "log_mid": 4.6}\n')
        assert run(["score", "--input", tape_file, "--output", tmp_path / "sc"]) == 0
        assert "0 fills scored, 1 skipped" in capsys.readouterr().out
        out = tmp_path / "rep"
        assert run(["report", "--input", tape_file, "--path", path_file, "--output", out]) == 0
        counts = "0 fill(s) scored, 0 with a forward p-value"
        assert capsys.readouterr().err.splitlines() == [
            f"warning: slippage_by_pvalue.tsv holds no fill: {counts}, 0 whose tau horizon the path covers",
            f"warning: signalling_by_min_size.tsv holds no fill: {counts}, "
            "none of them at or above a size threshold",
        ]
        for name in ("slippage_by_pvalue.tsv", "signalling_by_min_size.tsv"):
            rows = (out / name).read_text().splitlines()[1:]
            assert rows and all(row.endswith("\t0") for row in rows), name
        report_lines = (out / "report.jsonl").read_text().splitlines()
        assert report_lines and all(json.loads(line)["n"] == 0 for line in report_lines)


# Each input kind: its file in simulate's output, and the prefix its errors' line numbers take.
INPUTS = {"tape": ("tape.jsonl", ""), "path": ("path.jsonl", "path "), "scenario": ("scenario.txt", "scenario ")}
# Each kind's error for a line that reads ``nope``.
NOPE = {"tape": "invalid JSON (Expecting value)", "path": "invalid JSON (Expecting value)",
        "scenario": "expected key=value, got 'nope'"}


def input_argv(kind, file, simulated):
    """A command that reads ``file`` as its ``kind`` input, ``simulated``'s files as its others."""
    return {
        "tape": ["score", "--input", file],
        "path": ["report", "--input", simulated / "tape.jsonl", "--path", file],
        "scenario": ["simulate", "--scenario", file, "--seed", "1"],
    }[kind]


class TestExitCodes:
    def test_unknown_command_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_no_command_usage_error(self):
        assert run([]) == 2

    @pytest.mark.parametrize("command", ["score", "backtest", "report"])
    @pytest.mark.parametrize("field, value", [("price", "Infinity"), ("ts", str(2**63))])
    def test_bad_number_exits_1_with_line(self, tmp_path, simulated, capsys, command, field, value):
        lines = (simulated / "tape.jsonl").read_text().splitlines()
        obj = json.loads(lines[3])
        obj[field] = 0
        lines[3] = json.dumps(obj).replace(f'"{field}": 0', f'"{field}": {value}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        argv = [command, "--input", bad, "--output", tmp_path / "out"]
        if command != "score":
            argv += ["--path", simulated / "path.jsonl"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: line 4: ")

    @pytest.mark.parametrize("command", ["score", "backtest", "report"])
    @pytest.mark.parametrize("symbol", ["SYM", 7])
    def test_deeply_nested_tape_line_exits_1_with_line(self, tmp_path, simulated, capsys, command, symbol):
        # the symbol as simulate writes it, and as a number, which the parser accepts as "7"
        lines = (simulated / "tape.jsonl").read_text().splitlines()[:4]
        lines[1:] = [json.dumps({**json.loads(line), "symbol": symbol}) for line in lines[1:]]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        argv = [command, "--input", bad, "--output", tmp_path / "out"]
        if command != "score":
            argv += ["--path", simulated / "path.jsonl"]
        assert run(argv) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith("error: line 5: invalid JSON (maximum recursion depth exceeded"), err

    @pytest.mark.parametrize("kind", ["tape", "path", "scenario"])
    def test_bytes_that_are_not_utf8_exit_1_naming_the_line(self, tmp_path, simulated, capsys, kind):
        # the decoder's own message named a byte position and no line
        line_no = 3 if kind == "tape" else 2
        lines = (simulated / {"tape": "tape.jsonl", "path": "path.jsonl", "scenario": "scenario.txt"}[kind]
                 ).read_bytes().splitlines(keepends=True)[:4]
        lines[line_no - 1] = lines[line_no - 1][:1] + b"\xff" + lines[line_no - 1][1:]
        bad = tmp_path / "bad"
        bad.write_bytes(b"".join(lines))
        argv, prefix = {
            "tape": (["score", "--input", bad], ""),
            "path": (["report", "--input", simulated / "tape.jsonl", "--path", bad], "path "),
            "scenario": (["simulate", "--scenario", bad, "--seed", "1"], "scenario "),
        }[kind]
        assert run([*argv, "--output", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {prefix}line {line_no}: invalid UTF-8 "
            "('utf-8' codec can't decode byte 0xff in position 1: invalid start byte)"
        ]

    @pytest.mark.parametrize("kind", ["tape", "path", "scenario"])
    def test_malformed_line_before_non_utf8_bytes_fails_first(self, tmp_path, simulated, capsys, kind):
        # text mode decodes the whole chunk, so line 4 was named before line 3 was parsed
        lines = (simulated / INPUTS[kind][0]).read_bytes().splitlines(keepends=True)[:2]
        bad = tmp_path / "bad"
        bad.write_bytes(b"".join(lines) + b"nope\n\xff\n")
        assert run([*input_argv(kind, bad, simulated), "--output", tmp_path / "out"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {INPUTS[kind][1]}line 3: {NOPE[kind]}"]

    @given(kind=st.sampled_from(list(INPUTS)), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_malformed_or_non_utf8_line_fails(self, simulated, kind, data):
        # a malformed line at i and a line that is not UTF-8 at j: line min(i, j) fails, with its own message;
        # up to 120 lines, so the bad bytes may lie past text mode's first chunk
        lines = (simulated / INPUTS[kind][0]).read_bytes().splitlines(keepends=True)[:120]
        i, j = data.draw(st.lists(st.integers(1, len(lines)), min_size=2, max_size=2, unique=True))
        lines[i - 1] = b"nope\n"
        lines[j - 1] = lines[j - 1][:1] + b"\xff" + lines[j - 1][1:]
        why = NOPE[kind] if i < j else (
            "invalid UTF-8 ('utf-8' codec can't decode byte 0xff in position 1: invalid start byte)")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            bad = Path(tmp) / "bad"
            bad.write_bytes(b"".join(lines))
            assert run([*input_argv(kind, bad, simulated), "--output", Path(tmp) / "out"]) == 1
        assert err.getvalue().splitlines() == [f"error: {INPUTS[kind][1]}line {min(i, j)}: {why}"]

    # report is the one command that reads a path; backtest accepts --path unread
    @pytest.mark.parametrize("command", ["report"])
    def test_path_ts_outside_int64_exits_1_with_line(self, tmp_path, simulated, capsys, command):
        path = tmp_path / "path.jsonl"
        path.write_text(FIRST_MID + TS_PAST_INT64 + "\n")
        argv = [command, "--input", simulated / "tape.jsonl", "--path", path,
                "--output", tmp_path / "out"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: path line 2: ")

    @pytest.mark.parametrize("command", ["report"])
    @pytest.mark.parametrize("line, message", list(BAD_PATH_LINES.values()), ids=list(BAD_PATH_LINES))
    def test_bad_json_path_line_exits_1_with_line(self, tmp_path, simulated, capsys, command, line, message):
        path = tmp_path / "path.jsonl"
        path.write_text(FIRST_MID + line + "\n")
        argv = [command, "--input", simulated / "tape.jsonl", "--path", path, "--output", tmp_path / "out"]
        assert run(argv) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert re.fullmatch(f"error: path line 2: {message}.*", err), err

    def test_fill_within_tau_of_int64_limit_is_censored(self, tmp_path):
        def line(kind, ts, **extra):
            return json.dumps({"kind": kind, "ts": ts, "symbol": "SYM", "price": 100.0,
                               "size": 100.0, "side": "buy", **extra})

        tape_file, path_file = tmp_path / "tape.jsonl", tmp_path / "path.jsonl"
        tape_file.write_text("\n".join([
            line("lit", 0), line("lit", 10**9),
            line("dark", 9223372036854775000, venue="V1"),
        ]) + "\n")
        path_file.write_text(
            '{"kind": "mid", "ts": 0, "log_mid": 4.6}\n'
            '{"kind": "mid", "ts": 9223372036854775000, "log_mid": 4.6}\n'
        )
        out = tmp_path / "rep"
        argv = ["report", "--input", tape_file, "--path", path_file, "--output", out]
        assert run(argv) == 0
        buckets = (out / "slippage_by_pvalue.tsv").read_text().splitlines()[1:]
        assert all(row.endswith("\t0") for row in buckets)  # the one fill is censored

    @pytest.mark.parametrize("command", ["score", "backtest", "report"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_bad_horizon_mult_exits_1(self, tmp_path, simulated, capsys, command, value):
        argv = [command, "--input", simulated / "tape.jsonl", "--output", tmp_path / "out",
                "--horizon-mult", value]
        if command != "score":
            argv += ["--path", simulated / "path.jsonl"]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: horizon_mult must be finite and > 0, got {float(value)}"
        ]

    def test_infinite_tau_exits_1(self, tmp_path, simulated, capsys):
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", simulated / "path.jsonl",
                "--output", tmp_path / "out", "--tau", "inf"]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == ["error: tau must be finite, got inf"]

    @pytest.mark.parametrize("tau", ["1e-10", "4e-10"])
    def test_tau_below_1_ns_exits_1(self, tmp_path, simulated, capsys, tau):
        # the horizon rounded to 0 ns, and every bucket reported a mean of 0.0
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", simulated / "path.jsonl",
                "--output", tmp_path / "out", "--tau", tau]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: tau must round to at least 1 ns, got {float(tau)}"]

    @pytest.mark.parametrize("tau", ["1e300", "9.3e9"])
    def test_tau_beyond_int64_ns_exits_1(self, tmp_path, simulated, capsys, tau):
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", simulated / "path.jsonl",
                "--output", tmp_path / "out", "--tau", tau]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: tau must be below 9.22337e+09 s, so that its ns fit in int64, got {float(tau)}"
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--seeds", "0"], "seeds must be >= 1, got 0"),
            (["--mu", "nan"], "mu must be finite, got nan"),
            (["--sigma", "inf"], "sigma must be finite, got inf"),
            (["--t-target", "nan"], "t_target must be finite, got nan"),
            (["--mu", "1e-300", "--sigma", "1"],
             "the bound (sigma/mu)^2 overflows a float at mu = 1e-300, sigma = 1.0"),
            (["--mu", "1e-300", "--sigma", "1e300"],
             "the bound (sigma/mu)^2 overflows a float at mu = 1e-300, sigma = 1e+300"),
            (["--t-target", "1e300"],
             "the walk to t_target = 1e+300 needs 16 * t_target^2 * (sigma/mu)^2 = inf fills, "
             "more than MAX_CROSSING_FILLS = 1e+06"),
            (["--seeds", "1001"], "seeds must be <= MAX_CROSSING_SEEDS = 1000, got 1001"),
            # each printed a crossing: 0 fills at t 0, 1 fill at t -2
            (["--t-target", "0"], "t_target must be > 0, got 0.0"),
            (["--t-target", "-2"], "t_target must be > 0, got -2.0"),
            # was numpy's "expected non-negative integer"
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_degenerate_power_options_exit_1(self, capsys, args, message):
        argv = ["power", "--mu", "0.5", "--sigma", "12", "--seed", "1", "--seeds", "50", *args]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--alpha", "nan"], "alpha must be in (0, 1), got nan"),
            (["--alpha", "5"], "alpha must be in (0, 1), got 5.0"),
            (["--thresholds", "nan,5000"], "threshold must be finite, got nan"),
        ],
    )
    def test_degenerate_report_shares_exit_1(self, tmp_path, simulated, capsys, args, message):
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", simulated / "path.jsonl",
                "--output", tmp_path / "out", *args]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_bucket_count_above_the_cap_exits_1(self, tmp_path, simulated, capsys):
        argv = ["report", "--input", simulated / "tape.jsonl", "--path", simulated / "path.jsonl",
                "--output", tmp_path / "out", "--buckets", str(MAX_BUCKETS + 1)]
        assert run(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: buckets must be <= MAX_BUCKETS = {MAX_BUCKETS}, got {MAX_BUCKETS + 1}"
        ]

    def test_malformed_tape_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "lit", "ts": -5}\n')
        assert run(["score", "--input", bad, "--output", tmp_path / "out"]) == 1
