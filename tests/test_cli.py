import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_bytes
import shiftwalk
from shiftwalk import (
    BitVector,
    DrivingSequence,
    distribution,
    exact_sample,
    q1,
    q2,
    random_driving,
    rng,
    simulate,
    weight_stats,
)
from shiftwalk import cli, exact_sampler, spectral, suites
from shiftwalk.cli import MAX_PROFILE_TIMES, _parse_t_range, main
from test_distribution import reference_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_matrix_order_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matrix-order",
                               "--n-max", "64", "--seed", "1")
        assert code == 0
        assert "[PASS]" in out and "FAIL" not in out

    def test_matrix_order_names_the_scanned_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "matrix-order",
                               "--n-max", "10", "--seed", "1")
        assert code == 0
        assert "[PASS] no smaller power is the identity (n <= 10, informational)" in out

    def test_json_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify", "q2-exact", "--n-max", "8",
                             "--seed", "2", "--format", "json",
                             "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["schema_version"] == 1
        assert report["passed"] is True
        assert report["suite"] == "q2-exact"
        assert all("observed" in c for c in report["checks"])

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    def test_failed_checks_exit_one(self, capsys, monkeypatch):
        from shiftwalk import suites

        def fake(**kwargs):
            return [suites.CheckResult(name="forced failure", passed=False,
                                       observed={"value": 3})]

        monkeypatch.setitem(suites.SUITES, "moments", fake)
        code, out, _ = run_cli(capsys, "verify", "moments", "--seed", "1")
        assert code == 1
        assert "[FAIL] forced failure" in out

    def test_non_finite_observed_is_null(self, capsys):
        # n_max = 1 sweeps no exact time, so the worst gap stays -inf.
        code, out, _ = run_cli(capsys, "verify", "variance", "--n-max", "1",
                               "--samples", "200", "--seed", "1",
                               "--format", "json")
        assert code in (0, 1)

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        report = json.loads(out, parse_constant=reject)
        assert report["checks"][0]["observed"] == {"max_var_minus_4t": None}

    @pytest.mark.parametrize("argv, vacuous", [
        (("variance", "--n-max", "1", "--samples", "200"), 1),
        (("term-bounds", "--n-max", "5"), 1),
        (("matrix-order", "--n-max", "1"), 2),
        (("fourier", "--n-max", "5"), 1),
        (("moments", "--n-max", "1"), 3),
        (("q2-exact", "--n-max", "3"), 1),
        (("bounded-diff", "--trials", "1"), 1),
        (("bounded-diff", "--trials", "0"), 3),
        (("bounded-diff", "--n-max", "1"), 3),
        (("variance", "--samples", "1"), 2),
        (("variance", "--samples", "0"), 2),
    ])
    def test_empty_sweep_is_vacuous_not_passed(self, capsys, argv, vacuous):
        code, out, _ = run_cli(capsys, "verify", *argv, "--seed", "1",
                               "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        flagged = [c for c in report["checks"] if "vacuous" in c["name"]]
        assert len(flagged) == vacuous
        assert not any(c["passed"] for c in flagged)
        assert all(c["passed"] for c in report["checks"] if c not in flagged)

    @pytest.mark.parametrize("argv, flag", [
        (("bounded-diff", "--trials", "-5"), "--trials"),
        (("variance", "--samples", "-3"), "--samples"),
        (("all", "--trials", "10", "--samples", "-1"), "--samples"),
    ])
    def test_negative_count_is_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, "verify", *argv, "--seed", "1",
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_n_max_is_rejected_for_all(self, capsys):
        code, out, err = run_cli(capsys, "verify", "all", "--n-max", "1",
                                 "--trials", "200", "--samples", "200",
                                 "--seed", "1", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--n-max" in err
        for suite in ("matrix-order", "term-bounds", "fourier", "bounded-diff",
                      "moments", "variance", "q2-exact"):
            assert suite in err

    def test_n_max_message_gives_each_default_and_the_cap(self, capsys):
        """The message for 'all' is written by hand; it must follow the
        suites' signatures and the exact sweeps' cap."""
        _, _, err = run_cli(capsys, "verify", "all", "--n-max", "1", "--seed", "1")
        for name, fn in suites.SUITES.items():
            default = inspect.signature(fn).parameters["n_max"].default
            # The first number after a suite's name is its default.
            after = err[err.index(name) + len(name):].replace(",", " ").split()
            assert next(w for w in after if w.isdigit()) == str(default), name
        assert err.count(f"(at most {suites.EXACT_SWEEP_N_MAX})") == 2

    def test_strict_json_keeps_finite_reports(self):
        from shiftwalk.cli import _strict_json

        finite = {"a": 1, "b": [0.5, np.float64(2.0), (3, np.int64(4))],
                  "c": {"d": None, "e": "x", "f": np.float32(0.25)}}
        assert _strict_json(finite) == json.dumps(finite, indent=2, default=float)
        odd = {"a": [math.inf, (np.float64(-np.inf),)], "b": {"c": math.nan}}
        assert json.loads(_strict_json(odd)) == {"a": [None, [None]], "b": {"c": None}}

    @pytest.mark.parametrize("suite, n_max", [
        *((name, n_max) for name in suites.SUITES for n_max in (None, "1")), ("all", None),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_json_is_the_whole_report_rendered(self, capsys, monkeypatch, tmp_path,
                                               suite, n_max, to_file):
        # At each suite's default --n-max, and at one that empties its sweeps.
        ran = []
        run_suite = suites.run_suite

        def spy(*args, **kwargs):
            ran.append(run_suite(*args, **kwargs))
            return ran[-1]

        monkeypatch.setattr(suites, "run_suite", spy)
        out_file = tmp_path / "verify.json"
        code, out, _ = run_cli(capsys, "verify", suite, "--trials", "300", "--samples", "300",
                               "--seed", "4", "--format", "json",
                               *(("--n-max", n_max) if n_max else ()),
                               *(("--out", str(out_file)) if to_file else ()))
        (checks,) = ran
        text = out_file.read_text(encoding="utf-8") if to_file else out
        report = {
            "schema_version": 1, "command": "verify", "suite": suite, "seed": 4,
            "versions": cli._versions(), "passed": all(c.passed for c in checks),
            "elapsed_s": json.loads(text)["elapsed_s"],
            "checks": [{"name": c.name, "passed": c.passed, "elapsed_s": c.elapsed_s,
                        "observed": c.observed} for c in checks],
        }
        assert code == (0 if report["passed"] else 1)
        want = cli._strict_json(report)
        if to_file:
            assert out == "" and text == want
        else:
            assert out == want + "\n"

    def test_report_times_the_whole_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "moments", "--n-max", "8",
                               "--seed", "1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"schema_version", "command", "suite", "seed",
                               "versions", "passed", "elapsed_s", "checks"}
        elapsed = report["elapsed_s"]
        assert isinstance(elapsed, float)
        assert math.isfinite(elapsed) and elapsed >= 0

    def test_all_suites_serialize(self, capsys, monkeypatch, tmp_path):
        counts = []  # checks per suite, in the order the suites ran

        def counted(suite):
            def run(**kwargs):
                checks = suite(**kwargs)
                counts.append(len(checks))
                return checks
            return run

        for name, suite in list(suites.SUITES.items()):
            monkeypatch.setitem(suites.SUITES, name, counted(suite))
        out_file = tmp_path / "all.json"
        code, _, _ = run_cli(capsys, "verify", "all",
                             "--trials", "500", "--samples", "500",
                             "--seed", "4", "--format", "json",
                             "--out", str(out_file))
        assert code == 0
        report = json.loads(out_file.read_text())
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) and len(names) >= 15
        assert not any("vacuous" in name for name in names)
        # Each check carries the seconds its suite took.
        assert len(counts) == len(suites.SUITES) and sum(counts) == len(names)
        times = [c["elapsed_s"] for c in report["checks"]]
        assert all(isinstance(t, float) and math.isfinite(t) and t >= 0 for t in times)
        per_suite, i = [], 0
        for count in counts:
            assert len(set(times[i : i + count])) == 1
            per_suite.append(times[i])
            i += count
        assert sum(per_suite) <= report["elapsed_s"] + 0.01


class TestProfile:
    def test_csv_columns_and_bounds(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", "--chain", "q1", "--n", "10", "--t", "0..12",
            "--samples", "1000", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# shiftwalk profile schema_version=1")
        header = lines[1].split(",")
        assert header == ["t", "tv_exact", "tv_upper", "tv_lower_emp",
                          "tv_lower_emp_se", "chebyshev_lower"]
        rows = {}
        for line in lines[2:]:
            cells = dict(zip(header, line.split(",")))
            rows[int(cells["t"])] = cells
        # the exact column collapses right after t = n, below the bound
        assert float(rows[11]["tv_exact"]) <= 0.2
        assert float(rows[11]["tv_exact"]) <= float(rows[11]["tv_upper"]) + 1e-12
        assert rows[10]["tv_upper"] == ""
        # sandwich: empirical lower bound minus 3 SE stays below exact
        for t, cells in rows.items():
            if cells["tv_lower_emp"] and cells["tv_exact"]:
                low = float(cells["tv_lower_emp"]) - 3 * float(cells["tv_lower_emp_se"])
                assert low <= float(cells["tv_exact"]) + 1e-12

    def test_q2_profile_hits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--chain", "q2", "--n", "12",
                               "--t", "12", "--seed", "1")
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert int(last[0]) == 12
        assert float(last[1]) <= 1e-12

    def test_json_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1", "--n", "6",
                               "--t", "7", "--seed", "9", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schema_version"] == 1
        assert report["versions"]["shiftwalk"]
        assert report["rows"][0]["t"] == 7

    def test_deterministic_output(self, capsys):
        args = ("profile", "--chain", "q1", "--n", "8", "--t", "0..9",
                "--samples", "500", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_bad_range_is_usage_error(self, capsys):
        for t in ("9..3", "-2..3", "-2"):
            code, _, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "8",
                                   f"--t={t}", "--seed", "1")
            assert code == 2
            assert err.startswith("error:")

    @pytest.mark.parametrize("t", ["a..b", "1..2..3", "a", "..3", "3..", "1.5", "", "0x3"])
    def test_malformed_range_names_the_flag(self, capsys, t):
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "8",
                                 f"--t={t}", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: --t expects a time T or a range A..B of integers, got {t!r}\n"

    def test_overlong_range_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "4",
                                 "--t", "0..99999999999", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "99999999999" in err

    @pytest.mark.parametrize("argv", [
        ("--n", "4"),
        ("--n", "2000", "--samples", "10"),
    ])
    def test_far_time_is_usage_error(self, capsys, argv):
        # One far time would run the exact sweep or size the Monte Carlo
        # buffers up to it.
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", *argv,
                                 "--t", "99999999999", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "99999999999" in err and str(MAX_PROFILE_TIMES - 1) in err

    @pytest.mark.parametrize("chain, n, t, allowed", [
        # The bound is 2^24 * 26 word-steps, the work of n = 24 over t = 0..25.
        ("q1", 24, 25, True), ("q2", 24, 26, False), ("q1", 9, 851_967, True),
        ("q1", 9, 851_968, False), ("q1", 10, 999_999, False),
    ])
    def test_exact_work_past_the_bound_is_usage_error(self, capsys, monkeypatch,
                                                      chain, n, t, allowed):
        def stub(chain, x0, t_max):
            if not allowed:
                raise AssertionError("evolved before checking the work")
            return [(s, 0.5) for s in range(t_max + 1)]

        monkeypatch.setattr(distribution, "exact_tv_curve", stub)
        code, out, err = run_cli(capsys, "profile", "--chain", chain, "--n", str(n),
                                 "--t", str(t), "--seed", "1")
        if allowed:
            assert code == 0 and out.splitlines()[-1].startswith(f"{t},0.5,")
            return
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"n = {n} up to t = {t}" in err and "n = 24 up to t = 25" in err

    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.82 TiB")

        monkeypatch.setattr(weight_stats, "weight_counts", exhausted)
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "2000",
                                 "--t", "5", "--samples", "10", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 1.82 TiB\n"

    def test_negative_samples_is_usage_error_before_any_column(self, capsys,
                                                               monkeypatch):
        def unreachable(*args):
            raise AssertionError("computed a column before checking --samples")

        monkeypatch.setattr(distribution, "exact_tv_curve", unreachable)
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "10",
                                 "--t", "0..12", "--samples", "-1", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --samples must be >= 0, got -1\n"

    @pytest.mark.parametrize("n, t, called", [(10_000_000, 0, False), (1024, 1025, True)])
    def test_spectral_bound_only_when_a_row_reports_it(self, capsys, monkeypatch,
                                                       n, t, called):
        # The bound needs a sweep over n; rows report it from t = n+1 on.
        calls = []
        fourier_sum = spectral.fourier_sum

        def spy(m):
            calls.append(m)
            return fourier_sum(m)

        monkeypatch.setattr(spectral, "fourier_sum", spy)
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1", "--n", str(n),
                               "--t", str(t), "--seed", "1")
        assert code == 0
        assert calls == ([n] if called else [])
        upper = str(fourier_sum(n).tv_bound) if called else ""
        assert out.splitlines()[-1].split(",")[2] == upper

    def test_csv_does_not_render_the_start(self, capsys, monkeypatch):
        # x0 is n characters, and only the JSON report prints it.
        def refuse(self):
            raise AssertionError("to_string called")

        monkeypatch.setattr(BitVector, "to_string", refuse)
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1", "--n", str(10**6),
                               "--t", "0", "--seed", "1")
        assert code == 0 and out.splitlines()[-1].startswith("0,")

    def test_range_bound(self):
        # A range object, so the longest accepted range is not built.
        last = MAX_PROFILE_TIMES - 1
        assert len(_parse_t_range(f"0..{last}")) == MAX_PROFILE_TIMES
        assert _parse_t_range(str(last)) == range(last, last + 1)
        for value in (str(MAX_PROFILE_TIMES), f"{last}..{MAX_PROFILE_TIMES}"):
            with pytest.raises(ValueError):
                _parse_t_range(value)

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "4",
                                 "--t", "0..2", "--seed", "1",
                                 "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "missing" in err

    def test_weight_law_beyond_its_range_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "profile", "--chain", "q1",
                                 "--n", "16385", "--t", "0", "--samples", "1",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "16385" in err
        assert "Traceback" not in err

    def test_chebyshev_column_appears_when_window_is_positive(self, capsys):
        # n = 10^6, alpha = 0.9, c = 5: window delta ~ 41, t = 748811
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1",
                               "--n", "1000000", "--t", "748811",
                               "--alpha", "0.9", "--c", "5", "--seed", "1",
                               "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["chebyshev_lower"] == pytest.approx(0.987643918422881,
                                                       rel=1e-12)

    def test_tiny_window_constant_gives_zero(self, capsys):
        # c^2 underflows to 0; the window bound at t = 1 is max(0, -inf) = 0.
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "30",
                                 "--t", "0..5", "--alpha", "0.99", "--c", "1e-300",
                                 "--seed", "1", "--format", "json")
        assert code == 0 and "Traceback" not in err
        rows = json.loads(out)["rows"]
        assert [r["t"] for r in rows if "chebyshev_lower" in r] == [1]
        assert rows[1]["chebyshev_lower"] == 0.0

    @pytest.mark.parametrize("flag, value", [
        ("--c", "nan"), ("--c", "inf"), ("--c", "-inf"), ("--alpha", "nan"),
        ("--alpha", "inf"),
    ])
    def test_non_finite_window_parameter_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "profile", "--chain", "q1", "--n", "30",
                                 "--t", "0..5", f"{flag}={value}", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("chain, n", [("q1", 1), ("q1", 2), ("q2", 4)])
    @pytest.mark.parametrize("flag, value", [
        ("--c", "nan"), ("--c", "0"), ("--alpha", "7"), ("--alpha", "0.5"),
    ])
    def test_window_parameters_are_checked_for_every_chain(self, capsys, chain, n,
                                                           flag, value):
        # No window bound is computed here, but the flags are still checked.
        code, out, err = run_cli(capsys, "profile", "--chain", chain, "--n", str(n),
                                 "--t", "0..1", f"{flag}={value}", "--seed", "1",
                                 "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_csv_memory_does_not_grow_with_range(self):
        def peak(t_max):
            code, traced = peak_bytes(main, ["profile", "--chain", "q1", "--n", "30",
                                            "--t", f"0..{t_max}", "--seed", "1",
                                            "--out", os.devnull])
            assert code == 0
            return traced

        # Each row is written as it is built.
        small, large = peak(20_000), peak(200_000)
        assert large - small <= 64 * (200_000 - 20_000), (small, large)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 64, 130])
    @pytest.mark.parametrize("chunk", [8, 16, cli._STATE_CHUNK])
    def test_json_start_is_written_in_chunks(self, monkeypatch, tmp_path, n, chunk):
        # The same bytes as the start rendered whole, across chunk edges.
        x0 = BitVector.random(n, rng.stream(n, chunk))
        report = {"command": "profile", "n": n, "x0": x0, "seed": 1}
        rows = [{"t": 0, "tv_exact": 0.5}]
        monkeypatch.setattr(cli, "_STATE_CHUNK", chunk)
        out_file = tmp_path / "profile.json"
        cli._write_json(report, "rows", iter(rows), str(out_file))
        assert out_file.read_text(encoding="utf-8") == cli._strict_json(
            {**report, "x0": x0.to_string(), "rows": rows}
        )

    def test_json_start_memory_is_its_packed_bytes(self):
        # The start's packed bytes and one chunk of its text; the whole
        # text would be n bytes, and its JSON rendering n more.
        n = 10**7
        code, traced = peak_bytes(main, ["profile", "--chain", "q1", "--n", str(n),
                                         "--t", "0", "--seed", "1", "--format", "json",
                                         "--out", os.devnull])
        assert code == 0
        assert traced < n // 8 + 2**20, traced

    def test_json_memory_does_not_grow_with_range(self):
        def peak(t_max):
            code, traced = peak_bytes(main, ["profile", "--chain", "q1", "--n", "30",
                                            "--t", f"0..{t_max}", "--seed", "1",
                                            "--format", "json", "--out", os.devnull])
            assert code == 0
            return traced

        # Rows are written 1000 at a time; a report held whole grows by
        # about 1 KB a row.
        small, large = peak(4_000), peak(40_000)
        assert large - small <= 64 * (40_000 - 4_000), (small, large)

    @pytest.mark.parametrize("argv", [
        ("--chain", "q1", "--n", "10", "--t", "0..12"),
        ("--chain", "q2", "--n", "12", "--t", "10..13"),
        ("--chain", "q1", "--n", "10", "--t", "0..12", "--samples", "300"),
        ("--chain", "q2", "--n", "12", "--t", "10..13", "--samples", "300"),
        # The Chebyshev row: t = 748811 here, and t = 1 of 0..2500 below,
        # whose 2501 rows are written in three chunks.
        ("--chain", "q1", "--n", "1000000", "--t", "748811", "--alpha", "0.9",
         "--c", "5"),
        ("--chain", "q1", "--n", "30", "--t", "0..2500", "--alpha", "0.99",
         "--c", "1e-300"),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_json_is_the_whole_report_rendered(self, capsys, monkeypatch, tmp_path,
                                               argv, to_file):
        built = []
        profile = cli._profile

        def spy(args):
            report, rows = profile(args)
            built.append((report, list(rows)))
            return report, iter(built[-1][1])

        monkeypatch.setattr(cli, "_profile", spy)
        out_file = tmp_path / "profile.json"
        code, out, _ = run_cli(capsys, "profile", *argv, "--seed", "4", "--format", "json",
                               *(("--out", str(out_file)) if to_file else ()))
        assert code == 0
        (report, rows), = built
        want = cli._strict_json({**report, "rows": rows})
        if to_file:
            assert out == "" and out_file.read_text(encoding="utf-8") == want
        else:
            assert out == want + "\n"

    @pytest.mark.parametrize("rows", [
        [], [{"t": 0, "tv_exact": math.nan}, {"t": 1, "tv_upper": -math.inf}],
    ])
    def test_json_rows_are_strict(self, capsys, monkeypatch, rows):
        # No rows, and non-finite values, which become null.
        report = {"command": "profile", "versions": {"numpy": "1"}, "c": math.inf}
        monkeypatch.setattr(cli, "_profile", lambda args: (report, iter(rows)))
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1", "--n", "4",
                               "--t", "1", "--seed", "1", "--format", "json")
        assert code == 0
        assert out == cli._strict_json({**report, "rows": rows}) + "\n"
        assert "NaN" not in out and "Infinity" not in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_column_is_the_reference_curve(self, capsys, fmt):
        # The exact column across two slabs of the oracle step, against a
        # render of the reference curve: a wrong digit fails here.
        n = 17
        curve = reference_curve(q1(n), BitVector.zeros(n), n + 1)
        upper = spectral.fourier_sum(n).tv_bound
        code, out, _ = run_cli(capsys, "profile", "--chain", "q1", "--n", str(n),
                               "--t", f"0..{n + 1}", "--seed", "3", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            assert out == "".join([
                f"# shiftwalk profile schema_version=1 chain=q1 n={n} seed=3 samples=0\n",
                "t,tv_exact,tv_upper,tv_lower_emp,tv_lower_emp_se,chebyshev_lower\n",
                *(f"{t},{tv},{upper if t > n else ''},,,\n" for t, tv in curve),
            ])
            return
        report = json.loads(out)
        assert report["rows"] == [
            {"t": t, "tv_exact": tv, **({"tv_upper": upper} if t > n else {})}
            for t, tv in curve
        ]
        cells = [line.split(": ")[1].rstrip(",")
                 for line in out.splitlines() if '"tv_exact"' in line]
        assert cells == [str(tv) for _, tv in curve]
        assert {k: report[k] for k in ("command", "chain", "n", "x0", "seed", "samples")} == {
            "command": "profile", "chain": "q1", "n": n, "x0": "0" * n, "seed": 3,
            "samples": 0,
        }


class TestSample:
    def test_deterministic_lines(self, capsys):
        code, out1, _ = run_cli(capsys, "sample", "--n", "8", "--count", "3",
                                "--seed", "7")
        assert code == 0
        _, out2, _ = run_cli(capsys, "sample", "--n", "8", "--count", "3",
                             "--seed", "7")
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line) == 8 and set(line) <= {"0", "1"} for line in lines)

    def test_hex_output(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "8", "--count", "2",
                               "--seed", "7", "--hex")
        lines = out.strip().splitlines()
        assert all(len(line) == 2 for line in lines)

    def test_negative_count_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "8", "--count", "-1",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--count" in err

    def test_odd_length_rejected(self, capsys, tmp_path):
        # --count 0 draws nothing, yet must fail the same way.
        out_file = tmp_path / "samples.txt"
        for count in ("0", "1", "3"):
            code, out, err = run_cli(capsys, "sample", "--n", "7",
                                     "--count", count, "--seed", "1")
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "even" in err
            code, _, _ = run_cli(capsys, "sample", "--n", "7", "--count", count,
                                 "--seed", "1", "--out", str(out_file))
            assert code == 2
            assert not out_file.exists()

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sample", "--n", "8", "--count", "3",
                                 "--seed", "1",
                                 "--out", str(tmp_path / "missing" / "x.txt"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "missing" in err

    @pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 6, 7, 10])
    @pytest.mark.parametrize("hex_flag", [(), ("--hex",)])
    def test_chunked_output_is_one_text(self, capsys, monkeypatch, tmp_path,
                                        count, hex_flag):
        monkeypatch.setattr(rng, "_BLOCK_VALUES", 30)  # 3 samples a block
        x0 = BitVector.from_string("0110010111")
        states = [exact_sample(x0, 5, i) for i in range(count)]
        lines = [format(s.word, "03x") if hex_flag else s.to_string() for s in states]
        want = "\n".join(lines) + "\n"
        argv = ("sample", "--n", "10", "--count", str(count), "--seed", "5",
                "--x0", "0110010111", *hex_flag)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == want
        out_file = tmp_path / "samples.txt"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 0 and out_file.read_text() == want

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 100),
        rows=st.integers(1, 5),
        seed=st.integers(0, 2**64 - 1),
        hex_flag=st.booleans(),
    )
    def test_property_blocks_give_the_per_sample_lines(
        self, tmp_path_factory, data, m, rows, seed, hex_flag
    ):
        # Blocks of `rows` streams, and up to about three of them.
        n = 2 * m
        x0 = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
        block_values = rows * n + data.draw(st.integers(0, n - 1))
        count = data.draw(st.integers(0, 3 * rows + 1))
        states = [exact_sample(x0, seed, i) for i in range(count)]
        lines = [format(s.word, f"0{(n + 3) // 4}x") if hex_flag else s.to_string()
                 for s in states]
        want = "\n".join(lines) + "\n"
        argv = ["sample", "--n", str(n), "--count", str(count), "--seed", str(seed),
                "--x0", x0.to_string(), *(["--hex"] if hex_flag else [])]
        out_file = tmp_path_factory.mktemp("sample") / "samples.txt"
        stdout = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_BLOCK_VALUES", block_values)
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            assert main([*argv, "--out", str(out_file)]) == 0
        assert stdout.getvalue() == want
        assert out_file.read_text() == want

    def test_memory_does_not_grow_with_count(self):
        def peak(count):
            code, traced = peak_bytes(main, ["sample", "--n", "64", "--count", str(count),
                                            "--seed", "1", "--out", os.devnull])
            assert code == 0
            return traced

        small, large = peak(2000), peak(40_000)
        assert abs(large - small) < 2**20, (small, large)

    def test_missing_seed_is_drawn_and_printed(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--n", "6")
        assert code == 0
        assert err.startswith("seed: ")


class TestSeedRange:
    COMMANDS = {
        "verify": ("verify", "moments"),
        "profile": ("profile", "--chain", "q1", "--n", "6", "--t", "0..2"),
        "sample": ("sample", "--n", "4", "--count", "2"),
        "simulate": ("simulate", "--chain", "q1", "--n", "4", "--t", "3"),
    }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, -(2**64)])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_seed_outside_64_bits_is_usage_error(self, capsys, tmp_path, command, seed):
        """Streams are keyed by the seed mod 2**64: 2**64 would print seed
        0's samples under another name."""
        argv = (*self.COMMANDS[command], "--seed", str(seed))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--seed" in err
        out_file = tmp_path / "out.txt"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert code == 2 and not out_file.exists()

    @pytest.mark.parametrize("argv", [
        ("sample", "--n", "3", "--count", "1"),
        ("sample", "--n", "4", "--count", "-1"),
        ("simulate", "--chain", "q2", "--n", "3", "--t", "2"),
        ("simulate", "--chain", "q1", "--n", "4", "--t", "-1"),
        ("profile", "--chain", "q1", "--n", "3", "--t", "0..x"),
        ("profile", "--chain", "q1", "--n", str(2**14 + 1), "--t", "0", "--samples", "1"),
        ("profile", "--chain", "q1", "--n", str(10**400), "--t", "0"),
        ("profile", "--chain", "q1", "--n", "0", "--t", "0"),
        ("profile", "--chain", "q1", "--n", "-1", "--t", "0"),
        ("simulate", "--chain", "q1", "--n", "0", "--t", "2"),
        ("simulate", "--chain", "q1", "--n", "-1", "--t", "2"),
    ])
    def test_usage_error_draws_no_seed(self, capsys, argv):
        """Without --seed, a run that fails a usage check draws and prints
        no seed: stderr holds only the error line."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_either_end_is_used(self, capsys, seed):
        code, out, _ = run_cli(capsys, "sample", "--n", "4", "--count", "2",
                               "--seed", str(seed))
        x0 = BitVector.zeros(4)
        assert code == 0
        assert out == "".join(exact_sample(x0, seed, i).to_string() + "\n"
                              for i in range(2))


class TestOversizedIntegers:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--chain", "q1", "--n", str(10**30), "--t", "0"),
        ("sample", "--n", str(10**30), "--count", "0"),
        ("verify", "bounded-diff", "--trials", str(10**30)),
        # n ** alpha overflows a float in the window.
        ("profile", "--chain", "q1", "--n", str(10**400), "--t", "0"),
    ])
    def test_overflow_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--chain", "q1"),
        ("profile", "--chain", "q1", "--format", "json"),
    ])
    def test_state_too_long_to_print_names_n(self, capsys, monkeypatch, tmp_path, argv):
        def unreachable(*args):
            raise AssertionError("drew a stream before the usage checks")

        monkeypatch.setattr(rng, "stream", unreachable)
        out_file = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--n", str(10**30), "--t", "0",
                                 "--seed", "1", "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: --n {10**30} ") and "Traceback" not in err

    def test_sample_too_long_to_print_names_n(self, capsys, monkeypatch, tmp_path):
        def unreachable(*args):
            raise AssertionError("built the offset before the usage checks")

        monkeypatch.setattr(exact_sampler, "build_offset", unreachable)
        out_file = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, "sample", "--n", str(10**30), "--count", "0",
                                 "--seed", "1", "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: --n {10**30} ") and "Traceback" not in err

    def test_profile_at_a_huge_n_builds_no_power_of_two(self, capsys):
        # The start is checked by its bit length, not against 1 << n.
        code, out, err = run_cli(capsys, "profile", "--chain", "q1",
                                 "--n", str(10**30), "--t", "0", "--seed", "1")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "0,,,,,"


class TestSolveAndSimulate:
    def test_solve_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--from", "000000",
                               "--to", "101010")
        assert code == 0
        bits = tuple(int(b) for b in out.strip())
        driving = DrivingSequence((3,) * 6, bits)
        final = simulate(q2(6), BitVector.zeros(6), driving)[-1]
        assert final.to_string() == "101010"

    def test_simulate_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--chain", "q1", "--n", "6",
                               "--t", "7", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "t,state,weight"
        assert len(lines) == 2 + 8  # comment, header, t = 0..7

    def test_simulate_states_have_declared_weight(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--chain", "q2", "--n", "8",
                            "--t", "8", "--seed", "2")
        for line in out.strip().splitlines()[2:]:
            _, state, weight = line.split(",")
            assert state.count("1") == int(weight)

    def test_simulate_rejects_t_at_the_bound_before_drawing(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew before checking --t")

        monkeypatch.setattr(cli, "random_driving", unreachable)
        for t in (MAX_PROFILE_TIMES, 10**8):
            code, out, err = run_cli(capsys, "simulate", "--chain", "q1", "--n", "8",
                                     "--t", str(t), "--seed", "1")
            assert code == 2 and out == ""
            assert err.startswith("error:") and str(MAX_PROFILE_TIMES - 1) in err
            assert "Traceback" not in err


class TestSimulateRows:
    """``simulate`` prints the replay of its drawn driving, row by row."""

    @pytest.mark.parametrize("kind, n, t", [
        (kind, n, t)
        for kind, ns in (("q1", (1, 2, 8, 63, 64, 65, 130)), ("q2", (2, 8, 64, 130)))
        for n in ns for t in (0, 1, 200)
    ])
    def test_rows_are_the_replay_of_the_drawn_driving(self, capsys, tmp_path, kind, n, t):
        seed = (0, 2**63 - 1, 12345)[t % 3]
        x0 = BitVector.random(n, rng.stream(n, t))
        chain = q1(n) if kind == "q1" else q2(n)
        states = simulate(chain, x0, random_driving(chain, t, seed))
        want = "".join(
            [f"# shiftwalk simulate schema_version=1 chain={kind} n={n} seed={seed}\n",
             "t,state,weight\n",
             *(f"{s},{x.to_string()},{x.weight()}\n" for s, x in enumerate(states))]
        )
        argv = ("simulate", "--chain", kind, "--n", str(n), "--t", str(t),
                "--seed", str(seed), "--x0", x0.to_string())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, want, "")
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, *argv, "--out", str(out_file))
        assert (code, out) == (0, "")
        assert out_file.read_text() == want

    @pytest.mark.parametrize("argv", [
        ("--chain", "q2", "--n", "7", "--t", "3"),
        ("--chain", "q1", "--n", "8", "--t", "-1"),
        ("--chain", "q1", "--n", "8", "--t", "3", "--x0", "0101"),
        ("--chain", "q1", "--n", "8", "--t", str(MAX_PROFILE_TIMES)),
        ("--chain", "q1", "--n", str(10**30), "--t", "0"),
    ])
    def test_usage_errors_draw_nothing_and_write_no_file(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        def unreachable(*args):
            raise AssertionError("drew a stream before the usage checks")

        monkeypatch.setattr(rng, "stream", unreachable)
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "simulate", *argv, "--seed", "1",
                                 "--out", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert not out_file.exists()

    def test_memory_does_not_grow_with_t(self):
        def peak(t):
            code, traced = peak_bytes(main, ["simulate", "--chain", "q1", "--n", "8",
                                            "--t", str(t), "--seed", "1", "--out", os.devnull])
            assert code == 0
            return traced

        # Only the driving is held: a few tuple slots and array bytes a step.
        small, large = peak(2000), peak(40_000)
        assert large - small <= 64 * (40_000 - 2000), (small, large)


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["profile", "--help"], 0),
        (["verify", "no-such-suite"], 2),
        (["profile", "--chain", "q1", "--n", "x", "--t", "1"], 2),
        ([], 2),
    ])
    def test_repeated_calls_print_and_exit_alike(self, capsys, argv, code):
        # Help text and usage errors are the same on every call of the
        # shared parser.
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out if code == 0 else outputs[0].err.startswith("usage: shiftwalk")

    def test_no_options_carry_over(self):
        parse = cli.build_parser().parse_args
        base = ["profile", "--chain", "q1", "--n", "8", "--t", "3"]
        given = parse([*base, "--samples", "5", "--seed", "4", "--x0", "10101010"])
        assert (given.samples, given.seed, given.x0) == (5, 4, "10101010")
        again = parse(base)
        assert (again.samples, again.seed, again.x0) == (0, None, None)


class TestImport:
    def test_cli_import_loads_numpy_random_and_no_scipy(self):
        code = (
            "import sys, shiftwalk.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print('numpy.random' in sys.modules)"
        )
        src = str(Path(shiftwalk.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True,
        )
        assert done.stdout.split("\n")[:2] == ["[]", "True"]
