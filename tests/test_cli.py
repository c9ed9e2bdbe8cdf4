"""End-to-end checks of the command-line front end, run in process."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tic_contracts
from tic_contracts import cli
from tic_contracts.cli import main
from tic_contracts.discounting import DiscountSpec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, {name: data[:, i] for i, name in enumerate(header)}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


HM_DU_CONFIG = {
    "model": {
        "x0": 0.3, "T": 2.0, "sigma": 1.0,
        "drift": {"family": "hm_linear", "params": {"k": 1.0}},
        "cost": {"family": "hm_linear", "params": {"k": 1.0}},
        "action": [0.0, 10.0],
    },
    "preferences": {
        "agent": "exponential", "principal": "risk_neutral",
        "gamma_a": 1.0, "gamma_p": 0.0, "r0": -0.8,
        "discount": {"variant": "hyperbolic", "gamma": 1.0, "alpha": 0.4},
        "spec": "discounted_utility",
    },
}

SEPARABLE_CONFIG = {
    "model": {
        "x0": 0.1, "T": 2.0, "sigma": 1.0,
        "drift": {"family": "quadratic", "params": {}},
        "cost": {"family": "quadratic", "params": {}},
        "action": [0.0, 10.0],
    },
    "preferences": {
        "agent": "risk_neutral", "principal": "risk_neutral",
        "gamma_a": 0.0, "gamma_p": 0.0, "r0": 0.05,
        "discount": {"variant": "hyperbolic", "gamma": 1.0, "alpha": 0.4},
        "spec": "separable_rn",
    },
}


def with_discount(config, discount):
    out = json.loads(json.dumps(config))
    out["preferences"]["discount"] = discount
    return out


class TestDiscount:
    def test_default_set_writes_three_tables(self, tmp_path):
        rc = main(["discount", "--out", str(tmp_path), "--steps", "101"])
        assert rc == 0
        for name in ("exponential", "hyperbolic", "quasi_hyperbolic"):
            header, cols = read_csv(tmp_path / f"discount_{name}.csv")
            assert header == ["t", "f", "idr"]
            assert len(cols["t"]) == 101
            assert cols["t"][0] == 0.0 and cols["t"][-1] == 50.0
            assert cols["f"][0] == 1.0

    def test_exponential_rate_column_is_flat(self, tmp_path):
        main(["discount", "--out", str(tmp_path), "--steps", "101"])
        _, cols = read_csv(tmp_path / "discount_exponential.csv")
        assert np.all(cols["idr"] == cols["idr"][0])
        assert cols["idr"][0] == pytest.approx(0.0576, abs=1e-15)

    def test_beta_one_quasi_hyperbolic_matches_exponential(self, tmp_path):
        cfg = write_config(tmp_path, {
            "horizon": 30.0,
            "points": 61,
            "discounts": [
                {"name": "plain", "variant": "exponential", "gamma": 0.25},
                {"variant": "quasi_hyperbolic", "gamma": 0.25,
                 "beta": 1.0, "lambda": 3.0},
            ],
        })
        rc = main(["discount", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        _, plain = read_csv(tmp_path / "discount_plain.csv")
        _, quasi = read_csv(tmp_path / "discount_quasi_hyperbolic.csv")
        np.testing.assert_allclose(quasi["f"], plain["f"], rtol=0.0, atol=1e-12)

    def test_prints_written_paths(self, tmp_path, capsys):
        main(["discount", "--out", str(tmp_path), "--steps", "11"])
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert all(line.endswith(".csv") for line in out)

    @pytest.mark.parametrize("name", ["a/b", "../up", "/", "x\0y",
                                      pytest.param("x" * 300, id="x*300"), "\ud800"])
    def test_a_name_that_is_no_plain_file_name_exits_1(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, {"discounts": [
            {"variant": "exponential", "gamma": 0.1},
            {"variant": "exponential", "gamma": 0.2, "name": name}]})
        out = tmp_path / "out"
        assert main(["discount", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad discount entry: name {name!r} is not a plain file name\n")
        assert not out.exists()

    @pytest.mark.parametrize("second,name", [
        ({"variant": "exponential", "gamma": 0.5, "name": "a"}, "a"),
        ({"variant": "exponential", "gamma": 0.5}, "exponential"),
    ], ids=["named", "unnamed"])
    def test_two_entries_for_one_file_exit_1(self, tmp_path, capsys, second, name):
        # the second table would overwrite the first
        first = {"variant": "exponential", "gamma": 0.1}
        if "name" in second:
            first["name"] = second["name"]
        cfg = write_config(tmp_path, {"discounts": [first, second]})
        out = tmp_path / "out"
        assert main(["discount", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: bad discount entry: two entries write discount_{name}.csv\n")
        assert captured.out == ""
        assert not out.exists()

    def test_an_overflowing_quasi_hyperbolic_rate_exits_1(self, tmp_path, capsys):
        # f(0) would be exp(0 * inf) = nan
        cfg = write_config(tmp_path, {"points": 5, "discounts": [
            {"variant": "quasi_hyperbolic", "gamma": 1e308, "beta": 0.5, "lambda": 1e308}]})
        out = tmp_path / "out"
        assert main(["discount", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: bad discount entry: lambda + gamma must be finite\n")
        assert not out.exists()


class TestSolve:
    def test_holmstrom_milgrom_loading_is_a_constant_column(self, tmp_path):
        cfg = write_config(tmp_path, HM_DU_CONFIG)
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out", str(out), "--steps", "201"])
        assert rc == 0
        header, cols = read_csv(out / "curves.csv")
        assert header == ["t", "z_star", "loading", "effort"]
        # sigma = k = gamma_a = 1 with a risk-neutral principal pins the
        # exposure at 1/2 regardless of the discount curve
        np.testing.assert_allclose(cols["z_star"], 0.5, rtol=0.0, atol=1e-9)
        payload = json.loads((out / "solution.json").read_text())
        assert payload["spec"] == "discounted_utility"
        assert payload["z_star"]["values"][0] == pytest.approx(0.5, abs=1e-9)

    def test_separable_exponential_discount_means_full_exposure(self, tmp_path):
        cfg = write_config(tmp_path, with_discount(
            SEPARABLE_CONFIG, {"variant": "exponential", "gamma": 0.3}))
        out = tmp_path / "run"
        rc = main(["solve", "--config", cfg, "--out", str(out), "--steps", "101"])
        assert rc == 0
        _, cols = read_csv(out / "curves.csv")
        np.testing.assert_allclose(cols["loading"], 1.0, rtol=0.0, atol=1e-8)

    def test_same_config_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(first)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(second)]) == 0
        for name in ("solution.json", "curves.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_spec_utility_mismatch_exits_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SEPARABLE_CONFIG))
        bad["preferences"]["agent"] = "exponential"
        bad["preferences"]["gamma_a"] = 1.0
        cfg = write_config(tmp_path, bad)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "spec/utility mismatch" in err["error"]

    def test_nonnegative_reservation_for_exponential_agent_exits_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(HM_DU_CONFIG))
        bad["preferences"]["r0"] = 0.25
        cfg = write_config(tmp_path, bad)
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "reservation utility must be negative" in err["error"]


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(tic_contracts.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _fresh_python(*args):
    """Run a fresh interpreter on this checkout's package; returns the finished run."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_fresh_env(), check=True)


class TestImportGraph:
    LAZY = ("tic_contracts.dynamics", "tic_contracts.fsvie", "concurrent.futures")

    def test_cli_import_loads_only_the_solvers(self):
        code = f"import sys, tic_contracts.cli; print([m for m in {self.LAZY} if m in sys.modules])"
        assert _fresh_python("-c", code).stdout.strip() == "[]"

    @pytest.mark.parametrize("command", ["solve", "figures"])
    def test_closed_form_commands_load_no_sampler_or_volterra_code(self, tmp_path, command):
        # numpy.random alone is about 10 ms of import, numpy.fft about 1 ms
        unused = ("numpy.random", "numpy.fft", "tic_contracts.dynamics", "tic_contracts.fsvie")
        args = ["solve", "--config", write_config(tmp_path, SEPARABLE_CONFIG)] \
            if command == "solve" else ["figures", "--steps", "11"]
        code = ("import sys\n"
                "from tic_contracts import cli\n"
                f"rc = cli.main({args + ['--out', str(tmp_path / 'out')]!r})\n"
                f"print(rc, [m for m in {unused} if m in sys.modules])")
        assert _fresh_python("-c", code).stdout.split("\n")[-2] == "0 []"

    def test_one_thread_verify_starts_no_pool_or_fft_module(self, tmp_path):
        # verify reads no march code: the identity check's correction is
        # dynamics' own block route, and the lag table and its FFT live in fsvie
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        code = ("import sys\n"
                "from tic_contracts import cli\n"
                f"rc = cli.main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path)!r}, "
                "'--paths', '64', '--steps', '20', '--threads', '1'])\n"
                "print(rc in (0, 3), [m for m in ('concurrent.futures', 'numpy.fft', "
                "'tic_contracts.fsvie') if m in sys.modules])")
        assert _fresh_python("-c", code).stdout.split("\n")[-2] == "True []"

    def test_namespace_resolves_every_public_name(self):
        namespace = {}
        exec("from tic_contracts import *", namespace)
        for name in tic_contracts.__all__:
            value = getattr(tic_contracts, name)
            assert namespace[name] is value
            if name != "__version__":
                assert getattr(sys.modules[value.__module__], name) is value
        assert tic_contracts.simulate is tic_contracts.dynamics.simulate
        assert tic_contracts.march is tic_contracts.fsvie.march
        assert set(tic_contracts.__all__) <= set(dir(tic_contracts))
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            tic_contracts.nothing


class TestCollectorPolicy:
    def test_cli_process_freezes_its_imports(self, tmp_path):
        # run as `python -m tic_contracts.cli`: the imports run with the
        # collector off and are frozen before main, which runs collected
        code = ("import gc, runpy, sys\n"
                f"sys.argv = ['tic-contracts', 'discount', '--out', {str(tmp_path)!r}]\n"
                "try:\n"
                "    runpy.run_module('tic_contracts.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    print(exc.code, gc.isenabled(), gc.get_freeze_count())")
        rc, enabled, frozen = _fresh_python("-c", code).stdout.split("\n")[-2].split()
        assert (rc, enabled) == ("0", "True")
        assert int(frozen) > 0

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path, capsys):
        # tests and library callers run main many times in one process; a
        # freeze there would pin the caller's heap for good
        before = (gc.isenabled(), gc.get_freeze_count())
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path), "--steps", "11"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before
        assert main(["solve", "--steps", "many"]) == 1
        assert (gc.isenabled(), gc.get_freeze_count()) == before
        capsys.readouterr()


def peak_rss_kb(cli_args):
    """Run the CLI in a fresh interpreter: (exit code, peak RSS in kB, stderr)."""
    return python_peak_rss_kb("-m", "tic_contracts.cli", *cli_args)


def python_peak_rss_kb(*args):
    """Run python with args in a fresh interpreter: (exit code, peak RSS in kB, stderr)."""
    # a child started from this test process counts the test process's
    # own peak in its ru_maxrss, so a small interpreter starts the command
    # and reports the command's peak
    reaper = ("import os, subprocess, sys; "
              "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
              "_, status, usage = os.wait4(p.pid, 0); "
              "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    run = _fresh_python("-c", reaper, sys.executable, *args)
    code, max_rss_kb = (int(v) for v in run.stdout.split())
    return code, max_rss_kb, run.stderr


BENCH_VERIFY_CONFIGS = ["separable_hyp04", "discounted_income", "first_best_nonseparable"]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify")
    cfg = write_config(base, SEPARABLE_CONFIG)
    out = base / "clean"
    rc = main(["verify", "--config", cfg, "--out", str(out),
               "--paths", "4000", "--steps", "200", "--seed", "7"])
    report = json.loads((out / "report.json").read_text())
    return base, cfg, out, rc, report


@pytest.fixture(scope="module")
def panels(tmp_path_factory):
    out = tmp_path_factory.mktemp("figures")
    rc = main(["figures", "--out", str(out), "--steps", "41"])
    assert rc == 0
    return {name: read_csv(out / f"effort_{name}.csv")
            for name in ("left", "center", "right")}


class TestVerify:
    def test_passes_and_reports_every_check(self, clean_run):
        _, _, _, rc, report = clean_run
        assert rc == 0
        assert report["pass"] is True
        assert report["participation"]["pass"] is True
        assert report["principal_value"]["pass"] is True
        assert len(report["delta_residuals"]) == 2
        assert all(row["pass"] for row in report["delta_residuals"])
        assert len(report["spike_tests"]) == 8
        assert all(row["pass"] for row in report["spike_tests"])

    def test_summary_lines_on_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        main(["verify", "--config", cfg, "--out", str(tmp_path),
              "--paths", "2000", "--steps", "100", "--seed", "3"])
        out = capsys.readouterr().out
        assert "participation: pass" in out
        assert "overall: pass" in out

    def test_report_is_byte_identical_across_runs(self, clean_run):
        base, cfg, out, _, _ = clean_run
        again = base / "again"
        main(["verify", "--config", cfg, "--out", str(again),
              "--paths", "4000", "--steps", "200", "--seed", "7"])
        assert (out / "report.json").read_bytes() == (again / "report.json").read_bytes()

    def test_perturbed_constant_term_fails_participation_by_f_t(self, clean_run, capsys):
        base, _, _, _, clean_report = clean_run
        bumped = json.loads(json.dumps(SEPARABLE_CONFIG))
        bumped["perturb_constant_term"] = 1.0
        cfg = write_config(base, bumped, name="bumped.json")
        out = base / "bumped"
        rc = main(["verify", "--config", cfg, "--out", str(out),
                   "--paths", "4000", "--steps", "200", "--seed", "7"])
        capsys.readouterr()
        assert rc == 3
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False
        assert report["participation"]["pass"] is False
        # a unit shift of the flat payment moves the agent's mean reward by
        # exactly the terminal discount weight, noise unchanged
        f_t = float(DiscountSpec.hyperbolic(1.0, 0.4).value(2.0))
        shift = report["participation"]["mean"] - clean_report["participation"]["mean"]
        assert shift == pytest.approx(f_t, abs=1e-12)

    @pytest.mark.parametrize("config", ["discounted_utility", "discounted_income"])
    def test_cara_report_holds_eight_exact_spikes(self, tmp_path, capsys, config):
        if config == "discounted_utility":
            payload = HM_DU_CONFIG
        else:
            with open(os.path.join(ROOT, "perfbench", "configs", f"{config}.json")) as fh:
                payload = json.load(fh)
        cfg = write_config(tmp_path, payload)

        def run(name, *flags):
            out = tmp_path / name
            rc = main(["verify", "--config", cfg, "--out", str(out), "--paths", "2000",
                       "--steps", "100", *flags])
            return rc, capsys.readouterr().out, (out / "report.json").read_bytes()

        rc, stdout, report = run("one", "--seed", "7")
        assert rc == 0
        assert run("again", "--seed", "7") == (rc, stdout, report)
        assert run("threads", "--seed", "7", "--threads", "2") == (rc, stdout, report)
        rows = json.loads(report)["spike_tests"]
        assert len(rows) == 8
        assert all(row["se"] == 0.0 and row["pass"] for row in rows)
        assert [line for line in stdout.splitlines() if line.startswith("spike t=")] == [
            f"spike t={row['t']:g} alt={row['alt']}: pass "
            f"(gain={row['gain']:.3g}, bound={row['bound']:.3g})" for row in rows]
        assert json.loads(report)["delta_residuals"] == []
        # the gains are exact: no stream feeds them
        assert json.loads(run("seed", "--seed", "8")[2])["spike_tests"] == rows

    def test_report_bytes_do_not_depend_on_blas_or_fill_threads(self, tmp_path):
        # a fresh interpreter per BLAS thread count: OpenBLAS reads it at load
        cfg = os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")
        reports = set()
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"blas{blas}_threads{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                           PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
                subprocess.run([sys.executable, "-m", "tic_contracts.cli", "verify",
                                "--config", cfg, "--out", str(out), "--paths", "600",
                                "--steps", "200", "--seed", "7", "--threads", threads],
                               env=env, capture_output=True, check=True)
                reports.add((out / "report.json").read_bytes())
        assert len(reports) == 1

    def test_antithetic_run_with_a_risk_neutral_party_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SEPARABLE_CONFIG, antithetic=True))
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out),
                   "--paths", "4000", "--steps", "200", "--seed", "7"])
        assert rc == 2
        assert "antithetic sampling needs exponential utilities" in _error_of(capsys)
        assert not out.exists()

    def test_antithetic_run_with_two_exponential_utilities_passes(self, tmp_path, capsys):
        with open(os.path.join(ROOT, "perfbench", "configs", "discounted_income.json")) as fh:
            config = dict(json.load(fh), antithetic=True)
        out = tmp_path / "out"
        rc = main(["verify", "--config", write_config(tmp_path, config), "--out", str(out),
                   "--paths", "4000", "--steps", "200", "--seed", "7"])
        assert capsys.readouterr().err == ""
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["participation"]["se"] > 0.0 and report["pass"] is True

    @pytest.mark.parametrize("paths,steps", [(100_000, 10), (1_000_000, 20), (1_000_000, 100)])
    @pytest.mark.parametrize("config", BENCH_VERIFY_CONFIGS)
    def test_bench_config_passes_when_paths_outnumber_steps(self, tmp_path, capsys, config,
                                                            paths, steps):
        # the means are judged against their exact means on the run's own
        # grid, and the grid's O(dt) gap to the closed form against its own
        # allowance, so a sound contract passes at any path count
        cfg = os.path.join(ROOT, "perfbench", "configs", f"{config}.json")
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path), "--paths", str(paths),
                   "--steps", str(steps)])
        assert capsys.readouterr().out.splitlines()[-1] == "overall: pass"
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ("participation", "principal_value"):
            row = report[key]
            assert row["gap"] == row["grid_mean"] - row["target"]
            assert abs(row["gap"]) <= row["allowance"]
            assert abs(row["mean"] - row["grid_mean"]) <= 3.0 * row["se"]

    @pytest.mark.parametrize("config,preferences", [
        ("separable_hyp04", {"spec": "first_best_separable"}),
        ("discounted_income", {"agent": "risk_neutral", "principal": "risk_neutral",
                               "gamma_a": 0.0, "gamma_p": 0.0, "r0": 0.05,
                               "discount": {"variant": "exponential", "gamma": 0.1}}),
    ])
    def test_an_exact_contract_passes_within_rounding(self, tmp_path, capsys, config,
                                                      preferences):
        # the first agent's and the second principal's rewards are
        # deterministic (a flat loading of one), so their standard error is
        # near 1e-20 and the Monte Carlo mean may sit ulps from the exact one
        with open(os.path.join(ROOT, "perfbench", "configs", f"{config}.json")) as fh:
            payload = json.load(fh)
        payload["preferences"].update(preferences)
        rc = main(["verify", "--config", write_config(tmp_path, payload), "--out",
                   str(tmp_path)])
        assert capsys.readouterr().out.splitlines()[-1] == "overall: pass"
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert min(report[key]["se"] for key in ("participation", "principal_value")) < 1e-15

    def test_a_costless_correction_identity_passes_within_rounding(self, tmp_path, capsys):
        # the only action is 0, so the cost and the identity's allowance are
        # 0, and its residual is rounding on rewards near r0 = 434
        power = {"family": "power", "params": {"p": 1.001}}
        payload = {
            "model": {"x0": 0.1, "T": 2.0, "sigma": 1.0, "drift": power, "cost": power,
                      "action": [0.0, 0.0]},
            "preferences": {"agent": "risk_neutral", "principal": "risk_neutral", "r0": 434.0,
                            "discount": {"variant": "hyperbolic", "gamma": 1.0, "alpha": 0.1},
                            "spec": "separable_rn"},
            "grid_points": 51,
        }
        rc = main(["verify", "--config", write_config(tmp_path, payload), "--out",
                   str(tmp_path), "--paths", "50", "--steps", "50", "--seed", "4"])
        assert capsys.readouterr().out.splitlines()[-1] == "overall: pass"
        assert rc == 0
        rows = json.loads((tmp_path / "report.json").read_text())["delta_residuals"]
        assert [row["allowance"] for row in rows] == [0.0, 0.0]
        assert all(0.0 < abs(row["mean"]) < 1e-12 and row["pass"] for row in rows)

    @pytest.mark.parametrize("config", BENCH_VERIFY_CONFIGS)
    def test_a_one_percent_constant_shift_fails_at_the_default_size(self, tmp_path, capsys,
                                                                   config):
        with open(os.path.join(ROOT, "perfbench", "configs", f"{config}.json")) as fh:
            payload = dict(json.load(fh), perturb_constant_term=0.01)
        out = tmp_path / "out"
        rc = main(["verify", "--config", write_config(tmp_path, payload), "--out", str(out)])
        assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"
        assert rc == 3
        # the shift moves the exact grid mean with the payments, so the gap
        # to the closed form, not the sampling, flags it
        report = json.loads((out / "report.json").read_text())
        for key in ("participation", "principal_value"):
            row = report[key]
            assert row["pass"] is False
            assert abs(row["gap"]) > row["allowance"]
            assert abs(row["mean"] - row["grid_mean"]) <= 3.0 * row["se"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes, as Linux reports it")
    def test_streaming_run_stays_below_150_mb(self, tmp_path):
        # 20000 paths x 2000 steps on the benchmark's separable config; one
        # 16384-path chunk of increments alone took 262 MB
        cfg = os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")
        code, max_rss_kb, stderr = peak_rss_kb(
            ["verify", "--config", cfg, "--out", str(tmp_path), "--paths", "20000",
             "--steps", "2000"])
        assert code == 0, stderr
        assert max_rss_kb < 150 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes, as Linux reports it")
    def test_estimators_stream_the_paths(self):
        # agent_value_mc and principal_value_mc at 20000 paths x 2000 steps:
        # the normals as one array are 320 MB
        script = (
            "from tic_contracts import *\n"
            "m = MarketModel.quadratic(0.1, 2.0, 1.0)\n"
            "p = Preferences(agent_utility='risk_neutral', principal_utility='risk_neutral',\n"
            "                gamma_a=0.0, gamma_p=0.0, r0=0.05,\n"
            "                discount=DiscountSpec.hyperbolic(1.0, 0.4), spec_tag='separable_rn')\n"
            "sol = solve(m, p, default_grid(2.0, 201))\n"
            "ens = simulate(m, sol.effort, 20000, 2000, seed=7)\n"
            "agent_value_mc(m, p, sol, ens), principal_value_mc(m, p, sol, ens)\n")
        code, max_rss_kb, stderr = python_peak_rss_kb("-c", script)
        assert code == 0, stderr
        assert max_rss_kb < 150 * 1024


class TestFigures:
    def test_all_three_panels_written(self, panels):
        for name in ("left", "center", "right"):
            header, cols = panels[name]
            assert header[0] == "t"
            assert len(cols["t"]) == 41
            assert {"f_exp", "idr_exp", "effort_exp"} <= set(header)

    def test_left_panel_start_effort_ranks_by_alpha(self, panels):
        _, cols = panels["left"]
        starts = [cols[f"effort_alpha_{a:g}"][0] for a in (4.0, 0.4, 0.04, 0.004)]
        assert all(a > b for a, b in zip(starts, starts[1:]))

    def test_exponential_effort_is_increasing_and_convex(self, panels):
        _, cols = panels["left"]
        effort = cols["effort_exp"]
        assert np.all(np.diff(effort) > 0.0)
        assert np.all(np.diff(effort, 2) > -1e-12)

    def test_center_panel_has_one_column_set_per_beta(self, panels):
        header, _ = panels["center"]
        for b in (0.1, 0.19, 0.343, 0.569):
            assert f"effort_beta_{b:g}" in header

    def test_each_curve_is_solved_once(self, tmp_path, monkeypatch):
        # the exponential base curve sits in all three panels: 13 distinct
        # curves, each solved once
        calls = []
        solve = cli.closed_form.solve

        def counted(model, prefs, grid=None):
            calls.append(prefs.discount)
            return solve(model, prefs, grid)

        monkeypatch.setattr(cli.closed_form, "solve", counted)
        assert main(["figures", "--out", str(tmp_path), "--steps", "41"]) == 0
        assert len(calls) == len(set(calls)) == 13

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_fewer_than_three_points_exit_1(self, tmp_path, capsys, monkeypatch, how):
        def refuse(*args, **kwargs):
            raise AssertionError("figures solved with too few points")

        monkeypatch.setattr(cli.closed_form, "solve", refuse)
        out = tmp_path / "out"
        if how == "flag":
            argv = ["figures", "--out", str(out), "--steps", "2"]
        else:
            argv = ["figures", "--out", str(out),
                    "--config", write_config(tmp_path, {"points": 2})]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: points must be at least 3\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("config,message", [
        ({"alphas": [4.0, 4.0000001]}, "left panel share the label alpha_4"),
        ({"betas": [0.1, 0.1]}, "center panel share the label beta_0.1"),
    ], ids=["alphas", "betas"])
    def test_colliding_column_labels_exit_1_before_solving(self, tmp_path, capsys,
                                                            monkeypatch, config, message):
        def refuse(*args, **kwargs):
            raise AssertionError("figures solved a panel with colliding labels")

        monkeypatch.setattr(cli.closed_form, "solve", refuse)
        out = tmp_path / "out"
        assert main(["figures", "--config", write_config(tmp_path, config),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: two curves of the {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_failing_curve_writes_no_panel(self, tmp_path, capsys):
        # the right panel's curve fails validation; the left and center
        # panels, whose curves solve, must not be written either
        cfg = write_config(tmp_path, {"beta": 0.0, "lambdas": [800.0]})
        out = tmp_path / "out"
        assert main(["figures", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "discount factor f(T) underflows to zero at the horizon" in captured.err
        assert captured.out == ""
        assert not list(tmp_path.glob("**/effort_*.csv"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_quasi_hyperbolic_rate_runs_quietly(self, tmp_path):
        # exp(-lambda t) is 0 for t > 0; the overflow of lambda * t is no fault
        cfg = write_config(tmp_path, {"lambda": 1e308})
        assert main(["figures", "--config", cfg, "--out", str(tmp_path), "--steps", "41"]) == 0
        _, cols = read_csv(tmp_path / "effort_center.csv")
        assert cols["idr_beta_0.1"][0] == 0.0575 + 1e308 * 0.9
        assert np.all(cols["idr_beta_0.1"][1:] == 0.0575)
        curve = {"variant": "quasi_hyperbolic", "gamma": 0.1, "beta": 0.5, "lambda": 1e308}
        cfg = write_config(tmp_path, {"discounts": [dict(curve, name="huge")]})
        assert main(["discount", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, cols = read_csv(tmp_path / "discount_huge.csv")
        assert np.all(np.isfinite(cols["idr"])) and np.all(cols["f"][1:] > 0.0)


class TestCheckConstraint:
    def test_optimal_family_passes_default_threshold(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        rc = main(["check-constraint", "--config", cfg, "--out", str(tmp_path),
                   "--steps", "400", "--seed", "5"])
        assert rc == 0
        line = capsys.readouterr().out
        assert "target constraint residual" in line
        assert line.rstrip().endswith("pass")
        report = json.loads((tmp_path / "constraint.json").read_text())
        assert report["pass"] is True
        assert report["family"] == "optimal"
        assert report["residual"] < 0.01
        assert len(report["per_path"]) == 3

    def test_s_frozen_family_fails(self, tmp_path, capsys):
        bumped = json.loads(json.dumps(SEPARABLE_CONFIG))
        bumped["family"] = "s_constant"
        cfg = write_config(tmp_path, bumped)
        rc = main(["check-constraint", "--config", cfg, "--out", str(tmp_path),
                   "--steps", "400", "--seed", "5"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out
        report = json.loads((tmp_path / "constraint.json").read_text())
        assert report["pass"] is False
        assert report["residual"] > 0.1

    def test_exponential_discount_is_exact_at_tight_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, with_discount(
            SEPARABLE_CONFIG, {"variant": "exponential", "gamma": 0.3}))
        rc = main(["check-constraint", "--config", cfg, "--out", str(tmp_path),
                   "--steps", "300", "--tol", "1e-8"])
        assert rc == 0

    @pytest.mark.parametrize("steps", ["300", "400"])
    def test_steep_exponential_discount_stays_exact(self, tmp_path, steps):
        # exponential 10 over T = 2: the lag tables span e^40, and the rows
        # at small s are divided by f(T) = e^-20; 400 steps nest in the 201
        # solver points, 300 do not.  Rounding of payments of about 2e7
        # leaves about 1e-8
        config = with_discount(SEPARABLE_CONFIG, {"variant": "exponential", "gamma": 10.0})
        config["grid_points"] = 201
        rc = main(["check-constraint", "--config", write_config(tmp_path, config),
                   "--out", str(tmp_path), "--steps", steps, "--tol", "1e-6"])
        assert rc == 0

    def test_without_out_writes_the_report_to_the_current_directory(self, tmp_path,
                                                                    monkeypatch):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        monkeypatch.chdir(tmp_path)
        assert main(["check-constraint", "--config", cfg, "--steps", "200"]) == 0
        report = json.loads((tmp_path / "constraint.json").read_text())
        assert report["pass"] is True and len(report["per_path"]) == 3

    def test_rejects_non_separable_specs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, HM_DU_CONFIG)
        rc = main(["check-constraint", "--config", cfg])
        assert rc == 1
        assert "separable" in capsys.readouterr().err

    def test_bench_run_evaluates_the_curve_on_o_of_n_plus_g_points(self, tmp_path,
                                                                   monkeypatch):
        # 2 paths x 3000 steps on 501 solver points, as the benchmark runs
        # it: the march's one lag table (2N + 1), which also gives the
        # initial profile, the row factor and the residual's weights, the
        # solve's 2G and a few single points, 7,008 points in all.
        # Evaluating the profile on (rows x solver grid) blocks took
        # (N + 1) G, 1.5M points; a second table and four evaluations of
        # f(T - s) on the march grid took 25,012.
        n, g = 3000, 501
        raw, points = DiscountSpec._value_raw, []

        def counted(self, t):
            points.append(t.size)
            return raw(self, t)

        monkeypatch.setattr(DiscountSpec, "_value_raw", counted)
        cfg = os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")
        assert main(["check-constraint", "--config", cfg, "--out", str(tmp_path),
                     "--steps", str(n), "--paths", "2"]) == 0
        assert sum(points) <= 4 * (n + g)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes, as Linux reports it")
    def test_default_run_stays_below_150_mb(self, tmp_path):
        # 3 paths x 2000 steps; holding an (s, t) field per path took 464 MB
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        code, max_rss_kb, stderr = peak_rss_kb(
            ["check-constraint", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0, stderr
        assert max_rss_kb < 150 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes, as Linux reports it")
    def test_long_march_stays_below_80_mb(self, tmp_path):
        # 2 paths x 8000 steps on the benchmark's optimal family; the initial
        # profile's (rows x grid) temporaries and a per-step (s, paths)
        # state took 129 MB
        cfg = os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")
        code, max_rss_kb, stderr = peak_rss_kb(
            ["check-constraint", "--config", cfg, "--out", str(tmp_path),
             "--steps", "8000", "--paths", "2"])
        assert code == 0, stderr
        assert max_rss_kb < 80 * 1024

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads ru_maxrss in kilobytes, as Linux reports it")
    def test_product_family_march_stays_below_64_mb(self, tmp_path):
        # 2 paths x 20000 steps: the optimal family's closed sums hold
        # (paths, steps) arrays and a lag table; one (steps, steps)
        # temporary would be 3.2 GB
        cfg = os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")
        code, max_rss_kb, stderr = peak_rss_kb(
            ["check-constraint", "--config", cfg, "--out", str(tmp_path),
             "--steps", "20000", "--paths", "2"])
        assert code == 0, stderr
        assert max_rss_kb < 64 * 1024


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_solve_without_config(self, capsys):
        assert main(["solve"]) == 1
        assert "model" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "absent.json")])
        assert rc == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["solve", "--config", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("depth", [600, 100000])
    def test_deeply_nested_config_exits_1_without_traceback(self, tmp_path, depth):
        # _non_finite recurses past Python's limit from about 500 levels,
        # json.load from about 995
        path = tmp_path / "nested.json"
        path.write_text('{"model": ' + "[" * depth + "]" * depth + ', "preferences": {}}')
        run = subprocess.run([sys.executable, "-m", "tic_contracts.cli", "solve",
                              "--config", str(path), "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=_fresh_env())
        assert run.returncode == 1
        assert run.stderr == "error: cannot read config: nested too deeply\n"
        assert not (tmp_path / "out").exists()

    def test_nonpositive_steps(self, tmp_path, capsys):
        assert main(["discount", "--out", str(tmp_path), "--steps", "0"]) == 1
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exits_1(self, tmp_path, capsys, monkeypatch, threads):
        def no_work(*args, **kwargs):
            raise AssertionError("verify started work")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--paths", "10",
                     "--steps", "10", "--threads", threads]) == 1
        assert capsys.readouterr().err == "error: threads must be positive\n"
        assert not out.exists()

    def test_unknown_family_name(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("check-constraint solved before refusing")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        bumped = json.loads(json.dumps(SEPARABLE_CONFIG))
        bumped["family"] = "sideways"
        cfg = write_config(tmp_path, bumped)
        out = tmp_path / "out"
        assert main(["check-constraint", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown family 'sideways'\n"
        assert not out.exists()


# a value for each flag that only some subcommands read
_RUN_FLAGS = {"--seed": "3", "--paths": "9", "--threads": "1", "--tol": "0.5"}
_UNREAD_FLAGS = [(command, flag) for command, read in (
    ("discount", ()), ("solve", ()), ("figures", ()),
    ("verify", ("--seed", "--paths", "--threads")),
    ("check-constraint", ("--seed", "--paths", "--tol")))
    for flag in _RUN_FLAGS if flag not in read]


class TestUnreadFlags:
    @pytest.mark.parametrize("command,flag", _UNREAD_FLAGS)
    def test_flag_the_subcommand_does_not_read_exits_1(self, tmp_path, capsys, command, flag):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--steps", "11",
                     flag, _RUN_FLAGS[flag]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: tic-contracts ")
        assert err.endswith(f"error: unrecognized arguments: {flag} {_RUN_FLAGS[flag]}\n")
        assert not out.exists()


def _bench_config(name):
    with open(os.path.join(ROOT, "perfbench", "configs", f"{name}.json")) as fh:
        return json.load(fh)


def _error_of(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


class TestBadNumbers:
    @pytest.mark.parametrize("section,key,value", [
        ("model", "x0", float("nan")),
        ("model", "T", float("inf")),
        ("model", "sigma", float("nan")),
        ("preferences", "r0", float("-inf")),
        ("preferences", "gamma_a", float("nan")),
    ])
    def test_non_finite_model_fields_exit_2(self, tmp_path, capsys, section, key, value):
        bad = json.loads(json.dumps(SEPARABLE_CONFIG))
        bad[section][key] = value
        cfg = write_config(tmp_path, bad)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert f"config.{section}.{key} must be finite" in _error_of(capsys)
        assert not out.exists()

    def test_non_finite_discount_and_action_bounds_exit_2(self, tmp_path, capsys):
        bad = with_discount(SEPARABLE_CONFIG,
                            {"variant": "hyperbolic", "gamma": 1.0, "alpha": float("inf")})
        bad["model"]["action"] = [0.0, float("nan")]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad).replace("Infinity", "1e400"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        error = _error_of(capsys)
        assert "config.preferences.discount.alpha must be finite" in error
        assert "config.model.action[1] must be finite" in error

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_threshold_flag_exits_1(self, tmp_path, capsys, tol):
        cfg = write_config(tmp_path, SEPARABLE_CONFIG)
        assert main(["check-constraint", "--config", cfg, "--tol", tol]) == 1
        assert "threshold must be positive and finite" in capsys.readouterr().err

    def test_json_writer_is_strict(self, tmp_path):
        path = tmp_path / "report.json"
        for nan in (float("nan"), np.float32("nan"), np.array([1.0, np.inf])):
            with pytest.raises(ValueError):
                cli._write_json(str(path), {"ok": 1.0, "row": [{"mean": nan}]})
            assert not path.exists()

    def test_json_writer_bytes_equal_the_plain_payload(self, tmp_path):
        payload = {
            "f64": np.float64(0.1) / 3, "f32": np.float32(0.1), "i64": np.int64(-7),
            "flag": np.bool_(True), "plain": [True, None, 2, 1e-300, "x"],
            "grid": np.linspace(0.0, 1.0, 7), "ints": np.arange(3),
            "f32s": np.array([0.25, 0.1], dtype=np.float32), "flags": np.array([True, False]),
            "nested": (np.array([[np.float64(0.5), 2.0]]), {"b": np.bool_(False)}),
            "tuple": (np.float64(2.0), np.int64(3), (np.float32(0.25),)),
        }
        plain = {
            "f64": 0.03333333333333333, "f32": 0.10000000149011612, "i64": -7,
            "flag": True, "plain": [True, None, 2, 1e-300, "x"],
            "grid": [0.0, 0.16666666666666666, 0.3333333333333333, 0.5,
                     0.6666666666666666, 0.8333333333333333, 1.0],
            "ints": [0, 1, 2],
            "f32s": [0.25, 0.10000000149011612], "flags": [True, False],
            "nested": [[[0.5, 2.0]], {"b": False}],
            "tuple": [2.0, 3, [0.25]],
        }
        path = tmp_path / "payload.json"
        cli._write_json(str(path), payload)
        want = json.dumps(plain, indent=2, sort_keys=True, allow_nan=False)
        assert path.read_bytes() == (want + "\n").encode("utf-8")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_exposure_objective_without_finite_values_exits_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(HM_DU_CONFIG))
        bad["model"]["sigma"] = 1e200
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "non-finite values" in _error_of(capsys)

    def test_underflowing_risk_weight_exits_2_without_a_warning(self, tmp_path, capsys):
        # on a steep exponential curve g(T - t)^2 underflows to zero, so the
        # agent's risk weight g(T) / g(T - t)^2 is not finite; the suite
        # turns any warning into an error
        with open(os.path.join(ROOT, "perfbench", "configs", "discounted_income.json")) as fh:
            config = with_discount(json.load(fh), {"variant": "exponential", "gamma": 200.0})
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "non-finite values" in _error_of(capsys)

    def test_risk_neutral_agent_forms_no_overflowing_risk_term(self, tmp_path, capsys):
        # sigma^2 overflows; a risk-neutral agent's risk term has a zero
        # coefficient, so it is not formed (0 * inf would make the constant
        # nan); the suite turns any warning into an error
        with open(os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")) as fh:
            config = json.load(fh)
        config["model"]["sigma"] = 1e200
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "solution.json") as fh:
            assert math.isfinite(json.load(fh)["constant_term"])
        # the rows reach about 1e195, so their rounding alone (about 1e180)
        # exceeds the absolute threshold: exit 3
        assert main(["check-constraint", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_huge_sigma_verify_writes_a_strict_report(self, tmp_path, capsys):
        # the payments reach about 1e154, where the estimator's squared
        # deviations overflow; the standard error is finite, the suite turns
        # any warning into an error, and the exact loading (one at t = 0)
        # passes every check: exit 0
        with open(os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")) as fh:
            config = json.load(fh)
        config["model"]["sigma"] = 1e154
        cfg = write_config(tmp_path, config)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--paths", "2000", "--steps", "100"]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err

        def refuse(name):
            raise ValueError(f"report.json holds {name}")

        with open(tmp_path / "report.json") as fh:
            report = json.load(fh, parse_constant=refuse)
        assert math.isfinite(report["participation"]["se"])
        assert report["participation"]["pass"]

    def test_risk_neutral_spike_check_forms_no_overflowing_risk_term(self, tmp_path, capsys):
        # load^2 sigma^2 overflows; a risk-neutral agent's risk term has a
        # zero coefficient, so the spike check does not form it and the
        # report stays finite; the suite turns any warning into an error
        with open(os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")) as fh:
            config = json.load(fh)
        config["model"]["sigma"] = 1e200
        cfg = write_config(tmp_path, config)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                     "--paths", "2000", "--steps", "100"]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_overflowing_spike_reward_exits_2_without_a_warning(self, tmp_path, capsys):
        # seen from t = 7.5 the CARA agent's mean reward is about -exp(4180),
        # so the spike check refuses it rather than report the gain
        # -inf - -inf; the suite turns any warning into an error
        config = {"grid_points": 501, "model": {
            "x0": 0.3, "T": 10.0, "sigma": 1.0, "drift": {"family": "quadratic"},
            "cost": {"family": "quadratic"}, "action": [0.0, 10.0]}, "preferences": {
            "agent": "exponential", "principal": "exponential", "gamma_a": 1.0,
            "gamma_p": 1.0, "r0": -10.0, "discount": {"variant": "exponential", "gamma": 1.0},
            "spec": "discounted_income"}}
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solved")]) == 0
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert "spike check: the agent's mean reward seen from t = 7.5 is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_exposure_polish_exits_2_without_a_warning(self, tmp_path, capsys,
                                                                   command):
        # the five-point polish of the exposure search overflows; its rows
        # stay unpolished, and the solve fails on the principal's value
        with open(os.path.join(ROOT, "perfbench", "configs", "discounted_income.json")) as fh:
            config = json.load(fh)
        config["model"]["sigma"] = 1e154
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert "principal value diverged" in err

    def test_first_best_cost_overflowing_on_a_wide_action_set_solves_quietly(self, tmp_path):
        # the hm_linear cost overflows to +inf at every action but 0 of
        # [0, 1e200]; the convexity check reads that as convex, without a
        # warning, which the suite turns into an error
        config = _bench_config("first_best_nonseparable")
        config["model"]["action"] = [0.0, 1e200]
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["curves.csv", "solution.json"]

    @pytest.mark.parametrize("name", ["separable_hyp04", "discounted_income"])
    def test_overflowing_cost_in_the_spike_check_exits_2_without_a_warning(self, tmp_path,
                                                                            capsys, name):
        # the builtin cost overflows on [0, 1e200]; the spike check's exact
        # means refuse the reward without a warning
        config = _bench_config(name)
        config["model"]["action"] = [0.0, 1e200]
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, config), "--out", str(out),
                     "--paths", "200", "--steps", "50"]) == 2
        captured = capsys.readouterr()
        error = "spike check: the agent's mean reward seen from t = 0 is not finite"
        assert captured.out == ""
        assert captured.err == json.dumps({"error": error, "problems": [error]}) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("points", [500, 2001])
    def test_diverging_first_best_exits_2_without_a_warning(self, tmp_path, command, points):
        # sigma^2 overflows in the risk-sharing integrand, and on an even
        # grid Simpson's end correction meets inf - inf; the certainty
        # equivalent check refuses the result.  A fresh interpreter, so no
        # earlier run has already shown (and so silenced) the warning.
        with open(os.path.join(ROOT, "perfbench", "configs", "first_best_nonseparable.json")) as fh:
            config = json.load(fh)
        config["model"]["sigma"] = 1e200
        config["grid_points"] = points
        cfg = write_config(tmp_path, config)
        # the solve fails before verify samples anything
        run = subprocess.run([sys.executable, "-m", "tic_contracts.cli", command,
                              "--config", cfg, "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, env=_fresh_env())
        assert run.returncode == 2
        assert "RuntimeWarning" not in run.stderr
        assert "risk-sharing certainty equivalent diverged" in json.loads(run.stderr)["error"]

    def test_diverging_principal_value_exits_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(HM_DU_CONFIG))
        bad["model"]["sigma"] = 1e150
        bad["preferences"].update(principal="exponential", gamma_p=0.5)
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "principal value diverged" in _error_of(capsys)


# floats json and csv must spell exactly: signed zero, the smallest
# subnormal, the first integer-valued float printed with an exponent, and
# values near the top of the range
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1.7e308]))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                              np.float32(math.inf), np.array([1.0, -math.inf])])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FINITE, st.text(max_size=6),
    FINITE.map(np.float64), st.floats(width=32, allow_nan=False, allow_infinity=False)
    .map(np.float32), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(FINITE, max_size=6), st.lists(FINITE, max_size=6).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(np.array))
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)


@st.composite
def holding(draw, leaf):
    """A payload with leaf nested somewhere inside it."""
    payload = leaf
    for wrap in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]), max_size=3)):
        siblings = draw(st.lists(PAYLOADS, max_size=2))
        if wrap == "dict":
            payload = dict({f"k{i}": v for i, v in enumerate(siblings)},
                           **{draw(st.text(max_size=4)): payload})
        else:
            items = siblings + [payload]
            payload = items if wrap == "list" else tuple(items)
    return payload


def _json_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=cli._plain)


def _old_csv(path, header, columns):
    # the per-field writer the bulk writer replaced
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


class TestWriters:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @example(payload=[{3: [1.5, 2.5], 2.5: ()}, {True: 1}, {None: 2}, {np.float64(0.5): 0},
                      {"\u00e9\u2603": {}, "": [[], [0.5, -0.0]]}])
    @example(payload=[1.0, 2, 3.0, True, "x", np.float32(0.1), np.int64(4)])
    @example(payload=[np.float64(0.1), 5e-324, 1e16, 1.7e308, -0.0])
    @given(payload=PAYLOADS)
    def test_json_bytes_equal_json_dumps(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "payload.json")
            cli._write_json(path, payload)
            with open(path, "rb") as fh:
                assert fh.read() == (_json_dumps(payload) + "\n").encode("utf-8")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(payload=NON_FINITE.flatmap(holding))
    def test_json_non_finite_raises_before_the_file_opens(self, payload):
        with pytest.raises(ValueError):
            _json_dumps(payload)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "payload.json")
            with pytest.raises(ValueError, match="not JSON compliant"):
                cli._write_json(path, payload)
            assert not os.path.exists(path)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(payload=st.sampled_from([object(), 1j, {1, 2}, b"raw", np.complex128(1.0)])
           .flatmap(holding))
    def test_json_unconvertible_object_raises_type_error(self, payload):
        with pytest.raises(TypeError):
            _json_dumps(payload)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "payload.json")
            with pytest.raises(TypeError, match="not JSON serializable"):
                cli._write_json(path, payload)
            assert not os.path.exists(path)

    def test_csv_bytes_equal_the_per_field_writer(self, tmp_path):
        hostile = [0.0, -0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan]
        columns = [np.array(hostile), list(reversed(hostile)), np.arange(7),
                   [np.float64(v) for v in hostile]]
        header = ["a", "b,c", "d", "e"]
        cli._write_csv(str(tmp_path / "new.csv"), header, columns)
        _old_csv(str(tmp_path / "old.csv"), header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestNegativeShiftDomain:
    # alpha * T = 8: the hyperbolic curve ends at t = -1/alpha = -0.25, but
    # the correction identity needs f down to -T/2 and the Volterra
    # generator down to -T
    HYP4 = with_discount(SEPARABLE_CONFIG, {"variant": "hyperbolic", "gamma": 1.0, "alpha": 4.0})

    def test_solve_needs_no_negative_shift(self, tmp_path):
        cfg = write_config(tmp_path, self.HYP4)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command,report", [("verify", "report.json"),
                                                ("check-constraint", "constraint.json")])
    def test_out_of_domain_curve_exits_2(self, tmp_path, capsys, command, report):
        cfg = write_config(tmp_path, self.HYP4)
        out = tmp_path / "out"
        rc = main([command, "--config", cfg, "--out", str(out), "--paths", "1000",
                   "--steps", "100"])
        assert rc == 2
        assert "hyperbolic discount undefined" in _error_of(capsys)
        assert not (out / report).exists()

    def test_each_command_checks_only_the_shifts_it_uses(self, tmp_path, capsys):
        # alpha * T = 1.8: f(-T/2) exists, f(-T) does not
        cfg = write_config(tmp_path, with_discount(
            SEPARABLE_CONFIG, {"variant": "hyperbolic", "gamma": 1.0, "alpha": 0.9}))
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path), "--paths", "2000",
                   "--steps", "100"])
        assert rc in (0, 3)
        assert (tmp_path / "report.json").exists()
        capsys.readouterr()
        assert main(["check-constraint", "--config", cfg, "--steps", "100"]) == 2
        assert "hyperbolic discount undefined" in _error_of(capsys)


class TestParseErrors:
    @pytest.mark.parametrize("command,extra,key", [
        ("verify", {"seed": "abc"}, "seed"),
        ("check-constraint", {"seed": [7]}, "seed"),
        ("check-constraint", {"threshold": "x"}, "threshold"),
        ("check-constraint", {"grid_points": "many"}, "grid_points"),
        ("verify", {"perturb_constant_term": "up"}, "perturb_constant_term"),
        ("verify", {"antithetic": "false"}, "antithetic"),
        # numbers are read strictly: no bool or string for a number, and
        # no fraction for an integer
        ("verify", {"grid_points": 501.7}, "grid_points"),
        ("check-constraint", {"grid_points": "301"}, "grid_points"),
        ("verify", {"n_paths": True}, "n_paths"),
        ("check-constraint", {"n_steps": 10.5}, "n_steps"),
        ("verify", {"seed": 7.5}, "seed"),
        ("check-constraint", {"seed": False}, "seed"),
        ("check-constraint", {"threshold": True}, "threshold"),
        ("verify", {"perturb_constant_term": "0.1"}, "perturb_constant_term"),
    ])
    def test_unreadable_run_option_exits_1(self, tmp_path, capsys, command, extra, key):
        cfg = write_config(tmp_path, {**SEPARABLE_CONFIG, "n_paths": 10, "n_steps": 10,
                                      **extra})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra,flag,key", [
        ("verify", {"n_paths": True}, ["--paths", "10"], "n_paths"),
        ("verify", {"seed": 7.5}, ["--seed", "3"], "seed"),
        ("check-constraint", {"threshold": "x"}, ["--tol", "0.5"], "threshold"),
        ("solve", {"grid_points": "301"}, ["--steps", "51"], "grid_points"),
        ("check-constraint", {"n_steps": 10.5}, ["--steps", "10"], "n_steps"),
        ("figures", {"points": "41"}, ["--steps", "11"], "points"),
    ])
    def test_a_flag_does_not_skip_the_config_value_check(self, tmp_path, capsys, command,
                                                         extra, flag, key):
        # the config is read and checked first; the flag then replaces it
        cfg = write_config(tmp_path, {**SEPARABLE_CONFIG, "n_paths": 10, "n_steps": 10,
                                      **extra})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *flag]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra,flag,message", [
        ("verify", {"n_paths": 0}, ["--paths", "10", "--seed", "3", "--steps", "10"],
         "n_paths must be positive"),
        ("verify", {"seed": 2**64}, ["--paths", "10", "--seed", "3", "--steps", "10"],
         "seed must be a signed 64-bit integer"),
        ("solve", {"grid_points": 1}, ["--steps", "101"], "grid_points must be at least 3"),
        ("check-constraint", {"threshold": -1.0}, ["--tol", "0.5"],
         "threshold must be positive and finite"),
        ("figures", {"points": 2}, ["--steps", "11"], "points must be at least 3"),
    ])
    def test_a_flag_does_not_hide_a_config_value_out_of_range(self, tmp_path, capsys,
                                                              monkeypatch, command, extra,
                                                              flag, message):
        # the config value meets the range rule first; the flag then meets it too
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        with open(os.path.join(ROOT, "perfbench", "configs", "separable_hyp04.json")) as fh:
            config = dict(json.load(fh), **extra)
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out),
                     *flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("path,value", [
        (("model", "x0"), True), (("model", "sigma"), "0.7"), (("model", "T"), "2"),
        (("model", "action", 1), "10"), (("model", "cost", "params", "k"), True),
        (("preferences", "r0"), "0.1"), (("preferences", "gamma_a"), None),
        (("preferences", "discount", "gamma"), True),
        (("preferences", "discount", "alpha"), "0.4"),
    ])
    def test_model_section_numbers_are_read_strictly(self, tmp_path, capsys, path, value):
        # the run settings' rule: a bool or a string is not a number
        bad = json.loads(json.dumps(HM_DU_CONFIG))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        name = "action bound" if path[-2] == "action" else path[-1]
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: bad config: {name} must be a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "check-constraint"])
    @pytest.mark.parametrize("path", [("model",), ("preferences",), ("preferences", "discount")])
    @pytest.mark.parametrize("how", [json.dumps, list, lambda section: None],
                             ids=["text", "list", "null"])
    def test_a_section_that_is_not_an_object_exits_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, path, how):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        bad = _bench_config("separable_hyp04")
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = how(node[path[-1]])
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, bad), "--out", str(out)]) == 1
        where = ".".join(path)
        assert capsys.readouterr().err == f"error: config section '{where}' must be a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "check-constraint"])
    @pytest.mark.parametrize("family,key", [("power", "p"), ("hm_linear", "k")])
    def test_an_infinity_in_a_section_written_as_json_text_reaches_no_reader(
            self, tmp_path, capsys, command, family, key):
        # JSON text becomes data in one place, the strict loader: the same
        # infinite parameter exits 2 in a plain config and 1 in a text section
        config = _bench_config("separable_hyp04")
        config["model"]["cost"] = {"family": family, "params": {key: math.inf}}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert _error_of(capsys) == f"config.model.cost.params.{key} must be finite"
        config["model"] = json.dumps(config["model"])
        assert main([command, "--config", write_config(tmp_path, config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: config section 'model' must be a JSON object\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("params", 5), ("params", "k"), ("params", [1, 2]), ("params", None),
        ("action", 5), ("action", "ab"), ("action", None), ("action", {"lo": 0, "hi": 1}),
    ])
    def test_params_or_action_of_the_wrong_type_exit_1(self, tmp_path, capsys, key, value):
        bad = json.loads(json.dumps(HM_DU_CONFIG))
        if key == "params":
            bad["model"]["cost"]["params"] = value
        else:
            bad["model"]["action"] = value
        assert main(["solve", "--config", write_config(tmp_path, bad), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: bad config: ")

    @pytest.mark.parametrize("command", ["verify", "check-constraint"])
    def test_integral_float_settings_are_integers(self, tmp_path, capsys, command):
        config = {**SEPARABLE_CONFIG, "grid_points": 201.0, "n_paths": 10.0, "n_steps": 10.0,
                  "seed": 3.0}
        rc = main([command, "--config", write_config(tmp_path, config), "--out",
                   str(tmp_path / "out")])
        assert rc in (0, 3)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["solve", "verify", "check-constraint"])
    @pytest.mark.parametrize("points", [2, True, 0])
    def test_too_few_grid_points_exit_1_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       command, points):
        def no_work(*args, **kwargs):
            raise AssertionError(f"{command} started work")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        cfg = write_config(tmp_path, dict(SEPARABLE_CONFIG, grid_points=points))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        want = {2: "at least 3", True: "an integer", 0: "positive"}[points]
        assert capsys.readouterr().err == f"error: grid_points must be {want}\n"
        assert not out.exists()

    @pytest.mark.parametrize("paths,antithetic", [(1, False), (1, True), (2, True)])
    def test_one_estimator_unit_exits_1_before_solving(self, tmp_path, capsys, monkeypatch,
                                                       paths, antithetic):
        # one path, or one antithetic pair, has no standard error: the
        # 3-standard-error checks would fail a sound contract
        def no_work(*args, **kwargs):
            raise AssertionError("verify started work")

        monkeypatch.setattr(cli.closed_form, "solve", no_work)
        with open(os.path.join(ROOT, "perfbench", "configs", "discounted_income.json")) as fh:
            config = dict(json.load(fh), antithetic=antithetic)
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, config), "--out", str(out),
                     "--paths", str(paths), "--steps", "10"]) == 1
        assert capsys.readouterr().err.startswith("error: n_paths must be at least 2")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "check-constraint"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 2**64 - 1, 2**64])
    def test_seed_outside_64_bits_exits_1(self, tmp_path, capsys, command, source, seed):
        config = dict(SEPARABLE_CONFIG, seed=seed) if source == "config" else SEPARABLE_CONFIG
        flag = ["--seed", str(seed)] if source == "flag" else []
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", write_config(tmp_path, config), "--out", str(out),
                       "--paths", "10", "--steps", "10", *flag])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be a signed 64-bit integer\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "check-constraint"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("seed", [2**63 - 1, -2**63, -1])
    def test_seed_at_the_64_bit_bounds_runs(self, tmp_path, capsys, command, source, seed):
        config = dict(SEPARABLE_CONFIG, seed=seed) if source == "config" else SEPARABLE_CONFIG
        flag = ["--seed", str(seed)] if source == "flag" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", write_config(tmp_path, config), "--out",
                       str(tmp_path / "out"), "--paths", "10", "--steps", "10", *flag])
        assert rc in (0, 3)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,extra,key", [
        ("figures", {"horizon": "abc"}, "horizon"),
        ("figures", {"gamma": None}, "gamma"),
        ("figures", {"beta": "x"}, "beta"),
        ("figures", {"lambda": [1]}, "lambda"),
        ("figures", {"alphas": 5}, "alphas"),
        ("figures", {"betas": "abc"}, "betas"),
        ("figures", {"lambdas": [0.1, None]}, "lambdas"),
        ("discount", {"horizon": None}, "horizon"),
        ("discount", {"discounts": 5}, "discounts"),
        ("discount", {"discounts": ["exponential"]}, "discounts"),
        ("figures", {"alphas": [0.1, True]}, "alphas"),
        ("figures", {"betas": ["0.4"]}, "betas"),
        ("figures", {"gamma": "0.05"}, "gamma"),
        ("discount", {"horizon": True}, "horizon"),
        ("discount", {"discounts": [{"variant": "exponential", "gamma": True}]}, "gamma"),
    ])
    def test_unreadable_table_option_exits_1(self, tmp_path, capsys, command, extra, key):
        cfg = write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--steps", "11"]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SEPARABLE_CONFIG).replace('"T": 2.0', '"T": 1' + "0" * 400))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config.model.T must be finite" in _error_of(capsys)

    def test_action_must_be_a_pair(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SEPARABLE_CONFIG))
        bad["model"]["action"] = [0.0]
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "action must be a [lo, hi] pair" in capsys.readouterr().err

    def test_vanishing_terminal_discount_exits_2(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SEPARABLE_CONFIG))
        bad["model"]["T"] = 1e300
        bad["preferences"]["spec"] = "first_best_separable"
        cfg = write_config(tmp_path, bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "f(T) underflows to zero" in _error_of(capsys)


class TestCostExponentNearOne:
    # p = 1.0001 at sigma = 3: the closed-form action |sigma z|^(1/(p-1))
    # overflows before the clamp to the action interval
    @pytest.mark.parametrize("spec,utility,r0", [
        ("first_best_nonseparable", "exponential", -0.8),
        ("first_best_separable", "risk_neutral", 0.05),
        ("separable_rn", "risk_neutral", 0.05),
    ])
    def test_solve_is_clean(self, tmp_path, capsys, spec, utility, r0):
        cfg = json.loads(json.dumps(SEPARABLE_CONFIG))
        power = {"family": "power", "params": {"p": 1.0001}}
        cfg["model"].update(sigma=3.0, drift=power, cost=power)
        gamma = 1.0 if utility == "exponential" else 0.0
        cfg["preferences"].update(agent=utility, principal=utility, gamma_a=gamma,
                                  gamma_p=0.5 * gamma, r0=r0, spec=spec)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out),
                       "--steps", "51"])
        assert rc == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(constant)

        solution = json.loads((out / "solution.json").read_text(), parse_constant=reject)
        assert max(solution["effort"]["values"]) == 10.0


_HUGE = str(10 ** 15)  # float64 elements: numpy refuses the allocation at once


class TestTooLargeForMemory:
    @pytest.mark.parametrize("command,extra,flags", [
        ("verify", {}, ["--paths", "10", "--steps", _HUGE]),
        ("verify", {}, ["--paths", _HUGE]),
        ("solve", {"grid_points": 10 ** 15}, []),
        ("figures", {}, ["--steps", _HUGE]),
        ("discount", {}, ["--steps", _HUGE]),
        ("check-constraint", {}, ["--steps", _HUGE]),
    ])
    def test_a_size_too_large_for_memory_exits_2(self, tmp_path, capsys, command, extra,
                                                 flags):
        cfg = write_config(tmp_path, {**SEPARABLE_CONFIG, **extra})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith("Unable to allocate")
        assert not out.exists() or not os.listdir(out)


_FIGURE_DEFAULTS = {"horizon": 50.0, "points": 501, "gamma": 0.0575,
                    "alphas": (4.0, 0.4, 0.04, 0.004), "betas": (0.1, 0.19, 0.343, 0.569),
                    "lambda": 0.439, "beta": 0.3, "lambdas": (0.439, 0.1927, 0.0371, 0.0013)}
# per subcommand: (its settings at defaults, every flag given, the settings then)
_RESOLVED = {
    "discount": ({"horizon": 50.0, "points": 501}, ["--steps", "11"],
                 {"horizon": 50.0, "points": 11}),
    "solve": ({"grid_points": 2001}, ["--steps", "51"], {"grid_points": 51}),
    "verify": ({"grid_points": 2001, "n_paths": 100000, "n_steps": 2000, "threads": None,
                "seed": 7, "perturb_constant_term": 0.0, "antithetic": False},
               ["--paths", "10", "--steps", "20", "--threads", "2", "--seed", "-3"],
               {"grid_points": 2001, "n_paths": 10, "n_steps": 20, "threads": 2, "seed": -3,
                "perturb_constant_term": 0.0, "antithetic": False}),
    "figures": (_FIGURE_DEFAULTS, ["--steps", "41"], dict(_FIGURE_DEFAULTS, points=41)),
    "check-constraint": ({"grid_points": 2001, "n_paths": 3, "n_steps": 2000, "seed": 7,
                          "threshold": 0.01},
                         ["--paths", "2", "--steps", "30", "--seed", "5", "--tol", "0.5"],
                         {"grid_points": 2001, "n_paths": 2, "n_steps": 30, "seed": 5,
                          "threshold": 0.5}),
}


class TestSettings:
    @pytest.mark.parametrize("command", sorted(_RESOLVED))
    def test_resolved_settings_at_defaults_and_under_every_flag(self, command):
        defaults, flags, flagged = _RESOLVED[command]
        parse = cli._build_parser().parse_args
        # the dict lists the settings in the order they are checked
        assert list(cli._settings({}, parse([command])).items()) == list(defaults.items())
        assert list(cli._settings({}, parse([command, *flags])).items()) == list(flagged.items())

    def test_config_values_are_read_and_flags_replace_them(self):
        cfg = {"grid_points": 301.0, "n_paths": 40, "seed": -1, "antithetic": True,
               "perturb_constant_term": 2, "threads": 4}
        got = cli._settings(cfg, cli._build_parser().parse_args(["verify", "--paths", "6"]))
        # no config key reads threads
        assert got == {"grid_points": 301, "n_paths": 6, "n_steps": 2000, "threads": None,
                       "seed": -1, "perturb_constant_term": 2.0, "antithetic": True}
        assert type(got["grid_points"]) is int and type(got["perturb_constant_term"]) is float
        got = cli._settings({"alphas": [1, 2.5], "horizon": 10},
                            cli._build_parser().parse_args(["figures"]))
        assert got["alphas"] == (1.0, 2.5) and got["horizon"] == 10.0

    @pytest.mark.parametrize("command,flags", [
        ("discount", ["--steps"]), ("solve", ["--steps"]),
        ("verify", ["--paths", "--steps", "--threads", "--seed"]), ("figures", ["--steps"]),
        ("check-constraint", ["--paths", "--steps", "--seed", "--tol"]),
    ])
    def test_help_lists_exactly_the_table_flags(self, capsys, command, flags):
        assert [f"--{row.flag}" for row in cli._SETTINGS[command] if row.flag] == flags
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        options = text[text.index("options:"):]
        listed = [line.split()[0] for line in options.splitlines()
                  if line.lstrip().startswith("--")]
        assert listed == ["--config", "--out", *flags]
        for row in cli._SETTINGS[command]:
            if row.key and row.flag:
                assert f"config key {row.key}, default {json.dumps(row.default)}" in text

    def test_readme_table_holds_exactly_the_settings(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = lines.index("| subcommand | config key | flag | default | range |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        want = [[command, row.key or "—", f"--{row.flag}" if row.flag else "—",
                 json.dumps(row.default), ", ".join(needs for _, needs in row.rules) or "—"]
                for command, table in cli._SETTINGS.items() for row in table]
        assert rows == want
