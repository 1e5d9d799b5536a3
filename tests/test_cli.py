import argparse
import dataclasses
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fracheat.cli import (
    CATALOG,
    CSV_HEADER,
    StudyConfig,
    UsageError,
    main,
    render_csv,
    render_stability,
    render_table,
    run_caputo_order,
    run_convergence,
    run_solve,
    run_stability,
    StabilityReport,
    _ErrorNorms,
)
from fracheat.core import (MAX_NODES, DomainError, Grid, SchemeParams,
                           face_coefficients)
from fracheat.norms import (UndefinedNormError, energy_weights,
                            sigma_threshold)
from fracheat.prng import splitmix64, uniform_symmetric
from fracheat.stepper import block_levels, march, march_blocks

QUICK = dict(gamma=0.5, alpha=2.0, beta=5.0, levels=(5, 10, 20))


def exit_code(argv) -> int:
    """Exit code of the command line, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# seeded generator (interface commitment)
# ---------------------------------------------------------------------------

def test_splitmix64_reference_vector():
    # First outputs for seed 0 from the reference implementation.
    assert splitmix64(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64, 2**65 + 1])
def test_uniform_symmetric_refuses_a_seed_outside_64_bits(seed):
    # Each of these would alias a seed in [0, 2**64) modulo 2**64.
    with pytest.raises(DomainError, match="seed"):
        uniform_symmetric(seed, 3)


def test_uniform_symmetric_takes_both_ends_of_the_seed_range():
    assert splitmix64(2**64 - 1, 3) != splitmix64(0, 3)
    for seed in (0, 2**64 - 1):
        a = uniform_symmetric(seed, 5)
        assert a.shape == (5,) and np.all(a >= -1.0) and np.all(a < 1.0)


def test_uniform_symmetric_range_and_determinism():
    a = uniform_symmetric(99, 1000)
    b = uniform_symmetric(99, 1000)
    assert np.array_equal(a, b)
    assert np.all(a >= -1.0) and np.all(a < 1.0)
    assert abs(float(np.mean(a))) < 0.1


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------

def test_csv_schema_and_determinism():
    config = StudyConfig(**QUICK)
    text1 = render_csv(run_convergence(config))
    text2 = render_csv(run_convergence(config))
    assert text1 == text2
    lines = text1.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2.00000e-01"
    assert first[4] == "" and first[6] == ""   # no orders on the first row
    assert len(first) == 7


def test_orders_recompute_from_printed_errors():
    report = run_convergence(StudyConfig(**QUICK))
    lines = render_csv(report).strip().split("\n")[1:]
    prev = None
    for line in lines:
        h, _, _, err_full, co_full, err_max, co_max = line.split(",")
        if prev is not None:
            ph, perr_full, perr_max = prev
            expect_full = (math.log(float(perr_full) / float(err_full))
                           / math.log(float(ph) / float(h)))
            expect_max = (math.log(float(perr_max) / float(err_max))
                          / math.log(float(ph) / float(h)))
            assert float(co_full) == pytest.approx(expect_full, rel=1e-4)
            assert float(co_max) == pytest.approx(expect_max, rel=1e-4)
        prev = (h, err_full, err_max)


def test_balanced_coupling_bounds_tau_on_every_level():
    report = run_convergence(StudyConfig(**QUICK))
    for row in report.rows:
        assert row.tau <= row.h ** (2.0 / (2.0 - 0.5)) * (1 + 1e-12)


def test_norm_subset_leaves_columns_empty():
    report = run_convergence(StudyConfig(**QUICK, norms=("full",)))
    for line in render_csv(report).strip().split("\n")[1:]:
        parts = line.split(",")
        assert parts[3] != "" and parts[5] == "" and parts[6] == ""


def test_table_rendering_mentions_blowups():
    config = StudyConfig(gamma=0.4, alpha=0.1, beta=10.0, levels=(30, 60))
    report = run_convergence(config)
    text = render_table(report)
    assert "blew up" in text
    assert "gamma=0.4" in text


def test_study_builds_its_problem_once(monkeypatch):
    builds = []
    build = CATALOG["mms-cubic"]
    monkeypatch.setitem(CATALOG, "mms-cubic",
                        lambda **kw: builds.append(kw) or build(**kw))
    assert len(run_convergence(StudyConfig(**QUICK)).rows) == 3
    assert len(builds) == 1


def error_history(levels, problem, grid):
    """Error norms of a level array, folded in blocks of ``block_levels``."""
    errors = _ErrorNorms(problem, grid)
    rows = block_levels(levels.shape[1])
    for first in range(0, len(levels), rows):
        errors(first, levels[first:first + rows])
    return errors.full, errors.max


def test_error_history_maps_non_finite_levels_to_inf():
    problem = CATALOG["zero"]()
    levels = np.zeros((4, 5))
    levels[1, 2] = math.nan
    levels[2, 0] = -math.inf
    levels[3, 1] = 1e200
    full, mx = error_history(levels, problem, Grid(N=4, Nt=3))
    assert full == [0.0, math.inf, math.inf, math.inf]
    assert mx == [0.0, math.inf, math.inf, 1e200]


def per_level_errors(history, problem, grid):
    """Error norms one level at a time: the reference for the blocked loop.

    The exact solution is the callback at the levels' time array, as the
    blocked loop samples it.
    """
    x, h = grid.x, grid.h
    t = np.arange(len(history)) * grid.tau
    full, mx = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        exact = np.asarray(problem.exact(x[None, :], t[:, None]), dtype=float)
        for y, u in zip(history, exact):
            z = y - u
            full.append(float(np.sqrt(0.5 * h * (z[0] ** 2 + z[-1] ** 2)
                                      + h * np.sum(z[1:-1] ** 2))))
            mx.append(float(np.max(np.abs(z))))
    return ([math.inf if math.isnan(e) else e for e in full],
            [math.inf if math.isnan(e) else e for e in mx])


def unstable_history_with_non_finite_rows():
    problem = CATALOG["mms-cubic"](alpha=0.1, beta=10.0, gamma=0.4)
    grid = Grid.balanced(80, 0.4)
    outcome = march(problem, grid, SchemeParams(1.0))
    assert outcome.blow_up is not None
    levels = outcome.history.copy()
    levels[3, 5] = math.inf
    levels[7] = math.nan
    levels[10, 2] = 1e200           # its square overflows
    levels[11, 4] = -math.inf
    return problem, grid, levels


@pytest.mark.parametrize("case", ["601-levels", "wide-grid", "callback-exact",
                                  "unstable-non-finite"])
def test_blocked_error_history_matches_the_per_level_loop(case):
    if case == "unstable-non-finite":
        problem, grid, history = unstable_history_with_non_finite_rows()
        full, mx = error_history(history, problem, grid)
    else:
        problem = CATALOG["mms-cubic"](alpha=3.0, beta=2.0, gamma=0.5)
        # 601 = 2*256 + 89 levels; 601 nodes give blocks of 109 levels.
        if case == "wide-grid":
            grid = Grid(N=600, Nt=250)
        else:
            grid = Grid(N=20, Nt=600)
        if case == "callback-exact":
            exact = problem.exact
            problem = dataclasses.replace(problem,
                                          exact=lambda x, t: exact(x, t))
        # the errors fold the march's own blocks, as the studies do
        errors = _ErrorNorms(problem, grid)
        march_blocks(problem, grid, SchemeParams(1.0), errors)
        full, mx = errors.full, errors.max
        history = march(problem, grid, SchemeParams(1.0)).history
    assert (full, mx) == per_level_errors(history, problem, grid)
    assert len(full) == len(history)


def test_config_validation_messages():
    # A config is checked when it is made, so no invalid one exists.
    with pytest.raises(UsageError, match="levels"):
        StudyConfig(gamma=0.5, alpha=2.0, beta=5.0, levels=(20, 20))
    with pytest.raises(UsageError, match="problem"):
        StudyConfig(gamma=0.5, alpha=2.0, beta=5.0, problem="missing")
    with pytest.raises(UsageError, match="tau"):
        StudyConfig(gamma=0.5, alpha=2.0, beta=5.0, coupling="fixed")
    with pytest.raises(UsageError, match="tau"):
        StudyConfig(gamma=0.5, alpha=2.0, beta=5.0, tau=0.001)


# ---------------------------------------------------------------------------
# command line entry points
# ---------------------------------------------------------------------------

def test_solve_zero_problem_writes_zero_csv(tmp_path):
    out = tmp_path / "zero.csv"
    code = main(["solve", "--problem", "zero", "--n", "8", "--nt", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x,y"
    assert len(lines) == 10
    assert all(line.split(",")[1] == "0.00000e+00" for line in lines[1:])


def test_solve_history_output(tmp_path):
    out = tmp_path / "hist.csv"
    code = main(["solve", "--problem", "zero", "--n", "4", "--nt", "3",
                 "--out", str(out), "--history"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x,y"
    assert len(lines) == 1 + 4 * 5


def test_streamed_history_holds_every_level_of_the_march(tmp_path):
    # 301 levels of 9 nodes span two data blocks of the march.
    out = tmp_path / "hist.csv"
    assert main(["solve", "--n", "8", "--nt", "300", "--out", str(out),
                 "--history"]) == 0
    problem = CATALOG["mms-cubic"](alpha=1.0, beta=1.0, gamma=0.5, T=1.0)
    grid = Grid(N=8, Nt=300)
    history = march(problem, grid, SchemeParams(1.0)).history
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == history.size
    assert [float(y) for _, _, y in rows] == [
        float(f"{y:.5e}") for y in history.ravel().tolist()]
    assert [float(t) for t, _, _ in rows[::9]] == [
        float(f"{n * grid.tau:.5e}") for n in range(301)]


def test_solve_holds_no_array_of_every_level():
    # The march's increments take (Nt, N+1) floats, the same as the
    # levels; a solve that kept both arrays would peak above their sum.
    grid = Grid.balanced(320, 0.5)
    arrays = (2 * grid.Nt + 1) * (grid.N + 1) * 8
    tracemalloc.start()
    try:
        result = run_solve("mms-cubic", alpha=3.0, beta=2.0, gamma=0.5,
                           T=1.0, N=320, Nt=None, sigma=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.blow_up is None and len(result.err_full) == grid.Nt + 1
    assert peak < arrays


@pytest.mark.parametrize("history", [[], ["--history"]],
                         ids=["last-level", "history"])
def test_a_refused_march_creates_no_out_file(history, tmp_path, capsys):
    out = tmp_path / "F"
    assert exit_code(["solve", "--alpha", "1e154", "--beta", "1e-154",
                      "--n", "4", "--nt", "4", "--out", str(out)]
                     + history) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "-1e-3", "--beta", "-2", "--n", "4", "--nt", "4"],
    ["convergence", "--alpha", "-1e-3", "--beta", "-2E0", "--levels", "4,8"],
    ["stability", "--alpha", "-2e0", "--beta", "-3e+0", "--n", "4",
     "--nt", "4", "--sigma", "5e-1"],
], ids=["solve", "convergence", "stability"])
def test_negative_numbers_in_scientific_notation_follow_a_space(argv, capsys):
    joined = argv[:1] + [f"{flag}={value}"
                         for flag, value in zip(argv[1::2], argv[2::2])]
    assert exit_code(joined) == 0
    expected = capsys.readouterr()
    assert exit_code(argv) == 0
    assert capsys.readouterr() == expected


def test_solve_prints_error_norms(capsys):
    code = main(["solve", "--gamma", "0.5", "--alpha", "0.7", "--beta", "0.1",
                 "--n", "20"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "err_full_final=" in captured
    peak = float(captured.split("err_full_peak=")[1].split("\n")[0])
    assert peak == pytest.approx(2.19544e-2, rel=0.05)


def test_solve_reports_a_blow_up_and_fails_on_it_when_asked(capsys):
    argv = ["solve", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4",
            "--n", "80"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "blow_up_level=202" in lines
    assert [line for line in lines if line.startswith("blow_up_norm=")]
    assert main(argv + ["--fail-on-blowup"]) == 3


def test_cli_solve_does_not_load_the_quadrature_oracle(run_fresh):
    # scipy.integrate is for caputo-order and the compatibility check only,
    # and a march loads scipy's LAPACK extension without scipy.linalg.
    code = ("import sys\n"
            "from fracheat.cli import main\n"
            "assert main(['solve', '--n', '8', '--nt', '4']) == 0\n"
            "assert main(['convergence', '--levels', '4,8']) == 0\n"
            "assert main(['stability', '--n', '8', '--nt', '4']) == 0\n"
            "loaded = {'scipy.integrate', 'scipy.linalg'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr


def test_unknown_problem_lists_catalog(capsys):
    code = main(["solve", "--problem", "nope", "--n", "8"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mms-cubic" in err and "zero" in err


def test_bad_levels_are_usage_errors(capsys):
    code = main(["convergence", "--levels", "40,20"])
    assert code == 2
    assert "levels" in capsys.readouterr().err


def test_convergence_cli_writes_csv(tmp_path):
    out = tmp_path / "study.csv"
    code = main(["convergence", "--gamma", "0.5", "--alpha", "2", "--beta",
                 "5", "--levels", "5,10", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_fail_on_blowup_exit_code(tmp_path):
    out = tmp_path / "unstable.csv"
    code = main(["convergence", "--gamma", "0.4", "--alpha", "0.1",
                 "--beta", "10", "--levels", "30,60", "--out", str(out),
                 "--fail-on-blowup"])
    assert code == 3
    assert out.exists()   # report still written


def test_json_config_with_flag_override(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"gamma": 0.5, "alpha": 2.0, "beta": 5.0,
                               "levels": [5, 10], "format": "csv"}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["convergence", "--config", str(cfg),
                 "--out", str(out1)]) == 0
    assert main(["convergence", "--config", str(cfg), "--levels", "5,10",
                 "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_later_calls_reuse_the_parser(tmp_path, monkeypatch):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"levels": [4, 8]}))
    assert main(["convergence", "--levels", "4,8"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["convergence", "--levels", "4,8"]) == 0
    assert main(["convergence", "--config", str(cfg), "--norms", "max"]) == 0
    assert exit_code(["solve", "--levels", "4,8"]) == 2
    assert built == []


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"levels": [4, 8], "norms": ["max"]}))
    assert main(["convergence", "--config", str(cfg)]) == 0
    assert exit_code(["convergence", "--levels", "4,x"]) == 2
    capsys.readouterr()
    assert main(["convergence", "--alpha", "2", "--beta", "5"]) == 0
    assert capsys.readouterr().out == render_csv(run_convergence(
        StudyConfig(gamma=0.5, alpha=2.0, beta=5.0)))


# ---------------------------------------------------------------------------
# operator order command
# ---------------------------------------------------------------------------

def test_caputo_order_report_orders():
    taus = [0.05, 0.025, 0.0125, 0.00625, 0.003125]
    report = run_caputo_order([0.5, 0.9], taus, "cubic")
    assert report.fitted_order(0.5) == pytest.approx(1.5, abs=0.1)
    assert report.fitted_order(0.9) == pytest.approx(1.1, abs=0.1)


def test_caputo_order_linear_function_is_exact():
    report = run_caputo_order([0.5], [0.05, 0.025, 0.0125], "linear")
    for row in report.rows:
        assert row.error <= 1e-12


def test_caputo_order_rejects_unknown_function():
    with pytest.raises(UsageError, match="function"):
        run_caputo_order([0.5], [0.1], "sine")


def test_caputo_order_cli_output(capsys):
    code = main(["caputo-order", "--gammas", "0.5", "--taus", "0.1,0.05",
                 "--function", "cubic"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("function=cubic")
    assert "gamma,tau,error,order" in out


# ---------------------------------------------------------------------------
# stability command
# ---------------------------------------------------------------------------

def test_stability_pass_and_determinism(capsys):
    assert main(["stability", "--gamma", "0.5", "--alpha", "2", "--beta",
                 "3", "--n", "12", "--nt", "20", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["stability", "--gamma", "0.5", "--alpha", "2", "--beta",
                 "3", "--n", "12", "--nt", "20", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.strip().endswith("PASS")
    assert "threshold=" in first


def test_stability_reports_sequence_and_threshold():
    report = run_stability(0.5, 2.0, 3.0, "1.0", N=12, Nt=20, seed=3)
    assert len(report.norms) == 21
    assert report.passed
    assert report.sigma == 1.0
    assert 0.0 < report.threshold < 1.0
    at_threshold = run_stability(0.5, 2.0, 3.0, "threshold", N=12, Nt=20,
                                 seed=3)
    assert at_threshold.sigma == pytest.approx(at_threshold.threshold)
    assert at_threshold.passed


def test_stability_initial_level_respects_value_coupling():
    report = run_stability(0.5, 2.0, 3.0, "1.0", N=12, Nt=5, seed=11)
    assert report.norms[0] > 0.0
    u0 = uniform_symmetric(11, 13)
    u0[0] = 2.0 * u0[-1]
    # The reported initial norm corresponds to the projected data.
    from fracheat.core import Grid, face_coefficients
    from fracheat.manufactured import build_manufactured
    from fracheat.norms import energy_norm
    problem = build_manufactured(2.0, 3.0, 0.5)
    grid = Grid(N=12, Nt=5)
    face = face_coefficients(problem, grid)
    assert report.norms[0] == pytest.approx(
        energy_norm(u0, problem, grid, face), rel=1e-12)


def test_stability_refuses_mixed_regime(capsys):
    code = main(["stability", "--gamma", "0.4", "--alpha", "0.1",
                 "--beta", "10", "--n", "12", "--nt", "10"])
    assert code == 2
    assert "undefined" in capsys.readouterr().err


def test_stability_refusal_is_an_exception():
    with pytest.raises(UndefinedNormError):
        run_stability(0.4, 0.1, 10.0, "1.0", N=8, Nt=5)


def test_non_finite_norms_print_as_inf_and_nan():
    report = StabilityReport(sigma=1.0, threshold=0.5,
                             norms=(1.0, math.inf, math.nan), passed=False)
    assert render_stability(report).splitlines()[3:6] == [
        "0,1.00000e+00", "1,inf", "2,nan"]


@given(gamma=st.floats(0.05, 0.95), reflected=st.booleans(),
       negative=st.booleans(), alpha_exp=st.floats(0.0, 3.0),
       ratio_exp=st.floats(0.0, 3.0), place=st.floats(0.0, 1.0),
       N=st.integers(2, 12), Nt=st.integers(1, 30),
       seed=st.integers(1, 2**63 - 1))
def test_energy_never_grows_for_sigma_from_threshold_to_one(
        gamma, reflected, negative, alpha_exp, ratio_exp, place, N, Nt, seed):
    # Admissible pairs: 1 <= |alpha| <= |beta| (direct regime), or their
    # reciprocals (reflected regime), both of one sign.
    alpha, beta = 10.0**alpha_exp, 10.0 ** (alpha_exp + ratio_exp)
    if reflected:
        alpha, beta = 1.0 / alpha, 1.0 / beta
    if negative:
        alpha, beta = -alpha, -beta
    threshold = min(max(sigma_threshold(gamma, 1.0 / N, 1.0 / Nt, math.e),
                        0.0), 1.0)
    sigma = threshold + place * (1.0 - threshold)
    report = run_stability(gamma, alpha, beta, sigma, N=N, Nt=Nt, seed=seed)
    assert max(report.norms) <= report.norms[0] * (1.0 + 1e-12)


def test_stability_failure_renders_fail_line():
    report = StabilityReport(sigma=0.0, threshold=0.5,
                             norms=(1.0, 2.0), passed=False)
    assert render_stability(report).strip().endswith("FAIL")


@pytest.mark.parametrize("alpha, beta", [(2.0, 3.0), (0.5, 0.2)],
                         ids=["direct", "reflected"])
def test_blocked_stability_norms_equal_one_pass_norms(alpha, beta):
    # At N = 300 a norm block holds 217 levels, so 601 levels span three.
    N, Nt, seed = 300, 600, 4
    report = run_stability(0.5, alpha, beta, 1.0, N=N, Nt=Nt, seed=seed)
    problem = CATALOG["zero"](alpha=alpha, beta=beta, gamma=0.5, T=1.0)
    grid = Grid(N=N, Nt=Nt)
    u0 = uniform_symmetric(seed, N + 1)
    u0[0] = alpha * u0[-1]
    history = march(problem, grid, SchemeParams(1.0), y0=u0).history
    weights = energy_weights(problem, grid, face_coefficients(problem, grid))
    assert report.norms == tuple(weights.norms(history, grid.h).tolist())


# ---------------------------------------------------------------------------
# one typed option path for flags and config files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["solve", "--sigma", "threshold"],
    ["stability", "--sigma", "abc"],
    ["solve", "--alpha", "inf", "--n", "4", "--nt", "2"],
    ["convergence", "--levels", "5,x"],
    ["caputo-order", "--taus", "0"],
    ["caputo-order", "--taus", "nan"],
    ["caputo-order", "--t", "inf"],
    ["caputo-order", "--function", "exp", "--t", "800", "--taus", "400"],
    ["caputo-order", "--taus", "1e-300"],
    ["caputo-order", "--gammas", "0.5", "--taus", "0.5,0.5"],
    ["caputo-order", "--gammas", "0.5", "--taus", "0.1,0.10000000001,0.05"],
    ["convergence", "--coupling", "fixed", "--tau", "1e-300",
     "--levels", "4,8"],
    ["convergence", "--t", "1e300", "--levels", "4,8"],
    ["solve", "--n", "4", "--nt", "100000000000000000000"],
    ["solve", "--problem", "zero", "--alpha", "1e200", "--beta", "1e200",
     "--sigma", "0", "--n", "8", "--nt", "20"],
    ["solve", "--problem", "zero", "--alpha", "1e154", "--beta", "1e154",
     "--sigma", "0", "--n", "8", "--nt", "20"],
    ["solve", "--alpha", "1e154", "--beta", "1e154", "--n", "8", "--nt", "20"],
    ["stability", "--alpha", "1e200", "--beta", "1e200", "--n", "8",
     "--nt", "20"],
    ["stability", "--alpha", "1e-160", "--beta", "1e-160", "--n", "8",
     "--nt", "20"],
    ["solve", "--n", "100000000000000000000", "--nt", "5"],
    ["stability", "--n", str(MAX_NODES + 1)],
    ["convergence", "--levels", f"4,{MAX_NODES + 1}"],
    ["solve", "--n", "1000000", "--nt", "1000000"],
    ["stability", "--n", "100000", "--nt", "1000000"],
    ["convergence", "--levels", "20,40,20000"],
    ["solve", "--format", "table"],
    ["solve", "--seed", "9"],
    ["convergence", "--seed", "3"],
    ["caputo-order", "--alpha", "5", "--sigma", "0.3", "--fail-on-blowup"],
    ["stability", "--fail-on-blowup", "--format", "table"],
    ["caputo-order", "--gamma", "0.3"],
    ["solve", "--n", "8", "--nt", "0"],
    ["caputo-order", "--gammas", ","],
    ["caputo-order", "--taus", ","],
    ["convergence", "--tau", "0.001", "--levels", "10,20"],
    ["convergence", "--levels", "4,8", "--t", "1e-320"],
    ["stability", "--n", "4", "--nt", "3", "--t", "1e-320"],
    ["solve", "--n", "4", "--nt", "1000", "--t", "1e-305"],
    ["caputo-order", "--t", "1e-310", "--taus", "1e-310"],
    ["caputo-order", "--gammas", "0.5,0.5", "--taus", "0.1,0.05"],
    ["convergence", "--levels", "1"],
    ["convergence", "--levels", "4,8", "--norms", "full,avg"],
    ["caputo-order", "--taus", "0.3"],
    ["stability", "--seed", "-1"],
    ["stability", "--seed", str(2**64)],
    ["convergence", "--alpha", "1e154", "--beta", "1e-154", "--levels", "4,8"],
    ["convergence", "--alpha", "1e154", "--beta", "1e-154", "--levels", "4,8",
     "--sigma", "0.5"],
    ["stability", "--alpha", "1e150", "--beta", "1e150", "--n", "4",
     "--nt", "5"],
    ["solve", "--alpha", "1e154", "--beta", "1e-154", "--n", "4", "--nt", "4"],
    ["convergence", "--coupling", "fixed", "--tau", "inf", "--levels", "4,8"],
], ids=["solve-sigma-threshold", "stability-sigma-abc", "solve-alpha-inf",
        "levels-not-integers", "caputo-taus-zero", "caputo-taus-nan",
        "caputo-t-inf", "caputo-exp-overflow", "caputo-taus-tiny",
        "caputo-taus-repeated", "caputo-taus-same-steps", "fixed-tau-tiny", "balanced-t-huge",
        "solve-nt-huge", "coupling-product-overflows",
        "singular-closure", "nan-closure-pivot", "stability-product-overflows",
        "stability-weights-overflow", "solve-n-huge", "stability-n-over-limit",
        "levels-over-limit", "solve-levels-over-limit",
        "stability-levels-over-limit", "convergence-levels-over-limit",
        "solve-format", "solve-seed", "convergence-seed",
        "caputo-order-scheme-options", "stability-study-options",
        "caputo-order-gamma-prefix", "solve-nt-zero", "caputo-gammas-empty",
        "caputo-taus-empty", "balanced-tau", "convergence-t-subnormal",
        "stability-t-subnormal", "solve-tau-subnormal",
        "caputo-t-subnormal", "caputo-gammas-repeated", "levels-below-2",
        "norms-unknown", "caputo-tau-not-dividing", "stability-seed-negative",
        "stability-seed-too-large", "convergence-initial-level-too-large",
        "convergence-initial-level-too-large-sigma-half",
        "stability-initial-level-too-large", "solve-initial-level-too-large",
        "fixed-tau-inf"])
def test_bad_flags_exit_2_with_a_message(argv, capsys):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err.splitlines()[-1] and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--alpha", "1e154", "--beta", "1e154", "--n", "8", "--nt", "20"],
    ["solve", "--problem", "zero", "--alpha", "1e154", "--beta", "1e154",
     "--sigma", "0", "--n", "8", "--nt", "20"],
    ["stability", "--alpha", "1e154", "--beta", "1e154", "--n", "8",
     "--nt", "20"],
    ["solve", "--n", "100000000000000000000", "--nt", "5"],
    ["caputo-order", "--function", "exp", "--t", "709", "--taus", "709"],
    ["solve", "--n", "4", "--nt", "3", "--history"],
], ids=["overflowing-operator", "overflowing-operator-sigma-0",
        "stability-overflowing-operator", "huge-node-count",
        "caputo-inaccurate-quadrature", "solve-history-without-out"])
def test_refused_extremes_print_only_the_error_line(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(argv) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["solve", "--t", "1e110", "--n", "2", "--nt", "2", "--sigma", "0"],
    ["convergence", "--t", "1e110", "--levels", "2", "--coupling", "fixed",
     "--tau", "5e109", "--sigma", "0"],
], ids=["solve", "convergence"])
def test_a_final_time_past_the_time_factors_range_exits_2(argv, capsys):
    # t**3 overflows above t = 5.6e102; the builder refuses T before the
    # march, so the march never samples the time factors there.
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "T=1e+110" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["convergence", "--levels", "4,8", "--t", "1e-300"],
     "error: the time profile does not change over [0, T] at the final "
     "time T=1e-300\n"),
    (["caputo-order", "--t", "1e-300", "--taus", "1e-300,5e-301"],
     "error: t: 'cubic' does not change over [0, t] at t=1e-300\n"),
], ids=["convergence", "caputo-order"])
def test_a_final_time_at_which_nothing_changes_exits_2(argv, message, capsys):
    # t**3 - t**2 + t + 1 and t**3 round to their values at 0 there, so
    # every error, and every order fitted to them, would be roundoff.
    assert exit_code(argv) == 2
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "8", "--nt", "5"],
    ["convergence", "--levels", "4,8"],
    ["caputo-order"],
    ["stability", "--n", "8", "--nt", "5"],
], ids=["solve", "convergence", "caputo-order", "stability"])
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert exit_code(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: out: ")
    assert not out.parent.exists()


def test_a_wrapper_by_name_sees_every_march(monkeypatch, capsys):
    # A tracer wraps the name the commands call; it times each whole march
    # and reads its result, the blow-up record or None.
    results = []

    def traced(*args, **kwargs):
        results.append(march_blocks(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr("fracheat.cli.march_blocks", traced)
    assert main(["convergence", "--levels", "4,8"]) == 0
    assert results == [None, None]
    results.clear()
    assert main(["solve", "--alpha", "0.1", "--beta", "10", "--gamma", "0.4",
                 "--n", "80"]) == 0
    [blow] = results
    assert f"blow_up_level={blow.level}\n" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["missing/x.csv", ".", "file/x.csv", ""],
                         ids=["missing-directory", "directory",
                              "file-as-directory", "empty"])
def test_unwritable_out_is_refused_before_the_march(out, tmp_path,
                                                     monkeypatch, capsys):
    def no_march(*args, **kwargs):
        raise AssertionError("march ran before --out was checked")

    monkeypatch.setattr("fracheat.cli.march_blocks", no_march)
    (tmp_path / "file").write_text("a regular file\n")
    assert exit_code(["solve", "--n", "640",
                      "--out", str(tmp_path / out) if out else ""]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out: ") and len(err.splitlines()) == 1
    assert (tmp_path / "file").read_text() == "a regular file\n"


def test_usage_error_leaves_an_existing_out_file_alone(tmp_path, capsys):
    out = tmp_path / "kept.csv"
    out.write_text("earlier output\n")
    assert exit_code(["solve", "--n", "8", "--nt", "0",
                      "--out", str(out)]) == 2
    assert out.read_text() == "earlier output\n"


def test_tiny_coupling_product_still_solves(capsys):
    assert exit_code(["solve", "--alpha", "1e-160", "--beta", "1e-160",
                      "--n", "8", "--nt", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count("=") == 4 and "inf" not in out and "nan" not in out


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"gamma": "abc"}),
    ("solve", {"n": 2.5}),
    ("convergence", {"coupling": "fixed", "tau": "0.3"}),
    ("convergence", {"levels": [5, 10.5]}),
    ("solve", {"out": True}),
    ("solve", {"problem": 3}),
    ("solve", {"gama": 0.5}),
    ("solve", {"history": True}),
    ("solve", {"format": "table"}),
    ("solve", {"seed": 9}),
    ("convergence", {"seed": 3}),
    ("caputo-order", {"alpha": 5.0}),
    ("caputo-order", {"sigma": 0.3}),
    ("stability", {"format": "table"}),
    ("convergence", {"tau": 0.001}),
], ids=["gamma-text", "n-fraction", "tau-text", "levels-fraction",
        "out-bool", "problem-number", "unknown-key", "switch-key",
        "solve-format-key", "solve-seed-key", "convergence-seed-key",
        "caputo-order-alpha-key", "caputo-order-sigma-key",
        "stability-format-key", "balanced-tau-key"])
def test_bad_config_values_exit_2_with_a_message(command, cfg, tmp_path,
                                                 capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert exit_code([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("content", [b"{not json", b'{"gamma": "\xff"}',
                                     b"[1, 2]", b""],
                         ids=["not-json", "not-utf8", "not-object", "empty"])
def test_unreadable_config_exits_2(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert exit_code(["solve", "--config", str(path)]) == 2
    assert "config" in capsys.readouterr().err


def test_config_values_parse_like_flags(tmp_path, capsys):
    # Negative numbers in exponent form would read as options if they
    # were passed as separate arguments.
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"alpha": -1e-05, "beta": -2e-05, "n": 6,
                               "nt": 4, "T": 0.5}))
    assert exit_code(["solve", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert exit_code(["solve", "--alpha=-1e-05", "--beta=-2e-05", "--n", "6",
                      "--nt", "4", "--t", "0.5"]) == 0
    assert capsys.readouterr().out == from_config
    for levels in ("5,10", [5, 10]):
        cfg.write_text(json.dumps({"levels": levels, "gamma": 0.5}))
        assert exit_code(["convergence", "--config", str(cfg),
                          "--alpha", "2", "--beta", "5"]) == 0
        assert capsys.readouterr().out == render_csv(
            run_convergence(StudyConfig(gamma=0.5, alpha=2.0, beta=5.0,
                                        levels=(5, 10))))


# Wrong-typed JSON values per option kind.  None of them is a valid value,
# so no example can start a march larger than the fixed tiny mesh flags.
_NESTED = st.lists(st.lists(st.integers(), max_size=2), min_size=1,
                   max_size=2)
_ALWAYS_WRONG = st.booleans() | st.none() | _NESTED
_WRONG = {
    "float": _ALWAYS_WRONG | st.text(max_size=8)
    | st.lists(st.floats(), min_size=1, max_size=2),
    "int": _ALWAYS_WRONG | st.text(max_size=8)
    | st.floats().filter(lambda v: not float(v).is_integer()),
    "sigma": _ALWAYS_WRONG,
    "text": _ALWAYS_WRONG | st.integers() | st.floats(),
    "ints": _ALWAYS_WRONG | st.lists(st.booleans() | st.none(), min_size=1,
                                     max_size=2)
    | st.floats().filter(lambda v: not float(v).is_integer()),
    "list": _ALWAYS_WRONG | st.lists(st.booleans() | st.none(), min_size=1,
                                     max_size=2),
}
_COMMON = {"T": "float", "out": "text"}
_SCHEME = {**_COMMON, "gamma": "float", "alpha": "float", "beta": "float",
           "sigma": "float"}
# Subcommand -> (flags fixing a tiny mesh, kind of every config key).
_COMMANDS = {
    "solve": (["--n", "4", "--nt", "3", "--t", "1"],
              {**_SCHEME, "problem": "text", "n": "int", "nt": "int"}),
    "convergence": (["--levels", "4,6", "--coupling", "balanced", "--t", "1"],
                    {**_SCHEME, "problem": "text", "levels": "ints",
                     "coupling": "text", "tau": "float", "norms": "list",
                     "format": "text"}),
    "caputo-order": (["--gammas", "0.5", "--taus", "0.5,0.25", "--t", "1"],
                     {**_COMMON, "gammas": "list", "taus": "list",
                      "function": "text"}),
    "stability": (["--n", "4", "--nt", "3", "--t", "1"],
                  {**_SCHEME, "sigma": "sigma", "n": "int", "nt": "int",
                   "seed": "int"}),
}


@given(st.data())
def test_wrong_typed_config_values_never_raise(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    flags, kinds = _COMMANDS[command]
    keys = data.draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                              max_size=3, unique=True))
    cfg = {key: data.draw(_WRONG[kinds[key]], label=key) for key in keys}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(Path(tmp) / "out.txt")
        code = exit_code([command, "--config", str(path), "--out", out,
                          *flags])
    assert code in (0, 1, 2, 3)


# Random command lines: each subcommand's own flags (but not --out and
# --config) with values that probe the edges of every option type.  The
# flags that fix the mesh and the time span come last and win, so every
# example stays small.
_VALUES = ("0", "-1", "nan", "inf", "1e-300", "1e300", "1e154", "0.5",
           "threshold", "zero", "fixed", "table", "max", "abc")
_SWITCHES = ("--history", "--fail-on-blowup")
_FLAGS = ("--gamma", "--alpha", "--beta", "--sigma")
_TINY_SOLVE = ["--n", "4", "--nt", "5", "--t", "1"]
_ARGV = {
    "solve": (_FLAGS + ("--problem", "--n", "--nt") + _SWITCHES, _TINY_SOLVE),
    "convergence": (_FLAGS + ("--problem", "--levels", "--coupling", "--tau",
                              "--norms", "--format", "--fail-on-blowup"),
                    ["--levels", "4,8", "--coupling", "balanced",
                     "--t", "1"]),
    "caputo-order": (("--gammas", "--taus", "--function"),
                     ["--taus", "0.5,0.25", "--t", "1"]),
    "stability": (_FLAGS + ("--n", "--nt", "--seed"), _TINY_SOLVE),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_ARGV)))
    flags, tiny = _ARGV[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags),
                              max_size=4)):
        argv.append(flag)
        if flag not in _SWITCHES:
            argv.append(draw(st.sampled_from(_VALUES)))
    return argv + tiny


# Random draws seldom pair two extreme couplings, so the pairs whose
# product or weights overflow are given as explicit examples.
@given(command_lines())
@example(["stability", "--alpha", "1e300", "--beta", "1e300", *_TINY_SOLVE])
@example(["stability", "--alpha", "1e154", "--beta", "1e154", "--sigma", "0",
          *_TINY_SOLVE])
@example(["solve", "--alpha", "1e300", "--beta", "1e154", "--sigma", "0",
          *_TINY_SOLVE])
@example(["solve", "--t", "1e110", "--n", "2", "--nt", "2", "--sigma", "0"])
def test_random_argv_ends_with_a_documented_exit_code(argv):
    assert exit_code(argv) in (0, 1, 2, 3)
