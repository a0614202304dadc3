"""End-to-end tests of the command line frontend (in-process, apart from
one console run of a refused series order)."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import classprop
from classprop import cli, matgroup, stats
from classprop.series import sl_coset_series
from oracles import expectation_by_sets


def run(tmp_path, *argv):
    out = tmp_path / "report.out"
    code = cli.main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(tmp_path, *argv):
    code, text = run(tmp_path, *argv)
    return code, json.loads(text) if text else None


def frac(s):
    return Fraction(s)


# ---------------------------------------------------------------------------
# limit

def test_limit_encloses_reference_value(tmp_path):
    code, doc = run_json(tmp_path, "limit", "--family", "gl",
                         "--q", "2", "--t", "1", "--tol", "1e-6")
    assert code == cli.EXIT_OK
    assert doc["schema"] == "classprop-report-1"
    assert doc["version"] == classprop.__version__
    assert doc["config"]["command"] == "limit"
    res = doc["result"]
    lo, hi = frac(res["lo"]), frac(res["hi"])
    assert lo <= Fraction("0.2887881") <= hi
    assert hi - lo <= Fraction("1e-6")
    assert abs(res["q_infinity"] - 0.3678794411714423) < 1e-12


@pytest.mark.parametrize("argv", [
    ["limit", "--family", "gl", "--q", "2", "--t", "1"],
    ["verify", "--suite", "bounds", "--q-list", "2", "--t-list", "1"],
])
@pytest.mark.parametrize("tol", ["1/0", "0", "-1e-6", "abc"])
def test_tol_must_be_a_positive_rational(tmp_path, capsys, argv, tol):
    code, text = run(tmp_path, *argv, f"--tol={tol}")
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err == \
        f"classprop: --tol must be a positive rational, not {tol!r}\n"


def test_limit_below_the_taylor_floor_is_a_usage_error(tmp_path, capsys):
    code, text = run(tmp_path, "limit", "--family", "gl", "--q", "2", "--t", "1",
                     "--tol", "1e-70")
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert "Taylor terms" in capsys.readouterr().err


def test_limit_parity_usage_error(tmp_path, capsys):
    code, _ = run(tmp_path, "limit", "--family", "sp-odd", "--q", "2", "--t", "1")
    assert code == cli.EXIT_USAGE
    assert "odd q" in capsys.readouterr().err


def test_limit_o_half_is_half_the_symplectic_value(tmp_path):
    _, sp = run_json(tmp_path, "limit", "--family", "sp-odd",
                     "--q", "3", "--t", "1", "--tol", "1e-8")
    _, oh = run_json(tmp_path, "limit", "--family", "o-half",
                     "--q", "3", "--t", "1", "--tol", "1e-8")
    mid_sp = (frac(sp["result"]["lo"]) + frac(sp["result"]["hi"])) / 2
    mid_oh = (frac(oh["result"]["lo"]) + frac(oh["result"]["hi"])) / 2
    assert abs(mid_oh - mid_sp / 2) < Fraction("1e-8")


# ---------------------------------------------------------------------------
# series

def test_series_csv_rationals(tmp_path):
    code, text = run(tmp_path, "series", "--family", "gl", "--q", "2",
                     "--t", "1", "--order", "6", "--format", "csv")
    assert code == cli.EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == "n,coefficient"
    assert lines[5] == "4,13/45"
    assert not any("." in line for line in lines)  # never floats


def test_series_sl_coset_matches_library(tmp_path):
    code, doc = run_json(tmp_path, "series", "--family", "sl", "--q", "3",
                         "--t", "1", "--coset", "1", "--order", "8")
    assert code == cli.EXIT_OK
    s = sl_coset_series(3, 1, 1, 8)
    got = [frac(c) for c in doc["result"]["coefficients"]]
    assert got == [s.coeff(n) for n in range(9)]


def test_series_rejects_non_integer_coset(tmp_path, capsys):
    code, _ = run(tmp_path, "series", "--family", "sl", "--q", "3",
                  "--t", "1", "--coset", "tau", "--order", "4")
    assert code == cli.EXIT_USAGE
    assert "determinant labels" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "--family", "sl", "--q", "5", "--t", "1", "--coset", "abc", "--order", "3"],
    ["enumerate", "--family", "GL", "--n", "2", "--q", "3", "--t", "1", "--coset", "foo"],
    ["verify", "--suite", "fpr", "--coset", "zz"],
])
def test_unparsable_coset_is_a_usage_error(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err.startswith("classprop: --coset must be an integer")


@pytest.mark.parametrize("family", ["gl", "sl"])
@pytest.mark.parametrize("order", ["-1", "0", "1"])
def test_series_rejects_order_below_two(tmp_path, capsys, family, order):
    code, text = run(tmp_path, "series", "--family", family, "--q", "5",
                     "--t", "1", "--order", order)
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err == f"classprop: series order must be at least 2, got {order}\n"


@pytest.mark.parametrize("extra", [["--x", "9999"],
                                   ["--x", "-1", "--trials", "10", "--seed", "1"]])
def test_probe_rejects_out_of_range_x(tmp_path, capsys, extra):
    code, text = run(tmp_path, "probe", "--group", "psl2-7", *extra)
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert "outside 0..167" in capsys.readouterr().err


def test_enumerate_rejects_dimension_zero(tmp_path, capsys):
    code, _ = run(tmp_path, "enumerate", "--family", "GL", "--n", "0",
                  "--q", "2")
    assert code == cli.EXIT_USAGE
    assert "at least 1" in capsys.readouterr().err


def test_series_order_above_the_cap_exits_3_at_once(tmp_path):
    # order 200 would take about 8 s before the cap; a console run pays the
    # interpreter start and the imports too
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(classprop.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "classprop.cli", "series", "--family", "gl",
                           "--q", "2", "--t", "1", "--order", "200", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == cli.EXIT_RESOURCE
    assert proc.stdout == "" and not out.exists()
    assert proc.stderr == \
        f"classprop: resource cap exceeded: series order 200 is above the cap of {cli.SERIES_ORDER_CAP}\n"


def test_series_at_the_cap_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SERIES_ORDER_CAP", 5)
    assert run(tmp_path, "series", "--family", "gl", "--q", "2", "--t", "1",
               "--order", "5")[0] == cli.EXIT_OK
    assert run(tmp_path, "series", "--family", "sl", "--q", "3", "--t", "1",
               "--order", "6")[0] == cli.EXIT_RESOURCE


@pytest.mark.parametrize("family,q,cap", [("gl", 3, 119), ("gl", 1000003, 33), ("sl", 3, 90),
                                          ("sl", 27, 18), ("sl", 81, 10)])
def test_series_cap_scales_with_q_and_the_ring(tmp_path, capsys, family, q, cap):
    # each edge took 1.2-3.6 s in process; one order more is refused before
    # any work (at q = 27 and 1000003 order 40 took 17 s and 7 s)
    for order in (cap + 1, 40):
        start = time.perf_counter()
        code, text = run(tmp_path, "series", "--family", family, "--q", str(q), "--t", "1",
                         "--order", str(order))
        assert time.perf_counter() - start < 0.5
        if order > cap:
            assert code == cli.EXIT_RESOURCE and text == ""
            assert capsys.readouterr().err == ("classprop: resource cap exceeded: series order "
                                               f"{order} is above the cap of {cap}\n")


@pytest.mark.parametrize("family,q,edge", [("gl", 2, 12), ("gl", 5, 7), ("sl", 3, 7),
                                           ("sl", 4, 5), ("sl", 9, 2)])
def test_series_runs_at_its_scaled_cap(tmp_path, monkeypatch, family, q, edge):
    # with the order cap at 12, every (family, q) keeps its own edge
    monkeypatch.setattr(cli, "SERIES_ORDER_CAP", 12)
    argv = ["series", "--family", family, "--q", str(q), "--t", "1", "--order"]
    assert run(tmp_path, *argv, str(edge))[0] == cli.EXIT_OK
    assert run(tmp_path, *argv, str(edge + 1))[0] == cli.EXIT_RESOURCE


def test_fractions_render_past_the_int_string_limit():
    # str() refuses ints over 4300 digits; the report writes every digit,
    # across the 600-digit blocks and their zero padding
    assert cli._jsonable(Fraction(10**5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
    assert cli._jsonable(Fraction(-(10**1200 + 10**600), 7)) == \
        "-1" + "0" * 599 + "1" + "0" * 600 + "/7"
    x = Fraction(3**20000 + 1, 2**30001)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{x.numerator}/{x.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)
    assert cli._jsonable(x) == want
    assert cli._jsonable(Fraction(-5, 12)) == "-5/12"
    assert cli._jsonable(Fraction(0)) == "0/1"


def test_series_rejects_coset_for_gl(tmp_path, capsys):
    code, _ = run(tmp_path, "series", "--family", "gl", "--q", "3",
                  "--t", "1", "--coset", "1", "--order", "4")
    assert code == cli.EXIT_USAGE
    assert "no coset" in capsys.readouterr().err


def test_enumerate_rejects_missing_coset_label(tmp_path, capsys):
    code, _ = run(tmp_path, "enumerate", "--family", "GL", "--n", "2",
                  "--q", "3", "--t", "1", "--coset", "5")
    assert code == cli.EXIT_USAGE
    assert "empty coset label 5" in capsys.readouterr().err


def test_enumerate_rejects_coset_without_t(tmp_path, capsys):
    # the coset only selects the members of a --t proportion
    code, text = run(tmp_path, "enumerate", "--family", "GL", "--n", "2",
                     "--q", "3", "--coset", "7")
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err == "classprop: enumerate --coset needs --t\n"


def test_series_rejects_q_that_is_not_a_prime_power(tmp_path, capsys):
    code, text = run(tmp_path, "series", "--family", "gl", "--q", "6",
                     "--t", "1", "--order", "3")
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err == "classprop: q=6 is not a prime power\n"


@pytest.mark.parametrize("coset,message", [
    ("tau", "membership_sets does not scan the tau coset; use tau_membership"),
    ("7", "empty coset label 7"),
])
def test_expectation_suite_rejects_coset_without_members(tmp_path, capsys, coset,
                                                         message):
    code, text = run(tmp_path, "verify", "--suite", "expectation", "--coset", coset)
    assert code == cli.EXIT_USAGE
    assert text == ""
    assert capsys.readouterr().err == f"classprop: {message}\n"


def test_expectation_suite_passes_on_an_intransitive_action(tmp_path):
    # O-4(2) has two orbits on its 15 lines, 5 singular and 10 nonsingular
    code, doc = run_json(tmp_path, "verify", "--suite", "expectation",
                         "--family", "O-", "--n", "4", "--q", "2", "--coset", "O")
    assert code == cli.EXIT_OK
    res = doc["result"]
    assert res["pass"] and res["failures"] == []
    assert (res["checked"], res["members"]) == (120, 20)


def _expectation_by_element(cfg, verdict=None):
    """(min slack, failures) of the expectation suite with one set-loop
    record (``oracles.expectation_by_sets``) per element x; verdict, when
    given, replaces each record's "ok"."""
    table = cli._suite_table(cfg)
    members = matgroup.membership_sets(table, cfg.t or 1, cfg.coset)
    act = matgroup.enumerate_action(table, matgroup.ActionSpec("subspace", cfg.k or 1))
    recs = [{"x": x, **expectation_by_sets(table, x, members, act)}
            for x in range(len(table.elements))]
    if verdict is not None:
        recs = [{**rec, "ok": verdict(rec)} for rec in recs]
    return min(r["rhs"] - r["lhs"] for r in recs), [r for r in recs if not r["ok"]]


@pytest.mark.parametrize("argv", [
    ("--family", "GL", "--n", "3", "--q", "2"),
    ("--family", "Sp", "--n", "4", "--q", "2"),
    ("--family", "O-", "--n", "4", "--q", "2", "--coset", "O"),
], ids=lambda argv: argv[1])
def test_expectation_suite_matches_per_element_loop(argv, monkeypatch):
    args = cli.build_parser().parse_args(["verify", "--suite", "expectation", *argv])
    cfg = cli._config_from_args(args)
    ok, res = cli._suite_expectation(cfg)
    assert ok and res["failures"] == []
    assert res["min_slack"] == _expectation_by_element(cfg)[0]
    # a class-invariant verdict that fails: every element of each failing
    # class is listed, in the order of x
    fold = cli._expectation_fold

    def verdict(rec):
        return rec["fpr"] == 0

    def forced(*args, **kwargs):
        record = fold(*args, **kwargs)
        return lambda xfix: {**(rec := record(xfix)), "ok": verdict(rec)}

    monkeypatch.setattr(cli, "_expectation_fold", forced)
    ok, res = cli._suite_expectation(cfg)
    worst, failures = _expectation_by_element(cfg, verdict)
    assert not ok and 0 < len(failures) < len(cli._suite_table(cfg).elements)
    assert (res["min_slack"], res["failures"]) == (worst, failures)
    # the failure records render as JSON
    assert json.loads(cli._render(cfg, ok, res))["result"]["failures"]


# sha256 of the whole report that ``verify --suite expectation`` prints
EXPECTATION_SUITE_DIGESTS = {
    ("--family", "GL", "--n", "3", "--q", "2"):
        "a8ada0525ad48dfc21464de1d56aa7d83d2a95f46a976ef790e498678ba0c05f",
    ("--family", "GL", "--n", "4", "--q", "2", "--k", "2"):
        "b97f7dc6bfec92480c3cd921ee9c3947f7b104f559eca0c58a0d95e3e0cf0fbf",
    ("--family", "Sp", "--n", "4", "--q", "2"):
        "39c4961cb2e76fbc2a4e71e18a75e6c64a1a05db8f60deed865e70f4cd3203d1",
    ("--family", "O-", "--n", "4", "--q", "2", "--coset", "O"):
        "ba48af24baaa681dfbd3b7bcaf068acedd6259eedcfb9991c1557610e267e8e0",
    ("--family", "O+", "--n", "6", "--q", "2", "--coset", "O"):
        "b7fafe9713581d56ad97071e8d0f5d191041474344fc23db41d3cf9434f5a9d2",
}


@pytest.mark.parametrize("argv", EXPECTATION_SUITE_DIGESTS, ids=" ".join)
def test_expectation_suite_reports_match_digests(argv, capsys):
    assert cli.main(["verify", "--suite", "expectation", *argv]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTATION_SUITE_DIGESTS[argv]


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = cli.main(["presets", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("classprop: cannot write")
    assert not out.exists()


def test_unusable_cache_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "cache"
    blocker.write_text("")
    monkeypatch.setenv(matgroup.CACHE_ENV, str(blocker))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    code, text = run(tmp_path, "enumerate", "--family", "GL", "--n", "2", "--q", "2")
    assert code == cli.EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("classprop: ") and err.count("\n") == 1


# commands that read group tables: two from README, and the O+6(2) scan
TABLE_COMMANDS = [
    ("enumerate", "--family", "Sp", "--n", "4", "--q", "2", "--t", "2"),
    ("verify", "--suite", "inverse-transpose", "--n", "4", "--q", "2", "--t", "1"),
    ("enumerate", "--family", "O+", "--n", "6", "--q", "2", "--t", "1", "--coset", "S"),
]


def test_table_commands_are_byte_identical_cold_and_warm(tmp_path, capsys, monkeypatch):
    # the first round builds every table into an empty cache; the second,
    # through a fresh memo, loads them, prints the same and writes nothing
    cache = tmp_path / "cache"
    monkeypatch.setenv(matgroup.CACHE_ENV, str(cache))
    rounds, listings = [], []
    for _ in range(2):
        monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
        outputs = []
        for argv in TABLE_COMMANDS:
            code = cli.main(list(argv))
            outputs.append((code, capsys.readouterr().out))
        rounds.append(outputs)
        listings.append({p.name: p.stat().st_mtime_ns for p in cache.iterdir()})
    cold, warm = rounds
    assert [code for code, _ in cold] == [cli.EXIT_OK] * len(TABLE_COMMANDS)
    assert warm == cold
    assert listings[0] and listings[1] == listings[0]


def test_series_byte_identical_across_runs(tmp_path):
    args = ("series", "--family", "sl", "--q", "3", "--t", "1",
            "--coset", "1", "--order", "8")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second


# ---------------------------------------------------------------------------
# enumerate

def test_enumerate_order_and_membership(tmp_path):
    code, doc = run_json(tmp_path, "enumerate", "--family", "Sp",
                         "--n", "4", "--q", "2", "--t", "2")
    assert code == cli.EXIT_OK
    res = doc["result"]
    assert res["order"] == 720
    assert res["members"] == 144
    assert frac(res["proportion"]) == Fraction(1, 5)


def test_enumerate_tau_coset(tmp_path):
    code, doc = run_json(tmp_path, "enumerate", "--family", "GL",
                         "--n", "3", "--q", "2", "--t", "1", "--coset", "tau")
    assert code == cli.EXIT_OK
    assert frac(doc["result"]["proportion"]) == Fraction(1, 3)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--family", "GL", "--n", "4", "--q", "3", "--cap", "1000"),
    ("verify", "--suite", "exactness-bridge", "--q", "2", "--n", "3", "--t", "1",
     "--cap", "10"),
    ("verify", "--suite", "identities", "--cap", "10"),
    ("verify", "--suite", "inverse-transpose", "--n", "3", "--q", "2", "--cap", "10"),
    ("verify", "--suite", "orthogonal-reflection", "--cap", "10"),
], ids=lambda argv: argv[2] if argv[0] == "verify" else argv[0])
def test_enumerate_cap_exit_code(tmp_path, capsys, argv):
    code, _ = run(tmp_path, *argv)
    assert code == cli.EXIT_RESOURCE
    assert "resource cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_inverse_transpose_passes(tmp_path):
    code, doc = run_json(tmp_path, "verify", "--suite", "inverse-transpose",
                         "--n", "4", "--q", "2", "--t", "1")
    assert code == cli.EXIT_OK
    assert doc["ok"] and doc["result"]["pass"]


def test_verify_bridge_single_instance(tmp_path):
    code, doc = run_json(tmp_path, "verify", "--suite", "exactness-bridge",
                         "--q", "3", "--n", "3", "--t", "2")
    assert code == cli.EXIT_OK
    cases = doc["result"]["cases"]
    assert len(cases) == 3  # whole group plus two determinant cosets
    assert all(c["equal"] for c in cases)


def test_verify_failure_exit_and_dump(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITES, "fpr",
        lambda cfg: (False, {"failures": [{"element": 5}]}),
    )
    code, doc = run_json(tmp_path, "verify", "--suite", "fpr")
    assert code == cli.EXIT_FAIL
    assert doc["ok"] is False
    assert "element" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_csv_not_offered(tmp_path, capsys):
    code, _ = run(tmp_path, "verify", "--suite", "inverse-transpose",
                  "--format", "csv")
    assert code == cli.EXIT_USAGE
    assert "JSON only" in capsys.readouterr().err


def test_verify_coset_average_suite(tmp_path):
    code, doc = run_json(tmp_path, "verify", "--suite", "coset-average",
                         "--family", "GL", "--n", "2", "--q", "3",
                         "--coset", "1")
    assert code == cli.EXIT_OK
    assert frac(doc["result"]["cases"][0]["value"]) == 1


# ---------------------------------------------------------------------------
# probe and presets

def test_probe_exhaustive_order7(tmp_path):
    code, doc = run_json(tmp_path, "probe", "--group", "psl2-7",
                         "--x-order", "7")
    assert code == cli.EXIT_OK
    rep = doc["result"]["report"]
    assert frac(rep["value"]) == Fraction(7, 8)
    assert rep["method"] == "exhaustive"


def test_probe_three_halves(tmp_path):
    code, doc = run_json(tmp_path, "probe", "--group", "psl2-7",
                         "--three-halves")
    assert code == cli.EXIT_OK
    res = doc["result"]
    assert res["all_positive"]
    assert len(res["classes"]) == 5


def test_probe_montecarlo_needs_seed(tmp_path, capsys):
    code, _ = run(tmp_path, "probe", "--group", "psl2-7", "--x", "1",
                  "--trials", "50")
    assert code == cli.EXIT_USAGE
    assert "seed" in capsys.readouterr().err


def test_probe_seeded_montecarlo_deterministic(tmp_path):
    args = ("probe", "--group", "psl2-7", "--x", "1",
            "--trials", "60", "--seed", "3")
    _, first = run(tmp_path, *args)
    _, second = run(tmp_path, *args)
    assert first == second
    doc = json.loads(first)
    assert doc["result"]["report"]["trials"] == 60


@pytest.mark.parametrize("extra", [
    ("--x", "1", "--x-order", "7"),
    ("--x", "1", "--seed", "3"),
    ("--three-halves", "--seed", "3"),
    ("--three-halves", "--trials", "60"),
])
def test_probe_unused_option_exits_before_building_the_group(
        tmp_path, capsys, monkeypatch, extra):
    built = []
    monkeypatch.setattr(cli, "psl2", built.append)
    code, _ = run(tmp_path, "probe", "--group", "psl2-7", *extra)
    assert code == cli.EXIT_USAGE
    assert built == []
    assert capsys.readouterr().err.startswith("classprop: ")


def test_probe_beyond_the_permutation_cap_exits_3(tmp_path, capsys):
    code, _ = run(tmp_path, "probe", "--group", "psl2-163", "--x", "1")
    assert code == cli.EXIT_RESOURCE
    assert "resource cap" in capsys.readouterr().err


def test_probe_bad_group_name(tmp_path, capsys):
    code, _ = run(tmp_path, "probe", "--group", "alt5", "--x", "1")
    assert code == cli.EXIT_USAGE
    assert "psl2" in capsys.readouterr().err


def test_presets_table(tmp_path):
    code, doc = run_json(tmp_path, "presets")
    assert code == cli.EXIT_OK
    entries = doc["result"]["entries"]
    assert len(entries) == 10
    assert entries[0]["socle"] == "SL_n(2)"
    kinds = {e["set"]["kind"] for e in entries}
    assert "sieved" in kinds and "full-coset" in kinds
