"""Tests of the benchmark's checker, counters and result contract.

    python3 -m pytest perfbench/tests

Counter tests run in a fresh interpreter each, because the package memoises
tables for the life of a process and the tracer patches module attributes.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ENV = {k: v for k, v in os.environ.items() if k != "CLASSPROP_CACHE"}


def traced(snippet):
    """Run snippet with tracing installed in a fresh interpreter; return its summary."""
    code = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, {bench!r})
        import spans, worker
        worker.import_package()
        tracer = spans.Tracer()
        spans.install(tracer)
        from classprop import cyclo, gf, limits, matgroup, series, stats
    """).format(bench=str(BENCH)) + textwrap.dedent(snippet) + \
        "\nprint(json.dumps({'summary': tracer.summary(), 'out': out}))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# The checker.

def test_perturbed_expected_value_counts_as_failure():
    ck = checks.Checker()
    ck.equal("right", F(13, 45), checks.GL42_T1)
    ck.equal("perturbed", F(13, 45), checks.GL42_T1 + F(1, 10**9))
    assert (ck.attempted, ck.failed) == (2, 1)
    assert ck.failures()[0]["name"] == "perturbed"


def test_exception_in_a_case_is_one_failure_and_later_cases_run():
    ck = checks.Checker()
    ck.case("raises", lambda: 1 / 0)
    ck.case("runs", lambda: ck.check("after", True))
    assert (ck.attempted, ck.failed) == (2, 1)
    assert "ZeroDivisionError" in ck.failures()[0]["detail"]


def test_near_rate_band():
    ck = checks.Checker()
    # 5 sigma at p=1/4 and 10^4 trials is 0.0217
    assert ck.near_rate("inside", 2600, 10_000, F(1, 4))
    assert not ck.near_rate("outside", 2800, 10_000, F(1, 4))


def test_coverage_floor_is_the_criterion_11_rate():
    assert checks.coverage_floor(100) == 95
    assert checks.coverage_floor(200) == 190


def test_repeated_exactly_names_the_counters_that_moved():
    assert checks.repeated_exactly({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert checks.repeated_exactly({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 1}) == ["b", "c"]


def _report(result):
    return json.dumps({"schema": "classprop-report-1", "ok": True, "result": result}).encode()


def test_cli_result_checks_catch_a_wrong_proportion():
    check = workloads._check_enumerate(720, 144, checks.SP42_T2)
    ck = checks.Checker()
    check(ck, _report({"family": "Sp", "order": 720, "members": 144, "proportion": "1/5"}))
    assert ck.failed == 0
    check(ck, _report({"family": "Sp", "order": 720, "members": 145, "proportion": "29/144"}))
    assert ck.failed == 2


def test_cli_series_check_reads_the_csv():
    rows = ["n,coefficient"] + [f"{n},{checks.LIMIT_GL_2_1!r}" for n in range(41)]
    rows[5] = "4,13/45"
    ck = checks.Checker()
    workloads._check_series(ck, "\n".join(rows).encode())
    assert ck.failed == 0
    rows[5] = "4,13/46"
    workloads._check_series(ck, "\n".join(rows).encode())
    assert ck.failed == 1


def test_inputs_depend_only_on_the_seed():
    pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    a = workloads.make_inputs("sampling", 7)
    assert a == workloads.make_inputs("sampling", 7)
    assert a != workloads.make_inputs("sampling", 8)
    assert len(a["short_seeds"]) == workloads.MC_SHORT_RUNS
    t = workloads.make_inputs("tables", 7)
    assert all(1 <= x < 20160 for x in t["gl4_x"])


# ---------------------------------------------------------------------------
# Counters against hand-computed values.

def test_gl22_counters():
    got = traced("""
        table = matgroup.build_group("GL", 2, 2)
        members = matgroup.membership_sets(table, 1)
        out = {"gens": len(table.gens), "members": len(members)}
    """)
    c, s = got["summary"]["counters"], got["summary"]["spans"]
    # one closure pass over the 6 elements, each multiplied by every generator
    assert s["matgroup.bfs_closure"]["calls"] == 1
    assert c["matgroup.closure_products"] == 6 * got["out"]["gens"]
    # one sieve per element; the two elements of order 3 have no eigenvalue
    assert s["gf.has_small_degree_factor"]["calls"] == 6
    assert c["matgroup.elements_scanned"] == 6
    assert got["out"]["members"] == 2
    assert s["matgroup.build_group"]["calls"] == 1


def test_cyclotomic_power_counts_four_products():
    got = traced("""
        ring = cyclo.CycRing(5)
        z = ring.zeta_pow(1)
        out = str((z ** 4).coeffs)
    """)
    # square-and-multiply for k=4: three squarings and one product
    assert got["summary"]["counters"]["cyclo.CycNum.mul.calls"] == 4


def test_gf2_sampler_draws_one_minimum_chunk():
    got = traced("""
        rep = stats.proportion(("GL", 20, 2), 1, method="montecarlo", trials=1000, seed=0)
        out = rep.sample_size
    """)
    values = layers._layer_values(got["summary"])
    # 1000 samples need one chunk of max(4096, 4 * 1000) first-stage rows
    assert values["stats.mc.raw_draws"] == 4096
    assert values["stats.mc.accept_ratio"] == 1000 / 4096
    assert got["summary"]["spans"]["stats.gf2_nonsingular_batch"]["calls"] == 2


def test_self_time_excludes_child_spans():
    got = traced("""
        enc = limits.limit_value(limits.LimitFamily("GL", 2, 1), 10**-3)
        out = None
    """)
    summary = got["summary"]
    spans = summary["spans"]
    total_self = sum(row["self_s"] for row in spans.values())
    assert total_self == pytest.approx(summary["top_s"], rel=1e-9)
    lv = spans["limits.limit_value"]
    assert lv["calls"] == 1 and lv["self_s"] < lv["total_s"]
    # one exp_enclosure per refinement pass inside limit_value
    assert summary["counters"]["limits.refine_passes"] == spans["limits.exp_enclosure"]["calls"]


def test_one_wrapper_per_function_across_namespaces():
    got = traced("""
        out = [matgroup.fixed_point_indices is stats.fixed_point_indices,
               gf.has_small_degree_factor is matgroup.has_small_degree_factor,
               hasattr(stats.fixed_point_indices, "__wrapped__")]
    """)
    assert got["out"] == [True, True, True]


# ---------------------------------------------------------------------------
# The benchmark definition.

def test_benchmark_json_lists_the_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
