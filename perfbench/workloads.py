"""The four workloads.  Each pass runs in a fresh interpreter.

The package memoises fields, irreducible counts, matrix spaces and group
tables for the life of a process, so a second pass in the same process would
measure cache lookups.  Grids are fixed: the seed only picks Monte Carlo
seeds, expectation-check elements and the CLI probe seed, so the amount of
work does not depend on it.

Every function takes the generated inputs, a Checker and the worker's
Context, which carries the cache directory and collects extra figures.
Layer functions are looked up on their modules at call time, so a traced
pass goes through the wrappers.
"""

import json
import os
import random
import time
from fractions import Fraction as F

import checks as X

WORKLOADS = ("analytic", "tables", "sampling", "cli")

BOUND_GRID = ((2, 3, 4, 5, 7, 8, 9), (1, 2, 3, 4))  # criterion 3
Q_INFINITY_CASES = [("GL", 10**4, "GL"), ("Sp_even", 10**4, "Sp"),
                    ("Sp_odd", 10**4 + 1, "Sp"), ("SU", 10**4, "SU")]  # criterion 4
GL42_X, OP62_X = 5, 2  # expectation-check elements drawn per pass
MC_LONG, MC_SHORT, MC_SHORT_RUNS = 100_000, 1_000, 200
MC_SCAN, WEYL_TRIALS, PROBE_TRIALS = 5_000, 50_000, 1_000

# Tables the cli commands load; set-up writes them to the cache first.
CLI_TABLES = [("GL", 2, 2), ("GL", 3, 2), ("GL", 4, 2), ("GL", 2, 3),
              ("GL", 3, 3), ("Sp", 4, 2), ("O+", 6, 2)]


def make_inputs(workload, seed):
    """Inputs of one run; the same (workload, seed) gives the same inputs."""
    from classprop.matgroup import group_order

    rng = random.Random(f"{workload}:{seed}")
    seeds = lambda k: [rng.getrandbits(32) for _ in range(k)]
    if workload == "analytic":
        return {"bound_grid": BOUND_GRID}
    if workload == "tables":
        # index 0 is the identity in breadth-first order; it is skipped
        return {"gl4_x": [rng.randrange(1, group_order("GL", 4, 2)) for _ in range(GL42_X)],
                "o6_x": [rng.randrange(1, group_order("O+", 6, 2)) for _ in range(OP62_X)]}
    if workload == "sampling":
        return {"long_seed": seeds(1)[0], "short_seeds": seeds(MC_SHORT_RUNS),
                "scan_seeds": seeds(2), "weyl_seeds": seeds(2), "probe_seed": seeds(1)[0]}
    if workload == "cli":
        return {"probe_seed": rng.randrange(1, 10**6)}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------

def analytic(inp, ck, ctx):
    from classprop import limits, series

    def cosets(q, t):
        per = [series.sl_coset_series(q, t, mu, 8) for mu in range(q - 1)]
        for mu, s in enumerate(per):
            ck.equal(f"sl_coset_series q={q} t={t} mu={mu} n=2 equals enumeration",
                     s.coeff(2), X.SL_COSET_N2[(q, t)][mu])
        gl = series.gl_no_small_factor_series(q, t, 8)
        # det is uniform on GL_n, so the cosets average to the whole group
        ck.check(f"sl cosets q={q} t={t} average to GL",
                 all(sum(s.coeff(n) for s in per) == (q - 1) * gl.coeff(n)
                     for n in range(9)))

    def limit_convergence():
        s = series.gl_no_small_factor_series(2, 1, 40)
        ck.equal("gl series q=2 t=1 n=4", s.coeff(4), X.GL42_T1)
        enc = limits.limit_value(limits.LimitFamily("GL", 2, 1), F(1, 10**7))
        c40 = s.coeff(40)
        ck.check("criterion 2: n=40 coefficient near the limit enclosure",
                 max(F(0), enc.lo - c40, c40 - enc.hi) <= F(1, 10**6))

    def bounds():
        tol = F(1, 10**9)
        rep = limits.bound_suite(*inp["bound_grid"], tol)
        ck.equal("bound_suite entries", len(rep["entries"]), 112)
        ck.check("bound_suite all_pass", rep["all_pass"], rep["failures"])
        ck.check("bound_suite widths", all(e["hi"] - e["lo"] <= tol for e in rep["entries"]))

    def q_infinity():
        for tag, q, base in Q_INFINITY_CASES:
            for t in (1, 2, 3):
                enc = limits.limit_value(limits.LimitFamily(tag, q, t), F(1, 10**6))
                ref = limits.q_infinity_limit(base, t)
                ck.check(f"criterion 4: {tag} t={t}", abs(float(enc.midpoint) - ref) <= 1e-3,
                         f"{float(enc.midpoint)} vs {ref}")

    for q in (5, 7):
        for t in (1, 2):
            ck.case(f"sl cosets q={q} t={t}", cosets, q, t)
    ck.case("limit convergence", limit_convergence)
    ck.case("bound suite", bounds)
    ck.case("q infinity", q_infinity)


def tables(inp, ck, ctx):
    from classprop import matgroup, series, stats
    from classprop.matgroup import ActionSpec

    before = set(os.listdir(ctx.cache_dir))
    tab = {}

    def build(fam, n, q, order):
        tab[fam, n, q] = matgroup.build_group(fam, n, q)
        ck.equal(f"order of {fam}_{n}({q})", len(tab[fam, n, q]), order)

    def plain():
        gl4 = tab["GL", 4, 2]
        tab["gl4_members"] = members = matgroup.membership_sets(gl4, 1)
        value = F(len(members), len(gl4))
        ck.equal("GL_4(2) t=1 proportion", value, X.GL42_T1)
        ck.equal("GL_4(2) t=1 series equals enumeration", value,
                 series.gl_no_small_factor_series(2, 1, 4).coeff(4))

    def det_cosets():
        gl3 = tab["GL", 3, 3]
        for mu in (0, 1):
            members = matgroup.membership_sets(gl3, 1, mu)
            value = F(len(members), len(gl3.coset_indices(mu)))
            ck.equal(f"GL_3(3) coset {mu} t=1 proportion", value, X.GL33_COSET_T1[mu])
            ck.equal(f"GL_3(3) coset {mu} t=1 series equals enumeration", value,
                     series.sl_coset_series(3, 1, mu, 3).coeff(3))

    def tau():
        gl4 = tab["GL", 4, 2]
        ck.equal("GL_4(2) tau coset t=1 proportion",
                 F(len(matgroup.tau_membership(gl4, 1)), len(gl4)), X.GL42_TAU_T1)

    def orthogonal():
        # the S set of the same group is the cli workload's O+_6(2) enumerate
        o6 = tab["O+", 6, 2]
        tab["o6_members"] = oset = matgroup.membership_sets(o6, 1, "O")
        ck.equal("O+_6(2) O set size", len(oset), X.OP62_O_MEMBERS)
        ck.equal("O+_6(2) O set t=1", F(len(oset), len(o6) // 2), X.OP62_O_T1)

    def fpr():
        reports = stats.fpr_bound_check(tab["GL", 3, 3])
        ck.equal("fpr_bound_check GL_3(3) rows", len(reports), X.GL33_FPR_ROWS)
        ck.equal("fpr_bound_check GL_3(3) violations", sum(r.violations for r in reports), 0)
        for r in reports:
            key = (r.action.kind, r.action.k)
            if not r.tau and key in X.GL33_FPR_EXTREMES:
                ck.equal(f"criterion 9 extreme {key} {r.bound_id}", r.fpr, X.GL33_FPR_EXTREMES[key])

    def expectation(name, table, members, spec, xs, want):
        act = matgroup.enumerate_action(table, spec)
        fixed = stats.fixed_sets(table, members, act)
        ck.equal(f"{name} subset expectation",
                 F(sum(len(s) for s in fixed), len(members)), want)
        for x in xs:
            rec = stats.expectation_inequality(table, x, members, act, member_fixed=fixed)
            ck.check(f"{name} expectation inequality at x={x}", rec["ok"], rec)

    def coset_average():
        rep = stats.coset_average_fixed_points(tab["GL", 3, 3], ActionSpec("subspace", 1), coset=1)
        ck.check("criterion 7: GL_3(3) coset 1 average on points",
                 rep.transitive and rep.value == X.GL33_COSET1_AVERAGE, rep)

    ck.case("build GL_4(2)", build, "GL", 4, 2, 20160)
    ck.case("build GL_3(3)", build, "GL", 3, 3, 11232)
    ck.case("build O+_6(2)", build, "O+", 6, 2, 40320)
    ck.case("plain membership", plain)
    ck.case("det coset membership", det_cosets)
    ck.case("tau membership", tau)
    ck.case("orthogonal O set", orthogonal)
    ck.case("fpr bounds", fpr)
    ck.case("GL_4(2) expectation", lambda: expectation(
        "GL_4(2) t=1 on 2-subspaces", tab["GL", 4, 2], tab["gl4_members"],
        ActionSpec("subspace", 2), inp["gl4_x"], X.GL42_SUB2_EXPECTATION))
    ck.case("O+_6(2) expectation", lambda: expectation(
        "O+_6(2) O set on nonsingular points", tab["O+", 6, 2], tab["o6_members"],
        ActionSpec("subspace", 1, restrict="nonsingular"), inp["o6_x"],
        X.OP62_NONSING_EXPECTATION))
    ck.case("coset average", coset_average)
    written = set(os.listdir(ctx.cache_dir)) - before
    ck.check("cache: empty before the pass", not before, sorted(before))
    ck.equal("cache: one write per ambient group", len(written), 3)


def sampling(inp, ck, ctx):
    from classprop import stats

    def gf2(trials, seed):
        rep = stats.proportion(("GL", 20, 2), 1, method="montecarlo", trials=trials, seed=seed)
        return rep, round(rep.value * trials)

    def packed():
        start = time.perf_counter()
        _, hits = gf2(MC_LONG, inp["long_seed"])
        short = [gf2(MC_SHORT, s) for s in inp["short_seeds"]]
        ctx.extra["mc_samples_per_s"] = (
            (MC_LONG + MC_SHORT * len(short)) / (time.perf_counter() - start))
        ck.near_rate("GF(2) long run vs exact n=20 coefficient", hits, MC_LONG, X.GL2_T1_N20)
        covered = sum(rep.ci_low <= X.GL2_T1_N20 <= rep.ci_high for rep, _ in short)
        ck.check("GF(2) short runs cover the n=20 coefficient at the criterion-11 rate",
                 covered >= X.coverage_floor(len(short)), f"{covered}/{len(short)}")
        _, again = gf2(MC_SHORT, inp["short_seeds"][0])
        ck.equal("GF(2) same seed, same hit count", again, short[0][1])

    def scans():
        s_coset, s_tau = inp["scan_seeds"]
        rep = stats.proportion(("GL", 4, 3), 1, coset=1, method="montecarlo",
                               trials=MC_SCAN, seed=s_coset)
        ck.near_rate("GL_4(3) coset 1 scan vs series", round(rep.value * MC_SCAN), MC_SCAN,
                     X.GL43_COSET1_T1)
        rep = stats.proportion(("GL", 3, 3), 1, coset="tau", method="montecarlo",
                               trials=MC_SCAN, seed=s_tau)
        ck.near_rate("GL_3(3) tau scan vs enumeration", round(rep.value * MC_SCAN), MC_SCAN,
                     X.GL33_TAU_T1)

    def weyl():
        for (m, want), seed in zip(sorted(X.WEYL_EXACT.items()), inp["weyl_seeds"]):
            rep = stats.weyl_negative_cycle_statistic(m, trials=WEYL_TRIALS, seed=seed)
            ck.near_rate(f"Weyl m={m} vs exact", round(rep.value * WEYL_TRIALS),
                         WEYL_TRIALS, want)

    def probe():
        group = stats.psl2(11)
        x = next(c[0] for c in group.conjugacy_classes()
                 if group.element_order(group.elements[c[0]]) == 11)
        rep = stats.generation_probe(group, x, trials=PROBE_TRIALS, seed=inp["probe_seed"])
        ck.near_rate("PSL(2,11) order-11 probe vs exhaustive", rep.hits, PROBE_TRIALS,
                     X.PSL2_11_ORDER11)

    ck.case("packed GF(2) sampler", packed)
    ck.case("generic scans", scans)
    ck.case("Weyl sampler", weyl)
    ck.case("generation probe", probe)


# ---------------------------------------------------------------------------
# cli: each command is its own process, reading tables from the cache.

def _result(out):
    report = json.loads(out)
    if report.get("schema") != "classprop-report-1" or not report.get("ok"):
        raise ValueError(f"unexpected report header: schema={report.get('schema')!r} "
                         f"ok={report.get('ok')!r}")
    return report["result"]


def _check_limit(ck, out):
    r = _result(out)
    lo, hi = F(r["lo"]), F(r["hi"])
    ck.check("limit encloses the GL q=2 t=1 limit", lo <= F(X.LIMIT_GL_2_1) <= hi, r)
    ck.check("limit width", hi - lo <= F(1, 10**6), r["width"])


def _check_series(ck, out):
    rows = [line.split(",") for line in out.decode().splitlines()]
    ck.equal("series csv rows", len(rows), 42)
    ck.equal("series csv n=4", rows[5], ["4", "13/45"])
    ck.check("series csv n=40 near the limit",
             abs(float(F(rows[41][1])) - X.LIMIT_GL_2_1) <= 1e-6, rows[41])


def _check_enumerate(order, members, value):
    def check(ck, out):
        r = _result(out)
        ck.equal(f"enumerate {r['family']} order", r["order"], order)
        ck.equal(f"enumerate {r['family']} members", r["members"], members)
        ck.equal(f"enumerate {r['family']} proportion", F(r["proportion"]), value)
    return check


def _check_bridge(ck, out):
    r = _result(out)
    ck.equal("exactness bridge cases", len(r["cases"]), 30)
    ck.check("exactness bridge: series equals enumeration for every coset",
             r["pass"] and not r["failures"] and all(c["equal"] for c in r["cases"]))


def _check_bounds(ck, out):
    r = _result(out)
    ck.equal("bounds entries", len(r["entries"]), 16)
    ck.check("bounds all pass", r["all_pass"] and r["pass"], r["failures"])


def _check_inverse_transpose(ck, out):
    r = _result(out)
    ck.check("inverse-transpose identity holds", r["pass"] and r["cases"][0]["holds"], r)


def _check_three_halves(ck, out):
    r = _result(out)
    ck.equal("three-halves PSL(2,7) proportions",
             sorted(F(c["proportion"]) for c in r["classes"]), X.PSL2_7_THREE_HALVES)
    ck.check("three-halves all positive", r["all_positive"])


def _check_probe(ck, out):
    rep = _result(out)["report"]
    ck.equal("probe trials", rep["trials"], 2000)
    ck.near_rate("probe PSL(2,11) order 11 vs exhaustive", rep["hits"], 2000,
                 X.PSL2_11_ORDER11)


def _check_presets(ck, out):
    ck.check("presets has entries", len(_result(out)["entries"]) > 0)


def cli_commands(inp):
    """The README examples, plus the O+_6(2) enumerate read from the cache."""
    probe = ["probe", "--group", "psl2-11", "--x-order", "11", "--trials", "2000",
             "--seed", str(inp["probe_seed"])]
    return [
        (["limit", "--family", "gl", "--q", "2", "--t", "1", "--tol", "1e-6"], _check_limit),
        (["series", "--family", "gl", "--q", "2", "--t", "1", "--order", "40",
          "--format", "csv"], _check_series),
        (["enumerate", "--family", "Sp", "--n", "4", "--q", "2", "--t", "2"],
         _check_enumerate(720, 144, X.SP42_T2)),
        (["verify", "--suite", "exactness-bridge"], _check_bridge),
        (["verify", "--suite", "bounds", "--q-list", "2,3", "--t-list", "1,2"], _check_bounds),
        (["verify", "--suite", "inverse-transpose", "--n", "4", "--q", "2", "--t", "1"],
         _check_inverse_transpose),
        (["probe", "--group", "psl2-7", "--three-halves"], _check_three_halves),
        (probe, _check_probe),
        (["presets"], _check_presets),
        (["enumerate", "--family", "O+", "--n", "6", "--q", "2", "--t", "1", "--coset", "S"],
         _check_enumerate(40320, 8448, X.OP62_S_T1)),
    ]


def cli(inp, ck, ctx):
    before = ctx.cache_listing()
    commands = cli_commands(inp)
    outputs = {}
    for argv, check in commands:
        name = " ".join(argv[:3])
        code, out = ctx.run_cli(argv)
        outputs[tuple(argv)] = out
        if ck.check(f"exit code of {name}", code == 0, code):
            ck.case(f"result of {name}", check, ck, out)
    probe = commands[7][0]
    code, again = ctx.run_cli(probe)
    ck.check("same command and seed, byte-identical report",
             code == 0 and again == outputs[tuple(probe)])
    ck.equal("cache: every table load is a hit (no writes)", ctx.cache_listing(), before)


RUNNERS = {"analytic": analytic, "tables": tables, "sampling": sampling, "cli": cli}
