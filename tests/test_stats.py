"""Tests for proportions, expectations, fpr bounds, and the probe layers."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from classprop import matgroup, stats
from classprop.matgroup import (
    ActionSpec,
    MatSpace,
    ResourceCapExceeded,
    build_group,
    enumerate_action,
    membership_sets,
)
from classprop.stats import (
    ExpectationReport,
    PermGroup,
    coset_average_fixed_points,
    expectation_inequality,
    fixed_sets,
    fpr_bound_check,
    generation_probe,
    gf2_nonsingular_batch,
    inverse_transpose_identity_check,
    no_short_cycle_counts,
    orbits,
    orthogonal_reflection_identity_check,
    proportion,
    psl2,
    subset_expectation,
    symmetric_a,
    symmetric_expectation,
    three_halves_generation,
    weyl_negative_cycle_statistic,
    wilson_interval,
    _mc_gl2_t1,
)
from oracles import (
    bitslice_word_major,
    fixed_points_by_type,
    gf2_nonsingular_elimination,
    mc_gl2_t1_chunked,
    permutation_group,
)
from test_differential import _ref_probe


# ---------------------------------------------------------------------------
# Wilson intervals.

def test_wilson_contains_phat_and_shrinks():
    lo, hi = wilson_interval(289, 1000)
    assert lo < 0.289 < hi
    lo2, hi2 = wilson_interval(2890, 10000)
    assert hi2 - lo2 < hi - lo
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_wilson_frozen_value():
    # hand-evaluated Wilson score at z = 2.5758..., p-hat = 1/2, n = 100
    lo, hi = wilson_interval(50, 100)
    assert abs(lo - 0.37528) < 5e-5
    assert abs(hi - 0.62472) < 5e-5
    assert abs((lo + hi) / 2 - 0.5) < 1e-12


def test_wilson_argument_errors():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


# ---------------------------------------------------------------------------
# Proportions.

def test_proportion_enumeration_examples():
    assert proportion(("GL", 2, 2), 1).value == Fraction(1, 3)
    assert proportion(("GL", 3, 2), 1, coset="tau").value == Fraction(1, 3)
    assert proportion(("O+", 4, 2), 1, coset="S").value == Fraction(4, 9)
    assert proportion(("O+", 4, 2), 1, coset="O").value == Fraction(1, 3)


def test_proportion_accepts_a_table():
    tb = build_group("GL", 3, 2)
    rep = proportion(tb, 2)
    assert rep.value == Fraction(48, 168)
    assert rep.sample_size == 168
    assert rep.family == "GL" and rep.n == 3 and rep.q == 2


def test_proportion_series_matches_enumeration():
    for coset in (None, 0, 1):
        enum = proportion(("GL", 3, 3), 1, coset=coset)
        ser = proportion(("GL", 3, 3), 1, coset=coset, method="series")
        assert enum.value == ser.value


def test_proportion_coset_denominator():
    # per-coset proportions over GL_2(3): label classes have 24 elements each
    reps = [proportion(("GL", 2, 3), 1, coset=mu) for mu in (0, 1)]
    assert reps[0].value == Fraction(6, 24)
    assert reps[1].value == Fraction(12, 24)


def test_proportion_method_errors():
    with pytest.raises(ValueError):
        proportion(("Sp", 4, 2), 1, method="series")
    with pytest.raises(ValueError):
        proportion(("GL", 3, 2), 1, coset="tau", method="series")
    with pytest.raises(ValueError):
        proportion(("GL", 3, 2), 1, method="montecarlo", trials=10)
    with pytest.raises(ValueError):
        proportion(("GL", 3, 2), 1, method="montecarlo", seed=1)
    with pytest.raises(ValueError):
        proportion(("GU", 3, 2), 1, method="montecarlo", trials=10, seed=1)
    with pytest.raises(ValueError):
        proportion(("GL", 3, 2), 1, method="bogus")
    with pytest.raises(ValueError):
        proportion(("GL", 2, 3), 1, coset=7)
    with pytest.raises(ValueError, match="q=6 is not a prime power"):
        proportion(("GL", 2, 6), 1, method="series")


@pytest.mark.parametrize("spec,coset,kwargs", [
    (("GL", 3, 3), 5, dict(method="montecarlo", trials=100, seed=1)),
    (("GL", 3, 3), -1, dict(method="montecarlo", trials=100, seed=1)),
    (("GL", 3, 3), 2, dict(method="series")),
    (("GL", 2, 2), 1, dict(method="series")),
    (("SL", 2, 3), 1, dict(method="series")),
    (("SL", 2, 3), 1, dict()),
    (("GL", 2, 3), True, dict()),
])
def test_proportion_rejects_out_of_range_coset_labels(spec, coset, kwargs):
    # GL labels are 0..q-2 and SL has only label 0, on every method route
    message = (f"coset label must be an integer, got {coset}" if coset is True
               else f"empty coset label {coset}")
    with pytest.raises(ValueError, match=message):
        proportion(spec, 1, coset=coset, **kwargs)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("kwargs", [dict(), dict(method="series"),
                                    dict(method="montecarlo", trials=100, seed=1)])
def test_proportion_rejects_dimension_below_one(n, q, kwargs):
    with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
        proportion(("GL", n, q), 1, **kwargs)


def test_proportion_montecarlo_rejects_boolean_trials():
    with pytest.raises(ValueError, match="^trials must be an integer, got True$"):
        proportion(("GL", 3, 2), 1, method="montecarlo", trials=True, seed=1)


def test_proportion_accepts_every_valid_coset_label():
    assert proportion(("SL", 2, 3), 1, coset=0, method="series").value == \
        proportion(("SL", 2, 3), 1, coset=0).value
    for mu in range(3):
        rep = proportion(("GL", 2, 4), 1, coset=mu, method="montecarlo",
                         trials=10, seed=1)
        assert rep.sample_size == 10


def test_proportion_montecarlo_general_path():
    exact = proportion(("GL", 2, 3), 1).value
    rep = proportion(("GL", 2, 3), 1, method="montecarlo", trials=4000, seed=5)
    assert rep.sample_size == 4000
    assert rep.ci_low <= float(exact) <= rep.ci_high
    again = proportion(("GL", 2, 3), 1, method="montecarlo", trials=4000, seed=5)
    assert rep.value == again.value


def test_proportion_montecarlo_tau_and_coset():
    exact_tau = proportion(("GL", 3, 2), 1, coset="tau").value
    rep = proportion(("GL", 3, 2), 1, coset="tau", method="montecarlo",
                     trials=4000, seed=9)
    assert rep.ci_low <= float(exact_tau) <= rep.ci_high
    exact_coset = proportion(("GL", 2, 3), 1, coset=1).value
    rep = proportion(("GL", 2, 3), 1, coset=1, method="montecarlo",
                     trials=4000, seed=9)
    assert rep.ci_low <= float(exact_coset) <= rep.ci_high


# ---------------------------------------------------------------------------
# The packed GF(2) sampler.

def test_gf2_batch_matches_determinant_exhaustively():
    sp = MatSpace(2, 2)
    rows = np.array([[a, b] for a in range(4) for b in range(4)], dtype=np.uint32)
    mask = gf2_nonsingular_batch(rows)
    for (r0, r1), m in zip(rows.tolist(), mask.tolist()):
        g = (r0 & 1, r0 >> 1, r1 & 1, r1 >> 1)
        assert (sp.det(g) != 0) == m
    assert int(mask.sum()) == 6  # |GL_2(2)|


@pytest.mark.parametrize("n,dtype", [(4, np.uint32), (5, np.uint64)])
def test_gf2_batch_matches_determinant_random(n, dtype):
    sp = MatSpace(n, 2)
    rng = random.Random(13)
    rows = np.array(
        [[rng.getrandbits(n) for _ in range(n)] for _ in range(300)], dtype=dtype
    )
    mask = gf2_nonsingular_batch(rows)
    for packed, m in zip(rows.tolist(), mask.tolist()):
        g = tuple((r >> j) & 1 for r in packed for j in range(n))
        assert (sp.det(g) != 0) == m


def _gf2_dtype(n):
    return np.uint32 if n <= 32 else np.uint64


def _gf2_eye(n):
    return np.array([1 << i for i in range(n)], dtype=_gf2_dtype(n))


GF2_SIZES = [1, 2, 20, 32, 33, 62]


@pytest.mark.parametrize("n", GF2_SIZES)
@pytest.mark.parametrize("batch", [1, 63, 64, 65, 4096, 4097])
def test_gf2_batch_matches_row_elimination(n, batch):
    # the sampler's two calls: raw draws, then the draws plus the identity
    rng = np.random.Generator(np.random.PCG64(1000 * n + batch))
    raw = rng.integers(0, 1 << n, size=(batch, n), dtype=_gf2_dtype(n))
    for rows in (raw, raw ^ _gf2_eye(n)):
        mask = gf2_nonsingular_batch(rows)
        assert mask.dtype == bool and mask.shape == (batch,)
        assert np.array_equal(mask, gf2_nonsingular_elimination(rows))


@pytest.mark.parametrize("n", GF2_SIZES)
def test_gf2_batch_identity_and_zero(n):
    eye = _gf2_eye(n)
    rows = np.stack([eye, np.zeros_like(eye)] * 40)  # 80 matrices, over one word
    want = [True, False] * 40
    assert gf2_nonsingular_batch(rows).tolist() == want
    assert gf2_nonsingular_elimination(rows).tolist() == want


def _gf2_batch_matches_row_elimination_at_n20(batch):
    rng = np.random.Generator(np.random.PCG64(batch))
    raw = rng.integers(0, 1 << 20, size=(batch, 20), dtype=np.uint32)
    for rows in (raw, raw ^ _gf2_eye(20)):
        assert np.array_equal(gf2_nonsingular_batch(rows), gf2_nonsingular_elimination(rows))


@pytest.mark.parametrize("batch", [1000, 4096])
def test_gf2_batch_matches_row_elimination_on_sampler_chunks(batch):
    # the packed sampler's 4 096-row block at the benchmark's n = 20, and
    # 1 000 accepted rows, about what one block yields
    _gf2_batch_matches_row_elimination_at_n20(batch)


def test_gf2_batch_matches_row_elimination_on_a_large_batch():
    # the kernel alone: 65 536 rows at n = 20 are 1 024 words per lane row
    _gf2_batch_matches_row_elimination_at_n20(1 << 16)


@pytest.mark.parametrize("n", GF2_SIZES)
@pytest.mark.parametrize("batch", [1, 63, 64, 65, 4096, 4097])
def test_bitslice_is_the_word_major_slice_under_the_lane_map(n, batch):
    # matrix l*C + c sits in lane l of word c; the word-major slice puts
    # matrix w*c + l there, so feeding it the rows in that order agrees
    rng = np.random.Generator(np.random.PCG64(7 * n + batch))
    rows = rng.integers(0, 1 << n, size=(batch, n), dtype=_gf2_dtype(n))
    w = 8 * rows.itemsize
    padded = np.zeros((-(-batch // w) * w, n), dtype=rows.dtype)
    padded[:batch] = rows
    by_word = padded.reshape(w, -1, n).transpose(1, 0, 2).reshape(-1, n)
    assert np.array_equal(stats._bitslice(rows), bitslice_word_major(by_word))


def test_montecarlo_scan_takes_no_determinant(monkeypatch):
    # the scan reads det g off the constant term of the batched characteristic
    # polynomial, so no candidate and no label coset takes a determinant
    calls = []
    det = MatSpace.det
    monkeypatch.setattr(MatSpace, "det", lambda self, a: calls.append(a) or det(self, a))
    rep = proportion(("GL", 3, 3), 1, coset=1, method="montecarlo", trials=2500, seed=7)
    assert rep.sample_size == 2500 and 0 < rep.value < 1
    assert calls == []


@pytest.mark.parametrize("trials,seed,hits", [(10**3, 0, 300), (10**4, 3, 2913),
                                              (10**5, 1, 28915)])
def test_packed_sampler_hits_frozen(trials, seed, hits):
    # the draws and their acceptance order fix these counts for each seed
    assert _mc_gl2_t1(20, trials, seed) == hits


@pytest.mark.parametrize("n", GF2_SIZES)
@pytest.mark.parametrize("trials", [1, 1000, 1181, 10**4, 10**5])
def test_packed_sampler_matches_chunked_draws(n, trials):
    # the accepted draws are the first `trials` nonsingular rows of one PCG64
    # stream, however the stream is cut into batches
    for seed in (0, 5, 2**40 + 3):
        assert _mc_gl2_t1(n, trials, seed) == mc_gl2_t1_chunked(n, trials, seed)


def test_packed_sampler_memory_does_not_grow_with_trials():
    # after a one-block warm-up, 10^5 samples draw the same 4 096-row blocks.
    # The peak is the child's VmHWM: its ru_maxrss would start at this
    # process's peak, which a fork hands on across exec.
    script = textwrap.dedent("""
        from classprop.stats import proportion
        def run(trials):
            proportion(("GL", 20, 2), 1, method="montecarlo", trials=trials, seed=1)
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        print(run(10**3), run(10**5))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(stats.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    warm, peak = map(int, proc.stdout.split())
    assert peak - warm < 4 * 1024  # kB


def test_packed_sampler_agrees_with_scan_sampler():
    # both code paths estimate a_4(2, 1) = 13/45
    exact = float(Fraction(13, 45))
    fast = proportion(("GL", 4, 2), 1, method="montecarlo", trials=20000, seed=2)
    slow = proportion(("GL", 4, 3), 1, method="montecarlo", trials=2000, seed=2)
    assert fast.ci_low <= exact <= fast.ci_high
    ex3 = float(proportion(("GL", 4, 3), 1, method="series").value)
    assert slow.ci_low <= ex3 <= slow.ci_high


def test_packed_sampler_deterministic_and_bounded():
    h1 = _mc_gl2_t1(6, 5000, 42)
    h2 = _mc_gl2_t1(6, 5000, 42)
    assert h1 == h2
    assert 0 <= h1 <= 5000
    with pytest.raises(ValueError):
        _mc_gl2_t1(70, 10, 1)


# ---------------------------------------------------------------------------
# Coset averages and orbits.

def test_orbit_decomposition_orthogonal_points():
    tb = build_group("O+", 4, 2)
    orbs = orbits(tb, ActionSpec("subspace", 1))
    assert sorted(len(o) for o in orbs) == [6, 9]


def test_coset_average_transitive_cases():
    cases = [
        (build_group("GL", 3, 2), ActionSpec("subspace", 1), None),
        (build_group("GL", 3, 2), ActionSpec("flag", 1), None),
        (build_group("GL", 2, 3), ActionSpec("subspace", 1), 0),
        (build_group("GL", 2, 3), ActionSpec("subspace", 1), 1),
        (build_group("Sp", 4, 2), ActionSpec("subspace", 1, restrict="totally_singular"), None),
    ]
    for tb, spec, coset in cases:
        rep = coset_average_fixed_points(tb, spec, coset=coset)
        assert rep.transitive
        assert rep.value == 1


def test_coset_average_intransitive_reports_orbits():
    tb = build_group("O+", 4, 2)
    rep = coset_average_fixed_points(tb, ActionSpec("subspace", 1))
    assert not rep.transitive
    assert rep.orbit_values == (Fraction(1), Fraction(1))
    assert rep.value == 2


def test_subtable_acts_with_its_own_generators():
    # Omega+_4(2) splits the 6 totally singular 2-spaces into two orbits of 3
    tb = build_group("Omega+", 4, 2)
    spec = ActionSpec("subspace", 2, restrict="totally_singular")
    assert sorted(len(o) for o in orbits(tb, spec)) == [3, 3]
    rep = coset_average_fixed_points(tb, spec)
    assert rep.orbit_values == (Fraction(1), Fraction(1))
    assert permutation_group(tb, spec).order() == 36


def test_coset_average_empty_coset_label():
    tb = build_group("GL", 2, 3)
    with pytest.raises(ValueError):
        coset_average_fixed_points(tb, ActionSpec("subspace", 1), coset=9)
    with pytest.raises(ValueError, match="^coset label must be an integer, got True$"):
        coset_average_fixed_points(tb, ActionSpec("subspace", 1), coset=True)
    for query in (tb.coset_indices, tb.coset_size):
        with pytest.raises(ValueError, match="^coset label must be an integer, got False$"):
            query(False)


# ---------------------------------------------------------------------------
# Subset expectations and the sharing inequality.

def test_subset_expectation_sieved_set_fixes_nothing_small():
    tb = build_group("GL", 4, 2)
    members = membership_sets(tb, 1)
    rep = subset_expectation(tb, members, ActionSpec("subspace", 1))
    assert rep.value == 0
    rep2 = subset_expectation(tb, members, ActionSpec("subspace", 2))
    assert rep2.value > 0


def test_subset_expectation_full_group_is_burnside():
    tb = build_group("GL", 3, 2)
    rep = subset_expectation(tb, list(range(168)), ActionSpec("subspace", 1))
    assert rep.value == 1


def test_subset_expectation_quadratic_forms_split():
    # the t=2 symplectic set fixes exactly one form each
    tb = build_group("Sp", 4, 2)
    members = membership_sets(tb, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    rep = subset_expectation(tb, members, act)
    assert rep.value == 1
    plus = sum(fixed_points_by_type(tb.space, tb.elements[i], act)["+"] for i in members)
    minus = sum(fixed_points_by_type(tb.space, tb.elements[i], act)["-"] for i in members)
    assert Fraction(plus, len(members)) + Fraction(minus, len(members)) == 1
    assert plus == 0  # every one fixes a minus-type form


def test_subset_expectation_rejects_bad_subsets():
    tb = build_group("GL", 3, 2)
    with pytest.raises(ValueError):
        subset_expectation(tb, [], ActionSpec("subspace", 1))
    # a single non-central element is not conjugation stable
    members = membership_sets(tb, 1)
    with pytest.raises(ValueError, match="not stable"):
        subset_expectation(tb, members[:1], ActionSpec("subspace", 1))
    for bad in (168, -1):
        with pytest.raises(ValueError, match="out of range"):
            subset_expectation(tb, members + [bad], ActionSpec("subspace", 1))


def test_fixed_sets_and_expectation_inequality_reject_bad_indices():
    tb = build_group("GL", 3, 2)
    members = membership_sets(tb, 1)
    spec = ActionSpec("subspace", 1)
    for bad in (168, -1):
        with pytest.raises(ValueError, match="element index out of range"):
            fixed_sets(tb, [0, bad], spec)
        with pytest.raises(ValueError, match="element index out of range"):
            expectation_inequality(tb, bad, members, spec)
        with pytest.raises(ValueError, match="element index out of range"):
            expectation_inequality(tb, 0, members + [bad], spec)


def test_fixed_sets_read_an_iterator_of_indices_once():
    # an iterator was consumed by the index check and gave []
    tb = build_group("GL", 3, 2)
    spec = ActionSpec("subspace", 1)
    want = fixed_sets(tb, [0, 1, 2, 3, 4], spec)
    assert len(want) == 5
    assert fixed_sets(tb, range(5), spec) == want
    assert fixed_sets(tb, (i for i in range(5)), spec) == want
    assert fixed_sets(tb, iter([]), spec) == []


def test_expectation_inequality_rejects_foreign_member_fixed():
    # fixed sets of the whole group summed over the sieved members' count
    # gave wrong sides and ok: True
    tb = build_group("GL", 3, 2)
    members = membership_sets(tb, 1)
    spec = ActionSpec("subspace", 1)
    whole = fixed_sets(tb, range(len(tb)), spec)
    with pytest.raises(ValueError, match="^member_fixed must hold one fixed set per member$"):
        expectation_inequality(tb, 1, members, spec, member_fixed=whole)
    own = expectation_inequality(tb, 1, members, spec,
                                 member_fixed=fixed_sets(tb, members, spec))
    assert own == expectation_inequality(tb, 1, members, spec)


def test_subset_expectation_carries_comparator():
    tb = build_group("GL", 3, 2)
    rep = subset_expectation(tb, membership_sets(tb, 1),
                             ActionSpec("subspace", 1), comparator=Fraction(1, 3))
    assert rep.comparator == Fraction(1, 3)
    assert isinstance(rep, ExpectationReport)


def test_expectation_inequality_holds_on_samples():
    tb = build_group("GL", 3, 2)
    members = membership_sets(tb, 1)
    spec = ActionSpec("subspace", 1)
    mf = fixed_sets(tb, members, enumerate_action(tb, spec))
    rng = random.Random(4)
    for _ in range(8):
        x = rng.randrange(len(tb.elements))
        rec = expectation_inequality(tb, x, members, spec, member_fixed=mf)
        assert rec["ok"] and rec["lhs"] <= rec["rhs"]
    # without precomputed fixed sets the stability check runs and agrees
    rec2 = expectation_inequality(tb, 3, members, spec)
    rec3 = expectation_inequality(tb, 3, members, spec, member_fixed=mf)
    assert rec2 == rec3


def test_expectation_inequality_bound_sums_per_orbit():
    # transitive: the bound is fpr(x) times the expectation, for every x
    tb = build_group("GL", 3, 2)
    members = membership_sets(tb, 1)
    act = enumerate_action(tb, ActionSpec("subspace", 1))
    mf = fixed_sets(tb, members, act)
    for x in range(len(tb)):
        rec = expectation_inequality(tb, x, members, act, member_fixed=mf)
        assert rec["rhs"] == rec["fpr"] * rec["expectation"]
    # intransitive (O-4(2) on its 5 singular and 10 nonsingular lines): the
    # product is no bound there; the per-orbit sum is, and on a
    # conjugation-stable subset it equals the mean of |Fix(x) & Fix(s)|
    tb = build_group("O-", 4, 2)
    members = membership_sets(tb, 1, "O")
    act = enumerate_action(tb, ActionSpec("subspace", 1))
    assert len(orbits(tb, act)) == 2
    mf = fixed_sets(tb, members, act)
    over_product = 0
    for x, xfix in enumerate(fixed_sets(tb, range(len(tb)), act)):
        rec = expectation_inequality(tb, x, members, act, member_fixed=mf)
        common = Fraction(sum(len(xfix & s) for s in mf), len(members))
        assert rec["rhs"] == common and rec["ok"]
        over_product += rec["lhs"] > rec["fpr"] * rec["expectation"]
    assert over_product > 0


def test_expectation_inequality_fails_off_a_conjugation_stable_subset():
    # s fixes one of the 7 points of GL3(2); as the whole subset it shares
    # that point with x = s, while the per-orbit bound spreads its one
    # fixed point over the orbit: 1 > 1/7
    tb = build_group("GL", 3, 2)
    act = enumerate_action(tb, ActionSpec("subspace", 1))
    s = next(i for i, fix in enumerate(fixed_sets(tb, range(len(tb)), act))
             if len(fix) == 1)
    rec = expectation_inequality(tb, s, [s], act,
                                 member_fixed=fixed_sets(tb, [s], act))
    assert (rec["lhs"], rec["rhs"], rec["ok"]) == (1, Fraction(1, 7), False)


def test_expectation_inequality_nonzero_case():
    tb = build_group("GL", 4, 2)
    members = membership_sets(tb, 1)
    spec = ActionSpec("subspace", 2)
    mf = fixed_sets(tb, members, enumerate_action(tb, spec))
    rec = expectation_inequality(tb, 2, members, spec, member_fixed=mf)
    assert rec["expectation"] > 0
    assert rec["ok"]


# ---------------------------------------------------------------------------
# fpr bounds.

def test_fpr_bound_check_linear_only():
    with pytest.raises(ValueError):
        fpr_bound_check(build_group("Sp", 2, 3))


def test_fpr_bound_check_gl32():
    tb = build_group("GL", 3, 2)
    reports = fpr_bound_check(tb)
    assert all(r.violations == 0 for r in reports)
    assert all(r.margin > 0 for r in reports)
    # transvections fix 3 of the 7 points, the scan maximum
    points = [r for r in reports
              if r.action.kind == "subspace" and not r.tau][0]
    assert points.fpr == Fraction(3, 7)
    assert points.checked == 167  # identity excluded
    tau_rows = [r for r in reports if r.tau]
    assert tau_rows and all(r.checked == 168 for r in tau_rows)
    # n = 3 is below the flag-refinement threshold
    assert not any(r.bound_id == "flag_refined" for r in reports)


def test_fpr_bound_check_excludes_scalars():
    tb = build_group("GL", 2, 3)
    reports = fpr_bound_check(tb, include_tau=False)
    assert all(r.checked == 46 for r in reports)  # 48 minus two scalars
    assert all(r.violations == 0 for r in reports)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fpr_bound_check_n2_tau_excludes_inner_elements(q):
    # for n = 2, tau is inner and the q - 1 elements c J tau act trivially
    tb = build_group("GL", 2, q)
    reports = fpr_bound_check(tb)
    assert all(r.violations == 0 for r in reports)
    assert all(r.checked == tb.order() - (q - 1) for r in reports)


def test_fpr_bound_check_flag_refinement_present_at_n4():
    tb = build_group("GL", 4, 2)
    reports = fpr_bound_check(tb, kmax=1, include_tau=False)
    ids = {(r.action.kind, r.bound_id) for r in reports}
    assert ("flag", "flag_refined") in ids
    assert ("antiflag", "flag_refined") in ids
    assert all(r.violations == 0 for r in reports)


# ---------------------------------------------------------------------------
# Symmetric groups.

def _brute_long_cycle_perms(n, t):
    count = 0
    for p in itertools.permutations(range(n)):
        seen = 0
        ok = True
        for i in range(n):
            if seen >> i & 1:
                continue
            ln, j = 0, i
            while not seen >> j & 1:
                seen |= 1 << j
                j = p[j]
                ln += 1
            if ln <= t:
                ok = False
                break
        count += ok
    return count


@pytest.mark.parametrize("t", [1, 2, 3])
def test_symmetric_counts_match_brute_force(t):
    counts = no_short_cycle_counts(7, t)
    for n in range(8):
        assert counts[n] == _brute_long_cycle_perms(n, t)


def test_symmetric_a_values():
    assert symmetric_a(4, 1) == Fraction(9, 24)
    for n in range(1, 4):
        assert symmetric_a(n, 3) == 0
    # derangement recurrence D_n = (n-1)(D_{n-1} + D_{n-2})
    d = [1, 0]
    for n in range(2, 9):
        d.append((n - 1) * (d[-1] + d[-2]))
    for n in range(9):
        assert symmetric_a(n, 1) == Fraction(d[n], math.factorial(n))


def test_symmetric_expectation_matches_brute_force():
    n, k, t = 8, 3, 1
    total = members = 0
    for p in itertools.permutations(range(n)):
        seen = 0
        lengths = []
        for i in range(n):
            if seen >> i & 1:
                continue
            ln, j = 0, i
            while not seen >> j & 1:
                seen |= 1 << j
                j = p[j]
                ln += 1
            lengths.append(ln)
        if min(lengths) <= t:
            continue
        members += 1
        # fixed k-sets are unions of whole cycles
        for r in range(1, len(lengths) + 1):
            for combo in itertools.combinations(lengths, r):
                if sum(combo) == k:
                    total += 1
    rep = symmetric_expectation(n, k, t)
    assert rep.value == Fraction(total, members)
    assert rep.comparator == symmetric_a(k, t)


def test_symmetric_expectation_preconditions():
    for bad in [(6, 3, 0), (6, 2, 3), (6, 3, 1), (5, 1, 1)]:
        n, k, t = bad
        if bad == (5, 1, 1):
            symmetric_expectation(n, k, t)  # 1 <= 1 < 5/2 is fine
        else:
            with pytest.raises(ValueError):
                symmetric_expectation(n, k, t)


# ---------------------------------------------------------------------------
# Identity wrappers.

def test_inverse_transpose_identity_small():
    assert inverse_transpose_identity_check(3, 2, 1)
    assert inverse_transpose_identity_check(2, 2, 1)
    with pytest.raises(ValueError):
        inverse_transpose_identity_check(1, 2, 1)


def test_orthogonal_identity_rejects_small_n():
    with pytest.raises(ValueError):
        orthogonal_reflection_identity_check(4, 2, 1)


# ---------------------------------------------------------------------------
# Signed permutations.

def _brute_weyl(m):
    hits = total = 0
    for perm in itertools.permutations(range(m)):
        for signs in itertools.product((0, 1), repeat=m):
            total += 1
            neg_even = {}
            seen = set()
            for i in range(m):
                if i in seen:
                    continue
                cyc = []
                j = i
                while j not in seen:
                    seen.add(j)
                    cyc.append(j)
                    j = perm[j]
                if sum(signs[c] for c in cyc) % 2 and len(cyc) % 2 == 0:
                    neg_even[len(cyc)] = neg_even.get(len(cyc), 0) + 1
            if all(v % 2 == 0 for v in neg_even.values()):
                hits += 1
    return Fraction(hits, total)


def test_weyl_exact_small_cases():
    assert weyl_negative_cycle_statistic(1).value == 1
    assert weyl_negative_cycle_statistic(2).value == Fraction(3, 4)
    for m in (3, 4):
        assert weyl_negative_cycle_statistic(m).value == _brute_weyl(m)


def test_weyl_montecarlo_covers_exact():
    exact = float(weyl_negative_cycle_statistic(4).value)
    rep = weyl_negative_cycle_statistic(4, trials=4000, seed=21)
    assert rep.ci_low <= exact <= rep.ci_high
    again = weyl_negative_cycle_statistic(4, trials=4000, seed=21)
    assert rep.value == again.value


def test_weyl_argument_errors():
    with pytest.raises(ValueError):
        weyl_negative_cycle_statistic(0)
    # m = 8 is one more coefficient of the series the exact route reads
    assert weyl_negative_cycle_statistic(8).value == Fraction(455, 768)
    with pytest.raises(ValueError):
        weyl_negative_cycle_statistic(4, trials=100)  # seed missing
    # bool is an int subclass; True would otherwise run one trial
    with pytest.raises(ValueError, match="^trials must be an integer, got True$"):
        weyl_negative_cycle_statistic(4, trials=True, seed=1)


def test_weyl_exact_route_is_capped_before_any_work(monkeypatch):
    # the series is never started above the cap; the sampler takes any m
    monkeypatch.setattr(stats, "Series", None)
    cap = stats.WEYL_EXACT_CAP
    with pytest.raises(ResourceCapExceeded, match=f"^exact statistic needs m <= {cap}$"):
        weyl_negative_cycle_statistic(cap + 1)
    assert weyl_negative_cycle_statistic(cap + 1, trials=10, seed=1).method == "montecarlo"


# ---------------------------------------------------------------------------
# Permutation groups and the generation probe.

def test_psl2_structure():
    g7 = psl2(7)
    assert g7.order() == 168
    sizes = sorted(len(c) for c in g7.conjugacy_classes())
    assert sizes == [1, 21, 24, 24, 42, 56]
    with pytest.raises(ValueError):
        psl2(9)
    with pytest.raises(ValueError):
        psl2(3)


def test_psl2_beyond_the_cap_fails_before_closing(monkeypatch):
    # PSL(2,163) has order 2 165 292, above PERM_GROUP_CAP: no closure starts
    closed = []
    monkeypatch.setattr(stats, "PermGroup", lambda *args, **kwargs: closed.append(args))
    with pytest.raises(ResourceCapExceeded, match="2165292"):
        psl2(163)
    assert closed == []
    monkeypatch.undo()
    monkeypatch.setattr(stats, "PERM_GROUP_CAP", 168)
    assert psl2(7).order() == 168
    monkeypatch.setattr(stats, "PERM_GROUP_CAP", 167)
    with pytest.raises(ResourceCapExceeded):
        psl2(7)


def test_perm_group_basics(monkeypatch):
    g = PermGroup(3, [(1, 2, 0)])
    assert g.order() == 3
    a = (1, 2, 0)
    assert g.mul(a, g.inv(a)) == g.identity
    assert g.element_order(a) == 3
    with pytest.raises(ValueError):
        PermGroup(3, [(0, 0, 1)])
    monkeypatch.setattr(stats, "PERM_GROUP_CAP", 3)
    with pytest.raises(ResourceCapExceeded):
        PermGroup(5, [(1, 2, 3, 4, 0)])


def test_psl2_is_one_sorted_row_array_behind_the_table_views():
    g7 = psl2(7)
    assert type(g7.elements) is matgroup._Elements
    assert type(g7.index) is matgroup._Index
    assert not g7.rows.flags.writeable
    assert not hasattr(g7, "products")
    assert list(g7.elements) == sorted(g7.elements)
    assert g7.index.find(g7.rows[::-1]).tolist() == list(range(167, -1, -1))
    assert g7.index.find(g7._encode([tuple(reversed(range(8)))])).tolist() == [-1]
    assert np.shares_memory(g7.index._sorted[0], g7.rows)  # the index holds no sorted copy
    # two bytes per point: the keys still sort in tuple order
    g300 = PermGroup(300, [tuple(range(1, 300)) + (0,)])
    assert list(g300.elements) == sorted(g300.elements)
    assert [g300.index[e] for e in g300.elements] == list(range(300))
    # every proper subgroup of PSL(2,p) has index at least p
    assert (g7.subgroup_bound, PermGroup(3, [(1, 2, 0)]).subgroup_bound) == (168 // 7, 1)


def test_psl2_build_memory_stays_under_400_mb():
    # 515 100 elements of 102 bytes; the peak is the child's VmHWM, as in
    # test_packed_sampler_memory_does_not_grow_with_trials
    script = textwrap.dedent("""
        from classprop.stats import psl2
        assert psl2(101).order() == 515100
        with open("/proc/self/status") as f:
            print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(stats.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(proc.stdout) < 400 * 1024  # kB


def test_permutation_group_conversion_and_faithfulness():
    tb = build_group("GL", 3, 2)
    pg = permutation_group(tb, ActionSpec("subspace", 1))
    assert pg.order() == 168
    assert len(pg.conjugacy_classes()) == 6  # it is PSL(2,7) again
    # scalars act trivially on projective points, so GL_2(3) is not faithful
    with pytest.raises(ValueError):
        permutation_group(build_group("GL", 2, 3), ActionSpec("subspace", 1))


def test_generation_probe_exhaustive_order7():
    g7 = psl2(7)
    rep7 = next(
        c[0] for c in g7.conjugacy_classes()
        if g7.element_order(g7.elements[c[0]]) == 7
    )
    rec = generation_probe(g7, rep7)
    assert rec.value == Fraction(7, 8)
    assert rec.witness is not None
    # coset pools and element tuples are accepted too
    rec2 = generation_probe(g7, g7.elements[rep7], coset=g7.elements)
    assert rec2.value == rec.value


def test_generation_probe_montecarlo():
    g7 = psl2(7)
    rec = generation_probe(g7, 1, trials=400, seed=23)
    assert rec.method == "montecarlo"
    assert 0 < rec.value <= 1
    assert rec.ci_low < rec.value < rec.ci_high
    again = generation_probe(g7, 1, trials=400, seed=23)
    assert rec.hits == again.hits


def test_generation_probe_frozen_hits():
    g11 = psl2(11)
    x = next(c[0] for c in g11.conjugacy_classes()
             if g11.element_order(g11.elements[c[0]]) == 11)
    rec = generation_probe(g11, x, trials=2000, seed=5)
    assert rec.hits == 1825


def test_generation_probe_rejects_identity_and_bad_trials():
    g7 = psl2(7)
    with pytest.raises(ValueError):
        generation_probe(g7, 0)
    with pytest.raises(ValueError):
        generation_probe(g7, 1, trials=0)
    with pytest.raises(ValueError):
        generation_probe(g7, 1, trials=10)  # seed missing
    with pytest.raises(ValueError):
        generation_probe(g7, 1, coset=[])
    with pytest.raises(ValueError, match="^trials must be an integer, got True$"):
        generation_probe(g7, 1, trials=True, seed=1)


def test_generation_probe_rejects_elements_outside_the_group():
    g7 = psl2(7)
    outside = tuple(reversed(range(8)))
    assert outside not in g7.index
    for pool in ([outside], [g7.elements[1], outside]):
        with pytest.raises(ValueError, match="not an element of PSL"):
            generation_probe(g7, 1, coset=pool)
        with pytest.raises(ValueError, match="not an element of PSL"):
            generation_probe(g7, 1, coset=pool, trials=50, seed=3)
    with pytest.raises(ValueError, match="not an element of PSL"):
        generation_probe(g7, outside)


def _count_closures(monkeypatch):
    """The generator pairs of every stats.bfs_closure call from now on."""
    calls = []
    closure = stats.bfs_closure

    def counted(space, gens, *args, **kwargs):
        calls.append(gens)
        return closure(space, gens, *args, **kwargs)

    monkeypatch.setattr(stats, "bfs_closure", counted)
    return calls


def test_generation_probe_closes_once_per_double_coset(monkeypatch):
    # x of order 11 in PSL(2,11): 605 partners generate, in 5 double cosets
    # <x>s<x> of 121 elements; the other 55 form the normaliser of <x>, so
    # at most 7 closures: one per double coset, <x> and the normaliser
    g11 = psl2(11)
    x = next(c[0] for c in g11.conjugacy_classes()
             if g11.element_order(g11.elements[c[0]]) == 11)
    calls = _count_closures(monkeypatch)
    for seed in range(10):
        rep = generation_probe(g11, x, trials=2000, seed=seed)
        assert len(calls) <= 7, seed
        calls.clear()
    # the last report's shared verdicts agree with one closure per draw
    assert rep == _ref_probe(g11, g11.elements[x], trials=2000, seed=9)
    assert generation_probe(g11, x).hits == 605
    assert len(calls) == 7


def test_three_halves_generation_closure_count(monkeypatch):
    g7 = psl2(7)
    calls = _count_closures(monkeypatch)
    three_halves_generation(g7)
    assert len(calls) == 68  # one closure per partner made 840


def test_three_halves_generation_psl27():
    recs = three_halves_generation(psl2(7))
    assert len(recs) == 5
    assert all(rec["proportion"] > 0 for rec in recs)
    by_order = {rec["element_order"]: rec["proportion"] for rec in recs}
    assert by_order[7] == Fraction(7, 8)
    assert by_order[2] == Fraction(10, 21)
    assert by_order[3] == Fraction(15, 28)
    assert by_order[4] == Fraction(16, 21)
