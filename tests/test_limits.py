"""Tests for the rigorous infinite-product enclosures."""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from classprop import limits
from classprop.gf import count_irreducibles
from classprop.limits import (
    DEFAULT_TOL,
    Enclosure,
    LimitFamily,
    ProductAtom,
    atom_log_enclosure,
    bound_suite,
    exp_enclosure,
    family_atoms,
    limit_from_series,
    limit_value,
    log1p_enclosure,
    q_infinity_limit,
)
from classprop.series import Series, gl_no_small_factor_series, sl_coset_series
from oracles import exp_lower_fractions, log1p_enclosure_fractions


def _contains_mp(enc, mp_value):
    """enc contains the high-precision value, up to mpmath's own error."""
    pad = mpmath.mpf(10) ** (-(mpmath.mp.dps - 5))
    lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
    hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
    return lo - pad <= mp_value <= hi + pad


# ---------------------------------------------------------------------------
# Interval primitives.

def test_enclosure_basics():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.width == Fraction(1, 6)
    assert e.contains(Fraction(2, 5))
    assert not e.contains(Fraction(3, 5))
    assert e.scale(2).hi == 1
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        e.scale(-1)


def test_log1p_enclosure_against_mpmath():
    mpmath.mp.dps = 40
    rng = random.Random(11)
    for _ in range(60):
        y = Fraction(rng.randint(-90, 90), 100)
        if y == 0:
            continue
        budget = Fraction(1, 10 ** rng.randint(6, 20))
        enc = log1p_enclosure(y, budget)
        assert enc.width <= 2 * budget
        true = mpmath.log(1 + mpmath.mpf(y.numerator) / y.denominator)
        assert _contains_mp(enc, true)


def test_log1p_domain_error():
    with pytest.raises(ValueError):
        log1p_enclosure(Fraction(-1), Fraction(1, 100))
    with pytest.raises(ValueError):
        log1p_enclosure(Fraction(3, 2), Fraction(1, 100))


def test_exp_enclosure_against_mpmath():
    mpmath.mp.dps = 40
    rng = random.Random(13)
    for _ in range(40):
        z = Fraction(rng.randint(-600, 300), 100)
        enc = exp_enclosure(z)
        assert _contains_mp(enc, mpmath.exp(mpmath.mpf(z.numerator) / z.denominator))
        assert enc.width < Fraction(1, 10**20)
    enc = exp_enclosure(Enclosure(Fraction(-1), Fraction(1)))
    assert enc.contains(Fraction(1))


# ---------------------------------------------------------------------------
# Integer Taylor sums against the Fraction loops they replaced: a Fraction
# is always in lowest terms, so every endpoint must be equal.

def _via_fraction_loops(fn, *args):
    """fn(*args) with the log1p and exp Taylor sums of tests/oracles.py."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "log1p_enclosure", log1p_enclosure_fractions)
        mp.setattr(limits, "_exp_lower", exp_lower_fractions)
        return fn(*args)


def test_bound_suite_matches_fraction_loops():
    grid = ((2, 3, 4, 5, 7, 8, 9), (1, 2, 3, 4), Fraction(1, 10**9))
    assert bound_suite(*grid) == _via_fraction_loops(bound_suite, *grid)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 16, 27, 101, 1000, 10**4, 10**4 + 1])
def test_limit_value_matches_fraction_loops(q):
    for tag in ("GL", "SU", "Sp", "O"):
        for t in (1, 2, 3, 4):
            for tol in (Fraction(1, 10**6), Fraction(1, 10**9), Fraction(1, 10**12)):
                fam = LimitFamily(tag, q, t)
                assert limit_value(fam, tol) == _via_fraction_loops(limit_value, fam, tol), \
                    (fam, tol)


def test_random_enclosures_match_fraction_loops():
    rng = random.Random(31)
    for _ in range(200):
        if rng.random() < 0.5:
            y = Fraction(rng.randint(-500, 500), 1000)
        else:
            y = Fraction(rng.choice((-1, 1)), rng.randint(2, 10**4) ** rng.randint(1, 6))
        budget = Fraction(rng.randint(1, 999), 10 ** rng.randint(3, 40))
        assert log1p_enclosure(y, budget) == log1p_enclosure_fractions(y, budget), (y, budget)
    for _ in range(200):
        lo = Fraction(rng.randint(-600, 300), 100) + Fraction(rng.randint(-10**6, 10**6),
                                                              10 ** rng.randint(6, 30))
        z = Enclosure(lo, lo + Fraction(rng.randint(0, 10**6), 10 ** rng.randint(6, 30)))
        assert exp_enclosure(z) == _via_fraction_loops(exp_enclosure, z), z
        assert exp_enclosure(z.lo) == _via_fraction_loops(exp_enclosure, z.lo), z.lo


# ---------------------------------------------------------------------------
# Atom products against direct high-precision evaluation.

def _mp_atom_value(atom, q, imax=500):
    mpmath.mp.dps = 50
    total = mpmath.mpf(1)
    for i in range(1, imax + 1):
        s = atom.sign * ((-1) ** i if atom.alternating else 1)
        total *= (1 + s * mpmath.mpf(q) ** -(atom.step * i + atom.offset)) ** atom.m
    return total


@pytest.mark.parametrize(
    "atom,q",
    [
        (ProductAtom(step=1, sign=-1, m=1), 2),
        (ProductAtom(step=1, sign=-1, m=4), 5),
        (ProductAtom(step=2, offset=-1, sign=-1, m=2), 3),
        (ProductAtom(step=1, sign=1, alternating=True, m=3), 2),
        (ProductAtom(step=2, sign=-1, m=6), 4),
    ],
)
def test_atom_enclosure_against_mpmath(atom, q):
    enc = exp_enclosure(atom_log_enclosure(atom, q, Fraction(1, 10**12)))
    assert _contains_mp(enc, _mp_atom_value(atom, q))


def _mp_family_value(fam):
    total = mpmath.mpf(1)
    for atom in family_atoms(fam):
        total *= _mp_atom_value(atom, fam.q)
    if fam.tag == "O_half":
        total /= 2
    return total


@pytest.mark.parametrize(
    "tag,q,t",
    [
        ("GL", 2, 1),
        ("GL", 2, 4),
        ("GL", 3, 2),
        ("GL", 9, 3),
        ("SU", 2, 1),
        ("SU", 3, 3),
        ("Sp_odd", 3, 1),
        ("Sp_odd", 5, 4),
        ("Sp_even", 2, 2),
        ("Sp_even", 8, 1),
        ("O_half", 2, 1),
        ("O_half", 3, 2),
    ],
)
def test_limit_value_against_mpmath(tag, q, t):
    fam = LimitFamily(tag, q, t)
    enc = limit_value(fam)
    assert enc.width <= DEFAULT_TOL
    assert _contains_mp(enc, _mp_family_value(fam))


def test_gl_q2_t1_reference_digits():
    # prod (1 - 2^-i) = 0.2887880950866...
    enc = limit_value(LimitFamily("GL", 2, 1))
    assert enc.contains(Fraction(2887880950866, 10**13))


def test_tolerance_is_respected():
    for tol in (Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**12)):
        enc = limit_value(LimitFamily("GL", 3, 2), tol)
        assert enc.width <= tol


def test_enclosures_nest_around_true_value():
    for tag, q, t in [("GL", 2, 2), ("Sp_odd", 3, 2), ("SU", 2, 2)]:
        loose = limit_value(LimitFamily(tag, q, t), Fraction(1, 10**4))
        tight = limit_value(LimitFamily(tag, q, t), Fraction(1, 10**12))
        assert loose.contains(tight.midpoint)
        assert tight.width < loose.width


def test_o_half_is_half_symplectic():
    for q in (2, 3):
        o = limit_value(LimitFamily("O", q, 2))
        sp = limit_value(LimitFamily("Sp", q, 2))
        assert o.lo == sp.lo / 2 and o.hi == sp.hi / 2


def test_family_validation():
    with pytest.raises(ValueError):
        LimitFamily("Sp_odd", 4, 1)
    with pytest.raises(ValueError):
        LimitFamily("Sp_even", 3, 1)
    with pytest.raises(ValueError):
        LimitFamily("GL", 1, 1)
    with pytest.raises(ValueError):
        LimitFamily("GL", 2, 0)
    with pytest.raises(ValueError):
        LimitFamily("XX", 2, 1)
    assert LimitFamily("Sp", 9, 1).tag == "Sp_odd"
    assert LimitFamily("O", 4, 1).tag == "O_half"
    with pytest.raises(ValueError):
        limit_value(LimitFamily("GL", 2, 1), 0)


def test_limit_value_refuses_tolerances_below_the_taylor_floor():
    # 48 Taylor terms leave every exp enclosure of the GL q=2 t=1 value
    # about 5.8e-60 wide, so a narrower target can never be met
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Taylor terms"):
        limit_value(LimitFamily("GL", 2, 1), Fraction(1, 10**70))
    assert time.perf_counter() - start < 1


def test_su_atoms_skip_even_degrees():
    fam = LimitFamily("SU", 3, 2)
    alts = [a for a in family_atoms(fam) if a.alternating]
    assert all(a.step % 2 == 1 for a in alts)


# ---------------------------------------------------------------------------
# Series-side limit reading.

def test_limit_from_series_matches_enclosure():
    s = gl_no_small_factor_series(2, 1, 40)
    sl = limit_from_series(s)
    enc = limit_value(LimitFamily("GL", 2, 1))
    assert not sl.rigorous
    assert abs(sl.estimate - enc.midpoint) < Fraction(1, 10**6)
    assert sl.gap < Fraction(1, 10**9)


def test_limit_from_series_coset_limits_agree():
    enc = limit_value(LimitFamily("GL", 3, 1))
    for mu in (0, 1):
        sl = limit_from_series(sl_coset_series(3, 1, mu, 40))
        assert abs(sl.estimate - enc.midpoint) < Fraction(1, 10**4)


def test_limit_from_series_short_series_rejected():
    with pytest.raises(ValueError):
        limit_from_series(Series.one(1))


def test_limit_from_series_constant_tail():
    sl = limit_from_series(Series.geometric(5))
    assert sl.estimate == 1 and sl.gap == 0


# ---------------------------------------------------------------------------
# Closed forms at q -> infinity.

def test_q_infinity_closed_forms():
    assert math.isclose(q_infinity_limit("GL", 1), math.exp(-1))
    assert math.isclose(q_infinity_limit("GL", 2), math.exp(-1.5))
    assert math.isclose(q_infinity_limit("Sp", 1), math.exp(-0.5))
    assert math.isclose(q_infinity_limit("Sp", 2), math.exp(-1.25))
    assert math.isclose(q_infinity_limit("SU", 1), math.exp(-1.5))
    assert math.isclose(q_infinity_limit("SU", 2), math.exp(-(1 + 0.75)))
    assert math.isclose(q_infinity_limit("O", 1), math.exp(-0.5) / 2)
    assert math.isclose(q_infinity_limit("Sp_odd", 3), q_infinity_limit("Sp", 3))
    with pytest.raises(ValueError):
        q_infinity_limit("GL", 0)
    with pytest.raises(ValueError):
        q_infinity_limit("nope", 1)


def test_large_q_approaches_closed_form():
    enc = limit_value(LimitFamily("GL", 10**4, 1), Fraction(1, 10**6))
    assert abs(float(enc.midpoint) - q_infinity_limit("GL", 1)) < 1e-3


def test_large_q_non_prime_power_accepted():
    # 10^4 and 10^4 + 1 are not prime powers; the count formulas still apply
    enc = limit_value(LimitFamily("Sp", 10**4 + 1, 2), Fraction(1, 10**6))
    assert 0 < enc.lo < enc.hi < 1


# ---------------------------------------------------------------------------
# Bound suite.

def test_bound_suite_small_grid():
    rep = bound_suite([2, 3], [1, 2], tol=Fraction(1, 10**9))
    assert rep["all_pass"] and not rep["failures"]
    tags = {(e["family"], e["q"], e["t"]) for e in rep["entries"]}
    assert ("GL", 2, 1) in tags and ("Sp_odd", 3, 2) in tags
    assert ("Sp_even", 2, 1) in tags and ("O_half", 3, 1) in tags
    for e in rep["entries"]:
        assert e["margin_to_0"] > 0 and e["margin_to_1"] > 0
        if e["family"] == "GL":
            assert e["checks"]["le_inv_sqrt_e"] and e["checks"]["per_degree_floor"]


def test_bound_suite_gl_reference_margin():
    rep = bound_suite([2], [1])
    gl = next(e for e in rep["entries"] if e["family"] == "GL")
    # 0.2888 <= 0.6065, with room to spare
    assert gl["hi"] < Fraction(6066, 10**4)
    assert gl["lo"] > Fraction(1, 15)  # comfortably above e^(-8/3) ~ 0.0699
