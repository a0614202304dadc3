"""Tests for the group algebra Q[C_m] and the truncated series algebra."""

import random
from fractions import Fraction

import pytest

from classprop.cyclo import CycRing
from classprop.gf import Field, has_small_degree_factor
from classprop import series
from classprop.series import (
    Series,
    gl_no_small_factor_series,
    sl_coset_series,
)
from oracles import (
    euler_base_series,
    euler_direct_product_series,
    euler_factor_series,
    gl_euler_product_series,
    graded_product_series,
    residue_product_series,
    series_pow,
    unitary_residue_product_series,
)

# ---------------------------------------------------------------------------
# Group algebra Q[C_m].

@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_zeta_has_order_m(m):
    R = CycRing(m)
    p = R.one
    for k in range(1, m + 1):
        p = p * R.zeta_pow(1)
        if k < m and m > 1:
            assert p != R.one, (m, k)
    assert p == R.one


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 12])
def test_root_sum_vanishes(m):
    # E = sum_k e_k is killed by every 1 - e_k, so every character other
    # than the trivial one sends the root sum E to 0; the det-graded coset
    # series relies on E e_k = E
    R = CycRing(m)
    E = R.zero
    for k in range(m):
        E = E + R.zeta_pow(k)
    for k in range(m):
        assert E * (R.one - R.zeta_pow(k)) == R.zero
    assert E * E == E * m


def test_ring_arithmetic_random():
    rng = random.Random(7)
    R = CycRing(8)
    for _ in range(100):
        xs = [R.zeta_pow(rng.randrange(8)) for _ in range(3)]
        a, b, c = xs
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a


def test_cross_ring_mix_rejected():
    with pytest.raises(ValueError):
        CycRing(3).coerce(CycRing(4).zeta_pow(1))


# ---------------------------------------------------------------------------
# Series algebra.

def test_series_mismatch_errors():
    a = Series.one(4)
    b = Series.one(5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * Series.one(4, CycRing(3))


def test_pow_matches_repeated_mul():
    s = Series([1, 2, 3, 4, 5])
    p = Series.one(4)
    for k in range(5):
        assert series_pow(s, k) == p
        p = p * s


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError, match="k must be at least 0"):
        series_pow(Series([1, 2, 3]), -1)


# ---------------------------------------------------------------------------
# Euler factors: the q-exponential identity against the direct product.

@pytest.mark.parametrize(
    "a,c,j",
    [
        (Fraction(1, 2), 1, 1),
        (Fraction(1, 4), 1, 2),
        (Fraction(1, 8), 1, 3),
        (Fraction(1, 3), -1, 1),
        (Fraction(1, 9), 2, 2),
        (Fraction(-1, 2), 1, 1),
        (Fraction(2, 5), Fraction(1, 3), 1),
    ],
)
def test_euler_identity_vs_truncated_product(a, c, j):
    order = 12
    via_identity = euler_base_series(a, c, j, order)
    via_product = euler_direct_product_series(a, c, j, order, 64)
    for x, y in zip(via_identity.coeffs, via_product.coeffs):
        assert abs(x - y) <= Fraction(1, 2**50)


def test_euler_identity_cyclotomic_coefficient():
    R = CycRing(4)
    c = R.zeta_pow(1)
    s1 = euler_base_series(Fraction(1, 3), c, 1, 8, R)
    s2 = euler_direct_product_series(Fraction(1, 3), c, 1, 8, 64, R)
    for x, y in zip(s1.coeffs, s2.coeffs):
        d = x - y
        assert all(abs(v) <= Fraction(1, 2**50) for v in d.coeffs)


def test_euler_factor_series_examples():
    # the reference Euler factor of the GL oracle, non-negative exponents only
    s = euler_factor_series(2, 1, 1, 2)
    assert s.coeff(0) == 1
    assert s.coeff(1) == -1
    assert s.coeff(2) == Fraction(1, 3)
    assert euler_factor_series(5, 2, 0, 6) == Series.one(6)
    for (q, j, m) in [(2, 1, 1), (3, 2, 4), (4, 1, 2)]:
        assert euler_factor_series(q, j, m, 5).coeff(0) == 1


def test_euler_factor_argument_errors():
    with pytest.raises(ValueError):
        euler_factor_series(1, 1, 1, 4)
    with pytest.raises(ValueError):
        euler_factor_series(2, 0, 1, 4)
    with pytest.raises(ValueError):
        euler_factor_series(2, 1, -1, 4)
    with pytest.raises(ValueError):
        euler_base_series(Fraction(3, 2), 1, 1, 4)


# ---------------------------------------------------------------------------
# Dimension-by-dimension brute force over all invertible matrices.  Charpoly
# for n <= 3 comes from trace / principal 2x2 minors / determinant, so these
# oracles share no code with the series under test.

def _charpoly2(F, m):
    (a, b), (c, d) = m
    det = F.sub(F.mul(a, d), F.mul(b, c))
    tr = F.add(a, d)
    return (det, F.neg(tr), 1)


def _charpoly3(F, m):
    (a, b, c), (d, e, f), (g, h, i) = m
    mul, sub, add = F.mul, F.sub, F.add
    det = sub(
        add(mul(a, sub(mul(e, i), mul(f, h))), mul(c, sub(mul(d, h), mul(e, g)))),
        mul(b, sub(mul(d, i), mul(f, g))),
    )
    tr = add(add(a, e), i)
    s2 = add(
        add(sub(mul(a, e), mul(b, d)), sub(mul(a, i), mul(c, g))),
        sub(mul(e, i), mul(f, h)),
    )
    return (F.neg(det), s2, F.neg(tr), 1)


def _brute_coset_proportions(q, n, t):
    """Map det-dlog -> proportion of that coset avoiding degree <= t factors."""
    import itertools

    F = Field(q)
    charpoly = _charpoly2 if n == 2 else _charpoly3
    total = {}
    good = {}
    for flat in itertools.product(range(q), repeat=n * n):
        m = tuple(flat[r * n : (r + 1) * n] for r in range(n))
        f = charpoly(F, m)
        if f[0] == 0:  # zero determinant up to sign: singular
            continue
        d = F.dlog[F.mul(F.minus_one_to(n), f[0])]
        total[d] = total.get(d, 0) + 1
        if not has_small_degree_factor(F, f, t):
            good[d] = good.get(d, 0) + 1
    return {d: Fraction(good.get(d, 0), total[d]) for d in total}


@pytest.mark.parametrize("q,t", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (5, 1)])
def test_coset_series_vs_brute_force_n2(q, t):
    brute = _brute_coset_proportions(q, 2, t)
    for mu in range(max(q - 1, 1)):
        s = sl_coset_series(q, t, mu, 2)
        assert s.coeff(2) == brute[mu % max(q - 1, 1)], (q, t, mu)


@pytest.mark.parametrize("q,t", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_coset_series_vs_brute_force_n3(q, t):
    brute = _brute_coset_proportions(q, 3, t)
    for mu in range(max(q - 1, 1)):
        s = sl_coset_series(q, t, mu, 3)
        assert s.coeff(3) == brute[mu % max(q - 1, 1)], (q, t, mu)


def test_coset_series_vs_brute_force_n3_q4():
    # q - 1 = 3 is the smallest modulus with a det class not equal to its
    # own negative.  Transpose-inverse swaps the cosets mu and -mu while
    # star-conjugating the charpoly, which preserves factor degrees, so the
    # proportions must coincide; the series must reproduce that too.
    brute = _brute_coset_proportions(4, 3, 1)
    assert brute[1] == brute[2]
    for mu in range(3):
        s = sl_coset_series(4, 1, mu, 3)
        assert s.coeff(3) == brute[mu], mu


@pytest.mark.parametrize("q,t", [(4, 1), (4, 2), (5, 1), (7, 1)])
def test_coset_series_negation_duality(q, t):
    # same transpose-inverse symmetry at the series level
    order = 6
    for mu in range(1, q - 1):
        a = sl_coset_series(q, t, mu, order)
        b = sl_coset_series(q, t, (q - 1 - mu) % (q - 1), order)
        assert a.coeffs == b.coeffs


# Coefficients n = 3, 4 of every coset at q in {5, 7}, t in {1, 2}, as the
# character-sum route over Q(zeta_{q-1}) computed them before it was replaced
# by the det-graded product over Q[C_{q-1}].
FROZEN_COSET_COEFFS = {
    (5, 1): [("10/31", "625/1872"), ("10/31", "1/3"), ("10/31", "49/144"), ("10/31", "1/3")],
    (5, 2): [("10/31", "3/13"), ("10/31", "1/4"), ("10/31", "3/13"), ("10/31", "1/4")],
    (7, 1): [("6/19", "2217/6400"), ("1/3", "11/32"), ("1/3", "2217/6400"),
             ("6/19", "11/32"), ("1/3", "2217/6400"), ("1/3", "11/32")],
    (7, 2): [("6/19", "6/25"), ("1/3", "1/4"), ("1/3", "6/25"),
             ("6/19", "1/4"), ("1/3", "6/25"), ("1/3", "1/4")],
}


@pytest.mark.parametrize("q,t", sorted(FROZEN_COSET_COEFFS))
def test_coset_series_frozen_values(q, t):
    for mu, want in enumerate(FROZEN_COSET_COEFFS[q, t]):
        s = sl_coset_series(q, t, mu, 4)
        assert (s.coeff(3), s.coeff(4)) == tuple(Fraction(w) for w in want), (q, t, mu)


def test_coset_series_returns_fresh_series():
    # cosets share one memoised graded product; a caller's edit must not leak
    s = sl_coset_series(5, 1, 1, 4)
    s.coeffs[3] = Fraction(0)
    assert sl_coset_series(5, 1, 1, 4).coeff(3) == Fraction(10, 31)


# ---------------------------------------------------------------------------
# Generating series structure.

def test_gl_series_frozen_values():
    s = gl_no_small_factor_series(2, 1, 6)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 0
    assert s.coeff(2) == Fraction(1, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_gl_series_linear_coeff_vanishes(q):
    # every 1x1 invertible matrix is its own eigenvalue
    assert gl_no_small_factor_series(q, 1, 2).coeff(1) == 0


@pytest.mark.parametrize("q,t", [(2, 1), (2, 3), (3, 2), (5, 1), (8, 1)])
def test_gl_series_coeffs_are_proportions(q, t):
    s = gl_no_small_factor_series(q, t, 10)
    assert all(0 <= c <= 1 for c in s.coeffs)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_gl_series_monotone_in_t(q):
    prev = gl_no_small_factor_series(q, 1, 8)
    for t in (2, 3):
        cur = gl_no_small_factor_series(q, t, 8)
        assert all(c2 <= c1 for c1, c2 in zip(prev.coeffs, cur.coeffs))
        prev = cur


# The graded product at modulus 1 against the rational Euler product: every
# q of the grid at each t <= 4, to an order that keeps the grid to about a
# second, and three points at high order.
GL_ORACLE_ORDERS = {2: 40, 3: 24, 4: 20, 5: 16, 7: 16, 8: 12, 9: 12, 16: 10, 27: 10, 81: 8}
GL_ORACLE_GRID = [(q, t, order) for q, order in GL_ORACLE_ORDERS.items() for t in range(1, 5)]
GL_ORACLE_GRID += [(9, 4, 40), (27, 3, 30), (81, 2, 20)]


@pytest.mark.parametrize("q,t,order", GL_ORACLE_GRID)
def test_gl_series_matches_rational_product(q, t, order):
    assert gl_no_small_factor_series(q, t, order) == gl_euler_product_series(q, t, order)


# The graded series at modulus q - 1 against the product oracle, over the
# coset cases, and at a proper divisor m of q - 1 where its counts fold.
GRADED_ORACLE_CASES = [(5, 2, 8, 4), (7, 2, 12, 6), (7, 1, 12, 6), (5, 1, 8, 4),
                       (9, 2, 12, 8), (4, 3, 20, 3), (13, 2, 12, 12),
                       (9, 2, 12, 2), (13, 2, 12, 4), (7, 3, 10, 3)]


@pytest.mark.parametrize("q,t,order,m", GRADED_ORACLE_CASES)
def test_graded_series_matches_product_oracle(q, t, order, m):
    assert series._graded_series(q, t, order, m) == graded_product_series(q, t, order, m)


def test_gl_series_argument_errors():
    with pytest.raises(ValueError):
        gl_no_small_factor_series(2, 0, 4)
    for q in (1, 6, 12):
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            gl_no_small_factor_series(q, 1, 4)


def test_sl_q2_equals_gl():
    for t in (1, 2, 3):
        assert sl_coset_series(2, t, 0, 8).coeffs == gl_no_small_factor_series(2, t, 8).coeffs


@pytest.mark.parametrize("q,t", [(3, 1), (3, 2), (4, 1), (5, 1), (5, 2), (7, 1)])
def test_coset_average_recovers_gl(q, t):
    # every det coset has |SL_n(q)| elements, so the plain average over
    # coset labels must reproduce the full-group proportion exactly
    order = 6
    g = gl_no_small_factor_series(q, t, order)
    cosets = [sl_coset_series(q, t, mu, order) for mu in range(q - 1)]
    for n in range(1, order + 1):
        assert sum(c.coeff(n) for c in cosets) / (q - 1) == g.coeff(n)


@pytest.mark.parametrize("q,t", [(3, 1), (4, 1), (5, 2)])
def test_coset_coeffs_are_proportions(q, t):
    for mu in range(q - 1):
        s = sl_coset_series(q, t, mu, 6)
        assert all(0 <= c <= 1 for c in s.coeffs), (q, t, mu)


def test_coset_label_validated():
    with pytest.raises(ValueError):
        sl_coset_series(3, 1, 2, 4)
    with pytest.raises(ValueError):
        sl_coset_series(3, 1, -1, 4)
    with pytest.raises(ValueError):
        sl_coset_series(6, 1, 0, 4)


# ---------------------------------------------------------------------------
# Residue-weighted products over irreducibles telescope in Q[C_m]: to
# 1 - E u/(1 - u) for the linear product and 1 - E u/(1 + u) for the unitary
# one, with E = sum_k e_k.  The weight a sends e_k to e_{ak} and E to
# sum_k e_{ak}, which is E itself when a is a unit mod m.

def _weighted_root_sum(R, a):
    return sum((R.zeta_pow(a * k) for k in range(R.m)), R.zero)


@pytest.mark.parametrize(
    "q,a,order",
    [(3, 1, 8), (4, 1, 6), (4, 2, 6), (5, 1, 6), (5, 2, 6), (5, 3, 6)],
)
def test_linear_residue_product_collapses(q, a, order):
    s = residue_product_series(q, a, order)
    R = s.ring
    E = _weighted_root_sum(R, a)
    assert s.coeffs[0] == R.one
    assert all(c == -E for c in s.coeffs[1:])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_linear_residue_product_trivial_weight(q):
    # with weight 0 every e_k becomes e_0: the product is (1 - qu)/(1 - u)
    order = 6
    s = residue_product_series(q, 0, order)
    R = s.ring
    assert s.coeff(0) == R.one
    assert all(s.coeff(n) == R.coerce(-(q - 1)) for n in range(1, order + 1))


@pytest.mark.parametrize(
    "q0,a,order", [(2, 1, 6), (2, 2, 6), (3, 1, 4), (3, 3, 4), (2, 0, 6), (3, 0, 4)]
)
def test_unitary_residue_product_collapses(q0, a, order):
    s = unitary_residue_product_series(q0, a, order)
    R = s.ring
    E = _weighted_root_sum(R, a)
    assert s.coeffs[0] == R.one
    assert all(c == E * (-1) ** n for n, c in enumerate(s.coeffs) if n)
