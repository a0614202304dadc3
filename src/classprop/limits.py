"""Rigorous enclosures for the limiting no-small-factor proportions.

Each family limit is an infinite product of atoms of the shape

    prod_{i>=1} (1 + s_i q^{-(step*i + offset)})^m,   s_i = sign or sign*(-1)^i.

Everything is evaluated in log space with exact rational interval arithmetic:
log(1+y) via bracketed alternating series, the i > I tail via

    |log prod_{i>I}| <= 2|m| q^{-e(I+1)} / (1 - q^{-step}),

valid because every q^{-e(i)} here is <= 1/2, and exp via Taylor sums with a
geometric remainder cap.  Each Taylor partial sum is formed over the integers,
on the common denominator of its terms, and normalised into one Fraction at
the end; a Fraction is always in lowest terms, so the endpoints are those of
the term-by-term sum.  The returned interval provably contains the exact
infinite product and has width at most the requested tolerance.

q only needs to be an integer >= 2 (the irreducible-count formulas are
polynomial in q), so the large-q sanity checks can use round numbers that are
not prime powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp as _fexp, factorial, lcm, log1p
from sys import float_info

from .gf import _check_int, count_irreducibles

DEFAULT_TOL = Fraction(1, 10**9)
_EXP_TERMS = 48  # Taylor terms in every exp enclosure

FAMILY_TAGS = ("GL", "SU", "Sp_odd", "Sp_even", "O_half")


@dataclass(frozen=True)
class Enclosure:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return (self.lo + self.hi) / 2

    def contains(self, x):
        return self.lo <= x <= self.hi

    def scale(self, c):
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return Enclosure(self.lo * c, self.hi * c)

    def __add__(self, other):
        return Enclosure(self.lo + other.lo, self.hi + other.hi)


@dataclass(frozen=True)
class LimitFamily:
    """One of the limit products, with its parameters.

    Tags: GL, SU, Sp_odd, Sp_even, O_half.  "Sp" and "O" are accepted and
    resolve parity from q.  O_half is half the parity-matched Sp value.
    """

    tag: str
    q: int
    t: int

    def __post_init__(self):
        _check_int("q", self.q, 2)
        _check_int("t", self.t, 1)
        tag = self.tag
        if tag in ("Sp", "O"):
            resolved = ("Sp_odd" if self.q % 2 else "Sp_even") if tag == "Sp" else "O_half"
            object.__setattr__(self, "tag", resolved)
            tag = resolved
        if tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if tag == "Sp_odd" and self.q % 2 == 0:
            raise ValueError("Sp_odd needs odd q")
        if tag == "Sp_even" and self.q % 2 == 1:
            raise ValueError("Sp_even needs even q")


@dataclass(frozen=True)
class ProductAtom:
    """prod_{i>=1} (1 + s_i q^{-(step*i + offset)})^m with s_i = sign, or
    sign*(-1)^i when alternating."""

    step: int
    offset: int = 0
    sign: int = -1
    alternating: bool = False
    m: int = 1


def _sp_atoms(q, t, edge_power):
    atoms = [ProductAtom(step=2, offset=-1, sign=-1, m=edge_power)]
    for j in range(1, t // 2 + 1):
        m = count_irreducibles("Nstar", q, 2 * j)
        if m:
            atoms.append(ProductAtom(step=j, sign=1, alternating=True, m=m))
    for j in range(1, t + 1):
        m = count_irreducibles("Mstar", q, j)
        if m:
            atoms.append(ProductAtom(step=j, sign=-1, m=m))
    return atoms


def family_atoms(fam: LimitFamily):
    q, t = fam.q, fam.t
    if fam.tag == "GL":
        return [
            ProductAtom(step=j, sign=-1, m=count_irreducibles("N", q, j))
            for j in range(1, t + 1)
        ]
    if fam.tag == "SU":
        atoms = []
        for j in range(1, t + 1):
            m = count_irreducibles("Ntilde", q, j)
            if m:
                atoms.append(ProductAtom(step=j, sign=1, alternating=True, m=m))
            m = count_irreducibles("Mtilde", q, j)
            if m:
                atoms.append(ProductAtom(step=2 * j, sign=-1, m=m))
        return atoms
    if fam.tag == "Sp_odd":
        return _sp_atoms(q, t, 2)
    if fam.tag == "Sp_even":
        return _sp_atoms(q, t, 1)
    # O_half: same atoms as the parity-matched symplectic family; the final
    # value is halved by the caller.
    return _sp_atoms(q, t, 2 if q % 2 else 1)


# ---------------------------------------------------------------------------
# Rational interval building blocks.

def log1p_enclosure(y, budget):
    """Interval containing log(1+y) for rational |y| < 1, width <= 2*budget."""
    y = Fraction(y)
    if not -1 < y < 1:
        raise ValueError("need |y| < 1")
    if y == 0:
        return Enclosure(Fraction(0), Fraction(0))
    # y = a/b: stop at the first k whose remainder |y|^(k+1) / ((k+1)(1-|y|))
    # = c^(k+1) / ((k+1)(b-c) b^k), c = |a|, is within the budget
    a, b = y.numerator, y.denominator
    c, budget = abs(a), Fraction(budget)
    k, ck, bk = 1, c * c, b
    while ck * budget.denominator > budget.numerator * (k + 1) * (b - c) * bk:
        k, ck, bk = k + 1, ck * c, bk * b
    # the partial sum s = sum_{j<=k} (-1)^(j+1) a^j b^(k-j) (L/j) / (b^k L),
    # L = lcm(1..k), by Horner in a with b^(k-j) built up alongside
    L = lcm(*range(1, k + 1))
    num, bj = 0, 1
    for j in range(k, 0, -1):
        num = num * a + (-1) ** (j + 1) * (L // j) * bj
        bj *= b
    s, rem = Fraction(num * a, bk * L), Fraction(ck, (k + 1) * (b - c) * bk)
    return Enclosure(s - rem, s + rem)


def _exp_lower(x):
    if x < 0:
        return 1 / _exp_upper(-x)
    # x = a/b: the terms x^k/k! over the common denominator b^K K!, K =
    # _EXP_TERMS, are the integers a^k b^(K-k) K!/k!, each exactly the last
    # times a / (b k)
    a, b = x.numerator, x.denominator
    term = s = den = b**_EXP_TERMS * factorial(_EXP_TERMS)
    for k in range(1, _EXP_TERMS + 1):
        term = term * a // (b * k)
        s += term
    return Fraction(s, den)


def _taylor_remainder(x):
    """Bound on the Taylor terms of e^x past _EXP_TERMS, for 0 <= x <
    _EXP_TERMS + 2: they are dominated by a geometric series with ratio
    x / (_EXP_TERMS + 2)."""
    return x ** (_EXP_TERMS + 1) / factorial(_EXP_TERMS + 1) * (_EXP_TERMS + 2) / (_EXP_TERMS + 2 - x)


def _exp_upper(x):
    if x < 0:
        return 1 / _exp_lower(-x)
    if x >= _EXP_TERMS + 2:
        raise ValueError("too few Taylor terms for this argument")
    s = _exp_lower(x)  # the Taylor partial sum, as x >= 0
    return s + _taylor_remainder(x)


def exp_enclosure(z):
    """Interval containing {e^x : x in z} for an Enclosure (or rational) z."""
    if not isinstance(z, Enclosure):
        z = Enclosure(Fraction(z), Fraction(z))
    return Enclosure(_exp_lower(z.lo), _exp_upper(z.hi))


def atom_log_enclosure(atom: ProductAtom, q, budget):
    """Interval containing m * sum_{i>=1} log(1 + s_i q^{-e(i)}), width <= budget."""
    if atom.m == 0:
        return Enclosure(Fraction(0), Fraction(0))
    am = abs(atom.m)
    step, offset = atom.step, atom.offset

    def expo(i):
        return step * i + offset

    # truncation depth from the geometric tail bound
    tail_budget = budget / 2
    ratio = 1 - Fraction(1, q**step)
    I = 1
    while 2 * am * Fraction(1, q ** expo(I + 1)) / ratio > tail_budget:
        I += 1
    tail = 2 * am * Fraction(1, q ** expo(I + 1)) / ratio

    per_term = budget / (4 * am * I)
    lo = hi = Fraction(0)
    for i in range(1, I + 1):
        s = atom.sign * ((-1) ** i if atom.alternating else 1)
        enc = log1p_enclosure(Fraction(s, q ** expo(i)), per_term)
        lo += enc.lo
        hi += enc.hi
    lo, hi = lo * atom.m, hi * atom.m
    if atom.m < 0:
        lo, hi = hi, lo
    return Enclosure(lo - tail, hi + tail)


def _width_floor(atoms, q):
    """Float estimate of the width that no exp enclosure of the atoms'
    log-sum s gets below: every one keeps the Taylor remainder R at |s|, so
    its width exceeds R, or R / (e^|s|)^2 when s < 0 and both ends are
    reciprocals."""
    s = 0.0
    for atom in atoms:
        first, part, i = q ** -float(atom.step + atom.offset), 0.0, 1
        while (y := q ** -float(atom.step * i + atom.offset)) >= first * float_info.epsilon:
            part += log1p(atom.sign * ((-1) ** i if atom.alternating else 1) * y)
            i += 1
        s += atom.m * part
    if abs(s) >= _EXP_TERMS + 2:
        return 0.0  # _exp_upper refuses the argument
    rem = _taylor_remainder(abs(s))
    return rem if s >= 0 else rem * _fexp(2 * s)


def limit_value(fam: LimitFamily, tol=DEFAULT_TOL):
    """Enclosure of the family's limiting proportion, width <= tol.  A tol
    at or below the width that the Taylor terms of ``exp_enclosure`` can
    reach (``_width_floor``) raises ValueError before any exact pass."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    atoms = family_atoms(fam)
    half = fam.tag == "O_half"
    floor = _width_floor(atoms, fam.q) / (2 if half else 1)
    if tol <= floor:
        raise ValueError(f"tol {float(tol):.3g} is below the width {floor:.3g} that "
                         f"{_EXP_TERMS} Taylor terms of exp can reach")
    log_budget = tol / 2  # value <= ~1, so log-space width carries through exp
    while True:
        total = Enclosure(Fraction(0), Fraction(0))
        for atom in atoms:
            total = total + atom_log_enclosure(atom, fam.q, log_budget / len(atoms))
        enc = exp_enclosure(total)
        if half:
            enc = enc.scale(Fraction(1, 2))
        if enc.width <= tol:
            return enc
        log_budget /= 4


@dataclass(frozen=True)
class SeriesLimit:
    """Non-rigorous limit read off a truncated series tail."""

    estimate: Fraction
    gap: Fraction
    rigorous: bool = False


def limit_from_series(s):
    """Last coefficient of a no-small-factor series, with |c_N - c_{N-1}| as a
    heuristic convergence gap.  Not an enclosure."""
    _check_int("series order", s.order, 2)
    c = s.coeff(s.order)
    return SeriesLimit(estimate=c, gap=abs(c - s.coeff(s.order - 1)))


def q_infinity_limit(family, t):
    """Closed-form q -> infinity limit, as a float."""
    _check_int("t", t, 1)
    base = family.split("_")[0]
    harm = lambda k: sum(Fraction(1, j) for j in range(1, k + 1))
    if base == "GL":
        return _fexp(-harm(t))
    if base == "SU":
        odd = sum(Fraction(1, j) for j in range(1, t + 1, 2))
        return _fexp(-(odd + harm(t) / 2))
    if base in ("Sp", "O"):
        val = _fexp(-(harm(t // 2) + harm(t)) / 2)
        return val / 2 if base == "O" else val
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Bound suite.

def bound_suite(q_range, t_range, tol=DEFAULT_TOL):
    """Check, with rigorous enclosures, that every family limit over the grid
    lies strictly in (0,1), that GL values stay below 1/sqrt(e), and that each
    GL per-degree factor stays above e^(-8/3).  Returns a report dict."""
    sqrt_e_inv = exp_enclosure(Fraction(-1, 2))
    floor83 = exp_enclosure(Fraction(-8, 3))
    entries = []
    failures = []
    for q in q_range:
        for t in t_range:
            fams = ["GL", "SU", "Sp_odd" if q % 2 else "Sp_even", "O_half"]
            for tag in fams:
                fam = LimitFamily(tag, q, t)
                enc = limit_value(fam, tol)
                checks = {"in_unit_interval": 0 < enc.lo and enc.hi < 1}
                if tag == "GL":
                    # enc.hi <= lower bound of 1/sqrt(e) proves the bound
                    checks["le_inv_sqrt_e"] = enc.hi <= sqrt_e_inv.lo
                    checks["per_degree_floor"] = all(
                        exp_enclosure(atom_log_enclosure(atom, q, Fraction(tol))).lo >= floor83.hi
                        for atom in family_atoms(fam))
                ok = all(checks.values())
                entry = {
                    "family": fam.tag,
                    "q": q,
                    "t": t,
                    "lo": enc.lo,
                    "hi": enc.hi,
                    "margin_to_1": 1 - enc.hi,
                    "margin_to_0": enc.lo,
                    "checks": checks,
                    "ok": ok,
                }
                entries.append(entry)
                if not ok:
                    failures.append((fam.tag, q, t))
    return {"entries": entries, "failures": failures, "all_pass": not failures}
