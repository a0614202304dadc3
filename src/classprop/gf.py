"""Arithmetic in small finite fields and their polynomial rings.

A field GF(q) with q = p^e is capped at q <= 81 so everything runs off
precomputed tables.  A field element is an int code in range(q) whose base-p
digits are the coordinates on the power basis of the modulus, constant digit
first.  For prime fields the code is just the residue.

Polynomials over a field are tuples of element codes, constant coefficient
first, with no trailing zero; () is the zero polynomial.  All polynomial
helpers take the field as first argument.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, isqrt

MAX_Q = 81


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_int(name, value, lo, hi=None):
    """Raise ValueError unless value is an int, not a bool, in lo..hi (no
    upper bound when hi is None).  Every integer argument of the public
    functions passes through here once, on entry."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if hi is None:
        if value < lo:
            raise ValueError(f"{name} must be at least {lo}, got {value}")
    elif not lo <= value <= hi:
        raise ValueError(f"{name} out of range: {value} is outside {lo}..{hi}")


def prime_power(q):
    """Return (p, e) with q = p^e, or raise ValueError."""
    _check_int("q", q, 1)
    # the least divisor above 1 is a prime; with none up to isqrt(q), q is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    e, m = 0, q
    while m > 1 and m % p == 0:
        m //= p
        e += 1
    if m != 1 or e == 0:  # e = 0 only at q = 1
        raise ValueError(f"q={q} is not a prime power")
    return p, e


def mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------

class Field:
    """GF(q), q <= 81, with table-backed arithmetic.

    Instances are interned per q; building one computes the full addition,
    negation, multiplication, inverse and discrete-log tables.  The modulus
    of GF(p^e) is z for e = 1; otherwise it is the least monic irreducible f
    of degree e over Z_p in lexicographic order of (f_0, ..., f_(e-1)),
    found by the package's own sieve: the first f for which
    ``has_small_degree_factor(Field(p), f, e // 2)`` is false.  ``modulus``
    is derived, never passed.  ``zeta`` is the least primitive element in the
    constant-first coefficient ordering, and ``dlog[x]`` its discrete
    logarithm table (None at 0).
    """

    _interned = {}

    def __new__(cls, q):
        _check_int("q", q, 2, MAX_Q)  # before the lookup: 2.0 hashes like 2
        inst = cls._interned.get(q)
        if inst is None:
            inst = super().__new__(cls)
            inst.q = q
            inst.p, inst.e = prime_power(q)
            inst._build_tables()
            cls._interned[q] = inst
        return inst

    def __repr__(self):
        return f"Field({self.q})"

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        self.zero, self.one = 0, 1
        vecs = [self.to_vec(a) for a in range(q)]
        self.add_t = [[self.from_vec(x + y for x, y in zip(u, v)) for v in vecs]
                      for u in vecs]
        self.neg_t = [self.from_vec(-x for x in u) for u in vecs]
        if e == 1:
            self.modulus = (0, 1)
            self.mul_t = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            Fp = Field(p)
            monics = (tail + (1,) for tail in itertools.product(range(p), repeat=e))
            self.modulus = next(
                f for f in monics if not has_small_degree_factor(Fp, f, e // 2)
            )
            self.mul_t = [
                [self.from_vec(pmod(Fp, pmul(Fp, u, v), self.modulus)) for v in vecs]
                for u in vecs
            ]

        self.zeta = self._least_primitive()
        self.dlog = [None] * q
        exp = [0] * max(q - 1, 1)
        x = 1
        for k in range(q - 1):
            exp[k] = x
            self.dlog[x] = k
            x = self.mul_t[x][self.zeta]
        self.dlog[1] = 0
        self.exp = exp
        self.inv_t = [None] + [exp[(q - 1 - self.dlog[a]) % (q - 1)] for a in range(1, q)]

    def _least_primitive(self):
        q = self.q
        if q == 2:
            return 1
        target = q - 1
        for a in self._codes_by_vec_order():
            if a == 0:
                continue
            order = 1
            x = a
            while x != 1:
                x = self.mul_t[x][a]
                order += 1
                if order > target:
                    break
            if order == target:
                return a
        raise AssertionError("no primitive element found")

    def _codes_by_vec_order(self):
        return sorted(range(self.q), key=self.to_vec)

    # -- element arithmetic ------------------------------------------------

    def to_vec(self, a):
        p, e = self.p, self.e
        return tuple((a // p**i) % p for i in range(e))

    def from_vec(self, vec):
        p = self.p
        return sum((c % p) * p**i for i, c in enumerate(vec))

    def add(self, a, b):
        return self.add_t[a][b]

    def sub(self, a, b):
        return self.add_t[a][self.neg_t[b]]

    def neg(self, a):
        return self.neg_t[a]

    def mul(self, a, b):
        return self.mul_t[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of 0 in " + repr(self))
        return self.inv_t[a]

    def pow(self, a, k):
        if k < 0:
            return self.pow(self.inv(a), -k)
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul_t[result][base]
            base = self.mul_t[base][base]
            k >>= 1
        return result

    def minus_one_to(self, k):
        return self.one if k % 2 == 0 or self.p == 2 else self.neg_t[1]


# ---------------------------------------------------------------------------
# Polynomials: tuples of codes, constant first, no trailing zeros.

def pnorm(f):
    i = len(f)
    while i and f[i - 1] == 0:
        i -= 1
    return tuple(f[:i])


def pdeg(f):
    return len(f) - 1


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = F.add_t
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return pnorm(out)


def psub(F, a, b):
    neg = F.neg_t
    return padd(F, a, tuple(neg[c] for c in b))


def pscale(F, c, f):
    if c == 0:
        return ()
    row = F.mul_t[c]
    return tuple(row[x] for x in f)


def pmul(F, a, b):
    if not a or not b:
        return ()
    add, mul = F.add_t, F.mul_t
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
    return pnorm(out)


def pdivmod(F, a, b):
    b = pnorm(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(pnorm(a))
    db = len(b) - 1
    inv_lead = F.inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    add, mul, neg = F.add_t, F.mul_t, F.neg_t
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            factor = mul[c][inv_lead]
            quot[i - db] = factor
            row = mul[factor]
            for k in range(db + 1):
                a[i - db + k] = add[a[i - db + k]][neg[row[b[k]]]]
    return pnorm(quot), pnorm(a)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pmonic(F, f):
    f = pnorm(f)
    if not f or f[-1] == 1:
        return f
    return pscale(F, F.inv(f[-1]), f)


def pgcd(F, a, b):
    a, b = pnorm(a), pnorm(b)
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def ppowmod(F, base, k, mod):
    result = (1,)
    base = pmod(F, base, mod)
    while k:
        if k & 1:
            result = pmod(F, pmul(F, result, base), mod)
        base = pmod(F, pmul(F, base, base), mod)
        k >>= 1
    return result


def has_small_degree_factor(F, f, t):
    """Whether f has an irreducible factor of degree <= t.

    The answer depends only on the monic associate of f, so the sieve runs
    once per (field, monic f, t) and is kept in a bounded LRU memo.
    """
    _check_int("t", t, 1)
    return _sieve(F, pmonic(F, f), t)


@functools.lru_cache(maxsize=4096)
def _sieve(F, f, t):
    """The distinct-degree sieve behind ``has_small_degree_factor`` on monic
    f: gcd(f, z^(q^d) - z) is nontrivial exactly when f has a factor of
    degree dividing d, so scanning d = 1..t detects precisely the factors of
    degree <= t.  Fields are interned per q and f is a tuple, so (F, f, t)
    is a sound key; the bound keeps a scan of mostly distinct polynomials
    in fixed memory.
    """
    deg = pdeg(f)
    if deg < 1:
        return False
    if t >= deg:
        return True
    h = (0, 1)
    for _ in range(t):
        h = ppowmod(F, h, F.q, f)
        g = pgcd(F, f, psub(F, h, (0, 1)))
        if pdeg(g) >= 1:
            return True
    return False


# ---------------------------------------------------------------------------
# Counting irreducibles of the five flavours.
#
# "N"      monic irreducible of degree j over GF(q), nonzero constant term
# "Nstar"  additionally fixed by the star conjugate
# "Mstar"  unordered pairs {f, f*} with f != f*
# "Ntilde" over GF(q^2), fixed by the tilde conjugate
# "Mtilde" unordered pairs {f, tilde(f)} over GF(q^2) with f != tilde(f)
#
# residue_class_counts further splits "N" by det residue mod m, the discrete
# log of (-1)^j f(0) to the base Field(q).zeta.  Every count comes from a
# closed form; nothing here enumerates polynomials.  The test-side oracles
# recount by enumeration wherever the candidate space is small enough.

def count_monic_irreducible(q, j):
    """All monic irreducibles of degree j over GF(q), z included."""
    if j == 1:
        return q
    return sum(mobius(r) * q ** (j // r) for r in range(1, j + 1) if j % r == 0) // j


def _count_formula_N(q, j):
    return q - 1 if j == 1 else count_monic_irreducible(q, j)


def _count_formula_Nstar(q, j):
    if j == 1:
        return 2 if q % 2 == 1 else 1
    if j % 2 == 1:
        return 0
    m = j // 2
    total = sum(
        mobius(m // d) * (q**d + 1)
        for d in range(1, m + 1)
        if m % d == 0 and (m // d) % 2 == 1
    )
    if m & (m - 1) == 0:  # powers of two keep the rational points +-1
        total -= 2 if q % 2 == 1 else 1
    return total // j


def _count_formula_Ntilde(q, j):
    if j % 2 == 0:
        return 0
    return sum(mobius(j // d) * (q**d + 1) for d in range(1, j + 1) if j % d == 0) // j


def count_irreducibles(family, q, j):
    """Number of irreducibles of the given family and degree j >= 1 over GF(q)."""
    _check_int("q", q, 2)
    _check_int("j", j, 1)
    if family == "N":
        return _count_formula_N(q, j)
    if family == "Nstar":
        return _count_formula_Nstar(q, j)
    if family == "Mstar":
        return (_count_formula_N(q, j) - _count_formula_Nstar(q, j)) // 2
    if family == "Ntilde":
        return _count_formula_Ntilde(q, j)
    if family == "Mtilde":
        return (_count_formula_N(q * q, j) - _count_formula_Ntilde(q, j)) // 2
    raise ValueError(f"unknown family {family!r}")


def residue_class_counts(q, jmax, m):
    """Map (j, r) -> number of monic irreducibles of degree j over GF(q) with
    nonzero constant term and det residue r mod m, for j = 1..jmax and m
    dividing q - 1; zero counts are left out.

    A root of such an irreducible generates GF(q^j), and its minimal
    polynomial's det residue is the discrete log of its norm.  An element of
    the subfield GF(q^(j/d)) has norm N(x)^d, and the norm is onto, so by
    Moebius inversion over the subfields, with h_d = gcd(m, d),

        c(j, r) = (1/j) sum_{d | j, h_d | r} mu(d) h_d (q^(j/d) - 1)/m.
    """
    _check_int("m", m, 1)
    if (q - 1) % m:
        raise ValueError(f"m={m} must divide q - 1")
    counts = {}
    for j in range(1, jmax + 1):
        terms = [(mobius(d), gcd(m, d), (q ** (j // d) - 1) // m)
                 for d in range(1, j + 1) if j % d == 0]
        for r in range(m):
            c = sum(mu * h * n for mu, h, n in terms if r % h == 0) // j
            if c:
                counts[(j, r)] = c
    return counts
