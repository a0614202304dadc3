"""Truncated power series with exact coefficients over Q or Q[C_m].

The one series built here gives the proportion of matrices whose
characteristic polynomial has no irreducible factor of degree <= t,
graded by the determinant over the group algebra Q[C_m]: the full general
linear group reads it at modulus 1, and every determinant coset of the
special linear group at modulus q - 1.  It is an infinite product of
Euler factors whose log has a closed form, so it is formed as the exp of
that log by one recurrence on the coefficients (Flajolet and Sedgewick,
"Analytic Combinatorics", 2009, ch. II).  The test suite checks it against
the product itself, each factor expanded by the q-exponential identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import CycRing
from .gf import Field, _check_int, prime_power, residue_class_counts


class Series:
    """Fixed-order truncated power series.

    ``ring`` is None for rational coefficients or a CycRing (the group
    algebra Q[C_m]); arithmetic requires matching order and ring.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, coeffs, ring=None):
        self.ring = ring
        if ring is None:
            self.coeffs = [Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        else:
            self.coeffs = [ring.coerce(c) for c in coeffs]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, ring=None):
        z = Fraction(0) if ring is None else ring.zero
        return cls([z] * (order + 1), ring)

    @classmethod
    def one(cls, order, ring=None):
        s = cls.zero(order, ring)
        s.coeffs[0] = Fraction(1) if ring is None else ring.one
        return s

    @classmethod
    def geometric(cls, order, ring=None):
        """1/(1 - u)."""
        o = Fraction(1) if ring is None else ring.one
        return cls([o] * (order + 1), ring)

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    def coeff(self, n):
        return self.coeffs[n]

    def _check(self, other):
        if not isinstance(other, Series):
            raise ValueError("expected a Series")
        if other.order != self.order or other.ring is not self.ring:
            raise ValueError("series order/ring mismatch")

    def __add__(self, other):
        self._check(other)
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)], self.ring)

    def __sub__(self, other):
        self._check(other)
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)], self.ring)

    def __mul__(self, other):
        self._check(other)
        n = self.order
        zero = Fraction(0) if self.ring is None else self.ring.zero
        out = [zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
        return Series(out, self.ring)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:5])
        return f"Series([{head}, ...], order={self.order})"


# ---------------------------------------------------------------------------
# No-small-factor generating series.

def gl_no_small_factor_series(q, t, order):
    """Coefficient n is the proportion of GL_n(q) whose characteristic
    polynomial has no irreducible factor of degree <= t: the e_0
    coordinate of the graded series at modulus 1."""
    prime_power(q)  # the count formulas take any q; GL_n(q) needs a prime power
    _check_int("t", t, 1)
    _check_int("order", order, 0)
    return Series([c.coeffs[0] for c in _graded_series(q, t, order, 1).coeffs])


@lru_cache(maxsize=None)
def _graded_series(q, t, order, m):
    """Series over Q[C_m], for m dividing q - 1, whose u^n coefficient at
    e_mu is the proportion of GL_n(q) with det = zeta^s for some s = mu
    mod m and no charpoly factor of degree <= t.  With m = q - 1 it grades
    by determinant coset (each coset proportion is q - 1 times e_mu); with
    m = 1 its e_0 coordinate covers all of GL.

    det is uniform on GL_n for n >= 1, so all of GL grades to
    1 + e u/(1 - u), where e = E/m with E = sum_{s<m} e_s is idempotent:
    its log is e sum_k u^k/k.  Removing the c irreducibles of degree
    j <= t and det residue s mod m multiplies by
    prod_{i>=1} (1 - e_s q^(-ij) u^j)^c, whose log, summed over i, is
    -c sum_k e_(sk) u^(jk) / (k (q^(jk) - 1)).  The series g is the exp of
    the summed log L, by n g_n = sum_{k=1..n} k L_k g_(n-k) from g_0 = 1.
    """
    ring = CycRing(m)
    e = sum((ring.zeta_pow(s) for s in range(m)), ring.zero) * Fraction(1, m)
    nL = [ring.zero] + [e] * order  # nL[n] = n L_n
    for (j, s), c in residue_class_counts(q, t, m).items():
        for k in range(1, order // j + 1):
            n = j * k
            nL[n] = nL[n] - ring.zeta_pow(s * k) * Fraction(c * j, q**n - 1)
    g = [ring.one]
    for n in range(1, order + 1):
        g.append(sum((nL[k] * g[n - k] for k in range(1, n + 1)), ring.zero) * Fraction(1, n))
    return Series(g, ring)


def sl_coset_series(q, t, mu, order):
    """Coefficient n (n >= 1) is the proportion, inside the determinant coset
    with det = zeta^mu, of elements with no charpoly factor of degree <= t.

    Read off the graded series at modulus q - 1, which every coset of the
    same (q, t, order) shares.  The constant coefficient is set to 1 by
    convention.
    """
    Field(q)  # validates that q is a prime power
    _check_int("mu", mu, 0, q - 2)
    _check_int("t", t, 1)
    _check_int("order", order, 0)
    graded = _graded_series(q, t, order, q - 1)
    out = Series([(q - 1) * c.coeffs[mu] for c in graded.coeffs])
    out.coeffs[0] = Fraction(1)
    return out
