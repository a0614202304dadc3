"""Exact arithmetic in the rational group algebra Q[C_m] of a cyclic group.

An element sum_k c_k e_k is stored as the tuple of its m Fraction
coefficients, indexed by the residue k mod m; e_0 is the identity and
multiplication is cyclic convolution, e_j e_k = e_{j+k mod m}.  Series with
coefficients here are graded by a residue, such as the determinant class of
a matrix: the coefficient of e_k collects the terms of grade k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gf import _check_int


class CycRing:
    """The group algebra Q[C_m]; instances are interned per m."""

    _interned = {}

    def __new__(cls, m):
        _check_int("m", m, 1)
        inst = cls._interned.get(m)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        inst.m = m
        inst.zero = CycNum(inst, (Fraction(0),) * m)
        inst._basis = tuple(
            CycNum(inst, tuple(Fraction(int(i == k)) for i in range(m))) for k in range(m)
        )
        inst.one = inst._basis[0]
        cls._interned[m] = inst
        return inst

    def __repr__(self):
        return f"CycRing({self.m})"

    def coerce(self, x):
        if isinstance(x, CycNum):
            if x.ring is not self:
                raise ValueError("mixed group rings")
            return x
        return self.one * x

    def zeta_pow(self, k):
        """The basis element e_k."""
        return self._basis[k % self.m]


@dataclass(frozen=True)
class CycNum:
    """Element sum_k coeffs[k] e_k of Q[C_m]."""

    ring: CycRing
    coeffs: tuple

    def __add__(self, other):
        other = self.ring.coerce(other)
        return CycNum(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.ring, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) + (-self)

    def __mul__(self, other):
        """Cyclic convolution, or scaling by a rational."""
        if not isinstance(other, CycNum):
            c = Fraction(other)
            return CycNum(self.ring, tuple(c * a for a in self.coeffs))
        if other.ring is not self.ring:
            raise ValueError("mixed group rings")
        m = self.ring.m
        out = [Fraction(0)] * m
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[(i + j) % m] += a * b
        return CycNum(self.ring, tuple(out))

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.coeffs)

    def __pow__(self, k):
        """k-th power by square and multiply; perfbench's tests count its products."""
        if k < 0:
            raise ValueError("negative powers not supported")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result
