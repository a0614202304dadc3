"""Expected values and the output checker of the benchmark.

Every case of a workload records one or more named checks.  A check that
fails, or a case that raises, counts as one failure; the other cases still
run.  Exact values are compared as Fractions.  Seeded Monte Carlo estimates
are compared against exact values within five standard errors, so a correct
sampler fails such a check with probability below 1e-6.
"""

import math
import traceback
from fractions import Fraction as F

# Frozen exact values.  Those marked "criterion n" are the acceptance
# suite's; the others were computed by enumeration when the benchmark was
# defined and agree with the series route where both apply.
GL42_T1 = F(13, 45)  # criterion 1 / README: GL_4(2), t=1
GL33_COSET_T1 = {0: F(4, 13), 1: F(4, 13)}  # det cosets of GL_3(3), t=1
GL42_TAU_T1 = F(19, 45)  # tau coset of GL_4(2) = Sp_4(2) at t=1 (criterion 5)
OP62_S_T1 = F(44, 105)  # O+_6(2) S set, t=1
OP62_O_T1 = F(19, 45)  # criterion 6: O+_6(2) O set, t=1
OP62_O_MEMBERS = 8512  # criterion 8
SP42_T2 = F(1, 5)  # Sp_4(2), t=2 (README enumerate example)
GL42_SUB2_EXPECTATION = F(5, 13)  # GL_4(2) t=1 set on 2-subspaces
GL33_COSET1_AVERAGE = F(1)  # criterion 7: GL_3(3) coset 1 on points
OP62_NONSING_EXPECTATION = F(1)  # O set of O+_6(2) on nonsingular points
# criterion 9: extremal fixed-point ratios of GL_3(3), untwisted side
GL33_FPR_EXTREMES = {("subspace", 1): F(5, 13), ("flag", 1): F(3, 13),
                     ("antiflag", 1): F(1, 9)}
GL33_FPR_ROWS = 10
# n=2 coefficient of every SL coset series, by enumeration of GL_2(q)
SL_COSET_N2 = {
    (5, 1): [F(1, 3), F(1, 2), F(1, 3), F(1, 2)],
    (5, 2): [F(0)] * 4,
    (7, 1): [F(3, 8), F(1, 2), F(3, 8), F(1, 2), F(3, 8), F(1, 2)],
    (7, 2): [F(0)] * 6,
}
# exact n=20 coefficient of the GL(q=2, t=1) series (criterion 11)
GL2_T1_N20 = 0.2887880950866024
GL43_COSET1_T1 = F(5, 16)  # series, GL_4(3) determinant coset 1
GL33_TAU_T1 = F(1, 4)  # enumeration, tau coset of GL_3(3)
WEYL_EXACT = {4: F(11, 16), 6: F(5, 8)}  # criterion 12
PSL2_11_ORDER11 = F(11, 12)  # exhaustive generation probe, order-11 class
PSL2_7_THREE_HALVES = sorted([F(15, 28), F(7, 8), F(7, 8), F(10, 21), F(16, 21)])
LIMIT_GL_2_1 = 0.28878809508660242  # limit for GL, q=2, t=1 to 1e-15
Z_BAND = 5.0


class Checker:
    """Collects named pass/fail results; exceptions become failures."""

    def __init__(self):
        self.results = []

    def check(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok),
                             "detail": "" if ok else str(detail)})
        return bool(ok)

    def equal(self, name, got, want):
        return self.check(name, got == want, f"got {got!r}, want {want!r}")

    def near_rate(self, name, hits, trials, p, z=Z_BAND):
        """hits/trials within z standard errors of the exact rate p."""
        p = float(p)
        sigma = math.sqrt(p * (1 - p) / trials)
        est = hits / trials
        return self.check(name, abs(est - p) <= z * sigma,
                          f"estimate {est:.6f} vs {p:.6f}, {z} sigma = {z * sigma:.6f}")

    def case(self, name, fn, *args):
        """Run one case; an exception is one failure and returns None."""
        try:
            return fn(*args)
        except Exception:
            self.check(name, False, traceback.format_exc(limit=4))
            return None

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for r in self.results if not r["ok"])

    def failures(self):
        return [r for r in self.results if not r["ok"]]


def coverage_floor(count, rate=0.95):
    """Fewest covering intervals the criterion-11 rate allows out of count."""
    return math.ceil(rate * count)


def repeated_exactly(first, second):
    """Names of exact counters that differ between two traced passes."""
    keys = set(first) | set(second)
    return sorted(k for k in keys if first.get(k, 0) != second.get(k, 0))
