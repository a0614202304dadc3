"""Statistics over the enumerated groups and their relatives.

Proportions of elements with no small invariant subspace (exact, series, or
Monte Carlo), fixed-point expectations over cosets and conjugation-stable
subsets, fixed-point-ratio bound checks, symmetric-group analogues, the
signed-permutation parity statistic, and a generation probe for small simple
groups.  Permutation groups are closed by ``matgroup.bfs_closure``, the same
closure that builds the matrix group tables.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import _check_int, is_prime
from .matgroup import (
    ActionSpec,
    ActionTable,
    DEFAULT_GROUP_CAP,
    GroupTable,
    MatSpace,
    ResourceCapExceeded,
    _Elements,
    _Index,
    _PRODUCT_CHUNK,
    _fixed_rows,
    _product_tables,
    _tau_squares,
    bfs_closure,
    build_group,
    enumerate_action,
    fixed_point_indices,
    index_orbits,
    member_test,
    membership_sets,
    point_permutation,
    relation_classes,
    tau_membership,
)
from .series import Series, gl_no_small_factor_series, sl_coset_series

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
PERM_GROUP_CAP = 2_000_000  # elements a PermGroup closure may reach
WEYL_EXACT_CAP = 400  # exact Weyl m; time grows as m^3, 2 s at 400 on 2 cores


def wilson_interval(hits, trials):
    """Wilson score interval for a binomial proportion, at 99% (z = Z99)."""
    _check_int("trials", trials, 1)
    _check_int("hits", hits, 0, trials)
    phat = hits / trials
    zz = Z99 * Z99
    denom = 1.0 + zz / trials
    center = (phat + zz / (2 * trials)) / denom
    half = Z99 * math.sqrt(phat * (1 - phat) / trials + zz / (4 * trials * trials))
    half /= denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Proportions.

@dataclass(frozen=True)
class ProportionReport:
    family: str
    n: int
    q: int
    t: int
    coset: object
    method: str
    value: object  # Fraction for exact methods, float for montecarlo
    sample_size: int = None  # elements scanned or drawn; None for series
    ci_low: float = None
    ci_high: float = None

    def __post_init__(self):
        if isinstance(self.value, Fraction) and not 0 <= self.value <= 1:
            raise ValueError("exact proportion out of [0, 1]")


def proportion(spec, t, coset=None, method="enumeration", trials=None, seed=None,
               cap=DEFAULT_GROUP_CAP):
    """Proportion of elements with no invariant subspace of dimension <= t.

    spec is a GroupTable or a (family, n, q) triple.  coset selects a label
    class (integer), an orthogonal variant ("S" or "O"), or the
    inverse-transpose coset ("tau"); None means the whole group.  The
    enumeration and series methods return exact Fractions and agree where
    both apply; montecarlo returns a float with a 99% Wilson interval.
    """
    if isinstance(spec, GroupTable):
        table, family, n, q = spec, spec.family, spec.n, spec.q
    else:
        table = None
        family, n, q = spec
    _check_int("n", n, 1)
    _check_int("q", q, 2)
    _check_int("t", t, 1)
    if coset not in (None, "tau", "S", "O"):
        if family in ("GL", "SL") and coset not in range(q - 1 if family == "GL" else 1):
            raise ValueError(f"empty coset label {coset!r}")
        _check_int("coset label", coset, 0)
    if method == "enumeration":
        if table is None:
            table = build_group(family, n, q, cap=cap)
        if coset == "tau":
            members = tau_membership(table, t)
        else:
            members = membership_sets(table, t, coset)
        denom = table.coset_size(coset)
        value = Fraction(len(members), denom)
        return ProportionReport(family, n, q, t, coset, method, value, denom)
    if method == "series":
        if family not in ("GL", "SL") or coset in ("tau", "S", "O"):
            raise ValueError("series proportions cover GL and its determinant cosets")
        if family == "GL" and coset is None:
            s = gl_no_small_factor_series(q, t, n)
        else:
            mu = 0 if coset is None else coset
            s = sl_coset_series(q, t, mu, n)
        return ProportionReport(family, n, q, t, coset, method, s.coeff(n))
    if method == "montecarlo":
        if family != "GL" or coset in ("S", "O"):
            raise ValueError("montecarlo covers GL, its determinant cosets, and tau")
        _check_int("trials", trials, 1)
        _check_int("seed", seed, 0)
        if q == 2 and t == 1 and coset is None:
            hits = _mc_gl2_t1(n, trials, seed)
        else:
            hits = _mc_scan(n, q, t, coset, trials, seed)
        lo, hi = wilson_interval(hits, trials)
        return ProportionReport(family, n, q, t, coset, method,
                                hits / trials, trials, lo, hi)
    raise ValueError(f"unknown method {method!r}")


def _mc_scan(n, q, t, coset, trials, seed):
    """Hits among uniform draws from GL (tau: the g of g tau) or one
    determinant coset, by rejection sampling in blocks.

    A block draws its candidates' entries by ``rng.randrange(q)``, matrix
    after matrix and row-major, and one ``MatSpace.charpolys`` rejects the
    singular ones: the constant term is (-1)^n det.  The first nonsingular
    candidates still wanted stay, in draw order.  A label coset moves each
    g to g diag(s, 1, ..., 1) with s = zeta^label / det g, a bijection of
    GL onto that coset, so the draw stays uniform; tau takes the batched
    ``_tau_squares``.  The membership test then reads the characteristic
    polynomials of the whole block, and the sieve memo serves any
    polynomial drawn twice."""
    rng = random.Random(seed)
    draw = rng.randrange
    space = MatSpace(n, q)
    F = space.F
    test = member_test("GL", space, t, coset)
    share = math.prod(1 - q**-i for i in range(1, n + 1))  # |GL| / q^(n^2)
    if coset not in (None, "tau"):
        # s by the constant term c = (-1)^n det g: s = zeta^label (-1)^n / c
        top = F.exp[coset] if n % 2 == 0 else F.neg_t[F.exp[coset]]
        scale = np.array([F.mul(top, F.inv_t[c]) if c else 0 for c in range(q)])
        mul = _product_tables(F)[0]
    hits = 0
    while trials:
        size = min(_PRODUCT_CHUNK, math.ceil(trials / share))
        g = np.array([draw(q) for _ in range(size * n * n)]).reshape(size, n, n)
        polys = space.charpolys(space._encode(g))
        keep = np.flatnonzero(polys[:, 0])[:trials]
        trials -= len(keep)
        g, polys = g[keep], polys[keep]
        if coset == "tau":
            polys = space.charpolys(_tau_squares(space, space._encode(g)))
        elif coset is not None:
            g[:, :, 0] = mul[g[:, :, 0] * q + scale[polys[:, :1]]]
            polys = space.charpolys(space._encode(g))
        hits += int(test(polys).sum())
    return hits


def _bitslice(rows):
    """Bit-sliced copy of a batch of bit-packed GF(2) matrices.

    rows has shape (batch, n) and a w-bit unsigned dtype with n <= w; bit j
    of rows[b, i] is entry (i, j) of matrix b.  Returns s of shape (n, n, C),
    C = ceil(batch / w), in the same dtype, where bit l of s[i, j, c] is
    entry (i, j) of matrix l*C + c; padding matrices are zero.  Row i of the
    matrices c, C + c, ... is a w x w bit matrix, and log2(w) rounds of
    masked block swaps on runs of k*C*n words transpose all of them at once.
    """
    batch, n = rows.shape
    w = 8 * rows.dtype.itemsize
    x = np.pad(rows, ((0, -batch % w), (0, 0)))
    k = w // 2
    while k:
        # swap the high k bits of word l with the low k bits of word l + k
        low = x.dtype.type(sum(((1 << k) - 1) << p for p in range(0, w, 2 * k)))
        pairs = x.reshape(-1, 2, k * x.size // w)
        a, b = pairs[:, 0], pairs[:, 1]
        swap = ((a >> k) ^ b) & low
        b ^= swap
        a ^= swap << k
        k //= 2
    return np.ascontiguousarray(x.reshape(w, -1, n)[:n].transpose(2, 0, 1))


def gf2_nonsingular_batch(rows):
    """Invertibility mask for a batch of bit-packed GF(2) matrices.

    rows has shape (batch, n); bit j of rows[b, i] is entry (i, j) of matrix
    b.  The batch is bit-sliced (Biham, FSE 1997), so each word operation of
    the elimination acts on one bit lane per matrix.  For each column j,
    one prefix OR down the column finds in every lane the first row, from
    row j down, with a 1 there; a lane with none is singular.  One masked
    XOR-reduce adds that row into row j in the lanes where row j has a 0,
    and row j then clears column j below it.  Both steps skip column j
    itself, which no later column reads.  Adding rows keeps the rank, so a
    lane stays nonsingular while every pivot is 1; the mask reads lanes l-major.
    """
    s = _bitslice(rows)
    n = s.shape[0]
    ok = np.full(s.shape[2], ~s.dtype.type(0))
    for j in range(n):
        # seen[i]: the lanes with a 1 in column j in some row from j to j + i
        seen = np.bitwise_or.accumulate(s[j:, j], axis=0)
        ok &= seen[-1]
        first = s[j + 1:, j] & ~seen[:-1]
        pivot = s[j, j + 1:]
        pivot ^= np.bitwise_xor.reduce(s[j + 1:, j + 1:] & first[:, None], axis=0)
        s[j + 1:, j + 1:] ^= s[j + 1:, j, None] & pivot
    lanes = np.arange(8 * ok.itemsize, dtype=ok.dtype)
    return ((ok >> lanes[:, None]) & 1).ravel()[: rows.shape[0]].astype(bool)


def _mc_gl2_t1(n, trials, seed):
    """Hits for the q=2, t=1 sampler: uniform GL draws with g - 1 invertible.

    Over GF(2) the only admissible linear factor of the characteristic
    polynomial is z - 1, so the sieve reduces to a second invertibility test,
    run only on the draws that land in GL.  Rejection sampling on packed
    random matrices keeps the draw exactly uniform over GL.  Fixed blocks of
    4 096 rows keep the memory flat in trials; the first trials in GL stay.
    """
    _check_int("n", n, 1, 62)  # one machine word per packed row
    dtype = np.uint32 if n <= 32 else np.uint64
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.array([1 << i for i in range(n)], dtype=dtype)
    accepted = hits = 0
    while accepted < trials:
        raw = rng.integers(0, 1 << n, size=(1 << 12, n), dtype=dtype)
        in_gl = gf2_nonsingular_batch(raw)
        in_gl &= np.cumsum(in_gl) <= trials - accepted
        accepted += int(in_gl.sum())
        hits += int(gf2_nonsingular_batch(raw[in_gl] ^ eye).sum())
    return hits


# ---------------------------------------------------------------------------
# Fixed-point expectations.

@dataclass(frozen=True)
class ExpectationReport:
    action: object  # ActionSpec for group actions, a plain label otherwise
    subset: str
    value: Fraction
    comparator: object = None  # predicted leading constant, never asserted
    orbit_values: tuple = None  # per-orbit averages when intransitive

    @property
    def transitive(self):
        return self.orbit_values is None


def _as_action(table, action):
    if isinstance(action, ActionTable):
        return action
    return enumerate_action(table, action)


def orbits(table, action):
    """Orbits of the full table group on the action points."""
    act = _as_action(table, action)
    perms = (point_permutation(table.space, g, act) for g in table.gens)
    return index_orbits(len(act), perms)


def coset_average_fixed_points(table, action, coset=None):
    """Average number of fixed points of a coset on an action.

    On a transitive action the average is exactly 1 for every label coset.
    On an intransitive action the report carries per-orbit averages (each
    again 1 when the group is transitive on the orbit) and the overall sum.
    """
    act = _as_action(table, action)
    if coset is None:
        indices = range(len(table.elements))
        name = "whole group"
    else:
        indices = table.coset_indices(coset)
        if not indices:
            raise ValueError(f"empty coset label {coset!r}")
        name = f"label {coset} coset"
    per = tuple(Fraction(s, len(indices))
                for s in _orbit_fixed_sums(table, indices, act))
    if len(per) == 1:
        return ExpectationReport(act.spec, name, per[0])
    return ExpectationReport(act.spec, name, sum(per), orbit_values=per)


def _check_indices(table, indices):
    for i in indices:
        _check_int("element index", i, 0, len(table) - 1)


def _class_weights(table, members, tau=False):
    """(smallest member, member count) per conjugacy class (twisted with
    tau) that members meet, sorted.  A class function summed over members
    is the sum of count times its value at the smallest member.  Raises
    ValueError unless members are element indices that fill every class
    they meet."""
    count = Counter(members)
    _check_indices(table, count)
    out = []
    for cls in table.conjugacy_classes(tau):
        inside = [i for i in cls if i in count]
        if inside:
            if len(inside) != len(cls):
                raise ValueError("subset is not stable under conjugation")
            out.append((cls[0], sum(count[i] for i in inside)))
    return out


def _orbit_fixed_sums(table, members, act):
    """Fixed points of the members summed per orbit of act: the group
    permutes each orbit, so a per-orbit count is a class function, and the
    ``_fixed_rows`` masks of the smallest member of each class that
    _class_weights returns, weighted by its count, are summed at once."""
    weights = _class_weights(table, members)
    reps = table.rows[[i for i, _ in weights]]
    fixed = np.concatenate(list(_fixed_rows(table.space, reps, act)))
    fixing = np.array([w for _, w in weights]) @ fixed
    return [int(fixing[orb].sum()) for orb in orbits(table, act)]


def subset_expectation(table, members, action, comparator=None):
    """Average number of fixed points over an explicit element subset.

    members are element indices; the subset must be nonempty and stable under
    conjugation by the group generators, which is verified.  comparator rides
    along in the report for display next to a predicted constant; it is not
    asserted.
    """
    if not members:
        raise ValueError("empty element subset")
    act = _as_action(table, action)
    value = Fraction(sum(_orbit_fixed_sums(table, members, act)), len(members))
    return ExpectationReport(act.spec, f"{len(members)} elements", value, comparator)


def fixed_sets(table, indices, action):
    """Fixed-point index sets for a batch of elements, one frozenset each;
    indices may be any iterable, read once.  Their row codes go through
    ``_fixed_rows`` in slices, and each set is one row of its mask."""
    indices = list(indices)
    _check_indices(table, indices)
    act = _as_action(table, action)
    points = np.arange(len(act))
    masks = _fixed_rows(table.space, table.rows[indices], act)
    return [frozenset(points[row].tolist()) for mask in masks for row in mask]


def _expectation_fold(table, members, act, member_fixed=None):
    """The ``expectation_inequality`` record as a function of the boolean
    mask of the points x fixes, at one mask row and one boolean reduction
    per x, after one pass over the members (not checked for conjugation
    stability): their fixed-point mask, from ``_fixed_rows`` or from
    member_fixed, the members fixing each point and the orbits."""
    m = len(members)
    if member_fixed is None:
        rows = table.rows[list(members)]
        fixed = np.concatenate(list(_fixed_rows(table.space, rows, act))).T.copy()
    elif len(member_fixed) != m:
        raise ValueError("member_fixed must hold one fixed set per member")
    else:
        sizes = np.fromiter(map(len, member_fixed), dtype=np.intp, count=m)
        points = np.fromiter(itertools.chain.from_iterable(member_fixed), dtype=np.intp,
                             count=int(sizes.sum()))
        fixed = np.zeros((len(act), m), dtype=bool)
        fixed[points, np.repeat(np.arange(m), sizes)] = True
    fixing = np.count_nonzero(fixed, axis=1)  # fixed[p, s]: member s fixes point p
    orbs = [np.array(orb) for orb in orbits(table, act)]
    shares = [Fraction(int(fixing[orb].sum()), len(orb) * m) for orb in orbs]
    expect = Fraction(int(fixing.sum()), m)

    def record(xfix):  # counts as Python ints, so that the Fractions are too
        lhs = Fraction(int(np.count_nonzero(fixed[xfix].any(axis=0))), m)
        rhs = sum(int(np.count_nonzero(xfix[orb])) * share for orb, share in zip(orbs, shares))
        return {"lhs": lhs, "fpr": Fraction(int(np.count_nonzero(xfix)), len(act)),
                "expectation": expect, "rhs": rhs, "ok": lhs <= rhs}

    return record


def expectation_inequality(table, x, members, action, x_tau=False,
                           member_fixed=None):
    """Sharing a fixed point with a random subset element, versus the bound.

    The probability that x and a uniformly random member s of the subset
    have a common fixed point is at most the sum over the fixed points p of
    x of the share of members fixing p, a union bound.  On a conjugation-
    stable subset that share is the same on each orbit O of the action:
    E|Fix(s) & O| / |O|.  So the bound is the sum over orbits of
    |Fix(x) & O| E|Fix(s) & O| / |O|, which on a transitive action is fpr(x)
    times the subset's fixed-point expectation.  Returns a dict with both
    sides, the fpr and the expectation, exactly.  member_fixed may
    carry precomputed fixed_sets output, one set per member; when it is
    absent the subset's conjugation stability is verified here.  This is
    ``_expectation_fold`` at one x, with Fix(x) from ``fixed_point_indices``.
    """
    if not members:
        raise ValueError("empty element subset")
    _check_indices(table, [x])
    act = _as_action(table, action)
    if member_fixed is None:
        _class_weights(table, members)  # raises unless members fill their classes
    record = _expectation_fold(table, members, act, member_fixed)
    fixed = fixed_point_indices(table.space, table.elements[x], act, tau=x_tau)
    return record(np.isin(np.arange(len(act)), fixed))


# ---------------------------------------------------------------------------
# Fixed-point-ratio bounds.

@dataclass(frozen=True)
class FprReport:
    action: ActionSpec
    tau: bool
    bound_id: str
    bound: Fraction
    element: int  # index of the extremal element
    fpr: Fraction  # its ratio, the maximum over the scan
    margin: Fraction  # bound - fpr at the extremal element
    checked: int
    violations: int


def _fpr_bounds(n, q, spec):
    """Applicable strict upper bounds for one subspace-type action."""
    k = spec.k
    out = [("two_over_qk", Fraction(2, q**k))]
    if k == 1:
        out.append(("point_refined", Fraction(1, q) + Fraction(1, q ** (n - 1))))
        if spec.kind in ("flag", "antiflag") and n >= 4:
            out.append(("flag_refined", Fraction(1, q * q) + Fraction(4, q ** (n - 1))))
    return out


def _tau_acts(spec, n):
    if spec.kind == "subspace":
        return 2 * spec.k == n
    return spec.kind in ("flag", "antiflag")


def fpr_bound_check(table, kmax=None, include_tau=None):
    """Check every nontrivial element against the subspace-action fpr bounds.

    Actions are the k-subspace, k-flag, and k-antiflag actions for k up to
    n/2; for GL the inverse-transpose coset is included on the actions it
    permutes.  An element acting trivially, that is fixing every point, is
    left out.  For k < n only the scalars fix every k-subspace, and flags
    and antiflags contain such subspaces; on the n = 2 tau side g tau maps
    <v> to g perp<v> = <g J v> with J = [[0, -1], [1, 0]], so it fixes
    every line exactly when g J^-1 is scalar.  A fixed-point count is a
    class function, so it is evaluated once per conjugacy class (per
    twisted class g ~ s g s^T on the tau side) and weighted by the class
    size.  Returns one summary report per (action, bound, coset side)
    carrying the extremal element (the smallest index attaining the
    maximum) and the violation count, which must be zero.
    """
    if table.family not in ("GL", "SL"):
        raise ValueError("the fpr bounds are stated for linear groups")
    n, q = table.n, table.q
    kmax = n // 2 if kmax is None else kmax
    _check_int("kmax", kmax, 1, n // 2)
    actions = []
    for k in range(1, kmax + 1):
        actions.append(enumerate_action(table, ActionSpec("subspace", k)))
        if k < n - k:
            actions.append(enumerate_action(table, ActionSpec("flag", k)))
        actions.append(enumerate_action(table, ActionSpec("antiflag", k)))
    if include_tau is None:
        include_tau = table.family == "GL"
    weights = {tau: _class_weights(table, range(len(table)), tau)
               for tau in ([False, True] if include_tau else [False])}
    reports = []
    for act in actions:
        npts = len(act)
        kept = {}  # side -> (fixed points, smallest member, weight) per class
        for tau in weights:
            if tau and not _tau_acts(act.spec, n):
                continue
            reps = table.rows[[i for i, _ in weights[tau]]]
            fixed = _fixed_rows(table.space, reps, act, tau=tau)
            sizes = np.concatenate([np.count_nonzero(f, axis=1) for f in fixed]).tolist()
            kept[tau] = [(fp, i, w) for fp, (i, w) in zip(sizes, weights[tau]) if fp != npts]
        for bid, bound in sorted(_fpr_bounds(n, q, act.spec)):
            for tau, rows in kept.items():
                # classes come by smallest member, and max keeps the first
                fp, arg, _ = max(rows, key=lambda row: row[0], default=(0, -1, 0))
                ratio = Fraction(fp, npts)
                viol = sum(w for f, _, w in rows
                           if f * bound.denominator >= bound.numerator * npts)
                reports.append(
                    FprReport(act.spec, tau, bid, bound, arg, ratio, bound - ratio,
                              sum(w for *_, w in rows), viol)
                )
    return reports


# ---------------------------------------------------------------------------
# Symmetric-group analogues.

def no_short_cycle_counts(n, t):
    """counts[m] = permutations of m points with every cycle longer than t."""
    counts = [0] * (n + 1)
    counts[0] = 1
    for m in range(1, n + 1):
        total = 0
        falling = 1  # (m-1)! / (m-l)!, updated as l grows
        for length in range(1, m + 1):
            if length > t:
                total += falling * counts[m - length]
            falling *= m - length
        counts[m] = total
    return counts


def symmetric_a(n, t):
    """Proportion of permutations of n points with all cycles longer than t."""
    _check_int("n", n, 0)
    _check_int("t", t, 1)
    return Fraction(no_short_cycle_counts(n, t)[n], math.factorial(n))


def symmetric_expectation(n, k, t):
    """Expected number of fixed k-sets over the all-cycles-long subset.

    A permutation fixes a k-set exactly when it splits into independent
    permutations of the set and its complement, so the count is a product of
    the two cycle-length-restricted counts.  Requires 1 <= t <= k < n/2.
    """
    _check_int("k", k, 1)
    _check_int("t", t, 1, k)
    _check_int("n", n, 2 * k + 1)
    counts = no_short_cycle_counts(n, t)
    value = Fraction(math.comb(n, k) * counts[k] * counts[n - k], counts[n])
    return ExpectationReport(f"{k}-sets", f"A_{n}({t})", value, symmetric_a(k, t))


# ---------------------------------------------------------------------------
# Identity checks between enumerated families.

def inverse_transpose_identity_check(n, q, t, cap=DEFAULT_GROUP_CAP):
    """Inverse-transpose coset statistic of GL_n against Sp of even degree.

    Both sides are enumerated exactly; the symplectic degree is n rounded
    down to even.
    """
    _check_int("n", n, 2)
    lhs = proportion(("GL", n, q), t, "tau", cap=cap).value
    return lhs == proportion(("Sp", n - n % 2, q), t, cap=cap).value


def orthogonal_reflection_identity_check(n, q, t, cap=DEFAULT_GROUP_CAP):
    """Reflection-coset statistic against the average of smaller plain sets.

    For n >= 5 the O-variant proportion in dimension n equals the average of
    the two S-variant proportions in dimension n - gcd(2, n), for either type
    in even dimension.  All sides are enumerated exactly.
    """
    _check_int("n", n, 5)
    delta = 2 if n % 2 == 0 else 1
    m = n - delta
    rhs = sum(proportion(("O" + eps, m, q), t, "S", cap=cap).value
              for eps in ("+", "-")) / 2
    families = ("O+", "O-") if n % 2 == 0 else ("O",)
    return all(proportion((fam, n, q), t, "O", cap=cap).value == rhs
               for fam in families)


# ---------------------------------------------------------------------------
# Signed permutations.

@dataclass(frozen=True)
class WeylReport:
    m: int
    value: object  # Fraction for exact, float for montecarlo
    method: str
    trials: int = None
    ci_low: float = None
    ci_high: float = None


def _even_negative_cycles_paired(perm, signs):
    """True when negative cycles of every even length come in an even count."""
    odd_parity = 0  # bitmask over cycle lengths with an odd negative count
    seen = 0
    for i in range(len(perm)):
        if seen >> i & 1:
            continue
        length = 0
        neg = 0
        j = i
        while not seen >> j & 1:
            seen |= 1 << j
            neg ^= signs >> j & 1
            j = perm[j]
            length += 1
        if length % 2 == 0 and neg:
            odd_parity ^= 1 << length
    return odd_parity == 0


def weyl_negative_cycle_statistic(m, trials=None, seed=None):
    """Proportion of signed permutations whose even-length negative cycles
    all come in pairs.

    With trials=None the value is exact, [u^m] of the cycle-index series
    1/(1 - u) prod_(k even <= m) (1 + exp(-u^k/k))/2: an even number of
    negative k-cycles turns their factor exp(u^k/(2k)) into cosh(u^k/(2k))
    (Flajolet and Sedgewick, "Analytic Combinatorics", 2009, ch. II).
    Otherwise uniform samples give a float estimate with a 99% Wilson interval.
    An exact m above WEYL_EXACT_CAP raises ResourceCapExceeded at once.
    """
    _check_int("m", m, 1)
    if trials is None:
        if m > WEYL_EXACT_CAP:
            raise ResourceCapExceeded(f"exact statistic needs m <= {WEYL_EXACT_CAP}")
        out = Series.geometric(m)
        for k in range(2, m + 1, 2):
            factor, term = Series.one(m), Fraction(1)  # term: (-1)^j/(k^j j!)
            for j in range(1, m // k + 1):
                term /= -k * j
                factor.coeffs[k * j] = term / 2
            out = factor * out
        return WeylReport(m, out.coeffs[m], "exact")
    _check_int("trials", trials, 1)
    _check_int("seed", seed, 0)
    rng = random.Random(seed)
    base = list(range(m))
    hits = 0
    for _ in range(trials):
        rng.shuffle(base)
        hits += _even_negative_cycles_paired(base, rng.getrandbits(m))
    lo, hi = wilson_interval(hits, trials)
    return WeylReport(m, hits / trials, "montecarlo", trials, lo, hi)


# ---------------------------------------------------------------------------
# Generation probe.

class PermGroup:
    """A finite permutation group enumerated from generators, sorted.

    Its elements are ``rows``, an (N, degree) array of permutations (one
    byte per point up to degree 256, two above, keyed by each row's bytes),
    read-only and sorted lexicographically, behind the ``elements`` and
    ``index`` views of a ``GroupTable``.  It has the ``identity`` and the
    row methods (``_encode``, ``_decode``, ``_keys``, ``_right``,
    ``_left``) that ``bfs_closure`` and the views ask of a space.  No
    proper subgroup is larger than ``subgroup_bound``: |G|/2, or less where
    the group's maker knows better (``psl2``).
    """

    def __init__(self, degree, gens, name=""):
        self.degree = degree
        self.name = name
        self._dtype = np.uint8 if degree <= 256 else np.uint16
        self._flat = (degree, degree)  # length and base of a permutation tuple
        ident = tuple(range(degree))
        self.identity = ident
        self.gens = [tuple(g) for g in gens]
        for g in self.gens:
            if sorted(g) != list(ident):
                raise ValueError("generator is not a permutation")
        rows = bfs_closure(self, self.gens, PERM_GROUP_CAP)[0]
        self.rows = rows[np.argsort(self._keys(rows))]
        self.rows.flags.writeable = False  # shared by the views
        self.index = _Index(self, self.rows)
        self.index._sorted = self._keys(self.rows), np.arange(len(rows))  # already in key order
        self.elements = _Elements(self, self.rows, self.index)
        self.subgroup_bound = len(rows) // 2

    def order(self):
        return len(self.rows)

    def mul(self, a, b):
        return tuple(map(a.__getitem__, b))

    def _encode(self, perms):
        return np.asarray(perms, dtype=self._dtype).reshape(-1, self.degree)

    def _decode(self, rows):
        return list(map(tuple, rows.tolist()))

    def _keys(self, rows):
        # big-endian points, so that the keys sort in tuple order
        rows = np.ascontiguousarray(rows, dtype=np.dtype(self._dtype).newbyteorder(">"))
        return rows.view(np.dtype((np.void, rows.itemsize * self.degree))).ravel()

    def _right(self, gens):
        """rows -> (rows, len(gens), degree) array of g s for each s of
        gens: the position gathers g[s]."""
        s = self._encode(gens)
        return lambda rows: rows[:, s]

    def _left(self, a):
        """rows -> rows of a g, the lookup a[g]."""
        return np.asarray(a, dtype=self._dtype).__getitem__

    def inv(self, a):
        out = [0] * self.degree
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    def element_order(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def conjugacy_classes(self):
        """Element indices grouped by conjugacy, ordered by smallest member."""
        pairs = [(self.inv(s), s) for s in self.gens]
        return relation_classes(self, self.rows, pairs)


def psl2(p):
    """PSL_2(p) for a prime p >= 5, acting on the projective line.

    Points 0..p-1 are the field elements and point p is infinity; the
    generators are z -> z+1 and z -> -1/z.  An order p(p^2-1)/2 above
    PERM_GROUP_CAP raises ResourceCapExceeded before the closure starts, and
    the closure order is checked against it.  Its ``subgroup_bound`` is
    |G|/p: by Galois's theorem every proper subgroup of PSL(2,p), p >= 5,
    has index at least p (Dickson, "Linear Groups", 1901; Huppert,
    "Endliche Gruppen I", 1967, II.8.28).
    """
    _check_int("p", p, 5)
    if not is_prime(p):
        raise ValueError(f"p={p} is not a prime")
    order = p * (p * p - 1) // 2
    if order > PERM_GROUP_CAP:
        raise ResourceCapExceeded(
            f"PSL(2,{p}) has order {order}, beyond cap {PERM_GROUP_CAP}"
        )
    inf = p
    shift = tuple((z + 1) % p for z in range(p)) + (inf,)
    flip = [0] * (p + 1)
    flip[0] = inf
    flip[inf] = 0
    for z in range(1, p):
        flip[z] = -pow(z, -1, p) % p
    group = PermGroup(p + 1, [shift, tuple(flip)], name=f"PSL(2,{p})")
    if group.order() != order:
        raise AssertionError("projective line closure has the wrong order")
    group.subgroup_bound = order // p
    return group


@dataclass(frozen=True)
class GenerationReport:
    group: str
    x_index: int
    x_order: int
    pool_size: int
    method: str
    trials: int
    hits: int
    value: object  # Fraction for exhaustive, float for montecarlo
    ci_low: float = None
    ci_high: float = None
    witness: int = None  # index of one generating partner, if any


def generation_probe(group, x, coset=None, trials="exhaustive", seed=None):
    """Probability that x and a random partner generate the group.

    x is an element tuple or an index in 0..order-1; the partner pool is the
    whole group unless an explicit list of group elements is given.  An
    index out of range, or an x or partner outside the group, raises
    ValueError.  trials="exhaustive" scans the pool and returns an exact
    Fraction; an integer samples uniformly and returns a float with a 99%
    Wilson interval.  The identity is rejected.

    A partner s is decided once, by closing <x, s> until it passes
    ``group.subgroup_bound`` (no proper subgroup is larger), and the verdict
    is shared: <x, x^i s x^j> = <x, s>, so every partner of the double coset
    <x>s<x> generates with x; a closure that stops short is the proper
    subgroup H = <x, s>, and <x, s'> lies in H for every s' in H.  Verdicts
    sit in an int8 array by element index, one ``index.find`` per double
    coset or subgroup.
    """
    if isinstance(x, (tuple, list)):
        xi = group.index.get(tuple(x), -1)
        if xi < 0:
            raise ValueError(f"x {tuple(x)} is not an element of {group.name}")
    else:
        _check_int("x index", x, 0, group.order() - 1)
        xi = x
    x = group.elements[xi]
    if x == group.identity:
        raise ValueError("x must be nontrivial")
    pool = range(group.order())  # partners by element index
    if coset is not None:
        coset = [tuple(s) for s in coset]
        pool = [group.index.get(s, -1) for s in coset]
        if -1 in pool:
            raise ValueError(f"partner {coset[pool.index(-1)]} is not an element of {group.name}")
    if not pool:
        raise ValueError("empty partner pool")
    xo = group.element_order(x)
    exhaustive = trials == "exhaustive"
    if exhaustive:
        trials, draws = len(pool), pool
    else:
        _check_int("trials", trials, 1)
        _check_int("seed", seed, 0)
        rng = random.Random(seed)
        draws = (pool[rng.randrange(len(pool))] for _ in range(trials))
    bound = group.subgroup_bound
    powers = group._encode(list(itertools.accumulate(
        itertools.repeat(x, xo - 1), group.mul, initial=group.identity)))
    verdict = np.zeros(group.order(), dtype=np.int8)
    hits, witness = 0, None
    for s in draws:
        if not verdict[s]:
            closure = bfs_closure(group, (x, group.rows[s]), stop_over=bound)[0]
            if len(closure) > bound:  # mark x^i s x^j for all i, j
                left = group._right([group.rows[s]])(powers)[:, 0]
                verdict[group.index.find(group._right(powers)(left).reshape(-1, group.degree))] = 1
            else:
                verdict[group.index.find(closure)] = -1
        if verdict[s] > 0:
            hits += 1
            if witness is None:
                witness = s
    if exhaustive:
        return GenerationReport(group.name, xi, xo, len(pool), "exhaustive",
                                trials, hits, Fraction(hits, trials),
                                witness=witness)
    lo, hi = wilson_interval(hits, trials)
    return GenerationReport(group.name, xi, xo, len(pool), "montecarlo",
                            trials, hits, hits / trials, lo, hi, witness)


def three_halves_generation(group):
    """Exact generation proportion for one representative per nontrivial class.

    Generation is conjugation invariant, so a representative per class covers
    every nontrivial element.  Returns one record per class; 3/2-generation
    holds exactly when every proportion is positive.
    """
    out = []
    for cls in group.conjugacy_classes()[1:]:  # the identity is element 0
        report = generation_probe(group, cls[0])
        out.append({
            "representative": cls[0],
            "class_size": len(cls),
            "element_order": report.x_order,
            "proportion": report.value,
        })
    return out
