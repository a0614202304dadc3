"""Reference routes kept only to check the runtime ones.

Each function here recomputes, by enumeration or by a slower direct
formula, a quantity that ``classprop`` computes by one runtime route: the
irreducible counts and det-residue class counts (closed forms at runtime),
the det-graded no-small-factor series (the Euler product, each factor
expanded by the q-exponential identity and raised to its count by square
and multiply, against the exp of its closed-form log), the GL
no-small-factor series (the rational Euler product, against the graded
series at modulus 1), characteristic polynomials
(Hessenberg reduction and minor sums, against the batched Berkowitz
kernel), the tau squares g g^-T (one inverse per element, against the
batched elimination), the coset labels (one det or rank per element, and
the batched rank of g - 1, against the labels a build reads off its
closure), matrix products (n multiply-adds per entry over the field's
lookup tables, against the row-code closure and class maps), the
per-element sieve and tau tests and the no-small-invariant-subspace sets
(the scans over batched characteristic polynomials), the kernels, perps
and restrictions of the orthogonal sets (factor conditions on the
characteristic polynomial), GF(2) invertibility (the bit-sliced kernel),
the word-major bit-slice and the packed sampler's growing chunks (against
the lane-major slice and the fixed 4 096-row blocks),
fixed subspaces (the batched fixed-point kernel), and action orbits and
(twisted) conjugacy classes (a depth-first search, and one union-find
over index maps, against the vectorised min-label propagation), and
generation of a permutation group by a pair (one closure per pair, against
the probe's verdicts shared over double cosets and proper subgroups), and
the generic Monte Carlo scan (one rejection draw and one determinant per
matrix, against the batched draws of ``stats._mc_scan``), generator
completion (a scan of every q^(n^2) matrix, against the finite tail
``matgroup._flip_tail``), the type of a quadratic form polarising to the
symplectic form (its singular vectors counted, against one evaluation),
the signed-permutation statistic (every signed permutation, against its
cycle-index series), and rank, det, inverse, vector images, spans, perps,
subspace types and quadratic-form point images (one scalar elimination per
matrix, and images built digit by digit, against the batched elimination
and image kernels), and fixed points as one index list per element and the
expectation record as one set loop (against the batched fixed-point masks
and the expectation fold), and flag and antiflag points (one scalar test per
pair of subspaces, against the incidence read off a membership table), and
the Taylor sums of the log1p and exp enclosures (one normalised Fraction
per term, against one integer sum and one division per series).  The
labels, tau squares, minor sums and draws here take their dets, ranks and
inverses from the scalar eliminations, so they stay independent of the
runtime ones.
The permutation copy of a matrix action is here too; only tests use it.
"""

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from classprop.cyclo import CycRing
from classprop.gf import (
    Field,
    _check_int,
    count_irreducibles,
    has_small_degree_factor,
    pdeg,
    pdivmod,
    pmod,
    pmonic,
    pmul,
    pnorm,
    residue_class_counts,
)
from classprop import limits, matgroup
from classprop.limits import _EXP_TERMS, Enclosure
from classprop.matgroup import (
    ActionTable,
    MatSpace,
    _gauss_jordan,
    _product_tables,
    _tau_squares,
    _cols_to_mat,
    all_subspaces,
    enumerate_action,
    fixed_point_indices,
    point_permutation,
)
from classprop.series import Series
from classprop.stats import PermGroup, _even_negative_cycles_paired, gf2_nonsingular_batch

# Largest number of candidate polynomials count_enumerated will sieve.
DEFAULT_ENUM_CAP = 30_000

FAMILIES = ("N", "Nstar", "Mstar", "Ntilde", "Mtilde")


# ---------------------------------------------------------------------------
# Enumerated irreducibles over GF(q).

def peval(F, f, x):
    acc = 0
    add, mul = F.add_t, F.mul_t
    for c in reversed(f):
        acc = add[mul[acc][x]][c]
    return acc


def monic_polys(F, d):
    """All monic polynomials of degree d, in constant-first lex order."""
    for tail in itertools.product(range(F.q), repeat=d):
        yield tail + (1,)


def is_irreducible(F, f):
    f = pnorm(f)
    deg = pdeg(f)
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in irreducibles(F, d):
            if not pmod(F, f, g):
                return False
    return True


def irreducibles(F, d):
    """Tuple of all monic irreducibles of degree d (cached per field)."""
    cache = getattr(F, "_irr_cache", None)
    if cache is None:
        cache = F._irr_cache = {}
    if d not in cache:
        found = []
        for f in monic_polys(F, d):
            if d == 1 or not any(
                not pmod(F, f, g)
                for dd in range(1, d // 2 + 1)
                for g in irreducibles(F, dd)
            ):
                found.append(f)
        cache[d] = tuple(found)
    return cache[d]


# ---------------------------------------------------------------------------
# Conjugations on polynomials with nonzero constant term.


def conjugate_star(F, f):
    """phi*(z) = phi(0)^-1 z^n phi(1/z): roots are sent to their inverses."""
    f = pnorm(f)
    if not f or f[0] == 0:
        raise ValueError("star conjugate needs a nonzero constant term")
    c = F.inv(f[0])
    row = F.mul_t[c]
    return tuple(row[x] for x in reversed(f))


def conjugate_tilde(F, q0, f):
    """Conjugate-inverse twist over GF(q0^2): roots go to theta^(-q0).

    F must be the quadratic extension GF(q0^2); the coefficient conjugation
    is the q0-power map.
    """
    if F.q != q0 * q0:
        raise ValueError("field must be GF(q0^2)")
    f = pnorm(f)
    if not f or f[0] == 0:
        raise ValueError("tilde conjugate needs a nonzero constant term")
    sigma = lambda x: F.pow(x, q0)
    c = sigma(F.inv(f[0]))
    row = F.mul_t[c]
    return tuple(row[sigma(x)] for x in reversed(f))


def det_residue(F, f):
    """Discrete log of (-1)^deg * f(0) with respect to F.zeta."""
    f = pnorm(f)
    if not f or f[0] == 0:
        raise ValueError("residue needs a nonzero constant term")
    val = F.mul(F.minus_one_to(pdeg(f)), f[0])
    return F.dlog[val]


def unitary_residue(F, q0, f):
    """Discrete log in the norm-one subgroup of GF(q0^2)*, order q0 + 1.

    The base point is zeta^(q0-1) for the field's primitive zeta.  Defined
    for f with f = tilde(f) via (-1)^deg f(0), otherwise via f(0)*tilde(f)(0);
    both land in the subgroup.
    """
    if F.q != q0 * q0:
        raise ValueError("field must be GF(q0^2)")
    f = pnorm(f)
    if not f or f[0] == 0:
        raise ValueError("residue needs a nonzero constant term")
    if conjugate_tilde(F, q0, f) == pmonic(F, f):
        val = F.mul(F.minus_one_to(pdeg(f)), f[0])
    else:
        val = F.mul(f[0], conjugate_tilde(F, q0, f)[0])
    table = getattr(F, "_norm_one_dlog", None)
    if table is None:
        gen = F.pow(F.zeta, q0 - 1)
        table = {}
        x = 1
        for k in range(q0 + 1):
            table[x] = k
            x = F.mul(x, gen)
        F._norm_one_dlog = table
    if val not in table:
        raise ValueError("value lies outside the norm-one subgroup")
    return table[val]


# ---------------------------------------------------------------------------
# Counts by enumeration.

def count_enumerated(family, q, j, cap=DEFAULT_ENUM_CAP):
    """Count by explicit enumeration; ValueError when over the cap.  The
    test oracle for count_irreducibles."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    base = q * q if family in ("Ntilde", "Mtilde") else q
    if base**j > cap:
        raise ValueError(
            f"enumeration space {base}^{j} exceeds cap {cap} for {family}"
        )
    F = Field(base)
    polys = [f for f in irreducibles(F, j) if f[0] != 0]
    if family == "N":
        return len(polys)
    if family in ("Nstar", "Mstar"):
        fixed = sum(1 for f in polys if conjugate_star(F, f) == f)
        return fixed if family == "Nstar" else (len(polys) - fixed) // 2
    fixed = sum(1 for f in polys if conjugate_tilde(F, q, f) == f)
    return fixed if family == "Ntilde" else (len(polys) - fixed) // 2


def residue_class_counts_sieve(F, jmax):
    """Map (j, s) -> number of monic irreducibles of degree j over F with
    nonzero constant term and det_residue s, for j = 1..jmax."""
    counts = {}
    for j in range(1, jmax + 1):
        for f in irreducibles(F, j):
            if f[0] == 0:
                continue
            s = det_residue(F, f)
            counts[(j, s)] = counts.get((j, s), 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Series: powers by square and multiply, the Euler factors by the
# q-exponential identity, the graded product they build, the direct Euler
# product, and the telescoping residue products over Q[C_m].  With E = sum_k e_k the full products over irreducibles are
# 1 - E u/(1 - u) (linear) and 1 - E u/(1 + u) (unitary); the weight a sends
# e_k to e_{ak}, and E to sum_k e_{ak}.  These builders expose the truncated
# partial products so the identities can be checked exactly.

def series_pow(s, k):
    """s^k, k >= 0, by square and multiply."""
    _check_int("k", k, 0)
    result = Series.one(s.order, s.ring)
    while k:
        if k & 1:
            result = result * s
        s = s * s
        k >>= 1
    return result


def euler_base_series(a, c, j, order, ring=None):
    """prod_{i>=1} (1 - c a^i u^j), truncated to the given order, by the
    q-exponential identity

        prod_{i>=1} (1 - x a^i) = sum_k (-1)^k a^(k(k+1)/2) x^k / prod_{r<=k} (1 - a^r).

    ``a`` is a Fraction with |a| < 1; ``c`` is a rational or ring element.
    """
    a = Fraction(a)
    if not -1 < a < 1:
        raise ValueError("need |a| < 1")
    out = Series.one(order, ring)
    if ring is not None:
        c = ring.coerce(c)
    else:
        c = Fraction(c)
    kmax = order // j
    poch = Fraction(1)  # prod_{r<=k} (1 - a^r)
    apow = Fraction(1)  # a^k
    tri = Fraction(1)  # a^(k(k+1)/2)
    cpow = Fraction(1) if ring is None else ring.one
    for k in range(1, kmax + 1):
        apow *= a
        tri *= apow
        poch *= 1 - apow
        cpow = cpow * c
        coeff = Fraction((-1) ** k) * tri / poch
        out.coeffs[j * k] = out.coeffs[j * k] + cpow * coeff
    return out


def euler_direct_product_series(a, c, j, order, imax, ring=None):
    """Truncated prod_{i=1..imax} (1 - c a^i u^j), the cross-check oracle."""
    a = Fraction(a)
    out = Series.one(order, ring)
    if ring is not None:
        c = ring.coerce(c)
    apow = Fraction(1)
    for _ in range(imax):
        apow *= a
        factor = Series.one(order, ring)
        if j <= order:
            factor.coeffs[j] = -(c * apow) if ring is not None else -Fraction(c) * apow
        out = out * factor
    return out


def euler_factor_series(q, j, m, order):
    """(prod_{i>=1} (1 - u^j q^{-ij}))^m, m >= 0, with exact rational
    coefficients."""
    _check_int("q", q, 2)
    _check_int("j", j, 1)
    _check_int("m", m, 0)
    return series_pow(euler_base_series(Fraction(1, q**j), 1, j, order), m)


def gl_euler_product_series(q, t, order):
    """The rational product for the no-small-factor proportions of GL:
    1/(1 - u) times one Euler factor per irreducible of degree j <= t, the
    reference for the e_0 coordinate of ``series._graded_series`` at m = 1."""
    out = Series.geometric(order)
    for j in range(1, t + 1):
        out = out * euler_factor_series(q, j, count_irreducibles("N", q, j), order)
    return out


def graded_product_series(q, t, order, m):
    """The det-graded no-small-factor series over Q[C_m] as one product:
    1 + E u/(m(1 - u)) times, for each (j, s mod m) class of irreducibles of
    degree j <= t, the Euler product prod_{i>=1} (1 - e_s q^(-ij) u^j)
    raised to the class count, each expanded by the q-exponential identity.
    The counts come at modulus q - 1 and are folded mod m here, the
    reference for ``series._graded_series``."""
    ring = CycRing(m)
    E = sum((ring.zeta_pow(s) for s in range(m)), ring.zero)
    out = Series([ring.one] + [E * Fraction(1, m)] * order, ring)
    counts = Counter()
    for (j, s), c in residue_class_counts(q, t, q - 1).items():
        counts[j, s % m] += c
    for (j, s), c in sorted(counts.items()):
        factor = euler_base_series(Fraction(1, q**j), ring.zeta_pow(s), j, order, ring)
        out = out * series_pow(factor, c)
    return out


def residue_product_series(q, a, order):
    """prod over monic irreducibles phi (nonzero constant term, any degree)
    of (1 - e_{a r(phi)} u^{deg phi}) over Q[C_{q-1}], truncated."""
    ring = CycRing(q - 1)
    counts = residue_class_counts(q, order, q - 1)
    out = Series.one(order, ring)
    for (d, s), c in sorted(counts.items()):
        factor = Series.one(order, ring)
        factor.coeffs[d] = -ring.zeta_pow(a * s)
        out = out * series_pow(factor, c)
    return out


def unitary_residue_product_series(q0, a, order):
    """Unitary analogue over GF(q0^2): self-conjugate irreducibles contribute
    (1 - e_{a s(phi)} u^deg), conjugate pairs (1 - e_{a s(phi)} u^{2 deg}),
    over Q[C_{q0+1}]."""
    ring = CycRing(q0 + 1)
    F = Field(q0 * q0)
    out = Series.one(order, ring)
    for d in range(1, order + 1):
        for f in irreducibles(F, d):
            if not f[0]:
                continue
            g = conjugate_tilde(F, q0, f)
            s = unitary_residue(F, q0, f)
            if g == f:
                step = d
            elif f < g:
                step = 2 * d
            else:
                continue
            if step > order:
                continue
            factor = Series.one(order, ring)
            factor.coeffs[step] = -ring.zeta_pow(a * s)
            out = out * factor
    return out


# ---------------------------------------------------------------------------
# Taylor sums of the enclosures, one Fraction addition per term.

def log1p_enclosure_fractions(y, budget):
    """``limits.log1p_enclosure`` with each partial sum and remainder kept
    as a Fraction: the term y^k/k is added, and the bound
    |y|^(k+1) / ((k+1)(1 - |y|)) formed, one normalised Fraction at a time."""
    y = Fraction(y)
    if not -1 < y < 1:
        raise ValueError("need |y| < 1")
    if y == 0:
        return Enclosure(Fraction(0), Fraction(0))
    ay = abs(y)
    s = Fraction(0)
    term = Fraction(1)
    k = 0
    while True:
        k += 1
        term *= y
        s += term / k if k % 2 else -term / k
        rem = ay ** (k + 1) / ((k + 1) * (1 - ay))
        if rem <= budget:
            return Enclosure(s - rem, s + rem)


def exp_lower_fractions(x):
    """``limits._exp_lower`` with the Taylor partial sum of e^x, for x >= 0,
    added one Fraction term at a time; below 0 it is 1 / ``_exp_upper(-x)``."""
    if x < 0:
        return 1 / limits._exp_upper(-x)
    s = Fraction(0)
    term = Fraction(1)
    for k in range(_EXP_TERMS + 1):
        s += term
        term = term * x / (k + 1)
    return s


# ---------------------------------------------------------------------------
# Scalar linear algebra: one Python elimination per matrix, and vector
# codes, images, spans and perps built digit by digit (against the batched
# ``matgroup._gauss_jordan`` and ``matgroup._images``).

def vec_code(space, v):
    """The code sum_i v[i] q^i of one vector, read one digit at a time."""
    code = 0
    for x in reversed(v):
        code = code * space.q + x
    return code


def elim(space, rows, ncols, *, reduced=True):
    """In-place row echelon of the list of row lists over the first ncols
    columns, reduced unless told otherwise; returns the pivot columns."""
    F = space.F
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv_t[rows[r][c]]
        if inv != 1:
            mrow = F.mul_t[inv]
            rows[r] = [mrow[x] for x in rows[r]]
        row_r = rows[r]
        rng = range(len(rows)) if reduced else range(r + 1, len(rows))
        for i in rng:
            if i != r and rows[i][c]:
                mrow = F.mul_t[rows[i][c]]
                neg = F.neg_t
                add = F.add_t
                rows[i] = [
                    add[x][neg[mrow[y]]] for x, y in zip(rows[i], row_r)
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def scalar_rank(space, a):
    """Rank of the flat matrix a by one row echelon."""
    return len(elim(space, space.rows(a), space.n, reduced=False))


def scalar_det(space, a):
    """Determinant of the flat matrix a by one pivot loop."""
    n, F = space.n, space.F
    rows = space.rows(a)
    det = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = F.neg_t[det]
        piv = rows[c][c]
        det = F.mul(det, piv)
        mrow = F.mul_t[F.inv_t[piv]]
        rowc = [mrow[x] for x in rows[c]]
        rows[c] = rowc
        for i in range(c + 1, n):
            if rows[i][c]:
                mf = F.mul_t[rows[i][c]]
                neg = F.neg_t
                add = F.add_t
                rows[i] = [add[x][neg[mf[y]]] for x, y in zip(rows[i], rowc)]
    return det


def scalar_inv(space, a):
    """Inverse of the flat matrix a by reducing [a | I]; ZeroDivisionError
    when a is singular."""
    n = space.n
    rows = [
        list(a[i * n : (i + 1) * n])
        + [1 if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    pivots = elim(space, rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(rows[i][n + j] for i in range(n) for j in range(n))


def null_basis(space, rows):
    """Basis of the vectors with zero dot product against every row (for
    a matrix's rows, its right null space); rows is reduced in place."""
    n, F = space.n, space.F
    pivots = elim(space, rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_t[rows[r][fc]]
        basis.append(tuple(v))
    return basis


def code_add(space, c1, c2):
    """Code of the sum of the vectors with codes c1 and c2, digit by digit."""
    if space.q == 2:
        return c1 ^ c2
    add = space.F.add_t
    q = space.q
    out = 0
    mult = 1
    while c1 or c2:
        out += add[c1 % q][c2 % q] * mult
        c1 //= q
        c2 //= q
        mult *= q
    return out


def vector_images(space, g):
    """List L with L[code(v)] = code(g v), built digit by digit."""
    n, q, F = space.n, space.q, space.F
    cols = []
    for j in range(n):
        col = tuple(g[i * n + j] for i in range(n))
        cols.append(
            [vec_code(space, tuple(F.mul(c, x) for x in col)) for c in range(q)]
        )
    images = [0] * (q**n)
    stride = 1
    count = 1
    for j in range(n):
        colj = cols[j]
        for c in range(1, q):
            inc = colj[c]
            base = c * stride
            for idx in range(count):
                images[base + idx] = code_add(space, images[idx], inc)
        stride *= q
        count *= q
    return images


def subspace_vectors(space, basis):
    """Codes of every vector in the span of the basis."""
    F = space.F
    vecs = [(0,) * space.n]
    for b in basis:
        new = []
        for c in range(1, space.q):
            cb = tuple(F.mul(c, x) for x in b)
            for v in vecs:
                new.append(tuple(F.add(x, y) for x, y in zip(v, cb)))
        vecs.extend(new)
    return frozenset(vec_code(space, v) for v in vecs)


_span = functools.lru_cache(maxsize=None)(subspace_vectors)


def incidence_points(space, form, kind, k, restrict="any"):
    """Flag or antiflag points by one scalar test per pair of subspaces, in
    row-major order of class indices (those of ``all_subspaces``): U of
    dimension k of the restricted type (``subspace_type``) and W of
    dimension n - k, with W holding every basis vector of U (a flag) or
    meeting U only in 0 (an antiflag); for 2k = n an antiflag is an
    unordered pair, both of the restricted type, listed once as i < j."""
    n = space.n
    small = all_subspaces(space, k)
    keep = [i for i, b in enumerate(small)
            if restrict == "any" or subspace_type(space, form, b) == restrict]
    vecs = {i: _span(space, small[i]) for i in keep}
    if kind == "antiflag" and 2 * k == n:
        return [(i, j) for a, i in enumerate(keep) for j in keep[a + 1:]
                if len(vecs[i] & vecs[j]) == 1]
    big = [_span(space, b) for b in all_subspaces(space, n - k)]
    if kind == "flag":
        return [(i, j) for i in keep for j, w in enumerate(big)
                if all(vec_code(space, b) in w for b in small[i])]
    return [(i, j) for i in keep for j, w in enumerate(big) if len(vecs[i] & w) == 1]


def rref_basis(space, vectors):
    """Canonical reduced-echelon basis for the span of the given vectors."""
    rows = [list(v) for v in vectors]
    elim(space, rows, space.n)
    return tuple(tuple(r) for r in rows if any(r))


def perp_basis_dot(space, basis):
    """Perp of the span under the plain dot product, as a canonical basis."""
    return rref_basis(space, null_basis(space, [list(b) for b in basis]))


def subspace_type(space, form, basis):
    """The point type of the span of basis under form (one of
    ``matgroup._RESTRICTIONS``), from one scalar rank of its Gram matrix."""
    if form.kind == "none":
        return "any"
    k = len(basis)
    gram = tuple(form.bilinear(space, u, v) for u in basis for v in basis)
    r = scalar_rank(MatSpace(k, space.q), gram)
    if form.kind == "quadratic":
        basis_singular = all(form.quad_value(space, v) == 0 for v in basis)
        if k == 1:
            return "totally_singular" if basis_singular else "nonsingular"
        if basis_singular and r == 0:
            return "totally_singular"
    elif r == 0:
        return "totally_singular"
    if r == k:
        return "nondegenerate"
    return "degenerate"


def form_translation(space, g, action):
    """Vector c with g . Q_v = Q_{g v + c} in the quadratic-forms action,
    from two scalar inverses."""
    n, F = space.n, space.F
    ginv = scalar_inv(space, g)
    vals = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        ge = space.mat_vec(ginv, e)
        vals.append(
            F.sub(
                matgroup._eval_quad(space, action.base_quad, ge),
                matgroup._eval_quad(space, action.base_quad, e),
            )
        )
    # x -> Q0(g^-1 x) - Q0(x) is linear over GF(2); write it as B(x, c)
    giv = scalar_inv(space, space.transpose(action.form.gram))
    return space.mat_vec(giv, tuple(vals))


def quadratic_form_permutation(space, g, action):
    """``point_permutation`` on quadratic-form points, one point at a time:
    Q_v goes to Q_(g v + c)."""
    c = form_translation(space, g, action)
    out = []
    for code, _eps in action.points:
        gv = space.mat_vec(g, space.code_vec(code))
        out.append(vec_code(space, tuple(space.F.add(x, y) for x, y in zip(gv, c))))
    return out


def fixed_rows_lists(space, rows, action, tau=False):
    """Sorted positions of the action points fixed by g (or by g tau), one
    list per matrix g with these row codes, as a generator: subspace-type
    points through the batched plan of ``matgroup._fixed_plan``, one list
    per row of its mask; quadratic-form points one element at a time, from
    the scalar ``quadratic_form_permutation``."""
    if action.spec.kind == "quadratic_forms":
        if tau:
            raise ValueError("tau does not act on quadratic-form points")
        for g in space._decode(rows):
            perm = quadratic_form_permutation(space, g, action)
            yield [p for p, image in enumerate(perm) if image == p]
        return
    cols, slots, mask = matgroup._fixed_plan(action, tau)
    for _, g in space._slices(rows, matgroup._step(slots.size // 2)):
        cells = matgroup._images(space.F, g, cols)[:, slots[..., 0]]
        cells += slots[..., 1]
        fixed = mask[cells].all(axis=3).any(axis=2)
        yield from (np.flatnonzero(row).tolist() for row in fixed)


def expectation_by_sets(table, x, members, action, x_tau=False):
    """The record of ``stats.expectation_inequality`` at x, from one fixed
    set per member (``fixed_rows_lists``), the members fixing each point
    counted over those sets, and the orbits found by ``dfs_orbits``."""
    act = action if isinstance(action, ActionTable) else enumerate_action(table, action)
    member_fixed = [frozenset(f) for f in
                    fixed_rows_lists(table.space, table.rows[list(members)], act)]
    xfix = frozenset(next(fixed_rows_lists(table.space, table.rows[[x]], act, tau=x_tau)))
    hits = sum(1 for s in member_fixed if xfix & s)
    fixing = Counter(itertools.chain.from_iterable(member_fixed))  # per point
    lhs = Fraction(hits, len(members))
    rhs = sum(Fraction(len(xfix.intersection(orb)) * sum(fixing[p] for p in orb),
                       len(orb) * len(members))
              for orb in dfs_orbits(table, act))
    return {
        "lhs": lhs,
        "fpr": Fraction(len(xfix), len(act)),
        "expectation": Fraction(sum(fixing.values()), len(members)),
        "rhs": rhs,
        "ok": lhs <= rhs,
    }


# ---------------------------------------------------------------------------
# Matrices and element subsets.

def charpoly_hessenberg(space, a):
    """Monic characteristic polynomial, constant term first (oracle).

    Similarity reduction to upper Hessenberg form (each row operation is
    balanced by the inverse column operation), then the leading-minor
    recurrence on the Hessenberg matrix.
    """
    n, F = space.n, space.F
    H = space.rows(a)
    for c in range(n - 2):
        pr = None
        for i in range(c + 1, n):
            if H[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != c + 1:
            H[c + 1], H[pr] = H[pr], H[c + 1]
            for row in H:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = F.inv_t[H[c + 1][c]]
        for i in range(c + 2, n):
            if H[i][c]:
                f = F.mul(H[i][c], inv)
                mf = F.mul_t[f]
                neg, add = F.neg_t, F.add_t
                H[i] = [add[x][neg[mf[y]]] for x, y in zip(H[i], H[c + 1])]
                for row in H:
                    row[c + 1] = add[row[c + 1]][mf[row[i]]]
    polys = [(1,)]
    for k in range(1, n + 1):
        zpoly = (F.neg_t[H[k - 1][k - 1]], 1)
        p = list(pmul(F, zpoly, polys[k - 1]))
        coef = 1
        for m in range(1, k):
            coef = F.mul(coef, H[k - m][k - m - 1])
            if coef == 0:
                break
            term = F.mul(coef, H[k - 1 - m][k - 1])
            if term:
                neg_term = F.neg_t[term]
                for i, x in enumerate(polys[k - 1 - m]):
                    p[i] = F.add(p[i], F.mul(neg_term, x))
        polys.append(tuple(p))
    out = polys[n]
    if len(out) < n + 1:
        out = out + (0,) * (n + 1 - len(out))
    return out


def charpoly_minors(space, a):
    """Characteristic polynomial via sums of principal minors (oracle)."""
    n, F = space.n, space.F
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        total = 0
        for sel in itertools.combinations(range(n), k):
            sub = tuple(a[i * n + j] for i in sel for j in sel)
            total = F.add(total, scalar_det(MatSpace(k, space.q), sub))
        coeffs[n - k] = F.mul(F.minus_one_to(k), total)
    return tuple(coeffs)


def sieve_free(space, g, t):
    """True when the characteristic polynomial of g has no irreducible
    factor of degree <= t (one element at a time)."""
    return not has_small_degree_factor(space.F, charpoly_hessenberg(space, g), t)


def tau_square(space, g):
    """x = g g^-T, the square of g tau, by one inverse, transpose and product
    (against the batched elimination of ``matgroup._tau_squares``)."""
    return space.mul(g, space.transpose(scalar_inv(space, g)))


def dickson_label(space, g):
    """rank(g - 1) mod 2 by one elimination per element (against
    ``batched_dickson_labels`` and the labels a build reads off its
    closure)."""
    return scalar_rank(space, space.sub(g, space.identity)) % 2


def batched_dickson_labels(space, mats):
    """rank(g - 1) mod 2 for each matrix g of the iterable mats, in order,
    from one ``matgroup._gauss_jordan`` per slice of _PRODUCT_CHUNK
    matrices: the rank is the count of columns that found a pivot."""
    n, q, F = space.n, space.q, space.F
    minus_one = np.array([F.add_t[x][F.neg_t[1]] for x in range(q)], dtype=np.intp)
    diag = np.arange(n)
    it = iter(mats)
    while part := list(itertools.islice(it, matgroup._PRODUCT_CHUNK)):
        a = np.array(part, dtype=np.intp).reshape(-1, n, n)
        a[:, diag, diag] = minus_one[a[:, diag, diag]]
        _, pivots = _gauss_jordan(F, a, n)
        yield from ((pivots >= 0).sum(axis=1) % 2).tolist()


def element_labels(table):
    """The coset label of every element of an ambient table, one det or
    rank per element: the det label mod q - 1 (GL, SL), the GU label mod
    q0 + 1, 0 (Sp), rank(g - 1) mod 2 (orthogonal, even q), or 0 / 1 for
    det 1 / -1 (orthogonal, odd q)."""
    sp, fam, q = table.space, table.family, table.q
    dlog = sp.F.dlog
    if fam in ("GL", "SL"):
        return tuple(dlog[scalar_det(sp, g)] % (q - 1) if q > 2 else 0
                     for g in table.elements)
    if fam in ("GU", "SU"):
        return tuple(dlog[scalar_det(sp, g)] // (q - 1) % (q + 1) for g in table.elements)
    if fam == "Sp":
        return (0,) * len(table)
    if q % 2 == 0:
        return tuple(dickson_label(sp, g) for g in table.elements)
    return tuple(0 if scalar_det(sp, g) == 1 else 1 for g in table.elements)


def mat_products(space, frontier, gens):
    """Every g*h for g in frontier and h in gens, frontier-major, as flat
    code tuples, by the field's flat lookup tables (n multiply-adds per
    entry), in slices of at most _PRODUCT_CHUNK products."""
    n, q = space.n, space.q
    mul, mac = _product_tables(space.F)
    hs = np.array(gens, dtype=np.intp).reshape(-1, n, n)
    step = max(1, matgroup._PRODUCT_CHUNK // max(1, len(gens)))
    for start in range(0, len(frontier) if len(gens) else 0, step):
        aq = np.array(frontier[start : start + step], dtype=np.intp).reshape(-1, n, n) * q
        # acc[f, g, i, j] = sum over k of a_f[i, k] * h_g[k, j]
        acc = mul[aq[:, None, :, 0, None] + hs[None, :, 0, None, :]]
        for k in range(1, n):
            acc *= q * q
            acc += aq[:, None, :, k, None] + hs[None, :, k, None, :]
            acc = mac[acc]
        yield from map(tuple, acc.reshape(-1, n * n).tolist())


def _cofactor_free(F, f, roots, t):
    """True when f = (z - r_1) ... (z - r_k) h over the listed roots r_i,
    no listed root divides h, and h has no irreducible factor of degree
    <= t: one ``pdivmod`` per root (against the slice-wide synthetic
    division of ``matgroup.member_test``)."""
    h = f
    for r in roots:
        h, rem = pdivmod(F, h, (F.neg_t[r], 1))
        if rem != ():
            return False
    for r in set(roots):
        if pdivmod(F, h, (F.neg_t[r], 1))[1] == ():
            return False
    return not has_small_degree_factor(F, h, t)


def tau_sieve_free(space, g, t):
    """Membership test for the single coset element g tau.

    The square of g tau acts as x = g g^-T.  Membership asks that charpoly(x)
    have no irreducible factor of degree <= t (n even), or that it be
    (z - 1) h with h free of z - 1 and of every factor of degree <= t (n odd):
    x then fixes a unique line and no other subspace of dimension <= t.
    """
    x = tau_square(space, g)
    roots = (1,) if space.n % 2 else ()
    return _cofactor_free(space.F, charpoly_hessenberg(space, x), roots, t)


def fixes_some_small_subspace(space, g, t):
    """Direct scan over all subspaces of dimension <= t (duality oracle)."""
    lut = vector_images(space, g)
    for k in range(1, t + 1):
        for basis in all_subspaces(space, k):
            vecs = subspace_vectors(space, basis)
            if all(lut[vec_code(space, b)] in vecs for b in basis):
                return True
    return False


def kernel_basis(space, a):
    """Basis of the right null space of a, as vectors."""
    return null_basis(space, space.rows(a))


def mat_add(space, a, b):
    add_t = space.F.add_t
    return tuple(add_t[x][y] for x, y in zip(a, b))


def perp_basis_form(space, form, basis):
    """Perp of the span with respect to the form's bilinear part."""
    F = space.F
    rows = []
    for b in basis:
        if form.kind == "unitary":
            b = tuple(F.pow(x, form.q0) for x in b)
        rows.append(tuple(space.mat_vec(space.transpose(form.gram), b)))
    return perp_basis_dot(space, rows)


def restrict(space, g, basis):
    """Matrix of g on the span of basis; the span must be invariant."""
    k = len(basis)
    F = space.F
    rowsp = [list(b) for b in basis]
    pivots = elim(space, rowsp, space.n)
    cols = []
    for b in basis:
        gb = space.mat_vec(g, b)
        coeff = [0] * k
        v = list(gb)
        for r, pc in enumerate(pivots):
            c = v[pc]
            if c:
                coeff[r] = c
                mrow = F.mul_t[c]
                v = [F.sub(x, mrow[y]) for x, y in zip(v, rowsp[r])]
        if any(v):
            raise ValueError("subspace is not invariant")
        cols.append(coeff)
    return MatSpace(k, space.q), _cols_to_mat(k, cols)


def fixed_points_by_type(space, g, action):
    """Fixed quadratic-form points, split by plus and minus type."""
    out = {"+": 0, "-": 0}
    for idx in fixed_point_indices(space, g, action):
        out[action.points[idx][1]] += 1
    return out


def element_lut(space, g, cache):
    lut = cache.get("lut")
    if lut is None:
        lut = cache["lut"] = vector_images(space, g)
    return lut


def class_fixed(space, g, cls, cache):
    """Per class member: is the subspace fixed by g (tested basis by basis,
    against the span of its basis from ``subspace_vectors``)."""
    key = ("fixed", cls.k)
    out = cache.get(key)
    if out is None:
        lut = element_lut(space, g, cache)
        out = [
            all(lut[vec_code(space, b)] in _span(space, basis) for b in basis)
            for basis in cls.bases
        ]
        cache[key] = out
    return out


def class_images(space, g, cls, cache, tau):
    """Image subspace per class member: basis of g U, or of g perp(U)."""
    key = ("img", cls.k, tau)
    out = cache.get(key)
    if out is None:
        lut = element_lut(space, g, cache)
        out = []
        for basis in cls.bases:
            src = perp_basis_dot(space, basis) if tau else basis
            out.append(
                rref_basis(
                    space,
                    [space.code_vec(lut[vec_code(space, v)]) for v in src],
                )
            )
        cache[key] = out
    return out


def gf2_nonsingular_elimination(rows):
    """Invertibility mask for a batch of bit-packed GF(2) matrices.

    rows has shape (batch, n); bit j of rows[b, i] is entry (i, j) of matrix
    b.  Gaussian elimination runs on all matrices in lockstep.
    """
    a = rows.copy()
    batch, n = a.shape
    zero = a.dtype.type(0)
    singular = np.zeros(batch, dtype=bool)
    ar = np.arange(batch)
    for j in range(n):
        bits = (a >> j) & 1
        bits[:, :j] = 0
        singular |= ~bits.any(axis=1)
        piv = np.argmax(bits, axis=1)
        tmp = a[ar, piv]
        a[ar, piv] = a[ar, j]
        a[ar, j] = tmp
        below = ((a >> j) & 1).astype(bool)
        below[:, : j + 1] = False
        a ^= np.where(below, a[:, j : j + 1], zero)
    return ~singular


def bitslice_word_major(rows):
    """Bit-sliced copy of a batch of bit-packed GF(2) matrices, word-major.

    rows has shape (batch, n) and a w-bit unsigned dtype with n <= w; bit j
    of rows[b, i] is entry (i, j) of matrix b.  Returns s of shape
    (n, n, ceil(batch / w)) in the same dtype, where bit l of s[i, j, c] is
    entry (i, j) of matrix w*c + l; padding matrices are zero.  Each swap
    round works on runs of k*n words.
    """
    batch, n = rows.shape
    dt = rows.dtype.type
    w = 8 * rows.dtype.itemsize
    x = np.zeros((-(-batch // w) * w, n), dtype=dt)
    x[:batch] = rows
    k = w // 2
    while k:
        # swap the high k bits of word l with the low k bits of word l + k
        low = dt(sum(((1 << k) - 1) << p for p in range(0, w, 2 * k)))
        pairs = x.reshape(-1, 2, k * n)
        a, b = pairs[:, 0], pairs[:, 1]
        swap = ((a >> k) ^ b) & low
        b ^= swap
        a ^= swap << k
        k //= 2
    return np.ascontiguousarray(x.reshape(-1, w, n)[:, :n].transpose(2, 1, 0))


def mc_gl2_t1_chunked(n, trials, seed):
    """Hits of ``stats._mc_gl2_t1(n, trials, seed)`` drawn in chunks that
    grow with the trials still wanted: max(4 096, 4 * need) rows, at most
    65 536, each through ``stats.gf2_nonsingular_batch``."""
    dtype = np.uint32 if n <= 32 else np.uint64
    rng = np.random.Generator(np.random.PCG64(seed))
    eye = np.array([1 << i for i in range(n)], dtype=dtype)
    accepted = hits = 0
    while accepted < trials:
        need = trials - accepted
        chunk = min(1 << 16, max(1 << 12, 4 * need))
        raw = rng.integers(0, 1 << n, size=(chunk, n), dtype=dtype)
        in_gl = gf2_nonsingular_batch(raw)
        if int(in_gl.sum()) > need:
            in_gl &= np.cumsum(in_gl) <= need
        accepted += int(in_gl.sum())
        hits += int(gf2_nonsingular_batch(raw[in_gl] ^ eye).sum())
    return hits


# ---------------------------------------------------------------------------
# Monte Carlo draws, one candidate and one determinant at a time.

def random_gl(n, q, rng):
    """Uniform element of GL_n(q) by rejection sampling."""
    space = MatSpace(n, q)
    while True:
        g = tuple(rng.randrange(q) for _ in range(n * n))
        if scalar_det(space, g) != 0:
            return g


def random_coset_gl(n, q, det_class, rng):
    """Uniform element of the det = zeta^det_class coset of SL_n(q).

    A uniform GL element lands in some coset; a fixed diagonal correction
    depending only on that coset moves it bijectively into the requested one,
    so the result stays uniform.
    """
    space = MatSpace(n, q)
    F = space.F
    g = random_gl(n, q, rng)
    if q == 2:
        return g
    have = F.dlog[scalar_det(space, g)] % (q - 1)
    shift = (det_class - have) % (q - 1)
    if shift:
        d = space.rows(space.identity)
        d[0][0] = F.exp[shift]
        g = space.mul(g, space.from_rows(d))
    return g


def mc_scan_per_draw(n, q, t, coset, trials, seed):
    """Hits of ``proportion(("GL", n, q), t, coset, "montecarlo", trials,
    seed)`` off the packed GF(2) route: each draw is one ``random_gl`` or
    ``random_coset_gl`` call on ``random.Random(seed)``, and the draws go
    through ``_tau_squares`` (tau only), ``MatSpace.charpolys`` and the
    membership test."""
    rng = random.Random(seed)
    space = MatSpace(n, q)
    if coset in (None, "tau"):
        draws = [random_gl(n, q, rng) for _ in range(trials)]
    else:
        draws = [random_coset_gl(n, q, coset, rng) for _ in range(trials)]
    rows = space._encode(draws)
    if coset == "tau":
        rows = _tau_squares(space, rows)
    return int(matgroup.member_test("GL", space, t, coset)(space.charpolys(rows)).sum())


# ---------------------------------------------------------------------------
# Orbits and relation classes, each by its own search.

def dfs_orbits(table, action):
    """Orbits of the full table group on the action points, by depth-first
    search along the generators' point permutations."""
    act = action if isinstance(action, ActionTable) else enumerate_action(table, action)
    perms = [point_permutation(table.space, g, act) for g in table.gens]
    seen = [False] * len(act)
    out = []
    for p0 in range(len(act)):
        if seen[p0]:
            continue
        seen[p0] = True
        stack, orb = [p0], []
        while stack:
            p = stack.pop()
            orb.append(p)
            for pm in perms:
                pi = pm[p]
                if not seen[pi]:
                    seen[pi] = True
                    stack.append(pi)
        out.append(sorted(orb))
    return out


def permutation_group(table, action):
    """Faithful permutation copy of an enumerated matrix group action."""
    act = action if isinstance(action, ActionTable) else enumerate_action(table, action)
    gens = [tuple(point_permutation(table.space, g, act)) for g in table.gens]
    name = f"{table.family}_{table.n}({table.q})"
    group = PermGroup(len(act), gens, name=name)
    if group.order() != table.order():
        raise ValueError("the action is not faithful")
    return group


def _perm_mul(a, b):
    return tuple(map(a.__getitem__, b))


def perm_products(frontier, gens):
    """Every product g h of permutation tuples, g in frontier and h in gens,
    frontier-major, one tuple map each."""
    return [_perm_mul(g, h) for g in frontier for h in gens]


def relation_classes_loop(space, elements, index, pairs):
    """Classes of g ~ a g b, one (a, b) per pair: union-find over the two
    index maps g -> g b and h -> a h of each pair, joined in one loop; the
    products come from ``mat_products`` or ``perm_products``."""
    if isinstance(space, MatSpace):
        def products(frontier, gens):
            return mat_products(space, frontier, gens)
    else:
        products = perm_products
    parent = list(range(len(elements)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    chunk = matgroup._PRODUCT_CHUNK
    for a, b in pairs:
        right = [index[x] for x in products(elements, [b])]
        left = [
            index[x]
            for start in range(0, len(elements), chunk)
            for x in products([a], elements[start : start + chunk])
        ]
        for i, r in enumerate(right):
            ri, rj = find(i), find(left[r])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    classes = {}
    for i in range(len(elements)):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Generation of a permutation group by a pair.

def _generates(group, x, s):
    """True when x and s generate the whole group, by one breadth-first
    closure of its own (a set of element tuples, independent of
    ``bfs_closure``).  The closure breaks off as soon as it exceeds half
    the order: a proper subgroup has index at least 2.
    """
    half = group.order() // 2
    seen = {group.identity}
    frontier = [group.identity]
    while frontier and len(seen) <= half:
        nxt = []
        for g in frontier:
            for h in (x, s):
                p = group.mul(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen) > half


# ---------------------------------------------------------------------------
# Group tables as element tuples.

def slice_closure(space, gens, chunk, cap=matgroup.DEFAULT_GROUP_CAP,
                  stop_over=None):
    """``bfs_closure`` by slices: each BFS level is multiplied by the
    generators in slices of at most chunk products, frontier-major, and
    every slice merges its new keys into the sorted keys seen so far, so
    the cap is checked per slice.  Returns the same (rows, parent,
    generator) as ``bfs_closure``, for every chunk."""
    if stop_over is None:
        stop_over = cap
    frontier = space._encode([space.identity])
    seen = space._keys(frontier)
    times = space._right(gens)
    levels, count = [frontier], 1
    G = max(1, len(gens))
    found = [np.zeros(1, dtype=np.intp)]
    step = max(1, chunk // G)
    done = not gens
    while not done and len(frontier):
        first, nxt = count - len(frontier), []
        for lo in range(0, len(frontier), step):
            products = times(frontier[lo : lo + step]).reshape(-1, frontier.shape[1])
            keys, at = np.unique(space._keys(products), return_index=True)
            new = seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys
            seen = np.sort(np.concatenate((seen, keys[new])), kind="stable")
            at = np.sort(at[new])
            done = count + len(at) > stop_over and stop_over < cap
            if done:
                at = at[: max(1, stop_over + 1 - count)]
            elif count + len(at) > cap:
                raise matgroup.ResourceCapExceeded(f"group closure exceeded cap {cap}")
            nxt.append(products[at])
            count += len(at)
            found.append(at + (first + lo) * G)
            if done:
                break
        levels += nxt
        frontier = np.concatenate(nxt)
    found = np.concatenate(found)
    return np.concatenate(levels), found // G, found % G


def tuple_closure(space, gens, chunk=4096):
    """Breadth-first closure as element tuples with a dict index: the row
    codes of each level come from the same lookups as ``bfs_closure``, in
    slices of at most chunk products, and every new element is decoded to
    its tuple at once.  Returns (elements, index, parent, generator), the
    last two the Schreier vector."""
    frontier = space._encode([space.identity])
    seen = space._keys(frontier)
    times = space._right(gens)
    elements = [space.identity]
    G = max(1, len(gens))
    found = [np.zeros(1, dtype=np.intp)]
    step = max(1, chunk // G)
    while gens and len(frontier):
        first, nxt = len(elements) - len(frontier), []
        for lo in range(0, len(frontier), step):
            products = times(frontier[lo : lo + step]).reshape(-1, frontier.shape[1])
            keys, at = np.unique(space._keys(products), return_index=True)
            new = seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys
            seen = np.sort(np.concatenate((seen, keys[new])), kind="stable")
            at = np.sort(at[new])
            elements += space._decode(products[at])
            found.append(at + (first + lo) * G)
            nxt.append(products[at])
        frontier = np.concatenate(nxt)
    found = np.concatenate(found)
    index = dict(zip(elements, range(len(elements))))
    return elements, index, found // G, found % G


def full_scan_candidates(space, form):
    """Every matrix that preserves form, in flat code order (entry 0 least
    significant), once there are at most 500 000 matrices in all; nothing
    beyond that."""
    n, q = space.n, space.F.q
    total = q ** (n * n)
    if total > 500_000:
        return
    for code in range(total):
        g = []
        c = code
        for _ in range(n * n):
            g.append(c % q)
            c //= q
        g = tuple(g)
        if matgroup.preserves_form(space, form, g):
            yield g


def full_scan_cases():
    """The (family, n, q) of every ambient table with a candidate pool whose
    full scan can yield: its field has at most 81 elements, its type exists,
    and its space holds at most 500 000 matrices."""
    cases = []
    for family in ("Sp", "GU", "SU", "O+", "O-", "O"):
        for n in range(1, 5):
            for q in range(2, 82):
                size = q * q if family in ("GU", "SU") else q
                try:
                    if size > 81 or size ** (n * n) > 500_000:
                        continue
                    matgroup.standard_form(family, n, q)
                except ValueError:  # q not a prime power, or no such type
                    continue
                cases.append((family, n, q))
    return cases


def tuple_table(family, n, q):
    """(elements, labels, gens, index) of ``build_group(family, n, q)`` as
    tuples and a dict: the same seed, completion pool and labels, with the
    completion loop testing candidates against the dict, and the SO and
    Omega halves cut out element by element."""
    ambient = matgroup._ambient_of(family)
    target = matgroup.group_order(ambient, n, q)
    form = matgroup.standard_form(ambient, n, q)
    space = MatSpace(n, q * q if ambient in ("GU", "SU") else q)

    def admissible(g):
        # the GU label of ``matgroup._gu_label``, from a scalar det
        return ambient != "SU" or space.F.dlog[scalar_det(space, g)] // (q - 1) % (q + 1) == 0

    seed, pool = matgroup._seed_and_pool(ambient, space, form)
    gens = [g for g in seed if admissible(g)]
    elements, index, parent, generator = tuple_closure(space, gens)
    exhausted = False
    while len(elements) != target:
        nxt = next((c for c in pool if admissible(c) and c not in index), None)
        if nxt is None:
            assert not exhausted, "generator completion failed"
            pool, exhausted = full_scan_candidates(space, form), True
            continue
        gens.append(nxt)
        elements, index, parent, generator = tuple_closure(space, gens)
    labels = matgroup._closure_labels(ambient, space, q, gens, parent, generator)
    if family == ambient:
        return tuple(elements), labels, tuple(gens), index
    # the label-0 half, generated by t s rep(t s)^-1 over the transversal {1, r}
    r = elements[labels.index(1)]
    rinv = scalar_inv(space, r)
    half = []
    for t in (space.identity, r):
        for s in gens:
            x = space.mul(t, s)
            if labels[index[x]]:
                x = space.mul(x, rinv)
            if x != space.identity and x not in half:
                half.append(x)
    kept = tuple(g for g, label in zip(elements, labels) if label == 0)
    return kept, (0,) * len(kept), tuple(half), {g: i for i, g in enumerate(kept)}


# ---------------------------------------------------------------------------
# Quadratic forms polarising to the symplectic form over GF(2).

def quadratic_form_points(space, form):
    """The points of ``ActionSpec("quadratic_forms")``: each v as
    (code of v, type of Q_v = Q_0 + B(., v)), the type "+" exactly when Q_v
    has as many singular vectors (zero included) as a plus-type form."""
    n = space.n
    base = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        base[i][i + 1] = 1
    base = space.from_rows(base)
    plus_count = 2 ** (n - 1) + 2 ** (n // 2 - 1)
    points = []
    for code in range(2**n):
        v = space.code_vec(code)
        sing = 0
        for xcode in range(2**n):
            x = space.code_vec(xcode)
            if matgroup._eval_quad(space, base, x) == form.bilinear(space, x, v):
                sing += 1
        points.append((code, "+" if sing == plus_count else "-"))
    return points


# ---------------------------------------------------------------------------
# Signed permutations.

def weyl_enumerated(m):
    """The exact signed-permutation statistic over all m! 2^m elements of
    the hyperoctahedral group of rank m."""
    hits = 0
    for perm in itertools.permutations(range(m)):
        for signs in range(1 << m):
            hits += _even_negative_cycles_paired(perm, signs)
    return Fraction(hits, math.factorial(m) << m)
