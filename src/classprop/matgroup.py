"""Matrix groups over small finite fields by explicit enumeration.

A single matrix is a flat row-major tuple of field codes, so it hashes and
compares cheaply.  A batch of matrices, and every group table, is an int64
array of row codes: the codes of each matrix's q^n-ary row vectors.  Groups
are built by breadth-first closure (``bfs_closure``, which also closes the
permutation groups of ``stats``) from hard-coded generator seeds; a product
g s is one lookup per row in the table of s^T on all q^n vectors, and the
new elements of a level come from ``np.unique`` of int64 keys.  The element
count is checked against the classical order formula, and when a seed
undergenerates the builder deterministically completes it from a pool of
form-preserving candidates until the order matches (see ``build_group``).
Coset labels are homomorphisms, so each is summed along the BFS tree from
the generators' labels; conjugacy classes join index maps g -> a g b,
computed on the same row codes, by vectorised min-label propagation.  With
``CLASSPROP_CACHE`` set, the disk cache holds each ambient table's generator
list as JSON, nothing else: a load checks that every generator lies in the
group and closes them again, and their closure reaching the formula's order
proves that they generate it.

Everything downstream (actions, fixed points, the element subsets defined by
characteristic-polynomial conditions) works on the row codes of the
enumerated tables, one slice of matrix entries at a time; a table decodes an
element to its tuple only when asked through its ``elements`` and ``index``
views.

Two batched kernels over the field's lookup tables do the linear algebra.
``_gauss_jordan`` is the only elimination: the Gram ranks of a class of
subspaces, the tau squares, and the rank and inverse of a single matrix; a
det is (-1)^n times the constant term of ``MatSpace.charpolys``.
``_images`` is the only batched product of matrices with vectors: the vector
images that closures and class maps look up, the vector codes and perp maps
of a class of subspaces, the quadratic-form point images and the
fixed-point masks of every action kind (the scalar ``mul`` and ``mat_vec``
serve the per-candidate form checks).  No runtime path eliminates, or reads
fixed points, once per element or per basis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .gf import (
    Field,
    _check_int,
    has_small_degree_factor,
)

DEFAULT_GROUP_CAP = 20_000_000
DEFAULT_ACTION_CAP = 2_000_000

# matrices per digit slice (``MatSpace._slices``) of ``charpolys``,
# ``_tau_squares`` and ``_fixed_rows``, and rows per slice that a table's
# ``elements`` view decodes while iterating; bounds their working arrays
_PRODUCT_CHUNK = 1024
# matrices times plan entries per batched step of ``_fixed_rows``
_FIXED_CELLS = 1 << 20

CACHE_ENV = "CLASSPROP_CACHE"
_CACHE_LAYOUT = "matgroup-cache-5"


class ResourceCapExceeded(Exception):
    """An enumeration grew past its configured cap."""


# ---------------------------------------------------------------------------
# Matrix spaces.

_SPACE_CACHE = {}


@functools.lru_cache(maxsize=None)
def _product_tables(F):
    """Flat lookup tables over the codes of F: x * y is mul[x * q + y] and
    c + x * y is mac[(c * q + x) * q + y]."""
    mul = np.array(F.mul_t, dtype=np.intp).ravel()
    mac = np.array(F.add_t, dtype=np.intp)[:, mul].ravel()
    mul.flags.writeable = mac.flags.writeable = False  # shared by every caller
    return mul, mac


def _step(cells):
    """Matrices per batched step when each needs cells working entries: at
    most _PRODUCT_CHUNK, and within _FIXED_CELLS in all."""
    return max(1, min(_PRODUCT_CHUNK, _FIXED_CELLS // max(1, cells)))


def _images(F, g, cols):
    """Codes of g v for every matrix g of the (b, r, c) batch g and every
    column v of the (c, V) array cols: a (b, V) array, the code of g v being
    sum over i of (g v)_i q^i.  The only batched product of matrices with
    vectors.

    One product over the lookup tables of F, one column of g at a time; its
    working arrays hold b r V entries, which callers keep within
    _FIXED_CELLS (see ``_step``).
    """
    q = F.q
    mul, mac = _product_tables(F)
    gq = g * q
    # img[b, i, v] = sum over j of g_b[i, j] * cols[j, v]
    img = mul[gq[:, :, 0, None] + cols[0]]
    for j in range(1, g.shape[2]):
        # in place, so that a step holds one temporary of the batch's size
        img *= q * q
        img += gq[:, :, j, None]
        img += cols[j]
        img = mac[img]
    return q ** np.arange(g.shape[1]) @ img


def _image_slices(F, g, cols):
    """``_images`` of the batch g, one slice of ``_step`` matrices at a
    time, so that each slice's working arrays stay within _FIXED_CELLS."""
    step = _step(g.shape[1] * cols.shape[1])
    for lo in range(0, len(g), step):
        yield _images(F, g[lo : lo + step], cols)


def _gauss_jordan(F, a, ncols):
    """Gauss-Jordan elimination over the lookup tables of F of every matrix
    in the batch a, of shape (b, rows, columns), on its first ncols columns
    and with no row swaps.  The only elimination.

    Column c takes its pivot from the first row, not yet used as a pivot,
    that has a nonzero entry there; that row is scaled to 1 at c and
    column c is cleared in every other row.  a is overwritten.  Returns the
    reduced batch and the (b, ncols) array of pivot rows, -1 where a column
    found none; the rank is the number of columns that found one.
    """
    q = F.q
    mul, mac = _product_tables(F)
    negq = np.array(F.neg_t, dtype=np.intp) * q
    invq = np.array([0] + F.inv_t[1:], dtype=np.intp) * q
    b = np.arange(len(a))
    used = np.zeros(a.shape[:2], dtype=bool)
    pivots = np.full((len(a), ncols), -1, dtype=np.intp)
    for c in range(ncols):
        free = (a[:, :, c] != 0) & ~used
        p = np.argmax(free, axis=1)
        found = free[b, p]
        used[b, p] |= found
        pivots[found, c] = p[found]
        # the pivot row scaled to 1 at column c; a zero row where none was
        # found, which leaves every row as it is
        pivot = a[b, p] * found[:, None]
        pivot = mul[invq[pivot[:, c, None]] + pivot]
        fq = negq[a[:, :, c]]
        fq[b, p] = 0
        # in place, so that a step holds one temporary of the batch's size
        a *= q * q
        a += fq[:, :, None]
        a += pivot[:, None, :]
        a = mac[a]
        a[b[found], p[found]] = pivot[found]
    return a, pivots


class MatSpace:
    """Square matrices of size n over GF(q), as flat row-major code tuples."""

    def __new__(cls, n, q):
        key = (n, q)
        sp = _SPACE_CACHE.get(key)
        if sp is None:
            sp = super().__new__(cls)
            sp._init(n, q)
            _SPACE_CACHE[key] = sp
        return sp

    def _init(self, n, q):
        self.n = n
        self.F = Field(q)
        self.q = q
        self._flat = (n * n, q)  # length and base of a flat code tuple
        self._powers = q ** np.arange(n, dtype=np.int64)  # digit weights of a row code
        self.identity = tuple(
            1 if i == j else 0 for i in range(n) for j in range(n)
        )

    def from_rows(self, rows):
        return tuple(x for row in rows for x in row)

    def rows(self, a):
        n = self.n
        return [list(a[i * n : (i + 1) * n]) for i in range(n)]

    def mul(self, a, b):
        n, F = self.n, self.F
        add_t, mul_t = F.add_t, F.mul_t
        out = []
        for i in range(n):
            arow = a[i * n : (i + 1) * n]
            for j in range(n):
                acc = 0
                for k in range(n):
                    x = arow[k]
                    if x:
                        acc = add_t[acc][mul_t[x][b[k * n + j]]]
                out.append(acc)
        return tuple(out)

    def charpolys(self, rows):
        """Monic characteristic polynomials, constant term first, of the
        matrices with these row codes (see ``_encode``): an (N, n + 1) array.

        Berkowitz's division-free recursion (Inf. Process. Lett. 18, 1984),
        batched over the digit slices of ``_slices``.  Writing a trailing
        principal submatrix as [[a, R], [C, M]], its polynomial (leading
        coefficient first) is the lower-triangular Toeplitz matrix with
        first column (1, -a, -R C, -R M C, ..., -R M^(m-1) C) times that of
        M, where m is the size of M.  Only additions and multiplications
        occur, so every field takes the same path.
        """
        n, q, qq = self.n, self.q, self.q * self.q
        mul, mac = _product_tables(self.F)
        negq = np.array(self.F.neg_t, dtype=np.intp) * q
        polys = np.empty((len(rows), n + 1), dtype=np.intp)
        for lo, A in self._slices(rows):
            Aq = A * q
            b = len(A)
            poly = np.ones((b, 1), dtype=np.intp)
            for k in range(n - 1, -1, -1):
                m = n - 1 - k
                # q times the column, as the mac index wants its middle factor
                colq = np.empty((b, m + 2), dtype=np.intp)
                colq[:, 0] = q
                colq[:, 1] = negq[A[:, k, k]]
                # rows R and M over the columns of M: one product with v = M^j C
                # gives both R M^j C and M^(j+1) C
                RMq, v = Aq[:, k:, k + 1 :], A[:, k + 1 :, k]
                for j in range(m):
                    w = mul[RMq[:, :, 0] + v[:, None, 0]]
                    for i in range(1, m):
                        w = mac[w * qq + RMq[:, :, i] + v[:, None, i]]
                    colq[:, j + 2] = negq[w[:, 0]]
                    v = w[:, 1:]
                # out[i] = sum over j of col[j] * poly[i - j]
                out = np.zeros((b, m + 2), dtype=np.intp)
                for j in range(m + 2):
                    hi = min(m + 1, j + m) + 1
                    out[:, j:hi] = mac[
                        out[:, j:hi] * qq + colq[:, j, None] + poly[:, : hi - j]
                    ]
                poly = out
            polys[lo : lo + b] = poly[:, ::-1]
        return polys

    def mat_vec(self, a, v):
        n, F = self.n, self.F
        add_t, mul_t = F.add_t, F.mul_t
        out = []
        for i in range(n):
            acc = 0
            base = i * n
            for k in range(n):
                x = a[base + k]
                if x:
                    acc = add_t[acc][mul_t[x][v[k]]]
            out.append(acc)
        return tuple(out)

    def sub(self, a, b):
        F = self.F
        return tuple(F.add_t[x][F.neg_t[y]] for x, y in zip(a, b))

    def scalar(self, c):
        return tuple(
            c if i == j else 0 for i in range(self.n) for j in range(self.n)
        )

    def transpose(self, a):
        n = self.n
        return tuple(a[j * n + i] for i in range(n) for j in range(n))

    def conj_transpose(self, a, q0):
        """Transpose with entries raised to the q0-th power."""
        n, F = self.n, self.F
        return tuple(F.pow(a[j * n + i], q0) for i in range(n) for j in range(n))

    def rank(self, a):
        """Rank of the flat matrix a: the columns in which one
        ``_gauss_jordan`` finds a pivot."""
        _, pivots = _gauss_jordan(self.F, np.reshape(a, (1, self.n, self.n)), self.n)
        return int((pivots >= 0).sum())

    def det(self, a):
        """Determinant of the flat matrix a: (-1)^n times the constant term
        of its characteristic polynomial (``charpolys``)."""
        c = int(self.charpolys(self._encode([a]))[0, 0])
        return self.F.mul(self.F.minus_one_to(self.n), c)

    def inv(self, a):
        """Inverse of the flat matrix a from one ``_gauss_jordan`` of
        [a | I]: the pivot row of column i holds row i of a^-1 in its right
        half.  Raises ZeroDivisionError when a is singular."""
        n = self.n
        aug = np.concatenate([np.reshape(a, (1, n, n)), np.eye(n, dtype=np.intp)[None]], axis=2)
        red, pivots = _gauss_jordan(self.F, aug, n)
        if (pivots < 0).any():
            raise ZeroDivisionError("matrix is singular")
        return tuple(red[0, pivots[0], n:].ravel().tolist())

    def code_vec(self, code):
        v = []
        for _ in range(self.n):
            v.append(code % self.q)
            code //= self.q
        return tuple(v)

    def all_vector_images(self, g):
        """Array L with L[code(v)] = code(g v) for every vector v: one
        ``_images`` product of g with the vectors of ``_digits``."""
        return _images(self.F, np.reshape(g, (1, self.n, self.n)), self._digits.T)[0]

    # Row-code tables: a batch of matrices as an (N, n) int64 array holding
    # the code of each row vector.  Closures, tables, class maps and every
    # batched kernel read this form; ``_slices`` gives the kernels the
    # matrix entries, one slice at a time.

    @functools.cached_property
    def _digits(self):
        """_digits[c]: the vector with code c."""
        return np.arange(self.q**self.n)[:, None] // self._powers % self.q

    def _encode(self, mats):
        return np.asarray(mats, dtype=np.int64).reshape(-1, self.n, self.n) @ self._powers

    def _decode(self, rows):
        """Flat code tuples of the matrices with these row codes."""
        return list(map(tuple, self._digits[rows].reshape(len(rows), self.n**2).tolist()))

    def _slices(self, rows, step=None):
        """(start, entries) for each slice of at most step (_PRODUCT_CHUNK)
        matrices of rows: the (b, n, n) entries of rows[start : start + b]."""
        step = step or _PRODUCT_CHUNK
        for lo in range(0, len(rows), step):
            yield lo, self._digits[rows[lo : lo + step]]

    def _keys(self, rows):
        """One int64 per matrix: its row codes read in base q^n."""
        if self.q ** (self.n * self.n) >= 1 << 63:
            raise ValueError(f"{self.n}x{self.n} matrices over GF({self.q}) "
                             "have no int64 code")
        return rows @ self._powers**self.n

    def _right(self, gens):
        """rows -> (rows, len(gens), n) row codes of g s for each s of gens:
        row v of g becomes v s = s^T v, one lookup in the images of s^T, all
        from one ``_images`` product."""
        sT = np.array(gens, dtype=np.intp).reshape(-1, self.n, self.n).transpose(0, 2, 1)
        luts = _images(self.F, sT, self._digits.T)
        which = np.arange(len(gens))[:, None]
        return lambda rows: luts[which, rows[:, None, :]]

    def _left(self, a):
        """rows -> row codes of a g: a acts on the column codes of g, which
        are the row codes of g^T, decoded one slice (``_slices``) at a time."""
        lut = self.all_vector_images(a)

        def flip(codes):
            out = np.empty_like(codes)
            for lo, g in self._slices(codes):
                out[lo : lo + len(g)] = g.transpose(0, 2, 1) @ self._powers
            return out

        return lambda rows: flip(lut[flip(rows)])


# ---------------------------------------------------------------------------
# Forms.

@dataclass(frozen=True)
class FormSpec:
    kind: str  # none | symplectic | unitary | quadratic
    n: int
    q: int  # field the matrix entries live in
    gram: tuple | None = None
    quad: tuple | None = None  # upper-triangular flat coefficients
    eps: str | None = None  # + | - | o
    q0: int | None = None  # unitary only: q = q0^2

    def bilinear(self, space, u, v):
        """u^T Gram v, conjugating v entrywise in the unitary case."""
        F = space.F
        if self.kind == "unitary":
            v = tuple(F.pow(x, self.q0) for x in v)
        w = space.mat_vec(self.gram, v)
        acc = 0
        for x, y in zip(u, w):
            acc = F.add(acc, F.mul(x, y))
        return acc

    def quad_value(self, space, v):
        if self.kind != "quadratic":
            raise ValueError("not a quadratic form")
        return _eval_quad(space, self.quad, v)


def _eval_quad(space, quad, v):
    """Value at v of the quadratic form with upper-triangular coefficients."""
    n, F = space.n, space.F
    acc = 0
    for i in range(n):
        if v[i]:
            for j in range(i, n):
                c = quad[i * n + j]
                if c and v[j]:
                    acc = F.add(acc, F.mul(c, F.mul(v[i], v[j])))
    return acc


def _quad_to_gram(space, quad):
    """Polarized bilinear form B(x,y) = Q(x+y) - Q(x) - Q(y)."""
    n, F = space.n, space.F
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                c = quad[i * n + i]
                gram[i][j] = F.add(c, c)
            else:
                c = quad[i * n + j] if i < j else quad[j * n + i]
                gram[i][j] = c
    return space.from_rows(gram)


def _char2_irreducible_const(F):
    """Least d with z^2 + z + d irreducible over F: a quadratic is
    irreducible exactly when it has no root in F."""
    for d in range(1, F.q):
        if all(F.add(F.mul(x, F.add(x, 1)), d) for x in range(F.q)):
            return d
    raise AssertionError("no irreducible z^2+z+d found")


def standard_form(family, n, q):
    """The fixed reference form for each classical family."""
    if family in ("GL", "SL"):
        return FormSpec("none", n, q)
    if family in ("GU", "SU"):
        space = MatSpace(n, q * q)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][n - 1 - i] = 1
        return FormSpec("unitary", n, q * q, gram=space.from_rows(rows), q0=q)
    space = MatSpace(n, q)
    F = space.F
    if family == "Sp":
        if n % 2:
            raise ValueError("symplectic groups need even dimension")
        rows = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            rows[i][i + 1] = 1
            rows[i + 1][i] = F.neg_t[1]
        return FormSpec("symplectic", n, q, gram=space.from_rows(rows))
    if family.startswith(("O", "SO", "Omega")):
        eps = "+" if family.endswith("+") else "-" if family.endswith("-") else "o"
        if eps != "o" and n % 2:
            raise ValueError("signed orthogonal types need even dimension")
        if eps == "o" and n % 2 == 0:
            raise ValueError("odd-dimensional orthogonal groups need odd n")
        if eps == "o" and q % 2 == 0:
            raise ValueError("odd-dimensional orthogonal groups here need odd q")
        quad = [[0] * n for _ in range(n)]
        pairs = n // 2 if eps == "+" else n // 2 - 1 if eps == "-" else (n - 1) // 2
        for i in range(pairs):
            quad[2 * i][2 * i + 1] = 1
        if eps == "-":
            i = n - 2
            if q % 2 == 0:
                d = _char2_irreducible_const(F)
                quad[i][i] = 1
                quad[i][i + 1] = 1
                quad[i + 1][i + 1] = d
            else:
                # x^2 - nu y^2 with nu a non-square is anisotropic
                nu = next(c for c in range(1, q) if F.dlog[c] % 2 == 1)
                quad[i][i] = 1
                quad[i + 1][i + 1] = F.neg_t[nu]
        if eps == "o":
            quad[n - 1][n - 1] = 1
        quadt = space.from_rows(quad)
        form = FormSpec(
            "quadratic", n, q, gram=_quad_to_gram(space, quadt), quad=quadt,
            eps=eps,
        )
        _validate_quadratic_type(space, form)
        return form
    raise ValueError(f"unknown family {family!r}")


def singular_vector_count(space, form):
    return sum(
        1
        for code in range(1, space.q**space.n)
        if form.quad_value(space, space.code_vec(code)) == 0
    )


def _validate_quadratic_type(space, form):
    n, q = form.n, form.q
    if n % 2 == 0:
        m = n // 2
        want = (
            (q ** (m - 1) + 1) * (q**m - 1)
            if form.eps == "+"
            else (q ** (m - 1) - 1) * (q**m + 1)
        )
        have = singular_vector_count(space, form)
        if have != want:
            raise AssertionError(
                f"type {form.eps} form has {have} singular vectors, wanted {want}"
            )
    if q % 2 and space.rank(form.gram) != n:
        raise AssertionError("polarized form is degenerate")


def preserves_form(space, form, g):
    if form.kind == "none":
        return space.det(g) != 0
    if form.kind == "symplectic":
        gt = space.transpose(g)
        return space.mul(space.mul(gt, form.gram), g) == form.gram
    if form.kind == "unitary":
        gstar = space.conj_transpose(g, form.q0)
        return space.mul(space.mul(gstar, form.gram), g) == form.gram
    # quadratic: the bilinear check plus Q on basis vectors suffices, since
    # Q(u+v) = Q(u) + Q(v) + B(u,v)
    gt = space.transpose(g)
    if space.mul(space.mul(gt, form.gram), g) != form.gram:
        return False
    n = space.n
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        if form.quad_value(space, space.mat_vec(g, e)) != form.quad_value(space, e):
            return False
    return True


# ---------------------------------------------------------------------------
# Orders.

def _prod(it):
    out = 1
    for x in it:
        out *= x
    return out


def _ambient_of(family):
    if family.startswith("SO"):
        return "O" + family[2:]
    if family.startswith("Omega"):
        return "O" + family[5:]
    return family


def group_order(family, n, q):
    _check_int("n", n, 1)
    _check_int("q", q, 2)
    if family == "GL":
        return _prod(q**n - q**i for i in range(n))
    if family == "SL":
        return group_order("GL", n, q) // (q - 1)
    if family == "Sp":
        m = n // 2
        return q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if family == "GU":
        return q ** (n * (n - 1) // 2) * _prod(
            q**i - (-1) ** i for i in range(1, n + 1)
        )
    if family == "SU":
        return group_order("GU", n, q) // (q + 1)
    if family in ("O+", "O-"):
        m = n // 2
        e = 1 if family == "O+" else -1
        return (
            2
            * q ** (m * (m - 1))
            * (q**m - e)
            * _prod(q ** (2 * i) - 1 for i in range(1, m))
        )
    if family == "O":
        m = (n - 1) // 2
        return 2 * q ** (m * m) * _prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    if family in ("SO+", "SO-", "SO", "Omega+", "Omega-"):
        return group_order(_ambient_of(family), n, q) // 2
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Generators and candidate pools.

def _gl_generators(space):
    n, F = space.n, space.F
    if n == 1:
        return [(F.zeta,)] if space.q > 2 else [(1,)]
    gens = []
    cyc = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        cyc[i + 1][i] = 1
    cyc[0][n - 1] = 1
    gens.append(space.from_rows(cyc))
    t = space.rows(space.identity)
    t[0][1] = 1
    gens.append(space.from_rows(t))
    if space.q > 2:
        d = space.rows(space.identity)
        d[0][0] = F.zeta
        gens.append(space.from_rows(d))
    return gens


def _sl_generators(space):
    n, F = space.n, space.F
    if n == 1:
        return [space.identity]
    gens = []
    lams = [1] if space.q <= 3 else [1, F.zeta]
    for c in lams:
        t = space.rows(space.identity)
        t[0][1] = c
        gens.append(space.from_rows(t))
        t = space.rows(space.identity)
        t[1][0] = c
        gens.append(space.from_rows(t))
    if n > 2:
        cyc = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            cyc[i + 1][i] = 1
        cyc[0][n - 1] = F.minus_one_to(n - 1)
        gens.append(space.from_rows(cyc))
    return gens


def _cols_to_mat(n, cols):
    return tuple(cols[j][i] for i in range(n) for j in range(n))


def _transvection(space, form, v, c):
    """x -> x + c B(x, v) v; with c = -1/Q(v) the reflection fixing the perp
    of v."""
    n, F = space.n, space.F
    cols = []
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        b = F.mul(c, form.bilinear(space, e, v))
        cols.append(tuple(F.add(e[i], F.mul(b, v[i])) for i in range(n)))
    return _cols_to_mat(n, cols)


def _sp_candidates(space, form):
    n, q = space.n, space.q
    lams = [1] if q == 2 else [1, space.F.zeta]
    for code in range(1, q**n):
        v = space.code_vec(code)
        for lam in lams:
            yield _transvection(space, form, v, lam)


def _orth_candidates(space, form):
    """Each reflection in a nonsingular vector, once."""
    F = space.F
    seen = set()
    for code in range(1, space.q**space.n):
        v = space.code_vec(code)
        qv = form.quad_value(space, v)
        if qv == 0:
            continue
        r = _transvection(space, form, v, F.neg_t[F.inv_t[qv]])
        if r not in seen:
            seen.add(r)
            yield r


def _unitary_candidates(space, form):
    """Unitary transvections, torus elements, the antidiagonal flip."""
    n, F = space.n, space.F
    q0 = form.q0
    trace_zero = [c for c in range(1, F.q) if F.add(c, F.pow(c, q0)) == 0]
    for code in range(1, F.q**n):
        v = space.code_vec(code)
        if form.bilinear(space, v, v) != 0:
            continue
        for c in trace_zero:
            yield _transvection(space, form, v, c)
    if n >= 2:
        for a in range(2, F.q):
            d = space.rows(space.identity)
            d[0][0] = a
            d[n - 1][n - 1] = F.inv(F.pow(a, q0))
            yield space.from_rows(d)
        flip = [[0] * n for _ in range(n)]
        for i in range(n):
            flip[i][n - 1 - i] = 1
        yield space.from_rows(flip)
    for c in range(1, F.q):
        if F.mul(c, F.pow(c, q0)) == 1:
            yield space.scalar(c)


def _flip_tail(space, form):
    """The antidiagonal flip J times each lower unitriangular L, kept when
    J L preserves form, in flat code order of J L (entry 0 least
    significant): where a pool runs dry, the first matrices that a scan of
    every matrix in code order would add."""
    n = space.n
    # J L has ones on the antidiagonal and L's free entries above it; the
    # largest flat index varies slowest, so the products come in code order
    free = [k for k in reversed(range(n * n)) if k // n + k % n < n - 1]
    for digits in itertools.product(range(space.q), repeat=len(free)):
        g = [int(k // n + k % n == n - 1) for k in range(n * n)]
        for k, c in zip(free, digits):
            g[k] = c
        if preserves_form(space, form, tuple(g)):
            yield tuple(g)


def _seed_and_pool(family, space, form):
    if family == "GL":
        return _gl_generators(space), iter(())
    if family == "SL":
        return _sl_generators(space), iter(())
    if family == "Sp":
        pool = _sp_candidates(space, form)
        return list(itertools.islice(pool, min(4, 2 * space.n))), pool
    if family in ("GU", "SU"):
        return [], _unitary_candidates(space, form)
    if family in ("O+", "O-", "O"):
        pool = _orth_candidates(space, form)
        return [next(pool)], pool
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Closure and group tables.

def bfs_closure(space, gens, cap=DEFAULT_GROUP_CAP, stop_over=None):
    """All products of the generators, breadth first from the identity.

    space is a MatSpace or a stats.PermGroup; each holds a batch of elements
    as an integer array with one row per element (see ``MatSpace._encode``
    and ``PermGroup._encode``).  For a MatSpace the row is the codes of the
    matrix's q^n-ary row vectors, so g s costs n lookups in the vector
    images of s^T (``MatSpace._right``); for a PermGroup it is the
    permutation, and g s is the position gather g[s].  Each BFS level is multiplied by all
    the generators at once, frontier-major, so a level's products are held
    together.  The new elements of a level come from one ``np.unique`` of
    the products' keys (int64 row codes in base q^n, or a permutation's
    bytes) and one ``searchsorted`` against the sorted keys seen so far,
    taken in the order a loop over the products would first meet them; one
    sorted merge adds their keys to the seen ones.

    Returns (rows, parent, generator): the elements' rows in BFS order,
    decoded to nothing, and the Schreier vector of the BFS tree: element i
    is element parent[i] times gens[generator[i]] for i > 0, and both are 0
    at the identity.  More than cap elements raise ResourceCapExceeded,
    checked once per level, after its products are formed; more than
    stop_over return the partial closure at once.
    """
    if stop_over is None:
        stop_over = cap
    frontier = space._encode([space.identity])
    seen = space._keys(frontier)  # sorted keys of the elements found so far
    times = space._right(gens)
    levels, count = [frontier], 1
    # found[i]: the product that first gave element i, numbered frontier-major
    # over the whole closure, so element i is found[i] // G times generator
    # found[i] % G
    G = max(1, len(gens))
    found = [np.zeros(1, dtype=np.intp)]
    while gens and len(frontier):
        products = times(frontier).reshape(-1, frontier.shape[1])
        keys, at = np.unique(space._keys(products), return_index=True)
        new = seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys
        # two sorted runs: the stable sort merges them
        seen = np.sort(np.concatenate((seen, keys[new])), kind="stable")
        at = np.sort(at[new])
        stop = count + len(at) > stop_over and stop_over < cap
        if stop:
            at = at[: max(1, stop_over + 1 - count)]
        elif count + len(at) > cap:
            raise ResourceCapExceeded(f"group closure exceeded cap {cap}")
        found.append(at + (count - len(frontier)) * G)
        frontier = products[at]
        levels.append(frontier)
        count += len(at)
        if stop:
            break
    found = np.concatenate(found)
    return np.concatenate(levels), found // G, found % G


def index_orbits(size, maps):
    """Orbits on range(size) of the relation i ~ m[i], one index map m per
    item of maps, as sorted lists ordered by smallest member.

    Vectorised min-label propagation: each index starts as its own label;
    a round gives i and m[i] the smaller of their labels for every map, then
    replaces each label by the label of that label until none changes.  A
    label only falls and always names a member of its orbit, so the rounds
    stop with each orbit labelled by its smallest member.
    """
    maps = [np.asarray(m, dtype=np.intp) for m in maps]
    label = np.arange(size)
    while True:
        before = label.copy()
        for m in maps:
            np.minimum(label, label[m], out=label)
            np.minimum.at(label, m, label)
        while not np.array_equal(hop := label[label], label):
            label = hop
        if np.array_equal(label, before):
            break
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)] if size else []


def relation_classes(space, rows, pairs):
    """Classes of the relation g ~ a g b, one (a, b) per pair, on the
    elements with these rows (see ``bfs_closure``), as sorted lists of
    element indices ordered by smallest member.

    With (s^-1, s) per generator s these are the conjugacy classes; with
    (s, s^T) they are the twisted classes g ~ s g s^T, which index the
    classes of the coset elements g tau since s (g tau) s^-1 = (s g s^T) tau.
    Each pair maps the rows with ``space._right(b)`` and ``space._left(a)``
    (for a MatSpace, b acts on the row codes and a on the column codes,
    each through one table of vector images), and the index map
    g -> a g b comes from one argsort of the image keys, which must be the
    sorted keys permuted.
    ``index_orbits`` joins the maps.
    """
    keys = space._keys(rows)
    order = np.argsort(keys)
    keys = keys[order]

    def maps():
        for a, b in pairs:
            image = space._keys(space._left(a)(space._right([b])(rows)[:, 0]))
            rank = np.argsort(image)
            if not np.array_equal(image[rank], keys):
                raise ValueError("a g b is not in the element list")
            pos = np.empty_like(order)
            pos[rank] = order  # a g b for g = rows[rank[j]] is rows[order[j]]
            yield pos

    return index_orbits(len(rows), maps())


class _Elements(Sequence):
    """The elements of a table as flat code tuples, decoded from its row
    codes on demand: one row per item, one slice of _PRODUCT_CHUNK rows at
    a time while iterating; membership goes through the table's index."""

    def __init__(self, space, rows, index):
        self._space, self._rows, self._index = space, rows, index

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._space._decode(self._rows[i])
        return self._space._decode(self._rows[[i]])[0]

    def __iter__(self):
        for lo in range(0, len(self._rows), _PRODUCT_CHUNK):
            yield from self._space._decode(self._rows[lo : lo + _PRODUCT_CHUNK])

    def __contains__(self, g):
        return g in self._index

    def __eq__(self, other):
        if isinstance(other, _Elements):
            return self._space is other._space and np.array_equal(self._rows, other._rows)
        return NotImplemented


class _Index(Mapping):
    """Element tuple -> its position in an array of rows, found by one
    ``searchsorted`` of the space's ``_keys`` in the sorted keys, taken on
    first use; no dict is built.  A tuple is looked up when it fits the
    space's ``_flat`` (length, base): (n^2, q) of a MatSpace, (degree,
    degree) of a stats.PermGroup."""

    def __init__(self, space, rows):
        self._space, self._rows = space, rows

    @functools.cached_property
    def _sorted(self):
        keys = self._space._keys(self._rows)
        order = np.argsort(keys)
        return keys[order], order

    def find(self, rows):
        """Position of each row in the table, or -1 where it is absent."""
        (sorted_keys, order), keys = self._sorted, self._space._keys(rows)
        i = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
        return np.where(sorted_keys[i] == keys, order[i], -1)

    def __getitem__(self, g):
        width, base = self._space._flat
        try:
            valid = len(g) == width and all(0 <= x < base for x in g)
        except TypeError:
            valid = False
        i = int(self.find(self._space._encode([g]))[0]) if valid else -1
        if i < 0:
            raise KeyError(g)
        return i

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(_Elements(self._space, self._rows, self))


@dataclass(eq=False)
class GroupTable:
    """An enumerated group: the row codes of its elements (see
    ``bfs_closure``), one coset label per element, and the generators its
    conjugacy classes are taken under.

    The six init fields are the whole input, and the only way a table is
    made (built, loaded from the disk cache, or cut down to a label-0 half);
    rows is made read-only.  Derived from them: ``space``, the matrices over
    GF(q) (GF(q^2) for GU and SU); ``form``, ``standard_form(family, n,
    q)``; the read-only views ``elements``, a sequence of flat code tuples
    decoded on demand, and ``index``, element -> position, looked up
    through the sorted keys; and the empty conjugacy-class memo.
    """

    family: str
    n: int
    q: int  # defining q of the family label (entries in GF(q^2) for GU/SU)
    rows: np.ndarray = field(repr=False)
    labels: tuple
    gens: tuple
    space: MatSpace = field(init=False)
    form: FormSpec = field(init=False)
    elements: _Elements = field(init=False, repr=False)
    index: _Index = field(init=False, repr=False)
    _classes: dict = field(init=False, repr=False)

    def __post_init__(self):
        q = self.q * self.q if self.family in ("GU", "SU") else self.q
        self.space = MatSpace(self.n, q)
        self.form = standard_form(self.family, self.n, self.q)
        self.rows.flags.writeable = False  # shared by every caller
        self.index = _Index(self.space, self.rows)
        self.elements = _Elements(self.space, self.rows, self.index)
        self._classes = {}

    def __len__(self):
        return len(self.rows)

    def order(self):
        return len(self.rows)

    def coset_indices(self, label):
        _check_int("coset label", label, 0)
        return [i for i, l in enumerate(self.labels) if l == label]

    def coset_size(self, coset):
        """Element count of a coset as ``proportion`` names it: the whole
        table for None and tau, half of it for the orthogonal S and O
        variants, otherwise the elements carrying that label."""
        if coset in (None, "tau"):
            return len(self.rows)
        if coset in ("S", "O"):
            return len(self.rows) // 2
        _check_int("coset label", coset, 0)
        return self.labels.count(coset)

    def label_values(self):
        return sorted(set(self.labels))

    def conjugacy_classes(self, tau=False):
        """Conjugacy classes of the table group under its generators (the
        Schreier generators for a subtable), or with tau the twisted classes
        g ~ s g s^T (GL and SL only); see ``relation_classes``.  Computed
        once per table."""
        if tau and self.family not in ("GL", "SL"):
            raise ValueError("twisted classes index the tau coset of GL or SL")
        if tau not in self._classes:
            sp = self.space
            if tau:
                pairs = [(s, sp.transpose(s)) for s in self.gens]
            else:
                pairs = [(sp.inv(s), s) for s in self.gens]
            self._classes[tau] = relation_classes(sp, self.rows, pairs)
        return self._classes[tau]


def _gu_label(space, g, q0):
    F = space.F
    k = F.dlog[space.det(g)]
    step = q0 - 1
    if step and k % step:
        raise AssertionError("unitary determinant outside the norm-one subgroup")
    return (k // step) % (q0 + 1) if step else k % (q0 + 1)


def _label(family, space, g, q):
    """Coset label of one element: the det label (GL, SL), the GU label,
    0 (Sp), the Dickson label rank(g - 1) mod 2 (orthogonal, even q), or
    0 / 1 for det 1 / -1 (orthogonal, odd q)."""
    if family in ("GL", "SL"):
        return space.F.dlog[space.det(g)] % (q - 1) if q > 2 else 0
    if family in ("GU", "SU"):
        return _gu_label(space, g, q)
    if family == "Sp":
        return 0
    if q % 2 == 0:
        return space.rank(space.sub(g, space.identity)) % 2
    return 0 if space.det(g) == 1 else 1


def _closure_labels(family, space, q, gens, parent, generator):
    """Labels of a closure's elements from its Schreier vector (see
    ``bfs_closure``).  Each label is a homomorphism to the integers mod m
    (q - 1 for det, q + 1 for GU, 2 for the orthogonal labels), so
    label(g s) = label(g) + label(s): ``_label`` runs on the generators
    only, and the sums along the BFS tree come by pointer doubling."""
    m = {"GL": q - 1, "SL": q - 1, "GU": q + 1, "SU": q + 1, "Sp": 1}.get(family, 2)
    step = np.array([_label(family, space, s, q) for s in gens] or [0], dtype=np.intp)
    label, up = step[generator], parent
    label[0] = 0
    while up.any():
        label, up = (label + label[up]) % m, up[up]
    return tuple(label.tolist())


_TABLE_MEMO = {}


def _cache_path(family, n, q):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    safe = family.replace("+", "p").replace("-", "m")
    return os.path.join(root, f"{_CACHE_LAYOUT}-{safe}{n}q{q}.json")


def _read_gens(path, space):
    """The generator list stored at path as flat code tuples, or None when
    the file is missing, is not JSON, or is not a list of lists of n^2 plain
    ints in range(q).  Whether they lie in the group and generate it is for
    ``build_group`` to check."""
    try:
        with open(path) as fh:
            gens = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(gens, list) or not all(
        isinstance(g, list) and len(g) == space.n**2
        and all(type(x) is int and 0 <= x < space.q for x in g)
        for g in gens
    ):
        return None
    return [tuple(g) for g in gens]


def build_group(family, n, q, cap=DEFAULT_GROUP_CAP):
    """Enumerate a classical group, validated against its order formula.

    family: GL, SL, Sp, GU, SU, O+, O-, O (odd dimension, odd q), SO+, SO-,
    SO (odd q), Omega+, Omega- (even q).  SO and Omega variants are the
    label-0 halves of their ambient orthogonal group.  For GU/SU the field
    argument is q0; matrices live over GF(q0^2).

    A seed is completed from the family pool, then from ``_flip_tail``,
    which only O+4(2), GU3(2) and SU3(2) reach: the exceptions to generation
    by reflections and by unitary transvections (Taylor, "The Geometry of
    the Classical Groups", 1992).

    With a cache directory set, the ambient table's generators are read
    from its file and closed again; the file is served only when every
    generator lies in the group and the closure has the formula's order,
    which proves that they generate it.  Otherwise the table is built from
    its seed and the file is overwritten with the new generator list.
    """
    _check_int("cap", cap, 1)  # group_order checks n and q
    if family.startswith("SO") and q % 2 == 0:
        raise ValueError("at even q use the Omega labels")
    if family.startswith("Omega") and q % 2 == 1:
        raise ValueError("the odd-q Omega split is not computed here")
    ambient = _ambient_of(family)
    target = group_order(ambient, n, q)
    if target > cap:
        raise ResourceCapExceeded(
            f"{ambient}_{n}({q}) has order {target}, beyond cap {cap}"
        )
    memo_key = (family, n, q)
    if memo_key in _TABLE_MEMO:
        return _TABLE_MEMO[memo_key]

    space = MatSpace(n, q * q if ambient in ("GU", "SU") else q)
    form = standard_form(ambient, n, q)

    def admissible(g):
        return ambient != "SU" or _gu_label(space, g, q) == 0

    def in_group(g):
        # _gu_label assumes a unitary matrix, so admissible comes last
        return (preserves_form(space, form, g)
                and (ambient != "SL" or space.det(g) == 1) and admissible(g))

    path = _cache_path(ambient, n, q)
    gens = _read_gens(path, space) if path else None
    hit = gens is not None and all(map(in_group, gens))
    if hit:
        rows, parent, generator = bfs_closure(space, gens, cap)
        hit = len(rows) == target
    if not hit:
        seed, pool = _seed_and_pool(ambient, space, form)
        pool = itertools.chain(pool, _flip_tail(space, form))
        gens = [g for g in seed if admissible(g)]
        rows, parent, generator = bfs_closure(space, gens, cap)
        rounds = 0
        while len(rows) != target:
            found = _Index(space, rows)
            nxt = next((c for c in pool if c not in found and admissible(c)), None)
            if nxt is None:
                raise AssertionError(
                    f"generator completion failed for {ambient}_{n}({q}): "
                    f"got {len(rows)}, wanted {target}"
                )
            gens.append(nxt)
            rows, parent, generator = bfs_closure(space, gens, cap)
            rounds += 1
            if rounds > 64:
                raise AssertionError("generator completion did not converge")
        if not all(map(in_group, gens)):
            raise AssertionError("generator is not in the group")
        if path:
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(gens, fh)
            os.replace(tmp, path)
    labels = _closure_labels(ambient, space, q, gens, parent, generator)
    table = GroupTable(ambient, n, q, rows, labels, tuple(gens))
    if family != ambient:
        table = _subtable(table, family)
    _TABLE_MEMO[memo_key] = table
    return table


def _subtable(table, family):
    """The label-0 half of an orthogonal table, in table order, generated by
    its Schreier generators t s rep(t s)^-1 over the transversal {1, r}."""
    space, labels, index = table.space, table.labels, table.index
    keep = np.flatnonzero(np.array(labels) == 0)
    want = group_order(family, table.n, table.q)
    if len(keep) != want:
        raise AssertionError(
            f"{family}: label-0 part has {len(keep)} elements, wanted {want}"
        )
    r = table.elements[labels.index(1)]
    rinv = space.inv(r)
    gens = []
    for t in (space.identity, r):
        for s in table.gens:
            x = space.mul(t, s)
            if labels[index[x]]:
                x = space.mul(x, rinv)
            if x != space.identity and x not in gens:
                gens.append(x)
    return GroupTable(family, table.n, table.q, table.rows[keep],
                      (0,) * len(keep), tuple(gens))


# ---------------------------------------------------------------------------
# Subspaces.

def gaussian_binomial(n, k, q):
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def all_subspaces(space, k):
    """All k-dimensional subspaces as canonical echelon bases."""
    n, q = space.n, space.q
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_positions = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivots
        ]
        for code in range(q ** len(free_positions)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            c = code
            for r, cpos in free_positions:
                rows[r][cpos] = c % q
                c //= q
            out.append(tuple(tuple(r) for r in rows))
    assert len(out) == gaussian_binomial(n, k, q)
    return out


# ---------------------------------------------------------------------------
# Actions.

@dataclass(frozen=True)
class ActionSpec:
    kind: str  # subspace | flag | antiflag | quadratic_forms
    k: int = 1
    restrict: str = "any"  # one of _RESTRICTIONS


# the point types ``ActionTable._classify`` can return
_RESTRICTIONS = (
    "any", "totally_singular", "nonsingular", "nondegenerate", "degenerate"
)


class _SubspaceClass:
    """All k-subspaces of GF(q)^n: their echelon ``bases`` and ``codes``,
    an (N, q^k) array of each one's vector codes sorted along its row, from
    ``_image_slices`` (each basis, transposed, times every coefficient
    vector of GF(q)^k).  Its lookups are ``find`` (vector codes to class
    index) and ``members`` (class index to membership table)."""

    def __init__(self, space, k):
        self.space, self.k = space, k
        self.bases = all_subspaces(space, k)
        cols = MatSpace(k, space.q)._digits.T
        bases_t = np.array(self.bases, dtype=np.intp).transpose(0, 2, 1)
        self.codes = np.sort(np.concatenate(list(_image_slices(space.F, bases_t, cols))), axis=1)
        self._index = _Index(self, self.codes)

    def __len__(self):
        return len(self.bases)

    def _keys(self, codes):
        """One int64 per row of sorted codes, distinct for distinct
        k-subspaces: code order reads coordinate n - 1 first, so the codes at
        positions q^j, j < k, are an echelon basis, the one at q^j below
        q^(n - k + j + 1), and they read as one mixed-radix number."""
        n, q, k = self.space.n, self.space.q, self.k
        if q ** (k * (n - k) + k * (k + 1) // 2) >= 1 << 63:
            raise ValueError(f"the {k}-subspaces of GF({q})^{n} have no int64 key")
        return codes[:, q ** np.arange(k)] @ np.cumprod(np.r_[1, q ** np.arange(n - k + 1, n)])

    def find(self, codes):
        """Class index of the subspace whose vector codes, in any order, are
        each row of codes, by one ``_Index.find`` of the rows' keys; raises
        ValueError where a row is no k-subspace."""
        codes = np.sort(codes, axis=1)
        found = self._index.find(codes)
        if not np.array_equal(self.codes[found], codes):
            raise ValueError(f"a row of vector codes is not a {self.k}-subspace")
        return found

    def members(self, rows):
        """Boolean (len(rows), q^n) table: does subspace rows[r] hold code c."""
        table = np.zeros((len(rows), len(self.space._digits)), dtype=bool)
        table[np.arange(len(rows))[:, None], self.codes[rows]] = True
        return table


class ActionTable:
    """Enumerated point set of one action.

    Subspace-like points are stored as indices into dimension classes
    (``_SubspaceClass``), listed in ``points`` and kept as one (N, 1) or
    (N, 2) array in ``indices``, so a point permutation reduces to per-class
    image indices; flags and antiflags are read off a class's membership
    table.
    The dot-product perp map from class k to class n - k, and the
    fixed-point plan of each side (see ``_fixed_plan``), are built once per
    action, on first use.  An unrestricted action of more than
    DEFAULT_ACTION_CAP points, or a subspace class of more, raises
    ResourceCapExceeded before it is enumerated.
    """

    def __init__(self, space, form, spec):
        self.space = space
        self.form = form
        self.spec = spec
        self.classes = {}
        self.perps = {}
        self.plans = {}
        if spec.restrict not in _RESTRICTIONS:
            raise ValueError(f"unknown restrict {spec.restrict!r}")
        self._build()
        if not self.points:
            raise ValueError(f"{spec} has no points")
        if len(self.points) > DEFAULT_ACTION_CAP:
            raise ResourceCapExceeded("action point set exceeds cap")

    def _class(self, k):
        if k not in self.classes:
            n, q = self.space.n, self.space.q
            if gaussian_binomial(n, k, q) > DEFAULT_ACTION_CAP:
                raise ResourceCapExceeded(f"the {k}-subspaces of GF({q})^{n} exceed the action cap")
            self.classes[k] = _SubspaceClass(self.space, k)
        return self.classes[k]

    def _perp(self, k):
        """Index in class n - k of the dot-product perp of each k-subspace.
        v lies in perp(U) exactly when U's basis maps v to 0, so one
        ``_image_slices`` pass of the bases over every vector of ``_digits``
        gives the vector codes of each perp, the zero entries of its row,
        which ``find`` looks up."""
        if k not in self.perps:
            space = self.space
            big = self._class(space.n - k)
            bases = np.array(self._class(k).bases, dtype=np.intp)
            self.perps[k] = np.concatenate([
                big.find(np.nonzero(codes == 0)[1].reshape(len(codes), -1))
                for codes in _image_slices(space.F, bases, space._digits.T)
            ]).tolist()
        return self.perps[k]

    def _build(self):
        spec = self.spec
        n = self.space.n
        k = spec.k
        if spec.kind == "quadratic_forms":
            self._build_quadratic_forms()
            return
        # a k-flag needs k <= n - k, and k-subspaces beyond n/2 repeat by duality
        _check_int("k", k, 1, n // 2 if spec.kind in ("subspace", "flag") else n - 1)
        if spec.kind not in ("subspace", "flag", "antiflag"):
            raise ValueError(f"unknown action kind {spec.kind!r}")
        want = self._count()
        if want is not None and want > DEFAULT_ACTION_CAP:
            raise ResourceCapExceeded(f"{spec} has {want} points, over the action cap")
        small = self._class(k)
        keep = np.arange(len(small))
        if spec.restrict != "any":
            keep = np.flatnonzero(np.array(self._types(small.bases)) == spec.restrict)
        self.points, self.indices = keep.tolist(), keep[:, None]
        if spec.kind != "subspace":
            # (i, j) in row-major order, read off the membership table of W
            # (subspace j of class n - k) a slice at a time: W holds every basis
            # vector of U (subspace i) for a flag, and no nonzero vector of U (0
            # sorts first) for an antiflag; for 2k = n, each unordered pair once
            flag, middle = spec.kind == "flag", spec.kind == "antiflag" and 2 * k == n
            big = small if middle else self._class(n - k)
            ws = keep if middle else np.arange(len(big))
            vecs = np.array(small.bases)[keep] @ self.space._powers if flag else small.codes[keep, 1:]
            pairs = [np.empty((0, 2), dtype=np.intp)]
            step = _step(len(self.space._digits) + vecs.size)
            for lo in range(0, len(ws), step):
                w = ws[lo : lo + step]
                held = big.members(w)[:, vecs]
                incident = held.all(axis=2) if flag else ~held.any(axis=2)
                if middle:
                    incident &= keep < w[:, None]
                wj, ui = np.nonzero(incident)
                pairs.append(np.stack([keep[ui], w[wj]], axis=1))
            pairs = np.concatenate(pairs)
            self.indices = pairs[np.lexsort(pairs.T[::-1])]
            self.points = list(zip(*self.indices.T.tolist()))
        assert want is None or len(self.points) == want, (spec, len(self.points), want)

    def _types(self, bases):
        """The point type (one of _RESTRICTIONS) of each k-subspace with
        these bases: "any" under no form, otherwise read off the rank r of
        its Gram matrix, all of them ranked in one ``_gauss_jordan``, and,
        for a quadratic form, off whether its basis vectors are singular."""
        space, form = self.space, self.form
        if form.kind == "none":
            return ["any"] * len(bases)
        k = len(bases[0])
        grams = np.array([[form.bilinear(space, u, v) for u in b for v in b] for b in bases],
                         dtype=np.intp).reshape(-1, k, k)
        ranks = (_gauss_jordan(space.F, grams, k)[1] >= 0).sum(axis=1).tolist()
        quadratic = form.kind == "quadratic"
        types = []
        for basis, r in zip(bases, ranks):
            singular = quadratic and all(form.quad_value(space, v) == 0 for v in basis)
            if quadratic and k == 1:
                types.append("totally_singular" if singular else "nonsingular")
            elif r == 0 and (singular or not quadratic):
                types.append("totally_singular")
            else:
                types.append("nondegenerate" if r == k else "degenerate")
        return types

    def _count(self):
        """The closed-form point count of an unrestricted subspace, flag or
        antiflag action; None for a restricted one."""
        spec = self.spec
        n, q, k = self.space.n, self.space.q, spec.k
        if spec.restrict != "any":
            return None
        if spec.kind == "subspace":
            return gaussian_binomial(n, k, q)
        if spec.kind == "flag":
            return gaussian_binomial(n, n - k, q) * gaussian_binomial(n - k, k, q)
        want = gaussian_binomial(n, k, q) * q ** (k * (n - k))
        return want // 2 if 2 * k == n else want

    # -- quadratic forms under a symplectic group over GF(2) ----------------

    def _build_quadratic_forms(self):
        space, form = self.space, self.form
        if form.kind != "symplectic" or space.q != 2:
            raise ValueError(
                "quadratic-form points need a symplectic space over GF(2)"
            )
        if self.spec.restrict != "any":
            raise ValueError("quadratic-form points take no restrict")
        n = space.n
        self.base_quad = tuple(int(j == i + 1 and i % 2 == 0) for i in range(n) for j in range(n))
        if _quad_to_gram(space, self.base_quad) != form.gram:
            raise ValueError("quadratic-form points need the standard symplectic form")
        # Q_0 = x_0 x_1 + x_2 x_3 + ... at every vector code.  Q_v = Q_0 +
        # B(., v) is x -> Q_0(x + v) - Q_0(v): plus type exactly when
        # Q_0(v) = 0.  g maps Q_v to Q_(g v + c), B(x, c) = Q_0(g^-1 x) -
        # Q_0(x), and g^-1 = J g^T J with J swapping coordinates 2k, 2k + 1;
        # Q_0 is zero on each e_i and invariant under that swap, so bit i of
        # c is Q_0 at row i of g.
        x = space._digits
        self.base_values = np.bitwise_xor.reduce(x[:, 0::2] & x[:, 1::2], axis=1)
        self.points = [(c, "-" if v else "+") for c, v in enumerate(self.base_values.tolist())]
        plus = sum(e == "+" for _, e in self.points)
        assert plus == 2 ** (n - 1) + 2 ** (n // 2 - 1)

    def __len__(self):
        return len(self.points)


def enumerate_action(table_or_space, spec):
    """The action of a table, under its form, or of a bare MatSpace, under
    no form, on the points that spec names."""
    if isinstance(table_or_space, GroupTable):
        return ActionTable(table_or_space.space, table_or_space.form, spec)
    form = FormSpec("none", table_or_space.n, table_or_space.q)
    return ActionTable(table_or_space, form, spec)


# ---------------------------------------------------------------------------
# Fixed points.

def _parts(action, tau):
    """Where g (or g tau) sends each point's subspaces when it fixes the
    point, as alternatives, lists of (d, s, t): subspaces s of class d (with
    tau their perps) to subspaces t, whose first alternative lists each
    point's own: a subspace U to U; a flag or an off-middle antiflag (U, W)
    to (U, W), or with tau, which maps it to (g perp W, g perp U), W and U
    to U and W; a middle antiflag {U, W} to (U, W) or to (W, U).  Raises
    ValueError where tau does not act."""
    n, k = action.space.n, action.spec.k
    if action.spec.kind == "subspace" and tau and 2 * k != n:
        raise ValueError("tau moves k-spaces to (n-k)-spaces")
    i, j = action.indices[:, 0], action.indices[:, -1]
    if action.spec.kind == "subspace":
        return [[(k, i, i)]]
    if action.spec.kind == "antiflag" and 2 * k == n:
        return [[(k, i, i), (k, j, j)], [(k, i, j), (k, j, i)]]
    return [[(n - k, j, i), (k, i, j)]] if tau else [[(k, i, i), (n - k, j, j)]]


def _fixed_plan(action, tau):
    """The tests that decide, for one side of a subspace-type action, which
    points an element fixes, built once per (action, tau): g (or g tau)
    fixes a point when, in some alternative of ``_parts``, it maps a basis
    of each listed subspace (of its perp, with tau) into the listed target.
    Returns (cols, slots, mask): the distinct basis vectors as the columns
    of an (n, V) array; for each point, alternative and basis vector, the
    column index and the row offset of the target in mask; and mask, the
    flat boolean table of (target subspace, vector code) membership, the
    ``members`` tables of the classes stacked.  Raises ValueError where tau
    does not act.
    """
    if tau in action.plans:
        return action.plans[tau]
    space, spec, alts = action.space, action.spec, _parts(action, tau)
    n, k = space.n, spec.k
    dims = sorted({k, n - k}) if spec.kind != "subspace" else [k]
    offset = {d: sum(len(action._class(e)) for e in dims if e < d) for d in dims}

    def slot(d, s, t):  # basis codes of the sources, and the rows of their targets
        e = n - d if tau else d  # the class of the sources, and of the targets
        basis = np.array(action._class(e).bases) @ space._powers
        src = basis[np.array(action._perp(d))[s] if tau else s]
        return np.stack([src, np.repeat((offset[e] + t)[:, None], e, axis=1)], axis=-1)

    slots = np.stack([np.concatenate([slot(*x) for x in alt], axis=1) for alt in alts], axis=1)
    vectors, slots[..., 0] = np.unique(slots[..., 0], return_inverse=True)
    slots[..., 1] *= space.q**n
    mask = np.concatenate([action._class(d).members(np.arange(len(action._class(d))))
                           for d in dims])
    action.plans[tau] = plan = (space._digits[vectors].T, slots, mask.ravel())
    return plan


def _fixed_rows(space, rows, action, tau=False):
    """Which action points g (or g tau) fixes, for the matrices g with
    these row codes: one boolean (matrices, points) mask per digit slice
    (``MatSpace._slices``) of ``_step`` matrices, whose working arrays stay
    within _FIXED_CELLS entries, as a generator.  One ``_images`` product
    decides a slice: g v for the source vectors v of ``_fixed_plan``,
    tested by one lookup in its mask, or for quadratic-form points g v XOR
    the translation of g (``ActionTable._build_quadratic_forms``) against v
    for every v.  Raises ValueError where tau does not act.
    """
    if action.spec.kind == "quadratic_forms":
        if tau:
            raise ValueError("tau does not act on quadratic-form points")
        codes = np.arange(len(action))  # points are stored in code order
        for lo, g in space._slices(rows, _step(space.n * len(codes))):
            c = action.base_values[rows[lo : lo + len(g)]] @ space._powers
            yield (_images(space.F, g, space._digits.T) ^ c[:, None]) == codes
        return
    cols, slots, mask = _fixed_plan(action, tau)
    for _, g in space._slices(rows, _step(slots.size // 2)):
        cells = _images(space.F, g, cols)[:, slots[..., 0]]
        cells += slots[..., 1]
        yield mask[cells].all(axis=3).any(axis=2)


def fixed_point_indices(space, g, action: ActionTable, tau=False):
    """Indices of the action points fixed by g (or by g tau), in order: the
    one row of a ``_fixed_rows`` mask.  Raises ValueError where tau does
    not act."""
    fixed = next(_fixed_rows(space, space._encode([g]), action, tau=tau))
    return np.flatnonzero(fixed[0]).tolist()


# ---------------------------------------------------------------------------
# Element subsets defined by small invariant subspaces.

def _divide_root(F, f, r):
    """Quotient and remainder of each row of f (coefficients, constant
    first) by z - r: synthetic division over the lookup tables of F, one
    coefficient column per step."""
    q = F.q
    mac = _product_tables(F)[1]
    d = f.shape[1] - 1
    quot = np.empty((len(f), d), dtype=np.intp)
    acc = f[:, d]
    for i in range(d - 1, -1, -1):
        quot[:, i] = acc
        acc = mac[(f[:, i] * q + r) * q + acc]
    return quot, acc


def _cofactors_free(F, roots, t, polys):
    """Mask over the monic polynomials f, one per row of polys (constant
    first): f = (z - r_1) ... (z - r_k) h over the listed roots r_i, no
    listed root divides h, and h has no irreducible factor of degree <= t.

    The roots divide out of the whole slice at once (``_divide_root``);
    ``has_small_degree_factor`` then runs once for each cofactor h that
    passed."""
    h, ok = polys, np.ones(len(polys), dtype=bool)
    for r in roots:
        h, rem = _divide_root(F, h, r)
        ok &= rem == 0
    for r in set(roots):
        ok &= _divide_root(F, h, r)[1] != 0
    passed = np.flatnonzero(ok)
    ok[passed] = [not has_small_degree_factor(F, f, t)
                  for f in map(tuple, h[passed].tolist())]
    return ok


def member_test(family, space, t, coset=None):
    """Membership predicate on a slice of characteristic polynomials (an
    array from ``MatSpace.charpolys``, one row per element g of a family's
    coset); it returns a boolean mask over the rows.

    Every predicate is a factor condition on each polynomial f: listed
    roots divide out of the slice at once, and each f whose roots do
    divide out ends in one ``has_small_degree_factor`` call, whose sieve is
    memoised per (field, monic polynomial, t) in a bounded LRU (see
    ``_cofactors_free``).  coset: None or an integer
    label asks that f have no irreducible factor of degree <= t (the
    predicate does not look at the label); "tau" is the inverse-transpose
    coset of GL, where f is the polynomial of x = g g^-T, the square of
    g tau: f has no factor of degree <= t (n even), or f = (z - 1) h with h
    free of z - 1 and of every factor of degree <= t (n odd), so x fixes a
    unique line and no other subspace of dimension <= t.  "S" / "O" are the
    orthogonal variants.  The generalised eigenspaces of an isometry for
    lambda and mu are orthogonal unless lambda mu = 1, so an eigenvalue +-1
    of multiplicity one spans a nondegenerate line whose perp carries the
    cofactor h:
    - n even, S: no factor of degree <= t (no small invariant subspace);
    - n even, O: (z - 1)(z + 1) h, a reflection on a nondegenerate 2-space
      and h sieve-free on its perp; in characteristic 2 this reads
      (z - 1)^2 h, and Dickson label 1 rules out g = 1 on ker (g - 1)^2.
      That label is not a property of f: ``membership_sets`` scans only
      the elements whose table label (the Dickson label, for even q) is 1;
    - n odd (odd q): (z - 1) h for S and (z + 1) h for O, with h free of
      that root and sieve-free.
    Bad combinations raise ValueError.
    """
    _check_int("t", t, 1)
    F = space.F
    minus = F.neg_t[1]
    if coset == "tau":
        if family != "GL":
            raise ValueError("the inverse-transpose coset lives over GL")
        roots = (1,) if space.n % 2 else ()
    elif family in ("GL", "SL", "Sp", "GU", "SU"):
        if coset in ("S", "O"):
            raise ValueError("S/O sets are for orthogonal families")
        roots = ()
    elif not family.startswith(("O", "SO", "Omega")):
        raise ValueError(f"no membership sets for family {family!r}")
    elif coset not in ("S", "O"):
        raise ValueError("orthogonal membership needs coset 'S' or 'O'")
    elif space.n % 2 == 0:
        roots = () if coset == "S" else (1, minus)  # (1, 1) in characteristic 2
    elif space.q % 2 == 0:
        raise ValueError("odd-dimensional sets need odd q")
    else:
        roots = (1,) if coset == "S" else (minus,)
    return functools.partial(_cofactors_free, F, roots, t)


def _scan(table, test, label=None, tau=False):
    """Indices of the table elements g, with that label when one is given,
    whose characteristic polynomial passes test; with tau, the polynomial
    of g g^-T (``_tau_squares``).  The row codes go through
    ``MatSpace.charpolys``, and test runs on the whole array of
    polynomials; its sieve runs once per distinct (monic polynomial, t)
    while the memo holds it."""
    sp, rows = table.space, table.rows
    indices = np.arange(len(rows))
    if label is not None:
        indices = np.flatnonzero(np.array(table.labels) == label)
        rows = rows[indices]
    if tau:
        rows = _tau_squares(sp, rows)
    return indices[test(sp.charpolys(rows))].tolist()


def _tau_squares(space, rows):
    """Row codes of g g^-T for each invertible g with these row codes, in
    order: the square of the coset element g tau.

    Per digit slice (see ``MatSpace._slices``), ``_gauss_jordan`` on
    [g | g^T] leaves g^-1 g^T, the transpose of g g^-T, as the right halves
    of the pivot rows of the n columns, taken in column order.
    """
    n, F = space.n, space.F
    out = np.empty_like(rows)
    for lo, g in space._slices(rows):
        a, pivots = _gauss_jordan(F, np.concatenate([g, g.transpose(0, 2, 1)], axis=2), n)
        # column i of the transpose is row i of g g^-T
        out[lo : lo + len(g)] = space._powers @ a[np.arange(len(g))[:, None], pivots, n:]
    return out


def membership_sets(table: GroupTable, t, coset=None):
    """Indices of table elements in the no-small-invariant-subspace set.

    coset: None for the whole group, an integer label for one label class,
    or "S" / "O" for the orthogonal variants (see ``member_test``).  A label
    that no element carries raises ValueError; for the inverse-transpose
    coset of GL use tau_membership.
    """
    if coset == "tau":
        raise ValueError(
            "membership_sets does not scan the tau coset; use tau_membership"
        )
    test = member_test(table.family, table.space, t, coset)
    if coset in ("S", "O"):
        # the even-q O set asks for Dickson label 1, the table's label there
        label = 1 if coset == "O" and table.q % 2 == 0 else None
    else:
        label = coset
        if label is not None and not table.coset_size(label):
            raise ValueError(f"empty coset label {label!r}")
    return _scan(table, test, label)


def tau_membership(table: GroupTable, t):
    """Indices g of a GL table whose coset element g tau avoids small
    subspaces (see ``member_test``)."""
    return _scan(table, member_test(table.family, table.space, t, "tau"), tau=True)


def point_permutation(space, g, action: ActionTable, tau=False):
    """Positions of the images of all action points under g (or g tau).

    tau composes U -> perp(U) under the plain dot product with g; it acts on
    flags and antiflags for every k, and on k-subspaces only when 2k = n.
    The result is a list mapping point positions to point positions, each
    subspace's image found (``_SubspaceClass.find``) from its vector codes
    mapped through g's vector images; elements that preserve the relevant
    structure always permute the point set, and any other g raises
    ValueError, a singular one included.
    """
    spec = action.spec
    if spec.kind == "quadratic_forms":
        if tau:
            raise ValueError("tau does not act on quadratic-form points")
        # points are stored in code order, so a code is its own position;
        # over GF(2), adding the translation c is XOR on codes
        c = action.base_values[space._encode([g])[0]] @ space._powers
        perm = space.all_vector_images(g) ^ c
        if len(np.unique(perm)) < len(perm):
            raise ValueError("a singular matrix permutes no points")
        return perm.tolist()
    alts, lut = _parts(action, tau), space.all_vector_images(g)

    def image(d):  # class index of g U, or g perp(U), for each U of class d
        target = action._class(space.n - d if tau else d)
        return target.find(lut[target.codes[action._perp(d)] if tau else target.codes])

    images = {d: image(d) for d in {d for d, _, _ in alts[0]}}
    img = np.stack([images[d][s] for d, s, _ in alts[0]], axis=1)
    if len(alts) == 2:  # a middle antiflag is an unordered pair, listed as i < j
        img.sort(axis=1)
    # points are in row-major order, and class n - k is as large as class k
    points = np.stack([t for _, _, t in alts[0]], axis=1)
    shape = (len(action._class(spec.k)),) * points.shape[1]
    keys, img = np.ravel_multi_index(points.T, shape), np.ravel_multi_index(img.T, shape)
    rank = np.argsort(img)
    if not np.array_equal(img[rank], keys):
        raise ValueError("g does not permute the action points")
    pos = np.empty_like(rank)
    pos[rank] = np.arange(len(rank))
    return pos.tolist()
