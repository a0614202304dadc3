"""Matrix groups over small finite fields by explicit enumeration.

A single matrix is a flat row-major tuple of field codes, so it hashes and
compares cheaply.  A batch of matrices, and every group table, is an int64
array of row codes: the codes of each matrix's q^n-ary row vectors.  Groups
are built by breadth-first closure (``bfs_closure``, which also closes the
permutation groups of ``stats``) from hard-coded generator seeds; a product
g s is one lookup per row in the table of s^T on all q^n vectors, and the
new elements of a level come from ``np.unique`` of int64 keys.  The element
count is checked against the classical order formula, and when a seed
undergenerates (a real phenomenon: the 4-dimensional plus-type orthogonal
group over GF(2) is not generated by its reflections) the builder
deterministically completes the seed from a pool of form-preserving
candidates until the order matches.  Coset labels are homomorphisms, so
each is summed along the BFS tree from the generators' labels; conjugacy
classes join index maps g -> a g b, computed on the same row codes, by
vectorised min-label propagation.  With ``CLASSPROP_CACHE`` set, the disk
cache holds each ambient table's generator list as JSON, nothing else: a
load checks that every generator lies in the group and closes them again,
and their closure reaching the formula's order proves that they generate it.

Everything downstream (actions, fixed points, the element subsets defined by
characteristic-polynomial conditions) works on the row codes of the
enumerated tables, one slice of matrix entries at a time; a table decodes an
element to its tuple only when asked through its ``elements`` and ``index``
views.
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

    def _elim(self, rows, ncols, *, reduced=True):
        """In-place row echelon over the first ncols columns; returns pivots."""
        F = self.F
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

    def rank(self, a):
        rows = self.rows(a)
        return len(self._elim(rows, self.n, reduced=False))

    def det(self, a):
        n, F = self.n, self.F
        rows = self.rows(a)
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

    def inv(self, a):
        n = self.n
        rows = [
            list(a[i * n : (i + 1) * n])
            + [1 if j == i else 0 for j in range(n)]
            for i in range(n)
        ]
        pivots = self._elim(rows, n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return tuple(rows[i][n + j] for i in range(n) for j in range(n))

    def _null_basis(self, rows):
        """Basis of the vectors with zero dot product against every row (for
        a matrix's rows, its right null space); rows is reduced in place."""
        n, F = self.n, self.F
        pivots = self._elim(rows, n)
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * n
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = F.neg_t[rows[r][fc]]
            basis.append(tuple(v))
        return basis

    def vec_code(self, v):
        code = 0
        for x in reversed(v):
            code = code * self.q + x
        return code

    def code_vec(self, code):
        v = []
        for _ in range(self.n):
            v.append(code % self.q)
            code //= self.q
        return tuple(v)

    def code_add(self, c1, c2):
        if self.q == 2:
            return c1 ^ c2
        add = self.F.add_t
        q = self.q
        out = 0
        mult = 1
        while c1 or c2:
            out += add[c1 % q][c2 % q] * mult
            c1 //= q
            c2 //= q
            mult *= q
        return out

    def all_vector_images(self, g):
        """List L with L[code(v)] = code(g v), built digit by digit."""
        n, q, F = self.n, self.q, self.F
        cols = []
        for j in range(n):
            col = tuple(g[i * n + j] for i in range(n))
            cols.append(
                [self.vec_code(tuple(F.mul(c, x) for x in col)) for c in range(q)]
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
                    images[base + idx] = self.code_add(images[idx], inc)
            stride *= q
            count *= q
        return images

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
        row v of g becomes v s = s^T v, one lookup in ``all_vector_images``."""
        luts = np.array([self.all_vector_images(self.transpose(s)) for s in gens],
                        dtype=np.int64).reshape(len(gens), self.q**self.n)
        which = np.arange(len(gens))[:, None]
        return lambda rows: luts[which, rows[:, None, :]]

    def _left(self, a):
        """rows -> row codes of a g: a acts on the column codes of g, and
        the column codes of a matrix are the row codes of its transpose."""
        lut = np.array(self.all_vector_images(a), dtype=np.int64)

        def flip(codes):
            return self._digits[codes].transpose(0, 2, 1) @ self._powers

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


def _full_scan_candidates(space, form):
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
        if preserves_form(space, form, g):
            yield g


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
    matrix's q^n-ary row vectors, so g s costs n lookups in the table
    ``all_vector_images(s^T)``; for a PermGroup it is the permutation, and
    g s is the position gather g[s].  Each BFS level is multiplied by all
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
    each through one ``all_vector_images`` table), and the index map
    g -> a g b comes from ``searchsorted`` over the sorted keys.
    ``index_orbits`` joins the maps.
    """
    keys = space._keys(rows)
    order = np.argsort(keys)
    keys = keys[order]

    def maps():
        for a, b in pairs:
            image = space._keys(space._left(a)(space._right([b])(rows)[:, 0]))
            pos = np.minimum(np.searchsorted(keys, image), len(keys) - 1)
            if not np.array_equal(keys[pos], image):
                raise ValueError("a g b is not in the element list")
            yield order[pos]

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
    """Element tuple -> its position in a table of row codes.  The key of
    a flat code tuple g is sum g[k] q^k, the same int64 as ``_keys`` of
    its rows, and it is looked up by ``searchsorted`` in the sorted keys,
    which are taken on first use; no dict is built."""

    def __init__(self, space, rows):
        self._space, self._rows = space, rows

    @functools.cached_property
    def _sorted(self):
        keys = self._space._keys(self._rows)
        order = np.argsort(keys)
        return keys[order], order

    def __getitem__(self, g):
        n, q = self._space.n, self._space.q
        try:
            valid = len(g) == n * n and all(0 <= x < q for x in g)
        except TypeError:
            valid = False
        if not valid:
            raise KeyError(g)
        key = 0
        for x in reversed(g):
            key = key * q + x
        keys, order = self._sorted
        i = int(np.searchsorted(keys, key))
        if i == len(keys) or keys[i] != key:
            raise KeyError(g)
        return int(order[i])

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


def _gauss_jordan(F, a, ncols):
    """Gauss-Jordan elimination over the lookup tables of F of every matrix
    in the batch a, of shape (b, rows, columns), on its first ncols columns
    and with no row swaps.

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
        pool = itertools.chain(pool, _full_scan_candidates(space, form))
        gens = [g for g in seed if admissible(g)]
        rows, parent, generator = bfs_closure(space, gens, cap)
        rounds = 0
        while len(rows) != target:
            found = _Index(space, rows)
            nxt = next((c for c in pool if admissible(c) and c not in found), None)
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
    return frozenset(space.vec_code(v) for v in vecs)


def rref_basis(space, vectors):
    """Canonical reduced-echelon basis for the span of the given vectors."""
    rows = [list(v) for v in vectors]
    space._elim(rows, space.n)
    return tuple(tuple(r) for r in rows if any(r))


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


def perp_basis_dot(space, basis):
    """Perp of the span under the plain dot product, as a canonical basis."""
    return rref_basis(space, space._null_basis([list(b) for b in basis]))


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
    """All k-subspaces with their vector sets, indexed by vector set."""

    def __init__(self, space, k):
        self.k = k
        self.bases = all_subspaces(space, k)
        self.vecsets = [subspace_vectors(space, b) for b in self.bases]
        self.position = {vs: i for i, vs in enumerate(self.vecsets)}

    def __len__(self):
        return len(self.bases)


class ActionTable:
    """Enumerated point set of one action.

    Subspace-like points are stored as indices into dimension classes, so a
    point permutation reduces to per-class image indices plus one pass over
    the points.  The dot-product perp map from class k to class n - k, and
    the fixed-point plan of each side (see ``_fixed_plan``), are built once
    per action, on first use.
    """

    def __init__(self, space, form, spec):
        self.space = space
        self.form = form
        self.spec = spec
        self.classes = {}
        self.perps = {}
        self.plans = {}
        self.points = []
        if spec.restrict not in _RESTRICTIONS:
            raise ValueError(f"unknown restrict {spec.restrict!r}")
        self._build()
        if not self.points:
            raise ValueError(f"{spec} has no points")
        if len(self.points) > DEFAULT_ACTION_CAP:
            raise ResourceCapExceeded("action point set exceeds cap")

    def _class(self, k):
        if k not in self.classes:
            self.classes[k] = _SubspaceClass(self.space, k)
        return self.classes[k]

    def _perp(self, k):
        """Index in class n - k of the dot-product perp of each k-subspace."""
        if k not in self.perps:
            space = self.space
            big = self._class(space.n - k)
            self.perps[k] = [
                big.position[subspace_vectors(space, perp_basis_dot(space, b))]
                for b in self._class(k).bases
            ]
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
        small = self._class(k)
        keep = [
            i
            for i, b in enumerate(small.bases)
            if spec.restrict == "any" or self._classify(b) == spec.restrict
        ]
        if spec.kind == "subspace":
            self.points = keep
        elif spec.kind == "flag":
            big = self._class(n - k)
            for i in keep:
                ubasis = small.bases[i]
                for j, wv in enumerate(big.vecsets):
                    if all(self.space.vec_code(b) in wv for b in ubasis):
                        self.points.append((i, j))
        elif spec.kind == "antiflag":
            if 2 * k == n:
                # unordered pairs of complements, both of the kept type
                vecsets = small.vecsets
                for a, i in enumerate(keep):
                    for j in keep[a + 1:]:
                        if len(vecsets[i] & vecsets[j]) == 1:
                            self.points.append((i, j))
            else:
                big = self._class(n - k)
                for i in keep:
                    uv = small.vecsets[i]
                    for j, wv in enumerate(big.vecsets):
                        if len(uv & wv) == 1:
                            self.points.append((i, j))
        else:
            raise ValueError(f"unknown action kind {spec.kind!r}")
        self._check_counts()

    def _classify(self, basis):
        space, form = self.space, self.form
        if form.kind == "none":
            return "any"
        k = len(basis)
        gram = tuple(form.bilinear(space, u, v) for u in basis for v in basis)
        r = MatSpace(k, space.q).rank(gram)
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

    def _check_counts(self):
        spec = self.spec
        n, q, k = self.space.n, self.space.q, spec.k
        if spec.restrict != "any":
            return
        if spec.kind == "subspace":
            want = gaussian_binomial(n, k, q)
        elif spec.kind == "flag":
            want = gaussian_binomial(n, n - k, q) * gaussian_binomial(n - k, k, q)
        else:
            want = gaussian_binomial(n, k, q) * q ** (k * (n - k))
            if 2 * k == n:
                want //= 2
        assert len(self.points) == want, (spec, len(self.points), want)

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
        base_quad = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            base_quad[i][i + 1] = 1
        self.base_quad = space.from_rows(base_quad)
        m = n // 2
        plus_count = 2 ** (n - 1) + 2 ** (m - 1)
        for code in range(2**n):
            v = space.code_vec(code)
            sing = self._translated_singulars(v)
            self.points.append((code, "+" if sing == plus_count else "-"))
        plus = sum(1 for _, e in self.points if e == "+")
        assert plus == plus_count

    def _translated_singulars(self, v):
        """Singular vectors of Q_v = Q_0 + B(., v), zero vector included."""
        space, form = self.space, self.form
        count = 0
        for code in range(2**space.n):
            x = space.code_vec(code)
            if _eval_quad(space, self.base_quad, x) == form.bilinear(space, x, v):
                count += 1
        return count

    def __len__(self):
        return len(self.points)

    @functools.cached_property
    def position(self):
        """Point -> its position in points."""
        return {pt: p for p, pt in enumerate(self.points)}


def enumerate_action(table_or_space, spec):
    """The action of a table, under its form, or of a bare MatSpace, under
    no form, on the points that spec names."""
    if isinstance(table_or_space, GroupTable):
        return ActionTable(table_or_space.space, table_or_space.form, spec)
    form = FormSpec("none", table_or_space.n, table_or_space.q)
    return ActionTable(table_or_space, form, spec)


# ---------------------------------------------------------------------------
# Fixed points.

def _class_images(lut, action, k, tau):
    """Per k-subspace U, the index of g U in class k, or of g perp(U) in
    class n - k, where lut is g's ``all_vector_images``."""
    if tau:
        target = action._class(action.space.n - k)
        src = [target.vecsets[j] for j in action._perp(k)]
    else:
        target = action._class(k)
        src = target.vecsets
    position = target.position
    return [position[frozenset(lut[c] for c in vs)] for vs in src]


def _fixed_plan(action, tau):
    """The tests that decide, for one side of a subspace-type action, which
    points an element fixes, built once per (action, tau).

    The source of a subspace X is a basis of X, or with tau of perp(X).  g
    (or g tau) fixes a point when g maps each listed source into its listed
    target, a subspace of the same dimension:
    - a subspace U: the source of U into U;
    - a flag or an off-middle antiflag (U, W): the sources of U and W into U
      and W; with tau, which maps it to (g perp W, g perp U), into W and U;
    - a middle antiflag {U, W}: the sources of U and W into U and W, or
      into W and U (two alternatives).
    Returns (cols, slots, mask): the distinct source vectors as the columns
    of an (n, V) array; for each point, alternative and basis vector, the
    column index and the row offset of the target in mask; and mask, the
    flat boolean table of (target subspace, vector code) membership, one
    row of q^n codes per subspace of the classes the targets come from.
    Raises ValueError where tau does not act.
    """
    if tau in action.plans:
        return action.plans[tau]
    space, spec, points = action.space, action.spec, action.points
    n, k = space.n, spec.k
    if spec.kind == "subspace" and tau and 2 * k != n:
        raise ValueError("tau moves k-spaces to (n-k)-spaces")
    dims = sorted({k, n - k}) if spec.kind != "subspace" else [k]
    offset = {d: sum(len(action._class(e)) for e in dims if e < d) for d in dims}

    def source(d, i):  # of subspace i of class d
        if not tau:
            return action._class(d).bases[i]
        return action._class(n - d).bases[action._perp(d)[i]]

    if spec.kind == "subspace":
        alts = [[[(source(k, i), (k, i))]] for i in points]
    elif spec.kind == "antiflag" and 2 * k == n:
        alts = [[[(source(k, i), (k, i)), (source(k, j), (k, j))],
                 [(source(k, i), (k, j)), (source(k, j), (k, i))]] for i, j in points]
    elif tau:
        alts = [[[(source(n - k, j), (k, i)), (source(k, i), (n - k, j))]]
                for i, j in points]
    else:
        alts = [[[(source(k, i), (k, i)), (source(n - k, j), (n - k, j))]]
                for i, j in points]
    Q = space.q**n
    column = {}
    slots = np.array(
        [[[(column.setdefault(space.vec_code(v), len(column)),
            (offset[d] + t) * Q)
           for basis, (d, t) in alt for v in basis] for alt in point]
         for point in alts],
        dtype=np.intp,
    )
    cols = np.array([space.code_vec(c) for c in column], dtype=np.intp).T
    mask = np.zeros((offset[dims[-1]] + len(action._class(dims[-1])), Q), dtype=bool)
    for d in dims:
        for t, vs in enumerate(action._class(d).vecsets):
            mask[offset[d] + t, list(vs)] = True
    action.plans[tau] = plan = (cols, slots, mask.ravel())
    return plan


def _fixed_rows(space, rows, action, tau=False):
    """Sorted positions of the action points fixed by g (or by g tau), for
    each matrix g with these row codes, in order, as a generator.

    Subspace-type points are decided by ``_fixed_plan``: per digit slice
    (see ``MatSpace._slices``), one batched product over the field's lookup
    tables gives the codes of g v for every source vector v, and one lookup
    in the plan's mask tests each against its target.  A slice holds
    _PRODUCT_CHUNK matrices, fewer when an action's plan has more than
    _FIXED_CELLS // _PRODUCT_CHUNK entries, so its working arrays stay
    within _FIXED_CELLS entries.  Quadratic-form points read each matrix's
    point permutation.
    """
    if action.spec.kind == "quadratic_forms":
        for g in space._decode(rows):
            perm = point_permutation(space, g, action, tau=tau)
            yield [p for p, image in enumerate(perm) if image == p]
        return
    cols, slots, mask = _fixed_plan(action, tau)
    n, q = space.n, space.q
    mul, mac = _product_tables(space.F)
    powers = q ** np.arange(n, dtype=np.intp)
    step = max(1, min(_PRODUCT_CHUNK, _FIXED_CELLS // (slots.size // 2)))
    for _, g in space._slices(rows, step):
        gq = g * q
        # img[b, i, v] = sum over j of g_b[i, j] * cols[j, v]
        img = mul[gq[:, :, 0, None] + cols[0]]
        for j in range(1, n):
            img = mac[img * (q * q) + gq[:, :, j, None] + cols[j]]
        cells = (powers @ img)[:, slots[..., 0]]
        cells += slots[..., 1]
        fixed = mask[cells].all(axis=3).any(axis=2)
        yield from (np.flatnonzero(row).tolist() for row in fixed)


def fixed_point_indices(space, g, action: ActionTable, tau=False):
    """Indices of the action points fixed by g (or by g tau), in order: one
    ``_fixed_rows`` call.  Raises ValueError where tau does not act."""
    return next(_fixed_rows(space, space._encode([g]), action, tau=tau))


def _form_translation(space, g, action):
    """Vector c with g . Q_v = Q_{g v + c} in the quadratic-forms action."""
    n, F = space.n, space.F
    ginv = space.inv(g)
    vals = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        ge = space.mat_vec(ginv, e)
        vals.append(
            F.sub(
                _eval_quad(space, action.base_quad, ge),
                _eval_quad(space, action.base_quad, e),
            )
        )
    # x -> Q0(g^-1 x) - Q0(x) is linear over GF(2); write it as B(x, c)
    giv = space.inv(space.transpose(action.form.gram))
    return space.mat_vec(giv, tuple(vals))


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
    The result is a list mapping point positions to point positions;
    elements that preserve the relevant structure always permute the point
    set.
    """
    spec = action.spec
    if spec.kind == "quadratic_forms":
        if tau:
            raise ValueError("tau does not act on quadratic-form points")
        # points are stored in code order, so a code is its own position
        c = _form_translation(space, g, action)
        out = []
        for code, _eps in action.points:
            gv = space.mat_vec(g, space.code_vec(code))
            out.append(space.vec_code(tuple(space.F.add(x, y) for x, y in zip(gv, c))))
        return out
    n, k = space.n, spec.k
    pos = action.position
    lut = space.all_vector_images(g)
    if spec.kind == "subspace":
        if tau and 2 * k != n:
            raise ValueError("tau moves k-spaces to (n-k)-spaces")
        img = _class_images(lut, action, k, tau)
        return [pos[img[i]] for i in action.points]
    if spec.kind == "antiflag" and 2 * k == n:
        img = _class_images(lut, action, k, tau)
        pairs = ((img[i], img[j]) for i, j in action.points)
        return [pos[(a, b) if a < b else (b, a)] for a, b in pairs]
    # flags and off-middle antiflags: (U, W) maps to (g U, g W), or with tau
    # to (g perp W, g perp U)
    small = _class_images(lut, action, k, tau)
    big = _class_images(lut, action, n - k, tau)
    if tau:
        return [pos[(big[j], small[i])] for i, j in action.points]
    return [pos[(small[i], big[j])] for i, j in action.points]
