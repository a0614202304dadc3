"""Differential tests: the one group closure and the shared helpers against
standalone reference copies of the separate implementations they replaced,
on every input from small groups; the batched products against one ``mul``
call per product."""

import random

import pytest

from classprop import matgroup
from classprop.gf import prime_power
from classprop.matgroup import (
    MatSpace,
    ResourceCapExceeded,
    _eval_quad,
    all_subspaces,
    bfs_closure,
    build_group,
    perp_basis_dot,
    rref_basis,
    subspace_vectors,
)
from classprop.stats import _generates, psl2


def _ref_closure(identity, mul, gens, stop_over=None):
    """Breadth-first closure; None once it exceeds stop_over elements."""
    seen = {identity}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                p = mul(g, h)
                if p not in seen:
                    if stop_over is not None and len(elements) >= stop_over:
                        return None
                    seen.add(p)
                    elements.append(p)
                    nxt.append(p)
        frontier = nxt
    return elements


def _perm_mul(a, b):
    return tuple(map(a.__getitem__, b))


def _is_prime_power(q):
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 82) if _is_prime_power(q)]


@pytest.mark.parametrize("chunk", [1, 3, matgroup._PRODUCT_CHUNK])
@pytest.mark.parametrize("q", PRIME_POWERS)
def test_matrix_products_match_mul(q, chunk, monkeypatch):
    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", chunk)
    rng = random.Random(q)
    for n in range(1, 5):
        sp = MatSpace(n, q)
        rand = lambda: tuple(rng.randrange(q) for _ in range(n * n))  # noqa: E731
        frontier = [rand() for _ in range(7)]
        gens = [rand() for _ in range(3)]
        got = list(sp.products(frontier, gens))
        assert got == [sp.mul(g, h) for g in frontier for h in gens]
        assert all(type(x) is int for p in got for x in p)


@pytest.mark.parametrize("chunk", [1, 3, matgroup._PRODUCT_CHUNK])
def test_permutation_products_match_mul(chunk, monkeypatch):
    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", chunk)
    g11 = psl2(11)
    rng = random.Random(11)
    frontier = rng.sample(g11.elements, 9)
    gens = rng.sample(g11.elements, 2)
    got = list(g11.products(frontier, gens))
    assert got == [_perm_mul(g, h) for g in frontier for h in gens]
    assert all(type(x) is int for p in got for x in p)


@pytest.mark.parametrize("chunk", [1, 3])
def test_closure_prefix_and_cap_independent_of_chunk(chunk, monkeypatch):
    tb = build_group("GL", 3, 2)
    g7 = psl2(7)
    cases = [(tb.space, list(tb.gens)), (g7, g7.gens)]
    full = [bfs_closure(sp, gens)[0] for sp, gens in cases]
    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", chunk)
    for (sp, gens), ref in zip(cases, full):
        order = len(ref)
        assert bfs_closure(sp, gens)[0] == ref
        for stop in (1, 2, 5, 10, 37, order // 2, order - 1):
            partial, seen = bfs_closure(sp, gens, stop_over=stop)
            assert partial == ref[: stop + 1]
            assert seen == {g: i for i, g in enumerate(partial)}
        assert bfs_closure(sp, gens, cap=order)[0] == ref
        with pytest.raises(ResourceCapExceeded):
            bfs_closure(sp, gens, cap=order - 1)


def _ref_span(space, basis):
    F = space.F
    vecs = [(0,) * space.n]
    for b in basis:
        new = []
        for c in range(1, space.q):
            cb = tuple(F.mul(c, x) for x in b)
            for v in vecs:
                new.append(tuple(F.add(x, y) for x, y in zip(v, cb)))
        vecs.extend(new)
    return vecs


def _ref_null(space, rows):
    n, F = space.n, space.F
    rows = [list(r) for r in rows]
    pivots = space._elim(rows, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = F.neg_t[rows[r][fc]]
        basis.append(tuple(v))
    return basis


def _ref_quad(space, quad, v):
    F, n = space.F, space.n
    acc = 0
    for i in range(n):
        for j in range(i, n):
            acc = F.add(acc, F.mul(quad[i * n + j], F.mul(v[i], v[j])))
    return acc


@pytest.fixture(scope="module")
def tables():
    return [build_group("GL", 3, 2), build_group("O+", 4, 2)]


def test_matrix_closure_matches(tables):
    more = [build_group(*g) for g in (("GL", 2, 4), ("GL", 2, 8), ("GL", 2, 9),
                                      ("GU", 3, 2), ("Sp", 4, 2))]
    for tb in tables + more:
        sp, gens = tb.space, list(tb.gens)
        elements, seen = bfs_closure(sp, gens)
        assert elements == _ref_closure(sp.identity, sp.mul, gens)
        assert elements == list(tb.elements)
        assert seen == tb.index


def test_permutation_closure_matches():
    g7 = psl2(7)
    ref = _ref_closure(g7.identity, _perm_mul, g7.gens)
    assert g7.elements == sorted(ref)
    assert bfs_closure(g7, g7.gens)[0] == ref


def test_generates_matches_on_every_pair():
    g7 = psl2(7)
    half = g7.order() // 2
    for x in g7.elements:
        for s in g7.elements:
            ref = _ref_closure(g7.identity, _perm_mul, (x, s), stop_over=half)
            assert _generates(g7, x, s) == (ref is None)


def _inputs(tb):
    """Every subspace of the natural module, and the kernel of g - 1 and of
    g + 1 for every element g."""
    sp = tb.space
    out = [b for k in range(sp.n + 1) for b in all_subspaces(sp, k)]
    for g in tb.elements:
        out.append(_ref_null(sp, sp.rows(sp.sub(g, sp.identity))))
        out.append(_ref_null(sp, sp.rows(sp.add(g, sp.identity))))
    return out


def test_spans_match(tables):
    for tb in tables:
        sp = tb.space
        for basis in _inputs(tb):
            ref = frozenset(sp.vec_code(v) for v in _ref_span(sp, basis))
            assert subspace_vectors(sp, basis) == ref


def test_null_spaces_match(tables):
    for tb in tables:
        sp = tb.space
        for g in tb.elements:
            for a in (g, sp.sub(g, sp.identity), sp.add(g, sp.identity)):
                assert sp.kernel_basis(a) == _ref_null(sp, sp.rows(a))
        for basis in _inputs(tb):
            ref = rref_basis(sp, _ref_null(sp, basis))
            assert perp_basis_dot(sp, basis) == ref


def test_quadratic_values_match(tables):
    tb = tables[1]
    sp, form = tb.space, tb.form
    vectors = [sp.code_vec(c) for c in range(sp.q**sp.n)]
    for g in tb.elements:
        for v in vectors:
            w = sp.mat_vec(g, v)
            ref = _ref_quad(sp, form.quad, w)
            assert form.quad_value(sp, w) == ref
            assert _eval_quad(sp, form.quad, w) == ref
