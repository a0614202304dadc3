"""Differential tests: the one group closure and the shared helpers against
standalone reference copies of the separate implementations they replaced,
on every input from small groups; the lookup-table matrix product, which
the row-code closure and class maps replaced, against one ``mul`` call per
product; the batched characteristic polynomials against the per-matrix
Hessenberg reduction; the batched tau squares and Dickson labels against
one inverse, transpose and product, or one rank, per element; the labels
a build reads off its closure against one det or rank per element; the
per-class fixed-point evaluations against per-element scans; the
membership predicates and the batched fixed points against copies of the
per-family loops and per-case branches they replaced; the action orbits
and (twisted) classes against the depth-first search and the two-map
union-find loop that computed them before the vectorised min-label
propagation; the generation probe's reports against one closure per draw;
the batched Monte Carlo scan against one rejection draw per matrix;
generator completion against a scan of every matrix of the space; the
quadratic-form types against their singular-vector counts; the exact
signed-permutation statistic against every signed permutation; the rank,
det, inverse, vector images, spans, perps, subspace types and
quadratic-form point images against one scalar elimination per matrix and
images, spans and perps built digit by digit."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from classprop import matgroup
from classprop.gf import prime_power
from classprop.matgroup import (
    ActionSpec,
    ActionTable,
    FormSpec,
    MatSpace,
    ResourceCapExceeded,
    _eval_quad,
    _tau_squares,
    all_subspaces,
    bfs_closure,
    build_group,
    enumerate_action,
    fixed_point_indices,
    membership_sets,
    point_permutation,
    standard_form,
    tau_membership,
)
from classprop.stats import (
    ExpectationReport,
    FprReport,
    GenerationReport,
    PermGroup,
    _fpr_bounds,
    _tau_acts,
    coset_average_fixed_points,
    expectation_inequality,
    fixed_sets,
    fpr_bound_check,
    generation_probe,
    orbits,
    proportion,
    psl2,
    subset_expectation,
    three_halves_generation,
    weyl_negative_cycle_statistic,
    wilson_interval,
)
from oracles import (
    _cofactor_free,
    _generates,
    _perm_mul,
    batched_dickson_labels,
    charpoly_hessenberg,
    class_fixed,
    class_images,
    code_add,
    dfs_orbits,
    dickson_label,
    elim,
    element_labels,
    expectation_by_sets,
    fixed_rows_lists,
    form_translation,
    incidence_points,
    full_scan_cases,
    kernel_basis,
    mat_add,
    mat_products,
    mc_scan_per_draw,
    perm_products,
    perp_basis_dot,
    perp_basis_form,
    quadratic_form_permutation,
    quadratic_form_points,
    random_gl,
    relation_classes_loop,
    restrict,
    rref_basis,
    scalar_det,
    scalar_inv,
    scalar_rank,
    sieve_free,
    slice_closure,
    subspace_type,
    subspace_vectors,
    tau_sieve_free,
    tau_square,
    tuple_table,
    vec_code,
    vector_images,
    weyl_enumerated,
)
from test_table_digests import TABLE_DIGESTS


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


def _charpolys(space, rows):
    """``MatSpace.charpolys`` of these row codes, as tuples."""
    return list(map(tuple, space.charpolys(rows).tolist()))


def _same_closure(got, want):
    """Equal (rows, parent, generator) triples of ``bfs_closure``."""
    return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def _is_prime_power(q):
    try:
        prime_power(q)
    except ValueError:
        return False
    return True


PRIME_POWERS = [q for q in range(2, 82) if _is_prime_power(q)]


@pytest.mark.parametrize("chunk", [1, 3, 256])
@pytest.mark.parametrize("q", PRIME_POWERS)
def test_matrix_products_match_mul(q, chunk, monkeypatch):
    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", chunk)
    rng = random.Random(q)
    for n in range(1, 5):
        sp = MatSpace(n, q)
        rand = lambda: tuple(rng.randrange(q) for _ in range(n * n))  # noqa: E731
        frontier = [rand() for _ in range(7)]
        gens = [rand() for _ in range(3)]
        got = list(mat_products(sp, frontier, gens))
        assert got == [sp.mul(g, h) for g in frontier for h in gens]
        assert all(type(x) is int for p in got for x in p)


@pytest.mark.parametrize("chunk", [1, 3, 256])
def test_permutation_products_match_mul(chunk, monkeypatch):
    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", chunk)
    g11 = psl2(11)
    rng = random.Random(11)
    frontier = rng.sample(g11.elements, 9)
    gens = rng.sample(g11.elements, 2)
    # the row gather g[s] of the closures and class maps, one tuple map each
    got = g11._decode(g11._right(gens)(g11._encode(frontier)).reshape(-1, g11.degree))
    assert got == perm_products(frontier, gens)
    assert all(type(x) is int for p in got for x in p)


# ---------------------------------------------------------------------------
# Characteristic polynomials: the batched Berkowitz kernel against the
# per-matrix Hessenberg reduction.

@pytest.mark.parametrize("key", sorted(TABLE_DIGESTS), ids="{0[0]}{0[1]}q{0[2]}".format)
def test_charpolys_match_hessenberg_on_frozen_tables(key):
    table = build_group(*key)
    sp = table.space
    want = [charpoly_hessenberg(sp, g) for g in table.elements]
    assert _charpolys(sp, table.rows) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", range(1, 7))
def test_charpolys_match_hessenberg_on_random_matrices(n, q):
    rng = random.Random(1000 * n + q)
    sp = MatSpace(n, q)
    mats = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(40)]
    # singular on purpose: zero, rank one, a repeated row, and sparse
    row = [rng.randrange(q) for _ in range(n)]
    mats += [(0,) * (n * n), tuple(x if i == 0 else 0 for i in range(n) for x in row),
             tuple(row * n)]
    mats += [tuple(rng.randrange(q) if rng.random() < 0.2 else 0 for _ in range(n * n))
             for _ in range(20)]
    got = _charpolys(sp, sp._encode(mats))
    assert got == [charpoly_hessenberg(sp, g) for g in mats]
    assert all(type(c) is int for f in got for c in f)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_charpolys_stream_across_chunk_edges(extra):
    length = matgroup._PRODUCT_CHUNK + extra
    rng = random.Random(length)
    sp = MatSpace(4, 9)
    mats = [tuple(rng.randrange(9) for _ in range(16)) for _ in range(length)]
    want = [charpoly_hessenberg(sp, g) for g in mats]
    rows = sp._encode(mats)
    assert _charpolys(sp, rows) == want
    # a strided view slices the same way
    assert _charpolys(sp, rows[::-1]) == want[::-1]
    assert _charpolys(sp, rows[:0]) == []


# ---------------------------------------------------------------------------
# Tau squares: the batched elimination against one inverse, transpose and
# product per element.

def _monomial(space, shift, rng):
    """The cyclic shift e_i -> e_(i + shift) with random nonzero entries;
    with shift = +-1, elimination swaps rows at every step but the last."""
    n, q = space.n, space.q
    return tuple(rng.randrange(1, q) if j == (i + shift) % n else 0
                 for i in range(n) for j in range(n))


@pytest.mark.parametrize(
    "key", sorted(k for k in TABLE_DIGESTS if k[0] == "GL"), ids="{0[0]}{0[1]}q{0[2]}".format)
def test_tau_squares_match_inverse_on_frozen_gl_tables(key):
    table = build_group(*key)
    sp = table.space
    want = [tau_square(sp, g) for g in table.elements]
    assert sp._decode(_tau_squares(sp, table.rows)) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", range(1, 7))
def test_tau_squares_match_inverse_on_random_matrices(n, q):
    rng = random.Random(1000 * n + q)
    sp = MatSpace(n, q)
    mats = [random_gl(n, q, rng) for _ in range(40)]
    mats += [_monomial(sp, shift, rng) for shift in (1, -1, 0) for _ in range(3)]
    got = sp._decode(_tau_squares(sp, sp._encode(mats)))
    assert got == [tau_square(sp, g) for g in mats]
    assert all(type(x) is int for m in got for x in m)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_tau_squares_stream_across_chunk_edges(extra):
    length = matgroup._PRODUCT_CHUNK + extra
    rng = random.Random(length)
    sp = MatSpace(4, 9)
    mats = [random_gl(4, 9, rng) for _ in range(length)]
    want = [tau_square(sp, g) for g in mats]
    rows = sp._encode(mats)
    assert sp._decode(_tau_squares(sp, rows)) == want
    # a strided view slices the same way
    assert sp._decode(_tau_squares(sp, rows[::-1])) == want[::-1]
    assert sp._decode(_tau_squares(sp, rows[:0])) == []


# ---------------------------------------------------------------------------
# Dickson labels: the batched elimination against one rank per element.

EVEN_ORTHOGONAL = sorted(
    {k for k in TABLE_DIGESTS if k[0].startswith(("O", "Omega")) and k[2] % 2 == 0}
    | {("O+", 6, 2), ("O-", 6, 2), ("O+", 4, 4)})


@pytest.mark.parametrize("key", EVEN_ORTHOGONAL, ids="{0[0]}{0[1]}q{0[2]}".format)
def test_dickson_labels_match_rank_on_even_orthogonal_tables(key):
    table = build_group(*key)
    sp = table.space
    want = tuple(dickson_label(sp, g) for g in table.elements)
    assert table.labels == want
    assert tuple(batched_dickson_labels(sp, table.elements)) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("n", range(1, 7))
def test_dickson_labels_match_rank_on_random_matrices(n, q):
    rng = random.Random(1000 * n + q)
    sp = MatSpace(n, q)
    mats = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(40)]
    mats += [random_gl(n, q, rng) for _ in range(20)]
    mats += [_monomial(sp, shift, rng) for shift in (1, -1, 0) for _ in range(3)]
    # rank(g - 1) from 0 to n: the identity, a transvection, g - 1 of rank one
    # with a repeated row, and sparse matrices
    row = [rng.randrange(q) for _ in range(n)]
    mats += [sp.identity, sp.from_rows([[1 if i == j or (i, j) == (0, n - 1) else 0
                                        for j in range(n)] for i in range(n)]),
             mat_add(sp, sp.identity, tuple(row * n))]
    mats += [tuple(rng.randrange(q) if rng.random() < 0.2 else 0 for _ in range(n * n))
             for _ in range(20)]
    got = list(batched_dickson_labels(sp, mats))
    assert got == [dickson_label(sp, g) for g in mats]
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_dickson_labels_stream_across_chunk_edges(extra):
    length = matgroup._PRODUCT_CHUNK + extra
    rng = random.Random(length)
    sp = MatSpace(4, 4)
    mats = [tuple(rng.randrange(4) if rng.random() < 0.5 else 0 for _ in range(16))
            for _ in range(length)]
    want = [dickson_label(sp, g) for g in mats]
    assert list(batched_dickson_labels(sp, mats)) == want
    assert list(batched_dickson_labels(sp, (g for g in mats))) == want
    assert list(batched_dickson_labels(sp, mats[:0])) == []


def _closure_case(name):
    if name == "PSL(2,7)":
        g7 = psl2(7)
        return g7, g7.gens
    family, n, q = {"GL3(2)": ("GL", 3, 2), "Sp4(3)": ("Sp", 4, 3)}[name]
    tb = build_group(family, n, q)
    return tb.space, list(tb.gens)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("name", ["GL3(2)", "PSL(2,7)", "Sp4(3)"])
def test_closure_matches_slice_reference(name, chunk):
    # the per-level merge gives what the per-slice loop gives at any slice
    # size: the closure, each stop_over prefix and the cap raise
    sp, gens = _closure_case(name)
    ref = slice_closure(sp, gens, chunk)
    order = len(ref[0])
    assert _same_closure(bfs_closure(sp, gens), ref)
    # the reference's own prefixes and cap too, where it runs in milliseconds
    small = order < 1000
    stops = [1, 2, 5, 10, 37, 4000, order // 2, order - 1]
    for stop in [s for s in stops if s < order]:
        want = [part[: stop + 1] for part in ref]
        assert _same_closure(bfs_closure(sp, gens, stop_over=stop), want)
        if small:
            assert _same_closure(slice_closure(sp, gens, chunk, stop_over=stop), want)
    assert _same_closure(bfs_closure(sp, gens, cap=order), ref)
    with pytest.raises(ResourceCapExceeded):
        bfs_closure(sp, gens, cap=order - 1)
    if small:
        with pytest.raises(ResourceCapExceeded):
            slice_closure(sp, gens, chunk, cap=order - 1)


def test_closure_sorts_once_per_level(monkeypatch):
    # Sp4(3) has levels of up to 102 448 products: one np.unique per level,
    # however many products the level holds
    sp, gens = _closure_case("Sp4(3)")
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    rows, parent, _ = bfs_closure(sp, gens)
    monkeypatch.setattr(np, "unique", unique)
    depth = np.zeros(len(rows), dtype=np.intp)
    for i in range(1, len(rows)):  # parents come first in BFS order
        depth[i] = depth[parent[i]] + 1
    assert np.bincount(depth).max() * len(gens) > 4096
    assert len(calls) == depth.max() + 1


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
        elements = sp._decode(bfs_closure(sp, gens)[0])
        assert elements == _ref_closure(sp.identity, sp.mul, gens)
        assert elements == list(tb.elements)
        assert tb.index == {g: i for i, g in enumerate(elements)}


@pytest.mark.parametrize("key", sorted(TABLE_DIGESTS), ids="{0[0]}{0[1]}q{0[2]}".format)
def test_tables_match_the_tuple_route(key):
    # elements, labels, generators and index against a build that decodes
    # every element to its tuple and indexes the tuples in a dict
    elements, labels, gens, index = tuple_table(*key)
    tb = build_group(*key)
    assert list(tb.elements) == list(elements)
    assert tb.labels == labels
    assert tb.gens == gens
    assert tb.index == index


def test_permutation_closure_matches():
    g7 = psl2(7)
    ref = _ref_closure(g7.identity, _perm_mul, g7.gens)
    assert list(g7.elements) == sorted(ref)
    assert g7._decode(bfs_closure(g7, g7.gens)[0]) == ref


def test_closure_schreier_vector_rebuilds_every_element():
    # element i is its BFS parent times its generator, the parent found first
    tb = build_group("GL", 3, 2)
    g7 = psl2(7)
    for sp, gens in [(tb.space, list(tb.gens)), (g7, g7.gens)]:
        rows, parent, generator = bfs_closure(sp, gens)
        elements = sp._decode(rows)
        assert parent[0] == generator[0] == 0
        for i in range(1, len(elements)):
            assert parent[i] < i
            assert sp.mul(elements[parent[i]], gens[generator[i]]) == elements[i]


def test_degree_18_closure_and_classes_match():
    # 18^18 > 2^63, so a base-degree int64 code of a PSL(2,17) element would
    # overflow; permutations are keyed by their bytes
    g17 = psl2(17)
    rows = bfs_closure(g17, g17.gens)[0]
    assert g17._decode(rows) == _ref_closure(g17.identity, _perm_mul, g17.gens)
    pairs = [(g17.inv(s), s) for s in g17.gens]
    assert g17.conjugacy_classes() == relation_classes_loop(
        g17, list(g17.elements), g17.index, pairs)


def test_closure_refuses_matrices_without_an_int64_code():
    # 2^(8 * 8) = 2^64 keys do not fit an int64: an error, not a wrong closure
    sp = MatSpace(8, 2)
    shift = sp.from_rows([[1 if j == (i + 1) % 8 else 0 for j in range(8)] for i in range(8)])
    with pytest.raises(ValueError, match="int64"):
        bfs_closure(sp, [shift])
    # the largest GF(2) dimension that fits closes as the reference does
    sp = MatSpace(7, 2)
    shift = sp.from_rows([[1 if j == (i + 1) % 7 else 0 for j in range(7)] for i in range(7)])
    assert sp._decode(bfs_closure(sp, [shift])[0]) == _ref_closure(sp.identity, sp.mul, [shift])


@pytest.mark.parametrize("key", [("GL", 3, 4), ("SU", 3, 2), ("O", 3, 5)],
                         ids="{0[0]}{0[1]}q{0[2]}".format)
def test_closure_labels_match_per_element_labels(key, monkeypatch):
    # a fresh build sums generator labels along its BFS tree
    monkeypatch.delenv(matgroup.CACHE_ENV, raising=False)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    table = build_group(*key)
    assert table.labels == element_labels(table)


@pytest.fixture(scope="module")
def g7_generates():
    """PSL(2,7) and the _generates verdict of every pair (x, s)."""
    g7 = psl2(7)
    return g7, {(x, s): _generates(g7, x, s)
                for x in g7.elements for s in g7.elements}


def test_generates_matches_on_every_pair(g7_generates):
    g7, verdicts = g7_generates
    half = g7.order() // 2
    for (x, s), verdict in verdicts.items():
        ref = _ref_closure(g7.identity, _perm_mul, (x, s), stop_over=half)
        assert verdict == (ref is None)


# ---------------------------------------------------------------------------
# Generation probe: the probe's report against a per-draw loop that decides
# every draw by its own _generates closure.

def _ref_probe(group, x, pool=None, trials="exhaustive", seed=None,
               generates=_generates):
    """The GenerationReport of a per-draw probe over the draws that
    generation_probe makes."""
    pool = list(group.elements) if pool is None else pool
    exhaustive = trials == "exhaustive"
    if exhaustive:
        draws = pool
    else:
        rng = random.Random(seed)
        draws = [pool[rng.randrange(len(pool))] for _ in range(trials)]
    verdicts = [generates(group, x, s) for s in draws]
    hits = sum(verdicts)
    witness = next((group.index[s] for s, v in zip(draws, verdicts) if v), None)
    head = (group.name, group.index[x], group.element_order(x), len(pool))
    if exhaustive:
        return GenerationReport(*head, "exhaustive", len(draws), hits,
                                Fraction(hits, len(draws)), witness=witness)
    lo, hi = wilson_interval(hits, trials)
    return GenerationReport(*head, "montecarlo", trials, hits, hits / trials,
                            lo, hi, witness)


def test_probe_matches_per_draw_on_every_x_of_psl27(g7_generates):
    g7, verdicts = g7_generates
    table = lambda group, x, s: verdicts[x, s]  # noqa: E731
    for x in g7.elements[1:]:
        assert generation_probe(g7, x) == _ref_probe(g7, x, generates=table)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_three_halves_matches_per_draw_exhaustively(p):
    # every group of order at most 1 000: each class representative's exact
    # proportion against one closure per partner
    group = psl2(p)
    records = three_halves_generation(group)
    assert len(records) == len(group.conjugacy_classes()) - 1
    for rec in records:
        x = group.elements[rec["representative"]]
        ref = _ref_probe(group, x)
        assert (rec["element_order"], rec["proportion"]) == (ref.x_order, ref.value)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_probe_matches_per_draw_at_every_element_order(p):
    group = psl2(p)
    reps = {}
    for cls in group.conjugacy_classes():
        x = group.elements[cls[0]]
        reps.setdefault(group.element_order(x), x)
    del reps[1]
    # the element orders of PSL(2,p) above 1: p and the divisors of (p -+ 1)/2
    halves = ((p - 1) // 2, (p + 1) // 2)
    assert sorted(reps) == sorted({p} | {d for h in halves for d in range(2, h + 1) if h % d == 0})
    for order, x in sorted(reps.items()):
        seed = 100 * p + order
        assert (generation_probe(group, x, trials=300, seed=seed)
                == _ref_probe(group, x, trials=300, seed=seed))


def test_probe_matches_per_draw_on_a_pool_with_repeats():
    g11 = psl2(11)
    rng = random.Random(11)
    x = next(g for g in g11.elements if g11.element_order(g) == 11)
    pool = rng.choices(g11.elements, k=50)
    pool += pool[:20] + [g11.identity, x, x]
    assert len(set(pool)) < len(pool)
    assert generation_probe(g11, x, coset=pool) == _ref_probe(g11, x, pool)
    assert (generation_probe(g11, x, coset=pool, trials=400, seed=2)
            == _ref_probe(g11, x, pool, trials=400, seed=2))


def _inputs(tb):
    """Every subspace of the natural module, and the kernel of g - 1 and of
    g + 1 for every element g."""
    sp = tb.space
    out = [b for k in range(sp.n + 1) for b in all_subspaces(sp, k)]
    for g in tb.elements:
        out.append(_ref_null(sp, sp.rows(sp.sub(g, sp.identity))))
        out.append(_ref_null(sp, sp.rows(mat_add(sp, g, sp.identity))))
    return out


def test_spans_match(tables):
    for tb in tables:
        sp = tb.space
        for basis in _inputs(tb):
            ref = frozenset(vec_code(sp, v) for v in _ref_span(sp, basis))
            assert subspace_vectors(sp, basis) == ref


def test_null_spaces_match(tables):
    for tb in tables:
        sp = tb.space
        for g in tb.elements:
            for a in (g, sp.sub(g, sp.identity), mat_add(sp, g, sp.identity)):
                assert kernel_basis(sp, a) == _ref_null(sp, sp.rows(a))
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


# ---------------------------------------------------------------------------
# Conjugacy classes and the per-class fixed-point evaluations.

def _fpr_actions(table):
    """The k-subspace, k-flag (k < n - k) and k-antiflag actions, k <= n/2."""
    n = table.n
    actions = []
    for k in range(1, n // 2 + 1):
        actions.append(enumerate_action(table, ActionSpec("subspace", k)))
        if k < n - k:
            actions.append(enumerate_action(table, ActionSpec("flag", k)))
        actions.append(enumerate_action(table, ActionSpec("antiflag", k)))
    return actions


def _ref_trivial_indices(table, tau):
    """Indices of the g (or, with tau, the g tau) fixing every point: the
    scalars, and for n = 2, where tau is inner (perp<v> = <J v> with
    J = [[0, -1], [1, 0]]), the c J.  For n >= 3 no g tau acts trivially."""
    space = table.space
    if tau and table.n != 2:
        return set()
    base = space.from_rows([[0, space.F.neg_t[1]], [1, 0]]) if tau else space.identity
    mats = (space.mul(space.scalar(c), base) for c in range(1, table.q))
    return {table.index[g] for g in mats if g in table.index}


def _ref_fpr_bound_check(table, include_tau=None):
    """fpr_bound_check as one fixed-point evaluation per element."""
    n, q = table.n, table.q
    actions = _fpr_actions(table)
    if include_tau is None:
        include_tau = table.family == "GL"
    bounds = [_fpr_bounds(n, q, act.spec) for act in actions]
    rows = {}
    for ai, act in enumerate(actions):
        for bid, _ in bounds[ai]:
            rows[(ai, bid, False)] = [-1, -1, 0, 0]
            if include_tau and _tau_acts(act.spec, n):
                rows[(ai, bid, True)] = [-1, -1, 0, 0]
    sides = [False, True] if include_tau else [False]
    trivial = {tau: _ref_trivial_indices(table, tau) for tau in sides}
    for i, g in enumerate(table.elements):
        for tau in sides:
            if i in trivial[tau]:
                continue
            for ai, act in enumerate(actions):
                if tau and not _tau_acts(act.spec, n):
                    continue
                fp = len(fixed_point_indices(table.space, g, act, tau=tau))
                for bid, bound in bounds[ai]:
                    row = rows[(ai, bid, tau)]
                    row[2] += 1
                    if fp > row[0]:
                        row[0], row[1] = fp, i
                    if fp * bound.denominator >= bound.numerator * len(act):
                        row[3] += 1
    reports = []
    for ai, bid, tau in sorted(rows):
        mfp, arg, checked, viol = rows[(ai, bid, tau)]
        bound = dict(bounds[ai])[bid]
        ratio = Fraction(max(mfp, 0), len(actions[ai]))
        reports.append(FprReport(actions[ai].spec, tau, bid, bound, arg, ratio,
                                 bound - ratio, checked, viol))
    return reports


def _ref_coset_average(table, spec, coset=None):
    """coset_average_fixed_points as one evaluation per coset element."""
    act = enumerate_action(table, spec)
    if coset is None:
        indices, name = range(len(table.elements)), "whole group"
    else:
        indices, name = table.coset_indices(coset), f"label {coset} coset"
    orbs = orbits(table, act)
    orbit_of = {p: oi for oi, orb in enumerate(orbs) for p in orb}
    sums = [0] * len(orbs)
    for i in indices:
        for p in fixed_point_indices(table.space, table.elements[i], act):
            sums[orbit_of[p]] += 1
    per = tuple(Fraction(s, len(indices)) for s in sums)
    if len(orbs) == 1:
        return ExpectationReport(act.spec, name, per[0])
    return ExpectationReport(act.spec, name, sum(per), orbit_values=per)


def _ref_subset_expectation(table, members, action, comparator=None):
    act = enumerate_action(table, action) if isinstance(action, ActionSpec) else action
    total = sum(len(fixed_point_indices(table.space, table.elements[i], act)) for i in members)
    return ExpectationReport(act.spec, f"{len(members)} elements",
                             Fraction(total, len(members)), comparator)


def _ref_perm_classes(group):
    """Conjugacy classes by conjugating each new element by every element."""
    seen = [False] * group.order()
    classes = []
    for i, e in enumerate(group.elements):
        if seen[i]:
            continue
        orb = {group.index[group.mul(group.inv(g), group.mul(e, g))]
               for g in group.elements}
        for j in orb:
            seen[j] = True
        classes.append(sorted(orb))
    return classes


def _ref_matrix_classes(table, tau):
    """Orbits of g -> s^-1 g s (tau: g -> s g s^T) over every s in the table."""
    sp = table.space
    seen = [False] * len(table)
    classes = []
    for i, e in enumerate(table.elements):
        if seen[i]:
            continue
        if tau:
            orb = {table.index[sp.mul(s, sp.mul(e, sp.transpose(s)))]
                   for s in table.elements}
        else:
            orb = {table.index[sp.mul(sp.inv(s), sp.mul(e, s))]
                   for s in table.elements}
        for j in orb:
            seen[j] = True
        classes.append(sorted(orb))
    return classes


FPR_CASES = [("GL", 2, 2, None), ("GL", 2, 3, None), ("GL", 2, 4, None),
             ("GL", 2, 5, None), ("GL", 3, 2, None), ("SL", 3, 3, None),
             ("SL", 2, 3, True)]


@pytest.mark.parametrize("fam,n,q,include_tau", FPR_CASES)
def test_fpr_bound_check_per_class_matches_per_element(fam, n, q, include_tau):
    tb = build_group(fam, n, q)
    got = fpr_bound_check(tb, include_tau=include_tau)
    assert got == _ref_fpr_bound_check(tb, include_tau=include_tau)


@pytest.mark.parametrize("tau", [False, True])
@pytest.mark.parametrize("fam,n,q", [case[:3] for case in FPR_CASES])
def test_fixing_every_point_is_acting_trivially(fam, n, q, tau):
    """On each fpr action a side permutes, the elements whose fixed-point
    count is the number of points are exactly the reference trivial set."""
    tb = build_group(fam, n, q)
    want = _ref_trivial_indices(tb, tau)
    for act in _fpr_actions(tb):
        if tau and not _tau_acts(act.spec, n):
            continue
        full = {i for i, g in enumerate(tb.elements)
                if len(fixed_point_indices(tb.space, g, act, tau=tau)) == len(act)}
        assert full == want, act.spec


COSET_AVERAGE_CASES = [
    ("GL", 3, 2, None, ActionSpec("subspace", 1)),
    ("GL", 3, 2, None, ActionSpec("flag", 1)),
    ("GL", 3, 2, None, ActionSpec("antiflag", 1)),
    ("GL", 4, 2, None, ActionSpec("subspace", 2)),
    ("GL", 2, 3, 0, ActionSpec("subspace", 1)),
    ("GL", 2, 3, 1, ActionSpec("subspace", 1)),
    ("GL", 3, 3, 1, ActionSpec("subspace", 1)),
    ("GL", 3, 3, 0, ActionSpec("flag", 1)),
    ("GL", 2, 5, 3, ActionSpec("subspace", 1)),
    ("GL", 2, 4, 1, ActionSpec("antiflag", 1)),
    ("Sp", 4, 2, None, ActionSpec("subspace", 1, restrict="totally_singular")),
    ("GU", 3, 2, 1, ActionSpec("subspace", 1, restrict="totally_singular")),
    # intransitive: two orbits of points, and a subtable with two orbits
    ("O+", 4, 2, None, ActionSpec("subspace", 1)),
    ("Omega+", 4, 2, None, ActionSpec("subspace", 2, restrict="totally_singular")),
]


@pytest.mark.parametrize("fam,n,q,coset,spec", COSET_AVERAGE_CASES)
def test_coset_average_per_class_matches_per_element(fam, n, q, coset, spec):
    tb = build_group(fam, n, q)
    got = coset_average_fixed_points(tb, spec, coset=coset)
    assert got == _ref_coset_average(tb, spec, coset)


def test_subset_expectation_per_class_matches_per_element():
    gl4, gl3, sp4 = (build_group(*g) for g in (("GL", 4, 2), ("GL", 3, 2), ("Sp", 4, 2)))
    cases = [
        (gl4, membership_sets(gl4, 1), ActionSpec("subspace", 1), None),
        (gl4, membership_sets(gl4, 1), ActionSpec("subspace", 2), None),
        (gl3, list(range(168)), ActionSpec("subspace", 1), None),
        (sp4, membership_sets(sp4, 2), enumerate_action(sp4, ActionSpec("quadratic_forms")),
         None),
        (gl3, membership_sets(gl3, 1), ActionSpec("subspace", 1), Fraction(1, 3)),
    ]
    for tb, members, action, comparator in cases:
        got = subset_expectation(tb, members, action, comparator=comparator)
        assert got == _ref_subset_expectation(tb, members, action, comparator)


CLASS_TABLES = [("GL", 2, 2), ("GL", 2, 3), ("GL", 2, 4), ("GL", 2, 5),
                ("GL", 3, 2), ("GL", 3, 3), ("GL", 4, 2), ("SL", 3, 3),
                ("O+", 4, 2), ("Omega+", 4, 2), ("SO", 3, 3)]


@pytest.mark.parametrize("group", CLASS_TABLES)
def test_classes_partition_the_group_and_are_closed(group):
    tb = build_group(*group)
    sp = tb.space
    if tb.family not in ("GL", "SL"):
        with pytest.raises(ValueError, match="tau coset"):
            tb.conjugacy_classes(True)
    for tau in (False, True) if tb.family in ("GL", "SL") else (False,):
        classes = tb.conjugacy_classes(tau)
        assert sum(len(c) for c in classes) == len(tb)
        assert sorted(i for c in classes for i in c) == list(range(len(tb)))
        assert all(c == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        class_of = {i: ci for ci, c in enumerate(classes) for i in c}
        for s in tb.gens:
            a, b = (s, sp.transpose(s)) if tau else (sp.inv(s), s)
            for i, g in enumerate(tb.elements):
                assert class_of[tb.index[sp.mul(a, sp.mul(g, b))]] == class_of[i]


@pytest.mark.parametrize("group,tau", [
    (("GL", 2, 3), False), (("GL", 2, 3), True), (("GL", 3, 2), False),
    (("GL", 3, 2), True), (("SL", 2, 5), False), (("SL", 2, 5), True),
    (("Omega+", 4, 2), False),
])
def test_matrix_classes_match_orbits_under_every_element(group, tau):
    tb = build_group(*group)
    assert tb.conjugacy_classes(tau) == _ref_matrix_classes(tb, tau)


# GL_2(q) has q^2 - 1 classes, GL_3(q) has q^3 - q and GL_4(2) has 14
@pytest.mark.parametrize("n,q,want", [(2, 2, 3), (2, 3, 8), (2, 4, 15), (2, 5, 24),
                                      (3, 2, 6), (3, 3, 24), (4, 2, 14)])
def test_gl_class_counts(n, q, want):
    assert len(build_group("GL", n, q).conjugacy_classes()) == want


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_psl2_classes_match_reference(p):
    group = psl2(p)
    classes = group.conjugacy_classes()
    assert len(classes) == (p + 5) // 2
    assert classes == _ref_perm_classes(group)


@pytest.mark.parametrize("group,spec", [
    (("O+", 4, 2), ActionSpec("subspace", 1)),  # two orbits
    (("O+", 4, 2), ActionSpec("subspace", 1, restrict="nonsingular")),
    (("Sp", 4, 2), ActionSpec("subspace", 1)),
    (("Sp", 4, 2), ActionSpec("subspace", 2, restrict="totally_singular")),
    (("GL", 4, 2), ActionSpec("subspace", 2)),
])
def test_orbits_match_depth_first_search(group, spec):
    tb = build_group(*group)
    assert orbits(tb, spec) == dfs_orbits(tb, spec)


@pytest.mark.parametrize("group,tau", [
    (("GL", 3, 2), False), (("GL", 3, 2), True), (("GL", 2, 3), False),
    (("GL", 2, 3), True), (("GL", 4, 2), False), (("GL", 4, 2), True),
    (("SL", 3, 3), False), (("SL", 3, 3), True), (("O+", 4, 2), False),
    (("Sp", 4, 2), False), (("GU", 3, 2), False),
])
def test_matrix_classes_match_two_map_loop(group, tau):
    tb = build_group(*group)
    sp = tb.space
    if tau:
        pairs = [(s, sp.transpose(s)) for s in tb.gens]
    else:
        pairs = [(sp.inv(s), s) for s in tb.gens]
    want = relation_classes_loop(sp, tb.elements, tb.index, pairs)
    assert tb.conjugacy_classes(tau) == want


def test_psl2_byte_rows_match_references():
    # PSL2(13) acts on 14 points, so its rows hold one byte per point; the
    # closure and the classes are those of the slice and two-map references
    group = psl2(13)
    got = bfs_closure(group, group.gens)
    assert got[0].dtype == np.uint8
    assert _same_closure(got, slice_closure(group, group.gens, 64))
    assert sorted(group._decode(got[0])) == list(group.elements)
    pairs = [(group.inv(s), s) for s in group.gens]
    want = relation_classes_loop(group, list(group.elements), group.index, pairs)
    assert group.conjugacy_classes() == want


def test_perm_rows_above_degree_256_take_two_bytes():
    cycle = tuple(range(1, 257)) + (0,)
    group = PermGroup(257, [cycle])
    assert group.order() == 257
    assert bfs_closure(group, group.gens)[0].dtype == np.uint16
    assert group.conjugacy_classes() == [[i] for i in range(257)]


@pytest.mark.parametrize("p", [7, 11])
def test_psl2_classes_match_two_map_loop(p):
    group = psl2(p)
    pairs = [(group.inv(s), s) for s in group.gens]
    want = relation_classes_loop(group, list(group.elements), group.index, pairs)
    assert group.conjugacy_classes() == want


# ---------------------------------------------------------------------------
# Membership: one loop per family and coset, as before the element predicates.

def _ref_membership_sets(table, t, coset=None):
    if t < 1:
        raise ValueError("t must be >= 1")
    fam = table.family
    if fam in ("GL", "SL", "Sp", "GU", "SU"):
        if coset in ("S", "O"):
            raise ValueError("S/O sets are for orthogonal families")
        return [
            i
            for i, g in enumerate(table.elements)
            if (coset is None or table.labels[i] == coset)
            and sieve_free(table.space, g, t)
        ]
    if coset not in ("S", "O"):
        raise ValueError("orthogonal membership needs coset 'S' or 'O'")
    if table.n % 2 == 0:
        if coset == "S":
            return [i for i, g in enumerate(table.elements)
                    if sieve_free(table.space, g, t)]
        return _ref_orth_O_set_even(table, t)
    eigen = 1 if coset == "S" else table.space.F.neg_t[1]
    return _ref_orth_set_odd(table, t, eigen)


def _ref_orth_O_set_even(table, t):
    space, form = table.space, table.form
    q = space.q
    out = []
    for i, g in enumerate(table.elements):
        if q % 2 == 0:
            gm1 = space.sub(g, space.identity)
            if len(kernel_basis(space, gm1)) != 1:
                continue
            k2 = kernel_basis(space, space.mul(gm1, gm1))
            if len(k2) != 2:
                continue
            w = rref_basis(space, k2)
        else:
            e1 = kernel_basis(space, space.sub(g, space.identity))
            em = kernel_basis(space, mat_add(space, g, space.identity))
            if len(e1) != 1 or len(em) != 1:
                continue
            w = rref_basis(space, e1 + em)
        gram = tuple(form.bilinear(space, u, v) for u in w for v in w)
        if scalar_rank(MatSpace(2, q), gram) != 2:
            continue
        perp = perp_basis_form(space, form, w)
        if sieve_free(*restrict(space, g, perp), t):
            out.append(i)
    return out


def _ref_orth_set_odd(table, t, eigen):
    space, form = table.space, table.form
    out = []
    for i, g in enumerate(table.elements):
        ker = kernel_basis(space, space.sub(g, space.scalar(eigen)))
        if len(ker) != 1:
            continue
        v = ker[0]
        if form.bilinear(space, v, v) == 0:
            continue
        perp = perp_basis_form(space, form, (v,))
        if sieve_free(*restrict(space, g, perp), t):
            out.append(i)
    return out


def _ref_tau_membership(table, t):
    return [i for i, g in enumerate(table.elements)
            if tau_sieve_free(table.space, g, t)]


MEMBERSHIP_CASES = [
    # the frozen membership tables
    ("GL", 3, 2, 1, None), ("GL", 3, 2, 2, None), ("GL", 4, 2, 1, None),
    ("GL", 4, 2, 2, None), ("SL", 2, 3, 1, None), ("Sp", 4, 2, 1, None),
    ("Sp", 4, 2, 2, None),
    # the frozen orthogonal tables, both sets, and O_3(5)
    ("O+", 4, 2, 1, "S"), ("O+", 4, 2, 1, "O"), ("O-", 4, 2, 1, "S"),
    ("O-", 4, 2, 1, "O"), ("O+", 4, 2, 2, "S"), ("O+", 4, 2, 2, "O"),
    ("O-", 4, 2, 2, "S"), ("O-", 4, 2, 2, "O"), ("O+", 4, 3, 1, "S"),
    ("O+", 4, 3, 1, "O"), ("O-", 4, 3, 1, "S"), ("O-", 4, 3, 1, "O"),
    ("O", 3, 3, 1, "S"), ("O", 3, 3, 1, "O"), ("O", 3, 5, 1, "S"),
    ("O", 3, 5, 1, "O"),
    # the first non-prime field: the Dickson label decides the O set
    ("O+", 4, 4, 1, "S"), ("O+", 4, 4, 1, "O"), ("O-", 4, 4, 1, "S"),
    ("O-", 4, 4, 1, "O"), ("O+", 4, 4, 2, "S"), ("O+", 4, 4, 2, "O"),
    ("O-", 4, 4, 2, "S"), ("O-", 4, 4, 2, "O"),
    # determinant and unitary labels
    ("GL", 2, 3, 1, 0), ("GL", 2, 3, 1, 1), ("GL", 3, 3, 1, 1), ("GU", 3, 2, 1, 0),
]


@pytest.mark.parametrize("fam,n,q,t,coset", MEMBERSHIP_CASES)
def test_membership_predicates_match_per_family_loops(fam, n, q, t, coset):
    tb = build_group(fam, n, q)
    assert membership_sets(tb, t, coset) == _ref_membership_sets(tb, t, coset)


TAU_CASES = [(3, 2, 1), (4, 2, 1), (4, 2, 2), (3, 3, 1)]


@pytest.mark.parametrize("n,q,t", TAU_CASES)
def test_tau_membership_matches_loop(n, q, t):
    tb = build_group("GL", n, q)
    assert tau_membership(tb, t) == _ref_tau_membership(tb, t)


def _ref_cofactor_scan(tb, t, coset):
    """The members by one ``_cofactor_free`` call per element, on the
    batched characteristic polynomials: the roots each set divides out, and
    the Dickson label 1 that the even-q O set asks for."""
    sp = tb.space
    minus = sp.F.neg_t[1]
    label = coset if isinstance(coset, int) else None
    if coset == "tau":
        roots = (1,) if tb.n % 2 else ()
    elif coset not in ("S", "O"):
        roots = ()
    elif tb.n % 2 == 0:
        roots = () if coset == "S" else (1, minus)
        label = 1 if coset == "O" and tb.q % 2 == 0 else None
    else:
        roots = (1,) if coset == "S" else (minus,)
    rows = _tau_squares(sp, tb.rows) if coset == "tau" else tb.rows
    return [i for i, f in enumerate(_charpolys(sp, rows))
            if (label is None or tb.labels[i] == label)
            and _cofactor_free(sp.F, f, roots, t)]


@pytest.mark.parametrize("fam,n,q,t,coset", MEMBERSHIP_CASES + [
    ("GL", n, q, t, "tau") for n, q, t in TAU_CASES])
def test_membership_matches_per_element_cofactor_test(fam, n, q, t, coset):
    tb = build_group(fam, n, q)
    got = tau_membership(tb, t) if coset == "tau" else membership_sets(tb, t, coset)
    assert got == _ref_cofactor_scan(tb, t, coset)


# hits of 300 seeded Monte Carlo draws, frozen so that the draws keep their
# random stream: (spec, t, coset, seed, hits).  Labels 2 of GL3(5) and 3, 5
# of GL2(7) move most draws by a diagonal shift; tau at even n has no
# eigenline.
FROZEN_MC_HITS = [
    (("GL", 4, 3), 1, 1, 11, 89), (("GL", 4, 3), 1, 1, 12, 97),
    (("GL", 3, 3), 1, "tau", 11, 76), (("GL", 3, 3), 1, "tau", 12, 72),
    (("GL", 3, 3), 2, None, 11, 85), (("GL", 3, 3), 2, None, 12, 98),
    (("GL", 3, 5), 1, 2, 11, 98), (("GL", 3, 5), 1, 2, 12, 95),
    (("GL", 2, 7), 1, 3, 11, 153), (("GL", 2, 7), 1, 5, 12, 152),
    (("GL", 4, 3), 1, "tau", 11, 130), (("GL", 2, 5), 1, "tau", 11, 94),
    (("GL", 2, 5), 1, "tau", 12, 109),
]


@pytest.mark.parametrize("spec,t,coset,seed,hits", FROZEN_MC_HITS)
def test_montecarlo_hits_frozen(spec, t, coset, seed, hits):
    rep = proportion(spec, t, coset=coset, method="montecarlo", trials=300, seed=seed)
    assert rep.value == hits / 300


def test_montecarlo_long_run_hits_frozen():
    # 2 500 draws span several blocks of candidates
    rep = proportion(("GL", 3, 7), 2, coset=4, method="montecarlo", trials=2500, seed=11)
    assert rep.value == 838 / 2500


# hits of the packed GF(2) sampler (q = 2, t = 1, the whole group), frozen
# like the ones above: (n, trials, seed, hits)
FROZEN_PACKED_HITS = [
    (1, 1, 2, 0), (1, 1000, 1001, 0), (1, 4097, 4098, 0),
    (20, 1, 21, 0), (20, 1000, 1020, 285), (20, 4097, 4117, 1180),
    (33, 1, 34, 1), (33, 1000, 1033, 297), (33, 4097, 4130, 1218),
    (62, 1, 63, 0), (62, 1000, 1062, 280), (62, 4097, 4159, 1183),
    (20, 10**5, 4, 28948),
]


@pytest.mark.parametrize("n,trials,seed,hits", FROZEN_PACKED_HITS)
def test_packed_montecarlo_hits_frozen(n, trials, seed, hits):
    rep = proportion(("GL", n, 2), 1, method="montecarlo", trials=trials, seed=seed)
    assert rep.value == hits / trials


# ---------------------------------------------------------------------------
# The generic Monte Carlo scan: batched rejection draws against one
# random_gl or random_coset_gl call, and one determinant, per draw.

MC_GRID_TRIALS = (1, 1023, 1024, 1025, 2500)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_montecarlo_scan_matches_per_draw(n, q):
    # every coset, t in {1, 2} and three seeds; about half the cosets take
    # 1 000 to 2 500 draws, around the 1 024 candidates of a block, and the
    # rest one draw each (q = 2, t = 1 on the whole group is the packed route)
    for k, coset in enumerate([None, *range(q - 1), "tau"]):
        t = 2 if q == 2 and coset is None else 1 + (k + n) % 2
        trials = MC_GRID_TRIALS[(k + n + q) % 5] if (k + n + q) % 2 == 0 else 1
        seed = (k + q) % 3
        rep = proportion(("GL", n, q), t, coset=coset, method="montecarlo",
                         trials=trials, seed=seed)
        hits = mc_scan_per_draw(n, q, t, coset, trials, seed)
        assert rep.value == hits / trials, (coset, t, trials, seed)
        assert (rep.ci_low, rep.ci_high) == wilson_interval(hits, trials)


# ---------------------------------------------------------------------------
# Fixed points: one branch per action kind and side, as before the point
# permutation took over every case but the plain-subspace shortcut.

def _ref_solve(space, a, b):
    """One solution x of a x = b, or None."""
    n = space.n
    rows = [list(a[i * n : (i + 1) * n]) + [b[i]] for i in range(n)]
    pivots = elim(space, rows, n)
    if any(rows[r][n] for r in range(len(pivots), n)):
        return None
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n]
    return tuple(x)


def _ref_fixed_form_indices(space, g, action):
    c = form_translation(space, g, action)
    gm1 = space.sub(g, space.identity)
    x0 = _ref_solve(space, gm1, c)
    if x0 is None:
        return []
    c0 = vec_code(space, x0)
    kernel = subspace_vectors(space, kernel_basis(space, gm1))
    return sorted(code_add(space, c0, kc) for kc in kernel)


def _basis_index(cls):
    return {b: i for i, b in enumerate(cls.bases)}


def _ref_fixed_point_indices(space, g, action, tau=False):
    cache = {}
    spec = action.spec
    if spec.kind == "quadratic_forms":
        return _ref_fixed_form_indices(space, g, action)
    n, k = space.n, spec.k
    if not tau:
        if spec.kind == "subspace":
            fixed = class_fixed(space, g, action._class(k), cache)
            return [p for p, i in enumerate(action.points) if fixed[i]]
        if spec.kind == "antiflag" and 2 * k == n:
            cls = action._class(k)
            imgs = class_images(space, g, cls, cache, tau=False)
            idx = _basis_index(cls)
            out = []
            for p, (i, j) in enumerate(action.points):
                ii, jj = idx[imgs[i]], idx[imgs[j]]
                if (ii == i and jj == j) or (ii == j and jj == i):
                    out.append(p)
            return out
        fsmall = class_fixed(space, g, action._class(k), cache)
        fbig = class_fixed(space, g, action._class(n - k), cache)
        return [p for p, (i, j) in enumerate(action.points) if fsmall[i] and fbig[j]]
    if spec.kind == "subspace":
        cls = action._class(k)
        imgs = class_images(space, g, cls, cache, tau=True)
        idx = _basis_index(cls)
        return [p for p, i in enumerate(action.points) if idx[imgs[i]] == i]
    if spec.kind == "antiflag" and 2 * k == n:
        cls = action._class(k)
        imgs = class_images(space, g, cls, cache, tau=True)
        idx = _basis_index(cls)
        return [p for p, (i, j) in enumerate(action.points)
                if {idx[imgs[i]], idx[imgs[j]]} == {i, j}]
    small, big = action._class(k), action._class(n - k)
    img_to_small = class_images(space, g, big, cache, tau=True)
    img_to_big = class_images(space, g, small, cache, tau=True)
    sidx, bidx = _basis_index(small), _basis_index(big)
    return [p for p, (i, j) in enumerate(action.points)
            if sidx[img_to_small[j]] == i and bidx[img_to_big[i]] == j]


def _subspace_type_actions(tb):
    """Every subspace, flag and antiflag action with k <= n/2, each with the
    sides it is checked on: plain, and tau where tau acts."""
    n = tb.n
    out = []
    for k in range(1, n // 2 + 1):
        kinds = ["subspace", "antiflag"] + (["flag"] if k < n - k else [])
        for kind in kinds:
            act = enumerate_action(tb, ActionSpec(kind, k))
            sides = (False, True) if _tau_acts(act.spec, n) else (False,)
            out.append((act, sides))
    return out


@pytest.mark.parametrize("group,sample", [(("GL", 3, 2), None), (("GL", 2, 3), None),
                                          (("GL", 4, 2), 500), (("GL", 3, 3), 300),
                                          (("GL", 2, 4), None), (("GL", 2, 8), 300),
                                          (("GL", 2, 9), 300)])
def test_fixed_point_indices_match_per_case_branches(group, sample):
    tb = build_group(*group)
    indices = range(len(tb))
    if sample is not None:
        indices = random.Random(17).sample(indices, sample)
    sp = tb.space
    for act, sides in _subspace_type_actions(tb):
        for i in indices:
            g = tb.elements[i]
            for tau in sides:
                want = _ref_fixed_point_indices(sp, g, act, tau=tau)
                assert fixed_point_indices(sp, g, act, tau=tau) == want


@pytest.mark.parametrize("group,sample", [(("O+", 4, 2), None), (("O+", 6, 2), 400)])
@pytest.mark.parametrize("restrict", ["nonsingular", "totally_singular"])
def test_fixed_point_indices_match_on_restricted_orthogonal_points(group, sample, restrict):
    tb = build_group(*group)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict=restrict))
    assert act.points
    indices = range(len(tb))
    if sample is not None:
        indices = random.Random(29).sample(indices, sample)
    for i in indices:
        g = tb.elements[i]
        assert fixed_point_indices(tb.space, g, act) == \
            _ref_fixed_point_indices(tb.space, g, act)


@pytest.mark.parametrize("n,q", [(2, 3), (3, 2), (4, 2), (4, 3), (5, 2)])
def test_perp_map_is_an_involution_matching_perp_basis_dot(n, q):
    sp = MatSpace(n, q)
    act = enumerate_action(sp, ActionSpec("subspace", 1))
    for k in range(1, n):
        small, big = act._class(k), act._class(n - k)
        perp, back = act._perp(k), act._perp(n - k)
        assert sorted(perp) == list(range(len(big)))
        assert [back[j] for j in perp] == list(range(len(small)))
        for basis, j in zip(small.bases, perp):
            assert big.bases[j] == perp_basis_dot(sp, basis)


def test_restricted_middle_antiflags_are_an_orbit_union():
    # both halves of every pair are totally singular, so Sp4(2) permutes them
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("antiflag", 2, restrict="totally_singular"))
    assert act.points
    for g in tb.gens:
        perm = point_permutation(tb.space, g, act)
        assert sorted(perm) == list(range(len(act.points)))
    for g in tb.elements:
        assert fixed_point_indices(tb.space, g, act) == \
            _ref_fixed_point_indices(tb.space, g, act)


def test_fixed_quadratic_forms_match_solver():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    for g in tb.elements:
        want = _ref_fixed_form_indices(tb.space, g, act)
        assert fixed_point_indices(tb.space, g, act) == want


# ---------------------------------------------------------------------------
# Fixed sets: whole batches of elements against the per-case branches, one
# element at a time.

def _ref_fixed_sets(tb, indices, act):
    return [frozenset(_ref_fixed_point_indices(tb.space, tb.elements[i], act))
            for i in indices]


@pytest.mark.parametrize("group,sample", [(("GL", 3, 2), None), (("GL", 2, 3), None),
                                          (("GL", 4, 2), 500), (("GL", 3, 3), 300),
                                          (("GL", 2, 4), None), (("GL", 2, 9), 300)])
def test_fixed_sets_match_per_case_branches(group, sample):
    tb = build_group(*group)
    indices = range(len(tb))
    if sample is not None:
        indices = random.Random(23).sample(indices, sample)
    for act, _sides in _subspace_type_actions(tb):
        assert fixed_sets(tb, indices, act) == _ref_fixed_sets(tb, indices, act)


@pytest.mark.parametrize("group,sample", [(("O+", 4, 2), None), (("O+", 6, 2), 400)])
@pytest.mark.parametrize("restrict", ["nonsingular", "totally_singular"])
def test_fixed_sets_match_on_restricted_orthogonal_points(group, sample, restrict):
    tb = build_group(*group)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict=restrict))
    indices = range(len(tb))
    if sample is not None:
        indices = random.Random(31).sample(indices, sample)
    assert fixed_sets(tb, indices, act) == _ref_fixed_sets(tb, indices, act)


@pytest.mark.parametrize("spec", [ActionSpec("antiflag", 2, restrict="totally_singular"),
                                  ActionSpec("quadratic_forms")])
def test_fixed_sets_match_on_symplectic_points(spec):
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, spec)
    indices = range(len(tb))
    assert fixed_sets(tb, indices, act) == _ref_fixed_sets(tb, indices, act)


@pytest.mark.parametrize("extra", [-1, 0, 1, None])
@pytest.mark.parametrize("spec", [ActionSpec("subspace", 2), ActionSpec("antiflag", 1)])
def test_fixed_sets_stream_across_chunk_edges(extra, spec):
    tb = build_group("GL", 4, 2)
    length = 0 if extra is None else matgroup._PRODUCT_CHUNK + extra
    indices = random.Random(length).sample(range(len(tb)), length)
    act = enumerate_action(tb, spec)
    want = _ref_fixed_sets(tb, indices, act)
    assert fixed_sets(tb, indices, act) == want
    assert fixed_sets(tb, (i for i in indices), act) == want


# ---------------------------------------------------------------------------
# Fixed points of every action kind against one index list per element
# (``oracles.fixed_rows_lists``), and the statistics read off them against
# digests of their reports taken before the batched masks and the
# expectation fold.

def _every_action_kind():
    """(group, spec, sample) for every action kind: the points, flags and
    antiflags of GL3(2), the 2-spaces and middle antiflags of GL4(2), the
    restricted points of O+4(2), and the symplectic antiflags and
    quadratic-form points of Sp4(2)."""
    return [
        *((("GL", 3, 2), ActionSpec(kind, 1), None) for kind in ("subspace", "flag", "antiflag")),
        (("GL", 4, 2), ActionSpec("subspace", 2), 300),
        (("GL", 4, 2), ActionSpec("antiflag", 2), 300),
        (("O+", 4, 2), ActionSpec("subspace", 1, restrict="nonsingular"), None),
        (("O+", 4, 2), ActionSpec("subspace", 1, restrict="totally_singular"), None),
        (("Sp", 4, 2), ActionSpec("antiflag", 2, restrict="totally_singular"), None),
        (("Sp", 4, 2), ActionSpec("quadratic_forms"), None),
    ]


@pytest.mark.parametrize("cells", [None, 1 << 8])
@pytest.mark.parametrize("group,spec,sample", _every_action_kind(), ids=str)
def test_fixed_points_match_index_lists_on_every_action_kind(group, spec, sample, cells,
                                                             monkeypatch):
    # 1 << 8 cells cut every batch into slices of a few matrices, so that
    # most slices end inside the element list and the last one is short
    if cells is not None:
        monkeypatch.setattr(matgroup, "_FIXED_CELLS", cells)
    tb = build_group(*group)
    act = enumerate_action(tb, spec)
    indices = list(range(len(tb)))
    if sample is not None:
        indices = random.Random(sample).sample(indices, sample)
    rows = tb.rows[indices]
    want = list(fixed_rows_lists(tb.space, rows, act))
    assert fixed_sets(tb, indices, act) == [frozenset(f) for f in want]
    sides = (False, True) if tb.family == "GL" and _tau_acts(spec, tb.n) else (False,)
    for tau in sides:
        want = list(fixed_rows_lists(tb.space, rows, act, tau=tau))
        masks = np.concatenate(list(matgroup._fixed_rows(tb.space, rows, act, tau=tau)))
        assert masks.shape == (len(indices), len(act)) and masks.dtype == bool
        assert [np.flatnonzero(row).tolist() for row in masks] == want
        got = [fixed_point_indices(tb.space, tb.elements[i], act, tau=tau) for i in indices]
        assert got == want


def test_quadratic_form_points_do_not_take_tau():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    for run in (lambda: fixed_point_indices(tb.space, tb.elements[1], act, tau=True),
                lambda: point_permutation(tb.space, tb.elements[1], act, tau=True)):
        with pytest.raises(ValueError, match="^tau does not act on quadratic-form points$"):
            run()


def _sp_words(n, count, seed):
    """count seeded products of 1 to 12 symplectic transvections of Sp_n(2)."""
    sp = MatSpace(n, 2)
    transvections = list(matgroup._sp_candidates(sp, standard_form("Sp", n, 2)))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        g = sp.identity
        for _ in range(rng.randint(1, 12)):
            g = sp.mul(g, rng.choice(transvections))
        out.append(g)
    return out


@pytest.mark.parametrize("n", [4, 6])
def test_quadratic_form_points_match_scalar_permutation(n):
    # every element of Sp4(2), and 300 seeded elements of Sp6(2)
    space, form = MatSpace(n, 2), standard_form("Sp", n, 2)
    act = ActionTable(space, form, ActionSpec("quadratic_forms"))
    elements = build_group("Sp", 4, 2).elements if n == 4 else _sp_words(n, 300, 67)
    for g in elements:
        perm = quadratic_form_permutation(space, g, act)
        assert point_permutation(space, g, act) == perm
        assert fixed_point_indices(space, g, act) == [p for p, i in enumerate(perm) if i == p]


def _report_digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# sha256 of repr of each list of reports, as the fixed points read as index
# lists computed them
FPR_REPORT_DIGESTS = {
    ("GL", 3, 2, None): "e96fca45cca7c1e201e60859e4f0191fae504e1dae0e638ac87d5370fe507c53",
    ("GL", 2, 3, None): "22a4bca8ca62706fc86072ac3214977d267fd4017547b8d50bff0a22681e5250",
    ("SL", 2, 3, True): "b3aeb410fe55d229aa9058c37018f013310ef9f00d0109263e585072ef556094",
    ("GL", 4, 2, None): "f6e3a9d0d5fd96ce6aaf11e7eb33e2dfaacb6cba5a611f8ae4b2439de5ba8907",
}
COSET_AVERAGE_DIGEST = "6471ec1237feb223d1478bcb4c0e8a788f05c09fc02b8b2a78687565b70b96fa"
SUBSET_EXPECTATION_DIGEST = (
    "307ef69165a91849f5dba2a82f31418d6a1c91e53d4d1c22175c9f02ce54ef4b")


@pytest.mark.parametrize("key", FPR_REPORT_DIGESTS, ids=str)
def test_fpr_reports_match_digests(key):
    fam, n, q, include_tau = key
    reports = fpr_bound_check(build_group(fam, n, q), include_tau=include_tau)
    assert _report_digest(reports) == FPR_REPORT_DIGESTS[key]


def test_coset_averages_match_digest():
    reports = [coset_average_fixed_points(build_group(fam, n, q), spec, coset=coset)
               for fam, n, q, coset, spec in COSET_AVERAGE_CASES]
    assert _report_digest(reports) == COSET_AVERAGE_DIGEST


def _expectation_cases():
    """(table, members, action) for the subset expectations and the
    expectation records: plain and tau sides, transitive and intransitive
    actions, and quadratic-form points."""
    gl3, gl23, sp4, om4 = (build_group(*g) for g in
                           (("GL", 3, 2), ("GL", 2, 3), ("Sp", 4, 2), ("O-", 4, 2)))
    return [
        (gl3, membership_sets(gl3, 1), ActionSpec("subspace", 1)),
        (gl3, list(range(168)), ActionSpec("flag", 1)),
        (gl23, membership_sets(gl23, 1), ActionSpec("subspace", 1)),
        (sp4, membership_sets(sp4, 2), ActionSpec("quadratic_forms")),
        (sp4, membership_sets(sp4, 1), ActionSpec("subspace", 1)),
        (om4, membership_sets(om4, 1, "O"), ActionSpec("subspace", 1)),
    ]


def test_subset_expectations_match_digest():
    reports = [subset_expectation(tb, members, spec)
               for tb, members, spec in _expectation_cases()]
    assert _report_digest(reports) == SUBSET_EXPECTATION_DIGEST


def test_expectation_inequality_matches_set_loop():
    for tb, members, spec in _expectation_cases():
        act = enumerate_action(tb, spec)
        sides = (False, True) if tb.family == "GL" and _tau_acts(spec, tb.n) else (False,)
        mf = fixed_sets(tb, members, act)
        xs = sorted({c[0] for c in tb.conjugacy_classes()} | {len(tb) - 1})
        for x in xs:
            for tau in sides:
                want = expectation_by_sets(tb, x, members, act, x_tau=tau)
                got = expectation_inequality(tb, x, members, act, x_tau=tau)
                assert got == want
                assert expectation_inequality(tb, x, members, act, x_tau=tau,
                                              member_fixed=mf) == want
                # plain Python values, as a JSON report needs them
                assert type(got["ok"]) is bool
                assert all(type(got[key].numerator) is int for key in got if key != "ok")


# ---------------------------------------------------------------------------
# Closed forms against the searches they replaced.

@pytest.mark.parametrize("key", full_scan_cases(), ids="{0[0]}{0[1]}q{0[2]}".format)
def test_completion_matches_the_full_scan(key):
    # every ambient table whose completion could reach a scan of all q^(n^2)
    # matrices, against a build that falls back to that scan
    elements, labels, gens, _ = tuple_table(*key)
    tb = build_group(*key)
    assert list(tb.elements) == list(elements)
    assert tb.labels == labels
    assert tb.gens == gens


@pytest.mark.parametrize("n", [2, 4, 6])
def test_quadratic_form_types_match_singular_counts(n):
    space, form = MatSpace(n, 2), standard_form("Sp", n, 2)
    act = ActionTable(space, form, ActionSpec("quadratic_forms"))
    assert act.points == quadratic_form_points(space, form)


@pytest.mark.parametrize("m", range(1, 8))
def test_weyl_exact_matches_enumeration(m):
    rep = weyl_negative_cycle_statistic(m)
    assert (rep.value, rep.method) == (weyl_enumerated(m), "exact")


# ---------------------------------------------------------------------------
# Linear algebra: the runtime rank, det, inverse, vector images, spans, perps
# and subspace types against one scalar elimination per matrix and images,
# spans and perps built digit by digit.

def _matrices(space, rng, count):
    """count seeded flat matrices over the space's field: every other one
    uniform, the rest with rows n - r spanned by r random rows, for each
    r < n in turn, so of rank at most r and singular."""
    n, q, F = space.n, space.q, space.F
    out = []
    for i in range(count):
        r = n if i % 2 else i // 2 % n
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        for row in rows[r:]:
            coeffs = [rng.randrange(q) for _ in range(r)]
            for col in range(n):
                acc = 0
                for j, c in enumerate(coeffs):
                    acc = F.add(acc, F.mul(c, rows[j][col]))
                row[col] = acc
        rng.shuffle(rows)
        out.append(space.from_rows(rows))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rank_det_inv_match_scalar_elimination(n, q):
    sp = MatSpace(n, q)
    singular = 0
    for a in _matrices(sp, random.Random(100 * n + q), 20):
        assert sp.rank(a) == scalar_rank(sp, a)
        det = scalar_det(sp, a)
        assert sp.det(a) == det
        if det:
            assert sp.inv(a) == scalar_inv(sp, a)
        else:
            singular += 1
            with pytest.raises(ZeroDivisionError):
                sp.inv(a)
    assert singular >= 10


FORM_SPACES = [("Sp", 4, 2), ("Sp", 4, 3), ("Sp", 6, 2), ("GU", 3, 2), ("O+", 4, 2),
               ("O-", 4, 3), ("O", 5, 3)]


@pytest.mark.parametrize("key", FORM_SPACES, ids="{0[0]}{0[1]}q{0[2]}".format)
def test_subspace_types_match_scalar_gram_ranks(key):
    # every restricted subspace action with k <= n/2 keeps exactly the
    # subspaces that one scalar rank of their Gram matrix types that way,
    # and the runtime rank of each distinct Gram matrix is the scalar one
    form = standard_form(*key)
    sp = MatSpace(key[1], form.q)
    for k in range(1, sp.n // 2 + 1):
        bases = all_subspaces(sp, k)
        types = [subspace_type(sp, form, b) for b in bases]
        for restrict in ("totally_singular", "nonsingular", "nondegenerate", "degenerate"):
            want = [i for i, t in enumerate(types) if t == restrict]
            spec = ActionSpec("subspace", k, restrict)
            if want:
                assert ActionTable(sp, form, spec).points == want, restrict
            else:
                with pytest.raises(ValueError, match="no points"):
                    ActionTable(sp, form, spec)
        gspace = MatSpace(k, sp.q)
        grams = {tuple(form.bilinear(sp, u, v) for u in b for v in b) for b in bases}
        for gram in grams:
            assert gspace.rank(gram) == scalar_rank(gspace, gram)


@pytest.mark.parametrize("n,q", [(n, q) for n in (2, 3, 4) for q in (2, 3, 4)] + [(6, 2)])
def test_vector_sets_and_perps_match_scalar_routes(n, q):
    sp = MatSpace(n, q)
    act = enumerate_action(sp, ActionSpec("subspace", 1))
    for k in range(1, n):
        cls, big = act._class(k), act._class(n - k)
        assert [frozenset(row) for row in cls.codes.tolist()] == \
            [subspace_vectors(sp, b) for b in cls.bases]
        where = {b: j for j, b in enumerate(big.bases)}
        assert act._perp(k) == [where[perp_basis_dot(sp, b)] for b in cls.bases]


@pytest.mark.parametrize("n,q", [(5, 2), (4, 3), (3, 4), (3, 9)])
@pytest.mark.parametrize("k", [1, 2])
def test_incidence_points_match_scalar_pairs(n, q, k):
    # flags and antiflags, middle ones included, are the pairs that one
    # scalar test per pair of subspaces finds, in the same order
    sp = MatSpace(n, q)
    form = FormSpec("none", n, q)
    for kind in ("flag", "antiflag") if 2 * k <= n else ("antiflag",):
        want = incidence_points(sp, form, kind, k)
        assert enumerate_action(sp, ActionSpec(kind, k)).points == want, kind


@pytest.mark.parametrize("key", [("Sp", 4, 3), ("O+", 6, 2), ("GU", 3, 2), ("O", 5, 3)],
                         ids="{0[0]}{0[1]}q{0[2]}".format)
def test_restricted_incidence_points_match_scalar_pairs(key):
    form = standard_form(*key)
    sp = MatSpace(key[1], form.q)
    for k in (1, 2):
        for kind in ("flag", "antiflag") if 2 * k <= sp.n else ("antiflag",):
            for restrict in matgroup._RESTRICTIONS[1:]:
                want = incidence_points(sp, form, kind, k, restrict)
                spec = ActionSpec(kind, k, restrict)
                if want:
                    assert ActionTable(sp, form, spec).points == want, spec
                else:
                    with pytest.raises(ValueError, match="no points"):
                        ActionTable(sp, form, spec)


@pytest.mark.parametrize("key", list(TABLE_DIGESTS), ids=lambda k: "%s%d(%d)" % k)
def test_vector_images_match_on_table_generators(key):
    tb = build_group(*key)
    for g in tb.gens:
        assert np.asarray(tb.space.all_vector_images(g)).tolist() == \
            vector_images(tb.space, g)


def _sp2_representatives(n):
    """Elements of Sp_n(2), one per conjugacy class for n = 4.  For n = 6,
    where the table takes seconds to build and its 30 classes longer, one
    element per (characteristic polynomial, rank of g - 1) among 400 seeded
    products of 1 to 12 symplectic transvections."""
    if n == 4:
        tb = build_group("Sp", 4, 2)
        return [tb.elements[c[0]] for c in tb.conjugacy_classes()]
    sp = MatSpace(n, 2)
    transvections = list(matgroup._sp_candidates(sp, standard_form("Sp", n, 2)))
    rng = random.Random(61)
    reps = {}
    for _ in range(400):
        g = sp.identity
        for _ in range(rng.randint(1, 12)):
            g = sp.mul(g, rng.choice(transvections))
        key = (charpoly_hessenberg(sp, g), scalar_rank(sp, sp.sub(g, sp.identity)))
        reps.setdefault(key, g)
    return list(reps.values())


@pytest.mark.parametrize("n", [4, 6])
def test_quadratic_form_permutation_matches_per_point_loop(n):
    space, form = MatSpace(n, 2), standard_form("Sp", n, 2)
    act = ActionTable(space, form, ActionSpec("quadratic_forms"))
    reps = _sp2_representatives(n)
    assert len(reps) == {4: 11, 6: 17}[n]
    for g in reps:
        assert point_permutation(space, g, act) == quadratic_form_permutation(space, g, act)
