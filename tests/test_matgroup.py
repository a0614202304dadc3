"""Tests for matrix spaces, group enumeration, actions, and element subsets."""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from classprop import gf, matgroup
from classprop.gf import Field, has_small_degree_factor
from classprop.matgroup import (
    ActionSpec,
    DEFAULT_GROUP_CAP,
    MatSpace,
    ResourceCapExceeded,
    all_subspaces,
    bfs_closure,
    build_group,
    enumerate_action,
    fixed_point_indices,
    gaussian_binomial,
    group_order,
    member_test,
    membership_sets,
    point_permutation,
    preserves_form,
    singular_vector_count,
    standard_form,
    tau_membership,
)
from classprop.stats import (
    coset_average_fixed_points,
    expectation_inequality,
    fixed_sets,
    proportion,
    psl2,
)
from oracles import (
    charpoly_minors,
    fixed_points_by_type,
    fixes_some_small_subspace,
    full_scan_cases,
    is_irreducible,
    kernel_basis,
    perp_basis_dot,
    perp_basis_form,
    random_coset_gl,
    random_gl,
    rref_basis,
    subspace_vectors,
    tau_sieve_free,
    vec_code,
)
from test_differential import _sp_words


# ---------------------------------------------------------------------------
# Matrix arithmetic.

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_mul_inv_roundtrip(q):
    rng = random.Random(20 + q)
    sp = MatSpace(3, q)
    for _ in range(25):
        g = random_gl(3, q, rng)
        assert sp.mul(g, sp.inv(g)) == sp.identity
        assert sp.mul(sp.inv(g), g) == sp.identity


@pytest.mark.parametrize("q", [2, 3, 5])
def test_det_multiplicative(q):
    rng = random.Random(33)
    sp = MatSpace(3, q)
    F = sp.F
    for _ in range(30):
        a = tuple(rng.randrange(q) for _ in range(9))
        b = tuple(rng.randrange(q) for _ in range(9))
        assert sp.det(sp.mul(a, b)) == F.mul(sp.det(a), sp.det(b))


def test_rank_and_kernel():
    sp = MatSpace(3, 2)
    g = sp.from_rows([[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert sp.rank(g) == 2
    ker = kernel_basis(sp, g)
    assert len(ker) == 1
    for v in ker:
        assert sp.mat_vec(g, v) == (0, 0, 0)


def test_singular_inverse_raises():
    sp = MatSpace(2, 3)
    with pytest.raises(ZeroDivisionError):
        sp.inv(sp.from_rows([[1, 2], [2, 1]]))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_charpoly_matches_minor_expansion(q, n):
    rng = random.Random(100 * q + n)
    sp = MatSpace(n, q)
    mats = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(30)]
    got = sp.charpolys(sp._encode(mats)).tolist()
    assert got == [list(charpoly_minors(sp, g)) for g in mats]


def test_charpoly_identity_and_companion():
    sp = MatSpace(4, 3)
    F = sp.F
    # (z - 1)^4 = z^4 - 4z^3 + 6z^2 - 4z + 1, reduced mod 3
    assert sp.charpolys(sp._encode([sp.identity])).tolist() == [[1, 2, 0, 2, 1]]
    f = (2, 1, 0, 2, 1)
    comp = [[0] * 4 for _ in range(4)]
    for i in range(3):
        comp[i + 1][i] = 1
    for i in range(4):
        comp[i][3] = F.neg(f[i])
    assert sp.charpolys(sp._encode([sp.from_rows(comp)])).tolist() == [list(f)]


def test_all_vector_images_agrees_with_mat_vec():
    rng = random.Random(4)
    for q in (2, 3, 4):
        sp = MatSpace(3, q)
        g = random_gl(3, q, rng)
        lut = sp.all_vector_images(g)
        for code in range(q**3):
            v = sp.code_vec(code)
            assert lut[code] == vec_code(sp, sp.mat_vec(g, v))


# ---------------------------------------------------------------------------
# Forms.

def test_standard_form_singular_counts():
    # nonzero singular vectors: (q^(m-1)+1)(q^m-1) for plus, mirrored for minus
    for q in (2, 3):
        for n in (2, 4):
            m = n // 2
            sp = MatSpace(n, q)
            fp = standard_form("O+", n, q)
            fm = standard_form("O-", n, q)
            assert singular_vector_count(sp, fp) == (q ** (m - 1) + 1) * (q**m - 1)
            assert singular_vector_count(sp, fm) == (q ** (m - 1) - 1) * (q**m + 1)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
def test_char2_irreducible_const_matches_irreducibility_test(q):
    F = Field(q)
    want = next(d for d in range(1, q) if is_irreducible(F, (d, 1, 1)))
    assert matgroup._char2_irreducible_const(F) == want


@pytest.mark.parametrize("family,n,q", [("O-", 4, 2), ("O", 3, 3), ("O+", 4, 3)])
def test_reflection_is_the_transvection_at_minus_inverse_q(family, n, q):
    # x -> x + c B(x, v) v with c = -1/Q(v) preserves the form, negates v and
    # fixes the perp of v pointwise: the reflection in v
    sp, form = MatSpace(n, q), standard_form(family, n, q)
    F = sp.F
    for code in range(1, q**n):
        v = sp.code_vec(code)
        qv = form.quad_value(sp, v)
        if qv == 0:
            continue
        r = matgroup._transvection(sp, form, v, F.neg_t[F.inv_t[qv]])
        assert preserves_form(sp, form, r)
        assert sp.mat_vec(r, v) == tuple(F.neg_t[x] for x in v)
        for w in perp_basis_form(sp, form, (v,)):
            assert sp.mat_vec(r, w) == w


def test_symplectic_form_alternating():
    form = standard_form("Sp", 4, 3)
    sp = MatSpace(4, 3)
    for code in range(3**4):
        v = sp.code_vec(code)
        assert form.bilinear(sp, v, v) == 0


def test_unitary_form_hermitian():
    form = standard_form("GU", 2, 2)
    sp = MatSpace(2, 4)
    F = sp.F
    rng = random.Random(9)
    for _ in range(40):
        u = tuple(rng.randrange(4) for _ in range(2))
        v = tuple(rng.randrange(4) for _ in range(2))
        assert form.bilinear(sp, u, v) == F.pow(form.bilinear(sp, v, u), 2)


def test_form_family_validation():
    with pytest.raises(ValueError):
        standard_form("Sp", 3, 2)
    with pytest.raises(ValueError):
        standard_form("O+", 5, 2)
    with pytest.raises(ValueError):
        standard_form("O", 4, 3)
    with pytest.raises(ValueError):
        standard_form("O", 5, 2)  # odd dimension needs odd q here
    with pytest.raises(ValueError):
        standard_form("Oops", 4, 2)


# ---------------------------------------------------------------------------
# Group construction.

ORDER_CASES = [
    ("GL", 2, 2, 6),
    ("GL", 3, 2, 168),
    ("GL", 2, 3, 48),
    ("GL", 2, 4, 180),
    ("SL", 2, 3, 24),
    ("SL", 3, 2, 168),
    ("Sp", 2, 2, 6),
    ("Sp", 4, 2, 720),
    ("Sp", 2, 3, 24),
    ("GU", 2, 2, 18),
    ("GU", 3, 2, 648),
    ("SU", 2, 2, 6),
    ("SU", 3, 2, 216),
    ("O+", 2, 2, 2),
    ("O-", 2, 2, 6),
    ("O+", 4, 2, 72),
    ("O-", 4, 2, 120),
    ("O+", 4, 3, 1152),
    ("O-", 4, 3, 1440),
    ("O", 3, 3, 48),
    ("Omega+", 4, 2, 36),
    ("Omega-", 4, 2, 60),
    ("SO", 3, 3, 24),
    ("SO-", 4, 3, 720),
]


@pytest.mark.parametrize("family,n,q,want", ORDER_CASES)
def test_build_group_orders(family, n, q, want):
    tb = build_group(family, n, q)
    assert tb.order() == want
    assert group_order(family, n, q) == want
    assert len(set(tb.elements)) == want
    assert tb.index[tb.space.identity] == 0
    # the generators regenerate the table, SO and Omega subtables included
    assert set(tb.space._decode(bfs_closure(tb.space, tb.gens)[0])) == set(tb.elements)


@pytest.mark.parametrize("family,n,q", [("Sp", 4, 2), ("O-", 4, 2), ("GU", 2, 2), ("O", 3, 3)])
def test_all_elements_preserve_form(family, n, q):
    tb = build_group(family, n, q)
    assert all(preserves_form(tb.space, tb.form, g) for g in tb.elements)


def test_group_is_closed_spot_check():
    tb = build_group("Sp", 4, 2)
    rng = random.Random(5)
    for _ in range(100):
        a = rng.choice(tb.elements)
        b = rng.choice(tb.elements)
        assert tb.space.mul(a, b) in tb.index


def test_gl_labels_partition_evenly():
    tb = build_group("GL", 2, 5)
    assert tb.label_values() == [0, 1, 2, 3]
    for mu in range(4):
        assert len(tb.coset_indices(mu)) == tb.order() // 4


def test_gu_labels_partition_evenly():
    tb = build_group("GU", 2, 2)
    assert tb.label_values() == [0, 1, 2]
    for mu in range(3):
        assert len(tb.coset_indices(mu)) == 6


def test_orthogonal_label_split_is_half():
    for fam, n, q in [("O+", 4, 2), ("O-", 4, 2), ("O", 3, 3)]:
        tb = build_group(fam, n, q)
        assert len(tb.coset_indices(0)) == tb.order() // 2
        assert len(tb.coset_indices(1)) == tb.order() // 2


def test_dickson_label_marks_reflections():
    tb = build_group("O-", 4, 2)
    sp, form = tb.space, tb.form
    # a reflection has rank(g - 1) = 1, so its label is 1
    for g in tb.elements:
        r = sp.rank(sp.sub(g, sp.identity))
        if r == 1:
            assert tb.labels[tb.index[g]] == 1


def test_order_cap_enforced():
    with pytest.raises(ResourceCapExceeded):
        build_group("GL", 4, 3, cap=1000)
    # the documented default cap excludes GL_4(3)
    assert group_order("GL", 4, 3) > DEFAULT_GROUP_CAP


def test_family_validation():
    with pytest.raises(ValueError):
        build_group("XX", 2, 2)
    with pytest.raises(ValueError):
        build_group("SO+", 4, 2)  # even q wants Omega labels
    with pytest.raises(ValueError):
        build_group("Omega+", 4, 3)  # odd q wants SO labels


def test_only_three_tables_complete_from_the_flip_tail(monkeypatch):
    # over every table whose completion could once reach the full scan,
    # only the exceptions to generation by reflections and by unitary
    # transvections draw from the tail after the family pool
    monkeypatch.delenv("CLASSPROP_CACHE", raising=False)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    tail = matgroup._flip_tail
    drawn = []

    def counted(space, form):
        for g in tail(space, form):
            drawn.append(g)
            yield g

    monkeypatch.setattr(matgroup, "_flip_tail", counted)
    reached = set()
    for key in full_scan_cases():
        del drawn[:]
        build_group(*key)
        if drawn:
            reached.add(key)
    assert reached == {("O+", 4, 2), ("GU", 3, 2), ("SU", 3, 2)}


def test_cache_roundtrip(tmp_path, monkeypatch):
    # an ambient table and a label-0 subtable, built and then loaded from
    # disk through a fresh memo, agree field by field; the load writes nothing
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    keys = [("Sp", 2, 3), ("SO+", 4, 3)]
    built = [build_group(*key) for key in keys]
    files = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
    assert len(files) == 2, "one cache file per ambient table"
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    for key, t1 in zip(keys, built):
        t2 = build_group(*key)
        assert t2 is not t1
        for name in ("family", "n", "q", "elements", "labels", "gens", "index", "form"):
            assert getattr(t2, name) == getattr(t1, name), (key, name)
        assert t2.space is t1.space
    assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == files


def _cache_listing(root):
    return {p.name: p.stat().st_mtime_ns for p in root.iterdir()}


# one small table per family, ambient and label-0 halves both
COLD_WARM = [("GL", 2, 3), ("GL", 1, 2), ("SL", 2, 3), ("Sp", 2, 3), ("Sp", 4, 2),
             ("GU", 2, 2), ("SU", 3, 2), ("O+", 4, 2), ("O-", 4, 2), ("O", 3, 3),
             ("SO+", 4, 3), ("SO-", 4, 3), ("SO", 3, 3), ("Omega+", 4, 2),
             ("Omega-", 4, 2)]


@pytest.mark.parametrize("key", COLD_WARM, ids=lambda k: f"{k[0]}{k[1]}({k[2]})")
def test_cache_cold_and_warm_tables_agree(key, tmp_path, monkeypatch):
    # a table built into an empty cache and the same table loaded from it
    # through a fresh memo agree in rows, labels, generators, classes and
    # one membership count, and the load writes nothing
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    cold = build_group(*key)
    files = _cache_listing(tmp_path)
    assert len(files) == 1
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    warm = build_group(*key)
    assert warm is not cold
    assert np.array_equal(warm.rows, cold.rows)
    assert (warm.labels, warm.gens) == (cold.labels, cold.gens)
    assert warm.conjugacy_classes() == cold.conjugacy_classes()
    coset = "S" if key[0].startswith(("O", "SO")) else None
    assert membership_sets(warm, 1, coset) == membership_sets(cold, 1, coset)
    assert _cache_listing(tmp_path) == files


def test_cache_short_payload_is_rebuilt(tmp_path, monkeypatch):
    # the empty generator list is well formed, but its closure falls short
    # of the order formula: a miss, not a one-element GL2(2)
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    path = tmp_path / f"{matgroup._CACHE_LAYOUT}-GL2q2.json"
    path.write_text("[]")
    assert build_group("GL", 2, 2).order() == 6
    assert json.loads(path.read_text()) != []


def _set_entry(value):
    def damage(gens):
        gens[0][0] = value
        return json.dumps(gens)
    return damage


def _det_two(gens):
    return json.dumps([[2, 0, 0, 1]] + gens)


def _gu_torus(gens):
    # diag(a, 1, a^-q0) is unitary with determinant a^(1 - q0) = a^-1, so
    # it lies in GU3(2) but not in SU3(2)
    F = MatSpace(3, 4).F
    a = F.zeta
    g = [a, 0, 0, 0, 1, 0, 0, 0, F.inv(F.pow(a, 2))]
    return json.dumps(gens + [g])


# (table, rewrite of its stored generator list); each breaks one load check
DAMAGED_GENS = {
    "not JSON": (("GL", 2, 3), lambda gens: "garbage"),
    "not a list": (("GL", 2, 3), lambda gens: json.dumps({"gens": gens})),
    "one entry short": (("GL", 2, 3), lambda gens: json.dumps([gens[0][:-1]] + gens[1:])),
    "code q": (("GL", 2, 3), _set_entry(3)),
    "code -1": (("GL", 2, 3), _set_entry(-1)),
    "bool entry": (("GL", 2, 3), _set_entry(True)),
    "float entry": (("GL", 2, 3), _set_entry(0.0)),
    "GL4(2) in Sp4(2)": (("Sp", 4, 2), lambda gens: json.dumps(
        matgroup._gl_generators(MatSpace(4, 2)))),
    "det 2 in SL2(3)": (("SL", 2, 3), _det_two),
    "not admissible in SU3(2)": (("SU", 3, 2), _gu_torus),
    # the transvection and the torus element alone give the upper triangular
    # subgroup of GL2(3)
    "one generator dropped": (("GL", 2, 3), lambda gens: json.dumps(gens[1:])),
}


@pytest.mark.parametrize("damage", DAMAGED_GENS)
def test_cache_damaged_generators_are_rebuilt(damage, tmp_path, monkeypatch):
    # a file that is not a list of well-formed generators of the group, or
    # whose generators close to a proper subgroup, is a miss: the table is
    # rebuilt and the file rewritten, and the next load writes nothing
    key, rewrite = DAMAGED_GENS[damage]
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    want = build_group(*key)
    (path,) = tmp_path.iterdir()
    stored = path.read_text()
    path.write_text(rewrite(json.loads(stored)))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    got = build_group(*key)
    assert np.array_equal(got.rows, want.rows)
    assert (got.labels, got.gens) == (want.labels, want.gens)
    assert path.read_text() == stored
    files = _cache_listing(tmp_path)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    build_group(*key)
    assert _cache_listing(tmp_path) == files


def test_cache_reversed_generators_are_served(tmp_path, monkeypatch):
    # a hand-edited list that still generates is a hit: it may permute the
    # element indices, but not the element set, a label or a proportion
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    want = build_group("GL", 2, 3)
    (path,) = tmp_path.iterdir()
    path.write_text(json.dumps(json.loads(path.read_text())[::-1]))
    files = _cache_listing(tmp_path)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    got = build_group("GL", 2, 3)
    assert _cache_listing(tmp_path) == files
    assert got.gens == want.gens[::-1]

    def labelled(table):
        return sorted(zip(table.space._keys(table.rows).tolist(), table.labels))

    assert labelled(got) == labelled(want)
    for coset in (None, 0, 1, "tau"):
        assert proportion(got, 1, coset) == proportion(want, 1, coset)


def test_cache_crafted_pickle_runs_no_code(tmp_path, monkeypatch):
    # a pickle whose load calls open(marker, "w"), placed at the cache path,
    # is never loaded: the file is rebuilt and the marker never appears
    monkeypatch.setenv("CLASSPROP_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    marker = tmp_path / "marker"
    path = matgroup._cache_path("GL", 2, 2)
    with open(path, "wb") as fh:
        fh.write(b"cbuiltins\nopen\n(V" + str(marker).encode() + b"\nVw\ntR.")
    assert build_group("GL", 2, 2).order() == 6
    assert not marker.exists()


@pytest.mark.parametrize("tau", [False, True])
def test_relation_classes_decode_one_slice_at_a_time(tau, monkeypatch):
    # the class maps read matrix entries through the space's digit table;
    # with slices of 32 matrices, no lookup of GL3(2)'s 168 rows may decode
    # more than one slice, and the classes stay the table's
    tb = build_group("GL", 3, 2)
    sp = tb.space
    want = tb.conjugacy_classes(tau)
    decoded = []

    class Recorded(np.ndarray):
        def __getitem__(self, index):
            decoded.append(np.size(index))
            return np.asarray(super().__getitem__(index))

    monkeypatch.setattr(matgroup, "_PRODUCT_CHUNK", 32)
    monkeypatch.setitem(vars(sp), "_digits", sp._digits.view(Recorded))
    if tau:
        pairs = [(s, sp.transpose(s)) for s in tb.gens]
    else:
        pairs = [(sp.inv(s), s) for s in tb.gens]
    assert matgroup.relation_classes(sp, tb.rows, pairs) == want
    assert decoded and max(decoded) <= 32 * sp.n


# ---------------------------------------------------------------------------
# Subspaces and perps.

def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(6, 3, 2) == 1395
    assert gaussian_binomial(4, 5, 2) == 0


@pytest.mark.parametrize("n,k,q", [(4, 1, 2), (4, 2, 2), (3, 1, 3), (4, 2, 3)])
def test_all_subspaces_are_distinct_spans(n, k, q):
    sp = MatSpace(n, q)
    subs = all_subspaces(sp, k)
    assert len(subs) == gaussian_binomial(n, k, q)
    spans = {subspace_vectors(sp, b) for b in subs}
    assert len(spans) == len(subs)
    for b in subs:
        assert rref_basis(sp, b) == b


def test_perp_dot_involution_and_dimension():
    sp = MatSpace(4, 3)
    for b in all_subspaces(sp, 2)[:40]:
        p = perp_basis_dot(sp, b)
        assert len(p) == 2
        assert perp_basis_dot(sp, p) == b


def test_perp_form_complements_nondegenerate_space():
    tb = build_group("O-", 4, 3)
    sp, form = tb.space, tb.form
    act = enumerate_action(tb, ActionSpec("subspace", 2, restrict="nondegenerate"))
    cls = act._class(2)
    for i in act.points[:20]:
        w = cls.bases[i]
        p = perp_basis_form(sp, form, w)
        assert len(p) == 2
        both = rref_basis(sp, list(w) + list(p))
        assert len(both) == 4


# ---------------------------------------------------------------------------
# Actions.

def test_action_counts_gl42():
    sp = MatSpace(4, 2)
    cases = [
        (ActionSpec("subspace", 1), 15),
        (ActionSpec("subspace", 2), 35),
        (ActionSpec("flag", 1), 105),
        (ActionSpec("antiflag", 1), 120),
        (ActionSpec("antiflag", 2), 280),
    ]
    for spec, want in cases:
        assert len(enumerate_action(sp, spec)) == want


def test_action_counts_gl33():
    sp = MatSpace(3, 3)
    assert len(enumerate_action(sp, ActionSpec("subspace", 1))) == 13
    assert len(enumerate_action(sp, ActionSpec("flag", 1))) == 52
    assert len(enumerate_action(sp, ActionSpec("antiflag", 1))) == 117


def test_action_rejects_bad_k():
    sp = MatSpace(4, 2)
    with pytest.raises(ValueError):
        enumerate_action(sp, ActionSpec("subspace", 3))
    with pytest.raises(ValueError):
        enumerate_action(sp, ActionSpec("flag", 0))
    with pytest.raises(ValueError):
        enumerate_action(sp, ActionSpec("wedge", 1))


def test_action_rejects_unknown_restrict():
    tb = build_group("Sp", 4, 2)
    with pytest.raises(ValueError, match="unknown restrict 'totaly_singular'"):
        coset_average_fixed_points(tb, ActionSpec("subspace", 1, restrict="totaly_singular"))


def test_quadratic_forms_reject_restrict():
    tb = build_group("Sp", 4, 2)
    for restrict in ("bogus", "nonsingular"):
        with pytest.raises(ValueError):
            enumerate_action(tb, ActionSpec("quadratic_forms", restrict=restrict))


def test_action_without_points_raises():
    sp4 = build_group("Sp", 4, 2)
    with pytest.raises(ValueError, match="has no points"):
        expectation_inequality(sp4, 0, [0], ActionSpec("subspace", 1, restrict="nonsingular"))
    # a space with no form has no totally singular subspaces
    with pytest.raises(ValueError, match="has no points"):
        enumerate_action(build_group("GL", 3, 2), ActionSpec("subspace", 1, restrict="totally_singular"))


def test_restricted_point_counts():
    # singular 1-spaces match the singular vector counts at q = 2
    for fam, n, q, want in [("O+", 4, 2, 9), ("O-", 4, 2, 5), ("O+", 6, 2, 35)]:
        tb = build_group(fam, n, q)
        act = enumerate_action(tb, ActionSpec("subspace", 1, restrict="totally_singular"))
        assert len(act) == want
        assert singular_vector_count(tb.space, tb.form) == want
    # every 1-space is isotropic for a symplectic form
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict="totally_singular"))
    assert len(act) == 15
    # hermitian unital: q0 + 1 isotropic points for n = 2
    tb = build_group("GU", 2, 2)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict="totally_singular"))
    assert len(act) == 3


def test_identity_fixes_every_point():
    sp = MatSpace(4, 2)
    for spec in [ActionSpec("subspace", 2), ActionSpec("flag", 1), ActionSpec("antiflag", 2)]:
        act = enumerate_action(sp, spec)
        assert len(fixed_point_indices(sp, sp.identity, act)) == len(act)


def test_transvection_fixed_one_spaces():
    sp = MatSpace(4, 2)
    t = sp.rows(sp.identity)
    t[0][1] = 1
    t = sp.from_rows(t)
    act = enumerate_action(sp, ActionSpec("subspace", 1))
    assert len(fixed_point_indices(sp, t, act)) == 7


@pytest.mark.parametrize(
    "spec",
    [
        ActionSpec("subspace", 1),
        ActionSpec("subspace", 2),
        ActionSpec("flag", 1),
        ActionSpec("antiflag", 1),
        ActionSpec("antiflag", 2),
    ],
)
def test_burnside_orbit_count_gl42(spec):
    # all five actions of GL_4(2) are transitive, so fp sums to |G|; a
    # fixed-point count is a class function, so sum it class by class
    tb = build_group("GL", 4, 2)
    act = enumerate_action(tb, spec)
    classes = tb.conjugacy_classes()
    assert sum(len(cls) for cls in classes) == tb.order()
    total = sum(len(cls) * len(fixed_point_indices(tb.space, tb.elements[cls[0]], act))
                for cls in classes)
    assert total == tb.order()


def test_burnside_singular_points_sp42():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict="totally_singular"))
    total = sum(len(fixed_point_indices(tb.space, g, act)) for g in tb.elements)
    assert total == tb.order()


@pytest.mark.parametrize("tau", [False, True])
def test_point_permutation_is_consistent(tau):
    tb = build_group("GL", 4, 2)
    rng = random.Random(5)
    specs = [
        ActionSpec("flag", 1),
        ActionSpec("antiflag", 1),
        ActionSpec("antiflag", 2),
        ActionSpec("subspace", 2),
    ]
    for spec in specs:
        act = enumerate_action(tb, spec)
        for _ in range(6):
            g = random_gl(4, 2, rng)
            perm = point_permutation(tb.space, g, act, tau=tau)
            assert sorted(perm) == list(range(len(act)))
            want = set(fixed_point_indices(tb.space, g, act, tau=tau))
            assert {p for p, ip in enumerate(perm) if ip == p} == want


def test_point_permutation_quadratic_forms():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    rng = random.Random(9)
    for _ in range(6):
        g = tb.elements[rng.randrange(len(tb.elements))]
        perm = point_permutation(tb.space, g, act)
        assert sorted(perm) == list(range(16))
        fixed = {p for p, ip in enumerate(perm) if ip == p}
        assert len(fixed) == len(fixed_point_indices(tb.space, g, act))
        # the type of a form is invariant under the action
        for p, ip in enumerate(perm):
            assert act.points[p][1] == act.points[ip][1]


def test_tau_sieve_free_scalar_cases():
    sp3 = MatSpace(3, 2)
    # identity: x = 1, charpoly (z-1)^3, so the odd-n unique-line test fails
    assert not tau_sieve_free(sp3, sp3.identity, 1)
    sp2 = MatSpace(2, 2)
    assert not tau_sieve_free(sp2, sp2.identity, 1)
    tb = build_group("GL", 3, 2)
    direct = [i for i, g in enumerate(tb.elements) if tau_sieve_free(tb.space, g, 1)]
    assert direct == tau_membership(tb, 1)


def test_fixed_points_oracle_small():
    # brute-force orbit check of the incidence-based scan
    rng = random.Random(77)
    sp = MatSpace(3, 2)
    act = enumerate_action(sp, ActionSpec("flag", 1))
    for _ in range(20):
        g = random_gl(3, 2, rng)
        want = 0
        for i, j in act.points:
            u = act._class(1).bases[i]
            w = act._class(2).bases[j]
            gu = rref_basis(sp, [sp.mat_vec(g, v) for v in u])
            gw = rref_basis(sp, [sp.mat_vec(g, v) for v in w])
            if gu == u and gw == w:
                want += 1
        assert len(fixed_point_indices(sp, g, act)) == want


def test_tau_action_matches_direct_perp_map():
    rng = random.Random(13)
    sp = MatSpace(4, 2)
    sub2 = enumerate_action(sp, ActionSpec("subspace", 2))
    flags = enumerate_action(sp, ActionSpec("flag", 1))
    cls2 = sub2._class(2)
    for _ in range(15):
        g = random_gl(4, 2, rng)
        want = 0
        for i in sub2.points:
            b = cls2.bases[i]
            img = rref_basis(sp, [sp.mat_vec(g, v) for v in perp_basis_dot(sp, b)])
            if img == b:
                want += 1
        assert len(fixed_point_indices(sp, g, sub2, tau=True)) == want
        want_flags = 0
        c1 = flags._class(1)
        c3 = flags._class(3)
        for i, j in flags.points:
            u, w = c1.bases[i], c3.bases[j]
            iu = rref_basis(sp, [sp.mat_vec(g, v) for v in perp_basis_dot(sp, w)])
            iw = rref_basis(sp, [sp.mat_vec(g, v) for v in perp_basis_dot(sp, u)])
            if iu == u and iw == w:
                want_flags += 1
        assert len(fixed_point_indices(sp, g, flags, tau=True)) == want_flags


def test_tau_requires_middle_dimension():
    sp = MatSpace(4, 2)
    act = enumerate_action(sp, ActionSpec("subspace", 1))
    with pytest.raises(ValueError):
        fixed_point_indices(sp, sp.identity, act, tau=True)


@pytest.mark.parametrize("n,q,spec", [
    (6, 9, ActionSpec("subspace", 3)),  # 441 826 660 subspaces
    (4, 9, ActionSpec("antiflag", 2)),  # 24 479 091 points
])
def test_oversized_actions_fail_fast(n, q, spec):
    # the closed-form sizes are checked against the cap before enumerating
    start = time.perf_counter()
    with pytest.raises(ResourceCapExceeded):
        enumerate_action(MatSpace(n, q), spec)
    assert time.perf_counter() - start < 1


def test_flags_and_antiflags_build_without_scalar_codes(monkeypatch):
    # incidence is read off a membership table, not vector by decoded vector
    calls = []
    real = MatSpace.code_vec
    monkeypatch.setattr(MatSpace, "code_vec", lambda self, c: calls.append(c) or real(self, c))
    sp = MatSpace(5, 2)
    for spec in [ActionSpec("flag", 1), ActionSpec("flag", 2)] + \
            [ActionSpec("antiflag", k) for k in range(1, 5)]:
        assert enumerate_action(sp, spec).points
    assert calls == []


def test_find_keys_the_class_once(monkeypatch):
    # building a class keys nothing (a class with no int64 key still
    # builds); the first find keys and sorts the class, and later ones
    # key only their queries
    calls = []
    real = matgroup._SubspaceClass._keys
    monkeypatch.setattr(matgroup._SubspaceClass, "_keys",
                        lambda self, codes: calls.append(codes is self.codes) or real(self, codes))
    cls = matgroup._SubspaceClass(MatSpace(4, 3), 2)
    assert calls == []
    want = np.arange(len(cls))[::-1]
    for _ in range(2):
        assert np.array_equal(cls.find(cls.codes[want, ::-1]), want)
    assert calls == [True, False, False]


@pytest.mark.parametrize("n,spec,tau", [
    (3, ActionSpec("subspace", 1), False),
    (4, ActionSpec("subspace", 2), True),
    (3, ActionSpec("flag", 1), False),
    (3, ActionSpec("flag", 1), True),
    (4, ActionSpec("antiflag", 2), False),
    (4, ActionSpec("antiflag", 1), True),
])
def test_point_permutation_rejects_singular_matrices(n, spec, tau):
    sp = MatSpace(n, 2)
    act = enumerate_action(sp, spec)
    singular = (1,) + (0,) * (n * n - 1)
    with pytest.raises(ValueError, match="subspace"):
        point_permutation(sp, singular, act, tau=tau)


def test_quadratic_form_permutation_rejects_singular_matrices():
    act = enumerate_action(build_group("Sp", 4, 2), ActionSpec("quadratic_forms"))
    with pytest.raises(ValueError, match="singular"):
        point_permutation(act.space, (1,) + (0,) * 15, act)


def test_point_permutation_rejects_elements_moving_points_off_the_action():
    # a transvection of GL4(2) that moves a singular point of O+4(2) to a
    # nonsingular one
    tb = build_group("O+", 4, 2)
    act = enumerate_action(tb, ActionSpec("subspace", 1, restrict="totally_singular"))
    g = (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1)
    assert g not in tb.index
    with pytest.raises(ValueError, match="does not permute"):
        point_permutation(tb.space, g, act)


# ---------------------------------------------------------------------------
# Quadratic-forms action over GF(2).

def test_forms_action_point_counts():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    assert len(act) == 16
    assert sum(1 for _, e in act.points if e == "+") == 10
    assert sum(1 for _, e in act.points if e == "-") == 6


def test_forms_action_stabilizers_are_orthogonal_groups():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    plus = next(i for i, (c, e) in enumerate(act.points) if e == "+")
    minus = next(i for i, (c, e) in enumerate(act.points) if e == "-")
    nplus = sum(
        1 for g in tb.elements if plus in fixed_point_indices(tb.space, g, act)
    )
    nminus = sum(
        1 for g in tb.elements if minus in fixed_point_indices(tb.space, g, act)
    )
    assert nplus == group_order("O+", 4, 2) == 72
    assert nminus == group_order("O-", 4, 2) == 120


def test_forms_action_burnside_two_orbits():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    total = sum(len(fixed_point_indices(tb.space, g, act)) for g in tb.elements)
    assert total == 2 * tb.order()


def test_eigenvalue_free_elements_fix_exactly_one_form():
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    A = membership_sets(tb, 2)
    assert len(A) == 144
    for i in A:
        by = fixed_points_by_type(tb.space, tb.elements[i], act)
        assert by["+"] + by["-"] == 1


def test_forms_action_needs_even_q_symplectic():
    tb = build_group("Sp", 2, 3)
    with pytest.raises(ValueError):
        enumerate_action(tb, ActionSpec("quadratic_forms"))


def test_forms_action_needs_the_standard_symplectic_form():
    # the points and their translations are read off Q_0 = x0 x1 + x2 x3,
    # which polarises to the standard form only
    sp = MatSpace(4, 2)
    gram = sp.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    form = matgroup.FormSpec("symplectic", 4, 2, gram=gram)
    with pytest.raises(ValueError, match="standard symplectic form"):
        matgroup.ActionTable(sp, form, ActionSpec("quadratic_forms"))


# ---------------------------------------------------------------------------
# Membership sets.

def test_membership_gl22_order_three_elements():
    tb = build_group("GL", 2, 2)
    m = membership_sets(tb, 1)
    assert len(m) == 2
    for i in m:
        g = tb.elements[i]
        assert tb.space.mul(g, tb.space.mul(g, g)) == tb.space.identity


def test_membership_t_at_least_n_is_empty():
    tb = build_group("GL", 3, 2)
    assert membership_sets(tb, 3) == []
    assert membership_sets(tb, 5) == []


FROZEN_MEMBERSHIP = [
    ("GL", 3, 2, 1, None, 48),       # proportion 2/7
    ("GL", 3, 2, 2, None, 48),       # cubics with no small factor are irreducible
    ("GL", 4, 2, 1, None, 5824),     # proportion 13/45
    ("GL", 4, 2, 2, None, 4032),     # proportion 1/5
    ("SL", 2, 3, 1, None, 6),        # proportion 1/4 of SL_2(3)
    ("Sp", 4, 2, 1, None, 304),      # proportion 19/45
    ("Sp", 4, 2, 2, None, 144),      # proportion 1/5
]


@pytest.mark.parametrize("family,n,q,t,coset,want", FROZEN_MEMBERSHIP)
def test_membership_frozen_counts(family, n, q, t, coset, want):
    tb = build_group(family, n, q)
    assert len(membership_sets(tb, t, coset=coset)) == want


def test_membership_det_cosets_gl23():
    tb = build_group("GL", 2, 3)
    per = [len(membership_sets(tb, 1, coset=mu)) for mu in range(2)]
    # hand count: 6 of 24 in the determinant-1 coset, 12 of 24 in the other
    assert per == [6, 12]
    assert sum(per) == len(membership_sets(tb, 1))


def test_membership_agrees_with_subspace_scan():
    tb = build_group("GL", 3, 3)
    picked = membership_sets(tb, 1)
    rng = random.Random(3)
    sample = rng.sample(range(tb.order()), 120)
    for i in sample:
        g = tb.elements[i]
        assert (i in set(picked)) == (not fixes_some_small_subspace(tb.space, g, 1))


def test_membership_validation():
    tb = build_group("GL", 2, 2)
    with pytest.raises(ValueError):
        membership_sets(tb, 0)
    with pytest.raises(ValueError):
        membership_sets(tb, 1, coset="S")
    orth = build_group("O+", 4, 2)
    with pytest.raises(ValueError):
        membership_sets(orth, 1, coset=None)
    with pytest.raises(ValueError):
        membership_sets(orth, 1, coset=0)
    # the tau coset and labels no element carries raise instead of an empty set
    with pytest.raises(ValueError, match="use tau_membership"):
        membership_sets(tb, 1, coset="tau")
    with pytest.raises(ValueError, match="^empty coset label 7$"):
        membership_sets(tb, 1, coset=7)


def test_member_test_validation():
    sp = MatSpace(4, 2)
    for family, t, coset, message in [
        ("GL", 0, None, "t must be at least 1, got 0"),
        ("SL", 1, "tau", "lives over GL"),
        ("Sp", 1, "S", "for orthogonal families"),
        ("O+", 1, None, "needs coset 'S' or 'O'"),
        ("Q", 1, None, "no membership sets"),
    ]:
        with pytest.raises(ValueError, match=message):
            member_test(family, sp, t, coset)
    with pytest.raises(ValueError, match="need odd q"):
        member_test("O", MatSpace(3, 2), 1, "S")


def test_coset_size():
    gl = build_group("GL", 2, 3)
    assert [gl.coset_size(c) for c in (None, "tau", 0, 1, 7)] == [48, 48, 24, 24, 0]
    orth = build_group("O+", 4, 2)
    assert orth.coset_size("S") == orth.coset_size("O") == 36


def test_unitary_membership_counts():
    # GU_3(2) has a cyclic order-9 torus acting irreducibly, but its ninth
    # roots of unity have nontrivial determinant, so the SU_3(2) set is empty
    gu = build_group("GU", 3, 2)
    m1 = membership_sets(gu, 1)
    assert 0 < len(m1) < gu.order()
    su = build_group("SU", 3, 2)
    assert membership_sets(su, 1) == []
    assert membership_sets(gu, 1, coset=0) == []


# frozen orthogonal S and O set proportions, denominators |L| = |O|/2
FROZEN_ORTH = [
    ("O+", 4, 2, 1, "S", Fraction(4, 9)),
    ("O-", 4, 2, 1, "S", Fraction(2, 5)),
    ("O+", 4, 2, 2, "S", Fraction(0)),
    ("O-", 4, 2, 2, "S", Fraction(2, 5)),
    ("O+", 4, 3, 1, "S", Fraction(7, 16)),
    ("O-", 4, 3, 1, "S", Fraction(2, 5)),
    ("O", 3, 3, 1, "S", Fraction(1, 4)),
    ("O", 3, 3, 1, "O", Fraction(1, 4)),
    ("O+", 4, 2, 1, "O", Fraction(1, 3)),
    ("O-", 4, 2, 1, "O", Fraction(1, 3)),
]


@pytest.mark.parametrize("family,n,q,t,which,want", FROZEN_ORTH)
def test_orthogonal_membership_frozen(family, n, q, t, which, want):
    tb = build_group(family, n, q)
    prop = Fraction(len(membership_sets(tb, t, coset=which)), tb.order() // 2)
    assert prop == want


def test_even_S_set_lies_in_label_zero():
    # the even-dimensional S set avoids eigenvalue 1 and -1, which forces
    # trivial Dickson invariant (q even) or determinant 1 (q odd)
    for fam, n, q in [("O+", 4, 2), ("O-", 4, 2), ("O-", 4, 3)]:
        tb = build_group(fam, n, q)
        for i in membership_sets(tb, 1, coset="S"):
            assert tb.labels[i] == 0


def test_odd_O_set_lies_outside_label_zero():
    tb = build_group("O", 3, 3)
    for i in membership_sets(tb, 1, coset="O"):
        assert tb.labels[i] == 1


def test_even_O_set_acts_as_reflection_on_complement():
    tb = build_group("O-", 4, 2)
    sp = tb.space
    for i in membership_sets(tb, 1, coset="O"):
        g = tb.elements[i]
        gm1 = sp.sub(g, sp.identity)
        assert len(kernel_basis(sp, gm1)) == 1
        # involution on ker (g-1)^2, identity nowhere else
        assert sp.rank(sp.mul(gm1, gm1)) == 2


# ---------------------------------------------------------------------------
# The inverse-transpose coset.

def test_tau_membership_frozen_counts():
    assert len(tau_membership(build_group("GL", 3, 2), 1)) == 56
    assert len(tau_membership(build_group("GL", 4, 2), 1)) == 8512
    assert len(tau_membership(build_group("GL", 4, 2), 2)) == 4032
    assert len(tau_membership(build_group("GL", 3, 3), 1)) == 2808


def test_tau_membership_validation():
    with pytest.raises(ValueError):
        tau_membership(build_group("SL", 2, 3), 1)
    with pytest.raises(ValueError):
        tau_membership(build_group("GL", 2, 2), 0)


def test_tau_membership_odd_n_fixes_unique_line():
    tb = build_group("GL", 3, 2)
    sp = tb.space
    act = enumerate_action(sp, ActionSpec("subspace", 1))
    for i in tau_membership(tb, 1):
        g = tb.elements[i]
        x = sp.mul(g, sp.transpose(sp.inv(g)))
        assert len(fixed_point_indices(sp, x, act)) == 1


def test_scans_sieve_once_per_element(monkeypatch):
    # perfbench/tests/test_checks.py::test_gl22_counters pins the traced
    # gf.has_small_degree_factor calls on GL2(2) to 6, one per element.  The
    # sieve memo sits below the public function, so the count holds.  Per-class
    # evaluation (ROADMAP item 1) moves this test and that pin together.
    calls = []

    def counted(F, f, t):
        calls.append(f)
        return has_small_degree_factor(F, f, t)

    monkeypatch.setattr(matgroup, "has_small_degree_factor", counted)
    membership_sets(build_group("GL", 2, 2), 1)
    assert len(calls) == 6
    calls.clear()
    tau_membership(build_group("GL", 4, 2), 1)
    assert len(calls) == 20_160


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# has_small_degree_factor calls per scan, as one call per element whose
# listed roots divide out made them before the roots divided out per slice
SIEVE_CALLS = [
    (("O+", 6, 2), 1, "O", 8_512),
    (("GL", 4, 2), 1, None, 20_160),
    (("GL", 4, 2), 1, "tau", 20_160),
]


@pytest.mark.parametrize("key,t,coset,calls", SIEVE_CALLS, ids=["O+6q2-O", "GL4q2", "GL4q2-tau"])
def test_sieve_calls_per_scan_are_frozen(key, t, coset, calls, monkeypatch):
    tb = build_group(*key)
    counted = _count_calls(monkeypatch, matgroup, "has_small_degree_factor")
    if coset == "tau":
        tau_membership(tb, t)
    else:
        membership_sets(tb, t, coset)
    assert len(counted) == calls


def test_membership_scans_divide_no_roots_by_pdivmod(monkeypatch):
    # the roots divide out of a whole slice of polynomials by synthetic
    # division; once the sieve memo holds every cofactor, a scan makes no
    # polynomial division at all
    gl4, gl3 = build_group("GL", 4, 2), build_group("GL", 3, 3)
    o6, o5 = build_group("O+", 6, 2), build_group("O", 3, 5)
    scans = [lambda: membership_sets(gl4, 1), lambda: tau_membership(gl4, 1),
             lambda: membership_sets(gl3, 1, 1), lambda: tau_membership(gl3, 1),
             lambda: membership_sets(o6, 1, "S"), lambda: membership_sets(o6, 1, "O"),
             lambda: membership_sets(o5, 1, "S"), lambda: membership_sets(o5, 1, "O")]
    before = [scan() for scan in scans]
    counted = _count_calls(monkeypatch, gf, "pdivmod")
    if hasattr(matgroup, "pdivmod"):
        monkeypatch.setattr(matgroup, "pdivmod", gf.pdivmod)
    assert [scan() for scan in scans] == before
    assert counted == []


def test_o62_build_scan_and_fixed_sets_decode_few_rows(monkeypatch):
    # a fresh O+6(2) build, its O-set scan and the fixed sets of its members
    # run on row codes; an element is decoded to its tuple only through the
    # table's views
    monkeypatch.delenv(matgroup.CACHE_ENV, raising=False)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    decoded = []
    decode = MatSpace._decode

    def counted(self, rows):
        decoded.append(len(rows))
        return decode(self, rows)

    monkeypatch.setattr(MatSpace, "_decode", counted)
    tb = build_group("O+", 6, 2)
    members = membership_sets(tb, 1, "O")
    fixed = fixed_sets(tb, members, ActionSpec("subspace", 1, restrict="nonsingular"))
    assert len(members) == len(fixed) == 8512
    assert sum(decoded) < 1000


def _assert_slices_within_fixed_cells(monkeypatch, space, rows, act, cells):
    """_fixed_rows cuts rows into slices of at most _FIXED_CELLS working
    entries, cells per matrix, and yields one mask row per matrix."""
    assert cells * matgroup._PRODUCT_CHUNK > matgroup._FIXED_CELLS
    sizes = []
    slices = MatSpace._slices

    def recorded(self, rows, step=None):
        for lo, g in slices(self, rows, step):
            sizes.append(len(g))
            yield lo, g

    monkeypatch.setattr(MatSpace, "_slices", recorded)
    masks = list(matgroup._fixed_rows(space, rows, act))
    assert [m.shape for m in masks] == [(b, len(act)) for b in sizes]
    assert sum(sizes) == len(rows)
    assert max(sizes) * cells <= matgroup._FIXED_CELLS


def test_fixed_rows_slices_stay_within_fixed_cells(monkeypatch):
    # the GL4(2) middle antiflags have a plan of 2 240 entries, so a slice
    # of _PRODUCT_CHUNK matrices would pass _FIXED_CELLS; the slices shrink
    tb = build_group("GL", 4, 2)
    act = enumerate_action(tb, ActionSpec("antiflag", 2))
    cells = matgroup._fixed_plan(act, False)[1].size // 2
    _assert_slices_within_fixed_cells(monkeypatch, tb.space, tb.rows, act, cells)


def test_quadratic_form_slices_stay_within_fixed_cells(monkeypatch):
    # each Sp6(2) matrix takes n 2^n = 384 image cells, so with _FIXED_CELLS
    # cut to 1 << 16 a slice of _PRODUCT_CHUNK matrices would pass it
    monkeypatch.setattr(matgroup, "_FIXED_CELLS", 1 << 16)
    space = MatSpace(6, 2)
    act = matgroup.ActionTable(space, standard_form("Sp", 6, 2), ActionSpec("quadratic_forms"))
    rows = space._encode(_sp_words(6, 600, 71))
    _assert_slices_within_fixed_cells(monkeypatch, space, rows, act, space.n * len(act))


def test_quadratic_form_fixed_points_decode_invert_and_multiply_nothing(monkeypatch):
    # the translation of each element is one lookup of its row codes, and
    # its vector images come from one batched product per slice
    tb = build_group("Sp", 4, 2)
    act = enumerate_action(tb, ActionSpec("quadratic_forms"))
    calls = {name: _count_calls(monkeypatch, MatSpace, name)
             for name in ("_decode", "inv", "mul")}
    fixed = fixed_sets(tb, range(len(tb)), act)
    assert len(fixed) == len(tb) == 720
    assert calls == {"_decode": [], "inv": [], "mul": []}


def test_fixed_sets_build_no_vector_image_tables(monkeypatch):
    # the batched kernel decides every point of a slice at once; a fallback
    # to one point permutation per element builds one q^n table each
    tb = build_group("GL", 4, 2)
    members = membership_sets(tb, 1)
    calls = _count_calls(monkeypatch, MatSpace, "all_vector_images")
    fixed = fixed_sets(tb, members, ActionSpec("subspace", 2))
    assert len(fixed) == len(members) == 5824
    assert calls == []


def _count_matrices(monkeypatch, owner, name):
    """Matrices passed to owner.name per call: the length of its second
    positional argument, the batch (after F for ``_gauss_jordan``, after
    self for ``MatSpace.charpolys``)."""
    counts = []
    fn = getattr(owner, name)

    def counted(*args):
        counts.append(len(args[1]))
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("key,order,ones", [(("O+", 6, 2), 40_320, 20_160),
                                             (("GU", 3, 2), 648, 432)],
                         ids=["O+6q2", "GU3q2"])
def test_fresh_build_labels_ride_the_closure(key, order, ones, monkeypatch):
    # labels are summed along the BFS tree from the generators' labels: one
    # det or rank per generator, where one per element made 40 320 rank
    # calls on O+6(2); a det reads charpolys and a rank _gauss_jordan, so
    # the matrices those two kernels see during the build count them
    monkeypatch.delenv(matgroup.CACHE_ENV, raising=False)
    monkeypatch.setattr(matgroup, "_TABLE_MEMO", {})
    ranks = _count_calls(monkeypatch, MatSpace, "rank")
    dets = _count_calls(monkeypatch, MatSpace, "det")
    eliminated = _count_matrices(monkeypatch, matgroup, "_gauss_jordan")
    charpolys = _count_matrices(monkeypatch, MatSpace, "charpolys")
    tb = build_group(*key)
    assert len(tb) == order and len(tb) - tb.labels.count(0) == ones
    assert len(ranks) + len(dets) <= len(tb.gens)
    assert sum(eliminated) + sum(charpolys) <= len(tb.gens)


def test_actions_eliminate_once_per_dimension_class(monkeypatch):
    # the Gram ranks of a restricted class come from one batched elimination,
    # and perp maps and vector sets from the image kernel, so building the
    # GL3(3) fpr actions with both sides of their fixed-point plans and the
    # O+6(2) nonsingular points eliminates at most once per class: per basis,
    # the 63 points of O+6(2) alone would take 63
    gl33, o62 = build_group("GL", 3, 3), build_group("O+", 6, 2)
    calls = _count_calls(monkeypatch, matgroup, "_gauss_jordan")
    acts = []
    for kind in ("subspace", "flag", "antiflag"):
        act = enumerate_action(gl33, ActionSpec(kind, 1))
        for tau in (False, True):
            if kind != "subspace" or not tau:
                matgroup._fixed_plan(act, tau)
        acts.append(act)
    acts.append(enumerate_action(o62, ActionSpec("subspace", 1, restrict="nonsingular")))
    assert len(acts[-1]) == 28
    assert 1 <= len(calls) <= sum(len(act.classes) for act in acts)


# ---------------------------------------------------------------------------
# Samplers (the reference copies in oracles) and closures.

def test_random_gl_deterministic_stream():
    a = [random_gl(3, 3, random.Random(42)) for _ in range(5)]
    b = [random_gl(3, 3, random.Random(42)) for _ in range(5)]
    assert a == b


def test_random_gl_is_invertible():
    rng = random.Random(1)
    sp = MatSpace(4, 2)
    for _ in range(50):
        assert sp.det(random_gl(4, 2, rng)) != 0


def test_random_coset_gl_lands_in_requested_coset():
    rng = random.Random(2)
    sp = MatSpace(2, 5)
    F = sp.F
    for mu in range(4):
        for _ in range(25):
            g = random_coset_gl(2, 5, mu, rng)
            assert F.dlog[sp.det(g)] % 4 == mu


def test_random_gl_roughly_uniform_on_small_group():
    # GL_2(2) has 6 elements; 1200 draws should hit each about 200 times
    rng = random.Random(8)
    counts = {}
    for _ in range(1200):
        g = random_gl(2, 2, rng)
        counts[g] = counts.get(g, 0) + 1
    assert len(counts) == 6
    assert all(140 <= c <= 260 for c in counts.values())


def test_bfs_closure_stop_over_returns_a_prefix():
    tb = build_group("GL", 3, 2)
    full, parent, generator = bfs_closure(tb.space, list(tb.gens))
    assert np.array_equal(full, tb.rows)
    partial = bfs_closure(tb.space, list(tb.gens), stop_over=10)
    assert np.array_equal(partial[0], full[:11])
    assert np.array_equal(partial[1], parent[:11])
    assert np.array_equal(partial[2], generator[:11])
    assert np.array_equal(bfs_closure(tb.space, list(tb.gens), stop_over=168)[0], full)


def test_bfs_closure_cap():
    tb = build_group("GL", 3, 2)
    with pytest.raises(ResourceCapExceeded):
        bfs_closure(tb.space, list(tb.gens), cap=10)
    assert len(bfs_closure(tb.space, list(tb.gens), cap=168)[0]) == 168


def test_bfs_closure_without_generators():
    for sp in (MatSpace(3, 4), psl2(7)):
        rows, parent, generator = bfs_closure(sp, [])
        assert sp._decode(rows) == [sp.identity]
        assert parent.tolist() == generator.tolist() == [0]


def test_build_group_rejects_dimension_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            build_group("GL", n, 2)


def test_bfs_closure_of_single_rotation():
    sp = MatSpace(2, 3)
    g = sp.from_rows([[0, 2], [1, 0]])
    rows = bfs_closure(sp, [g])[0]
    assert len(rows) == 4  # an order-4 cyclic subgroup of GL_2(3)
