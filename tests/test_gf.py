import dataclasses
import inspect
import random
import time
from fractions import Fraction

import pytest

from classprop import gf, limits, series
from classprop.gf import (
    Field,
    count_irreducibles,
    count_monic_irreducible,
    has_small_degree_factor,
    pdeg,
    pdivmod,
    pgcd,
    pmod,
    pmonic,
    pmul,
    pnorm,
    residue_class_counts,
)
from classprop.stats import proportion
from oracles import (
    DEFAULT_ENUM_CAP,
    conjugate_star,
    conjugate_tilde,
    count_enumerated,
    det_residue,
    irreducibles,
    is_irreducible,
    peval,
    residue_class_counts_sieve,
    unitary_residue,
)


def rand_poly(rng, F, deg, monic=True, nonzero_const=False):
    coeffs = [rng.randrange(F.q) for _ in range(deg)]
    if nonzero_const:
        coeffs[0] = rng.randrange(1, F.q)
    return tuple(coeffs) + ((1,) if monic else (rng.randrange(1, F.q),))


# ---------------------------------------------------------------------------
# fields

def test_prime_power_validation():
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(81) == (3, 4)
    with pytest.raises(ValueError):
        gf.prime_power(6)
    with pytest.raises(ValueError):
        Field(12)
    # the divisor scan stops at isqrt(q): a prime near 10^9 takes about
    # 3 * 10^4 divisions, and a product of two primes near 10^6 is caught
    start = time.perf_counter()
    assert gf.prime_power(10**9 + 7) == (10**9 + 7, 1)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="not a prime power"):
        gf.prime_power(1000003 * 1000033)
    with pytest.raises(ValueError):
        Field(128)  # over the table cap


def test_gf4_structure():
    F = Field(4)
    assert F.modulus == (1, 1, 1)
    assert F.zeta == 2
    # zeta^2 = zeta + 1 under the modulus z^2 + z + 1
    assert F.mul(2, 2) == 3


def test_field_is_interned():
    assert Field(9) is Field(9)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81])
def test_field_axioms_sampled(q):
    F = Field(q)
    rng = random.Random(q)
    for _ in range(40):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        # Frobenius is an additive and multiplicative map
        p = F.p
        assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
        assert F.pow(F.mul(a, b), p) == F.mul(F.pow(a, p), F.pow(b, p))
        assert F.pow(a, F.q) == a


@pytest.mark.parametrize("q,zeta", [(2, 1), (3, 2), (5, 2), (7, 3)])
def test_least_primitive_prime_fields(q, zeta):
    assert Field(q).zeta == zeta


def test_zeta_order_and_dlog():
    for q in (4, 5, 8, 9, 27):
        F = Field(q)
        powers = set()
        x = 1
        for _ in range(q - 1):
            powers.add(x)
            x = F.mul(x, F.zeta)
        assert len(powers) == q - 1
        assert F.dlog[4 if q == 5 else F.zeta] == (2 if q == 5 else 1)


def test_inversion_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Field(5).inv(0)


# ---------------------------------------------------------------------------
# polynomials

@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_pdivmod_roundtrip(q):
    F = Field(q)
    rng = random.Random(100 + q)
    for _ in range(60):
        a = pnorm(tuple(rng.randrange(q) for _ in range(rng.randrange(1, 8))))
        b = pnorm(tuple(rng.randrange(q) for _ in range(rng.randrange(1, 5))))
        if not b:
            continue
        quot, rem = pdivmod(F, a, b)
        assert pnorm(gf.padd(F, pmul(F, quot, b), rem)) == pnorm(a)
        assert pdeg(rem) < pdeg(b)


def test_gcd_divides_both():
    F = Field(3)
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, F, rng.randrange(1, 5))
        b = rand_poly(rng, F, rng.randrange(1, 5))
        g = pgcd(F, a, b)
        assert not pmod(F, a, g) and not pmod(F, b, g)
        assert g[-1] == 1  # monic


def test_irreducible_cubics_over_gf2():
    F = Field(2)
    assert irreducibles(F, 3) == ((1, 0, 1, 1), (1, 1, 0, 1))
    assert count_irreducibles("N", 2, 3) == 2


def test_is_irreducible_degree4_gf2():
    F = Field(2)
    assert is_irreducible(F, (1, 1, 0, 0, 1))  # z^4 + z + 1
    assert not is_irreducible(F, (1, 0, 0, 0, 1))  # (z+1)^4


# ---------------------------------------------------------------------------
# small-degree factor sieve

def test_sieve_known_cases():
    F2 = Field(2)
    f = pmul(F2, (1, 1, 1), (1, 1, 0, 1))  # (z^2+z+1)(z^3+z+1)
    assert not has_small_degree_factor(F2, f, 1)
    assert has_small_degree_factor(F2, f, 2)
    assert has_small_degree_factor(F2, f, 3)
    assert not has_small_degree_factor(F2, (1, 1, 0, 0, 1), 3)  # irreducible quartic
    F5 = Field(5)
    g = pmul(F5, (3, 1), (2, 1))  # (z-2)(z-3)
    assert has_small_degree_factor(F5, g, 1)
    with pytest.raises(ValueError):
        has_small_degree_factor(F5, g, 0)


def test_sieve_agrees_with_trial_division():
    # 10^4 random samples drawn across q <= 5, deg <= 12, t <= 4.
    rng = random.Random(2024)
    fields = [Field(q) for q in (2, 3, 4, 5)]
    for _ in range(10_000):
        F = rng.choice(fields)
        deg = rng.randrange(1, 13)
        t = rng.randrange(1, 5)
        f = rand_poly(rng, F, deg)
        oracle = any(
            not pmod(F, f, g)
            for d in range(1, min(t, deg) + 1)
            for g in irreducibles(F, d)
        ) or t >= deg
        assert has_small_degree_factor(F, f, t) == oracle


def test_sieve_memo_keys_the_monic_associate():
    F7 = Field(7)
    f = pmul(F7, (1, 0, 1), (1, 1, 0, 1))  # (z^2+1)(z^3+z+1)
    gf._sieve.cache_clear()
    assert not has_small_degree_factor(F7, f, 1)
    assert has_small_degree_factor(F7, f, 2)
    for c in range(2, 7):
        scaled = tuple(F7.mul(c, x) for x in f)
        assert scaled != f
        assert not has_small_degree_factor(F7, scaled, 1)
        assert has_small_degree_factor(F7, scaled, 2)
    info = gf._sieve.cache_info()
    assert (info.currsize, info.misses) == (2, 2)


def test_sieve_rejects_bad_t_before_the_memo():
    F5 = Field(5)
    before = gf._sieve.cache_info()
    for bad in (0, -1, 1.0, True, None):
        with pytest.raises(ValueError):
            has_small_degree_factor(F5, (2, 0, 1), bad)
    assert gf._sieve.cache_info() == before


def test_sieve_memo_stays_bounded_on_a_large_scan():
    proportion(("GL", 8, 7), 1, method="montecarlo", trials=6000, seed=17)
    info = gf._sieve.cache_info()
    assert info.maxsize == 4096
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# conjugations

def test_star_example_gf5():
    F = Field(5)
    assert conjugate_star(F, (3, 1)) == (2, 1)  # z - 2  ->  z - 3


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_star_involution_and_irreducibility(q):
    F = Field(q)
    rng = random.Random(q * 11)
    for _ in range(40):
        f = rand_poly(rng, F, rng.randrange(1, 5), nonzero_const=True)
        assert conjugate_star(F, conjugate_star(F, f)) == pmonic(F, f)
    for f in irreducibles(F, 2):
        if f[0]:
            assert is_irreducible(F, conjugate_star(F, f))


def test_star_needs_nonzero_constant():
    with pytest.raises(ValueError):
        conjugate_star(Field(2), (0, 1))


def test_tilde_fixes_all_linears_over_gf4():
    # Every monic linear z - a with a != 0 satisfies phi = tilde(phi) here,
    # consistent with the q + 1 count of degree-1 fixed polynomials.
    F = Field(4)
    for a in range(1, F.q):
        f = (F.neg(a), 1)
        assert conjugate_tilde(F, 2, f) == f


def test_tilde_involution_gf9():
    F = Field(9)
    rng = random.Random(5)
    for _ in range(60):
        f = rand_poly(rng, F, rng.randrange(1, 5), nonzero_const=True)
        assert conjugate_tilde(F, 3, conjugate_tilde(F, 3, f)) == pmonic(F, f)


def test_tilde_root_map():
    # Roots of tilde(f) are the (-q0)-th powers of the roots of f.
    F = Field(9)
    for f in irreducibles(F, 1):
        if not f[0]:
            continue
        root = F.neg(f[0])
        troot = F.pow(F.inv(root), 3)
        g = conjugate_tilde(F, 3, f)
        assert peval(F, g, troot) == 0


# ---------------------------------------------------------------------------
# residues

def test_det_residue_linear():
    F = Field(5)
    # r(z - a) = dlog(a): the sign (-1)^1 cancels the negated constant.
    for a in range(1, F.q):
        assert det_residue(F, (F.neg(a), 1)) == F.dlog[a]
    with pytest.raises(ValueError):
        det_residue(F, (0, 1))


def test_residue_class_counts_gf4_gf5():
    assert residue_class_counts(4, 1, 3) == {(1, 0): 1, (1, 1): 1, (1, 2): 1}
    counts5 = residue_class_counts(5, 2, 4)
    assert counts5[(2, 0)] == 2 and counts5[(2, 2)] == 2
    assert counts5[(2, 1)] == 3 and counts5[(2, 3)] == 3
    assert sum(v for (j, _), v in counts5.items() if j == 2) == 10


def test_unitary_residue_in_subgroup():
    F = Field(9)
    for d in (1, 2):
        for f in irreducibles(F, d):
            if f[0]:
                assert 0 <= unitary_residue(F, 3, f) <= 3


# ---------------------------------------------------------------------------
# counting

def test_small_degree_count_formulas():
    assert count_irreducibles("N", 5, 1) == 4  # q - 1
    assert count_irreducibles("Mstar", 5, 1) == 1  # (q-3)/2 at q = 5
    assert count_irreducibles("Ntilde", 2, 1) == 3  # q + 1 at q = 2
    assert count_irreducibles("Mtilde", 2, 1) == 0  # (q^2-q-2)/2 at q = 2
    assert count_irreducibles("Mtilde", 3, 1) == 2


def test_nstar_odd_degrees_vanish():
    for q in (2, 3, 4, 5):
        for j in (3, 5):
            assert count_irreducibles("Nstar", q, j) == 0
        assert count_irreducibles("Nstar", q, 1) == (2 if q % 2 else 1)


def test_ntilde_even_degrees_vanish():
    for q in (2, 3):
        for j in (2, 4, 6):
            assert count_irreducibles("Ntilde", q, j) == 0
            if (q * q) ** j <= DEFAULT_ENUM_CAP:
                assert count_enumerated("Ntilde", q, j) == 0


def test_self_conjugate_quadratic_over_gf3():
    F = Field(3)
    fixed = [f for f in irreducibles(F, 2) if conjugate_star(F, f) == f]
    assert fixed == [(1, 0, 1)]  # z^2 + 1


FORMULA_VS_ENUM = [
    ("N", q, j)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
    for j in range(1, 7)
    if q**j <= DEFAULT_ENUM_CAP
] + [
    (fam, q, j)
    for fam in ("Nstar", "Mstar")
    for q in (2, 3, 4, 5, 7, 8, 9)
    for j in range(1, 7)
    if q**j <= DEFAULT_ENUM_CAP
] + [
    (fam, q, j)
    for fam in ("Ntilde", "Mtilde")
    for q in (2, 3, 4, 5, 7, 8, 9)
    for j in range(1, 5)
    if (q * q) ** j <= DEFAULT_ENUM_CAP
]


@pytest.mark.parametrize("family,q,j", FORMULA_VS_ENUM)
def test_count_formula_matches_enumeration(family, q, j):
    assert count_irreducibles(family, q, j) == count_enumerated(family, q, j)


def test_pair_counts_consistent():
    for q in (2, 3, 4, 5):
        for j in range(1, 5):
            n = count_irreducibles("N", q, j)
            assert n == count_irreducibles("Nstar", q, j) + 2 * count_irreducibles("Mstar", q, j)
            n2 = count_irreducibles("N", q * q, j)
            assert n2 == count_irreducibles("Ntilde", q, j) + 2 * count_irreducibles("Mtilde", q, j)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_partition_identity(q):
    # sum over d | J of d * (number of monic irreducibles of degree d,
    # z included) recovers q^J.
    for J in range(1, 7):
        total = sum(
            d * count_monic_irreducible(q, d) for d in range(1, J + 1) if J % d == 0
        )
        assert total == q**J


# reference routes that live only in tests/oracles.py, never in classprop
ORACLE_NAMES = (
    "peval", "monic_polys", "is_irreducible", "irreducibles", "conjugate_star",
    "conjugate_tilde", "det_residue", "unitary_residue", "count_enumerated",
    "DEFAULT_ENUM_CAP", "FAMILIES", "euler_direct_product_series",
    "residue_product_series", "unitary_residue_product_series",
    "charpoly_minors", "fixes_some_small_subspace", "fixed_points_by_type",
    "element_lut", "class_fixed", "class_images", "_class_fixed", "_element_lut",
    "gf2_nonsingular_elimination", "dfs_orbits", "relation_classes_loop",
    "kernel_basis", "mat_add", "perp_basis_form", "restrict", "_restrict",
    "_reflection_complement_free", "_eigenline_complement_free",
    "charpoly_hessenberg", "sieve_free", "tau_sieve_free", "permutation_group",
    "tau_square", "dickson_label", "_generates", "batched_dickson_labels",
    "_dickson_labels", "element_labels", "_make_labels", "mat_products",
    "frontier_chunks", "slice_closure", "tuple_closure", "tuple_table",
    "_cofactor_free", "random_gl", "random_coset_gl", "full_scan_candidates",
    "quadratic_form_points", "weyl_enumerated", "elim", "scalar_rank", "scalar_det",
    "scalar_inv", "null_basis", "code_add", "vector_images", "subspace_vectors",
    "rref_basis", "perp_basis_dot", "subspace_type", "form_translation",
    "quadratic_form_permutation", "fixed_rows_lists", "expectation_by_sets",
    "incidence_points", "_span", "euler_factor_series", "gl_euler_product_series",
    "vec_code", "log1p_enclosure_fractions", "exp_lower_fractions",
    "mc_gl2_t1_chunked", "bitslice_word_major", "euler_base_series",
    "graded_product_series", "series_pow", "perm_products",
)


def test_runtime_counts_never_enumerate():
    # enumeration is a test oracle only; series and limits use closed forms
    import classprop
    from classprop import cli, cyclo, matgroup, stats

    for mod in (classprop, gf, cyclo, series, limits, matgroup, stats, cli):
        assert not [name for name in ORACLE_NAMES if hasattr(mod, name)], mod
    # one characteristic-polynomial route: the batched MatSpace.charpolys
    for name in ("charpoly_minors", "kernel_basis", "add", "charpoly"):
        assert not hasattr(matgroup.MatSpace, name), name
    # one product route: closures and class maps look up row codes
    assert not hasattr(matgroup.MatSpace, "products")
    # one fixed-point route: quadratic-form points read their translation
    # off the row codes, with no inverse per element
    assert not hasattr(matgroup, "_form_translation")
    assert not hasattr(matgroup.ActionTable, "gram_inv")
    act = matgroup.ActionTable(matgroup.MatSpace(4, 2), matgroup.standard_form("Sp", 4, 2),
                               matgroup.ActionSpec("quadratic_forms"))
    assert not hasattr(act, "gram_inv")
    # one elimination, matgroup._gauss_jordan, and one product of matrices
    # with vectors, matgroup._images: no scalar elimination, null basis or
    # digit-wise code addition, and no per-basis span, echelon or perp
    for name in ("_elim", "_null_basis", "code_add", "vec_code"):
        assert not hasattr(matgroup.MatSpace, name), name
    for name in ("subspace_vectors", "rref_basis", "perp_basis_dot"):
        assert not hasattr(matgroup, name), name
    assert not hasattr(matgroup.ActionTable, "_classify")
    # one subspace format: sorted vector codes behind one lookup, no
    # vector sets and no dict keyed by them
    cls = matgroup.ActionTable(matgroup.MatSpace(3, 2), matgroup.FormSpec("none", 3, 2),
                               matgroup.ActionSpec("flag", 1))._class(2)
    for name in ("vecsets", "position"):
        assert not hasattr(matgroup._SubspaceClass, name), name
        assert not hasattr(cls, name), name
    # completion, quadratic-form types and the exact Weyl statistic take
    # closed forms, not searches
    assert not hasattr(matgroup, "_full_scan_candidates")
    assert not hasattr(matgroup.ActionTable, "_translated_singulars")
    # one construction route per table: no second Z_p arithmetic in gf, no
    # second GroupTable assembly in matgroup; the fpr check reads acting
    # trivially off the fixed-point count; no dead MatSpace.pow or
    # ProportionReport.ci and no Taylor-term knob on exp_enclosure
    for mod, name in [(gf, "_zp_mod"), (gf, "_zp_irreducible"),
                      (matgroup, "_table_from_payload"), (gf.Field, "_vec_add"),
                      (gf.Field, "_vec_neg"), (stats, "_trivial_indices"),
                      (matgroup.MatSpace, "pow"), (stats.ProportionReport, "ci")]:
        assert not hasattr(mod, name), name
    # one no-small-factor product: GL reads the graded series at modulus 1,
    # with no rational Euler factor, reciprocal or negative power beside it
    assert not hasattr(series, "euler_factor_series")
    assert not hasattr(series, "_det_graded_series")
    assert not hasattr(series.Series, "reciprocal")
    # and one way to form it: the exp of its log, with no Euler factor
    # expanded or raised to its count
    assert not hasattr(series.Series, "pow")
    assert list(inspect.signature(limits.exp_enclosure).parameters) == ["z"]
    assert "label_kind" not in {f.name for f in dataclasses.fields(matgroup.GroupTable)}
    assert list(inspect.signature(gf.Field).parameters) == ["q"]
    assert list(inspect.signature(matgroup.GroupTable).parameters) == [
        "family", "n", "q", "rows", "labels", "gens"]
    tol = Fraction(1, 10**6)
    assert limits.bound_suite((2, 3), (1, 2), tol)["all_pass"]
    for tag, q in [("GL", 3), ("SU", 3), ("Sp_odd", 3), ("Sp_even", 4), ("O_half", 3)]:
        enc = limits.limit_value(limits.LimitFamily(tag, q, 2), tol)
        assert 0 < enc.lo <= enc.hi < 1
    s = series.gl_no_small_factor_series(9, 4, 8)
    assert all(0 <= c <= 1 for c in s.coeffs)
    for mu in range(8):
        s = series.sl_coset_series(9, 2, mu, 8)
        assert all(0 <= c <= 1 for c in s.coeffs)


def test_enumeration_cap_enforced():
    with pytest.raises(ValueError):
        count_enumerated("Ntilde", 9, 3)


# the grid of (q, largest degree) on which the residue sieve is enumerated
RESIDUE_SIEVE_GRID = [
    (2, 6), (3, 5), (4, 4), (5, 4), (7, 3), (8, 3), (9, 3),
    (11, 2), (13, 2), (16, 2), (25, 2), (27, 2),
]


@pytest.mark.parametrize("q,jmax", RESIDUE_SIEVE_GRID)
def test_residue_counts_closed_form_matches_sieve(q, jmax):
    assert residue_class_counts(q, jmax, q - 1) == residue_class_counts_sieve(Field(q), jmax)


def test_residue_counts_sum_to_irreducible_counts():
    # far past the sieve's reach: every prime power q <= 81, degrees up to 6
    for q in range(2, gf.MAX_Q + 1):
        try:
            gf.prime_power(q)
        except ValueError:
            continue
        counts = residue_class_counts(q, 6, q - 1)
        assert all(c > 0 and 0 <= s < q - 1 for (_, s), c in counts.items())
        for j in range(1, 7):
            total = sum(c for (jj, _), c in counts.items() if jj == j)
            assert total == count_irreducibles("N", q, j), (q, j)
        # modulus 1 keeps one class per degree
        assert residue_class_counts(q, 6, 1) == {
            (j, 0): count_irreducibles("N", q, j) for j in range(1, 7)}, q


RESIDUE_MODULI_GRID = [
    (q, m) for q in (3, 4, 5, 7, 8, 9, 13, 16) for m in range(1, q) if (q - 1) % m == 0
]


@pytest.mark.parametrize("q,m", RESIDUE_MODULI_GRID)
def test_residue_counts_match_folded_sieve(q, m):
    folded = {}
    for (j, s), c in residue_class_counts_sieve(Field(q), 4).items():
        folded[j, s % m] = folded.get((j, s % m), 0) + c
    assert residue_class_counts(q, 4, m) == folded


def test_residue_counts_at_modulus_one_skip_the_residues():
    # one entry per degree, however large q - 1 is
    counts = residue_class_counts(10**9 + 7, 3, 1)
    assert len(counts) <= 3
    assert counts[1, 0] == 10**9 + 6


def test_residue_counts_modulus_validated():
    for m in (0, 5, 2.0):
        with pytest.raises(ValueError):
            residue_class_counts(9, 2, m)
