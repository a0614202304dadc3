"""The integer-argument boundary.

Every integer argument of a public ``classprop`` name goes through
``gf._check_int``: a bool, a non-integer or an out-of-range integer raises
ValueError (or ResourceCapExceeded for a group past its cap), never a
TypeError, IndexError, KeyError, ZeroDivisionError or AssertionError, and
never a result.  The library table below walks every name in
``classprop.__all__`` in the manner of QuickCheck (Claessen and Hughes,
ICFP 2000): fixed edge values plus a few drawn from a seeded generator, on
tables small enough to keep the whole file to a few seconds.  The CLI table
feeds the same kinds of values through the options argparse accepts.  A
lint test keeps the boundary single.
"""

import ast
import functools
import random
from pathlib import Path

import pytest

import classprop
from classprop import cli
from classprop.gf import Field, count_irreducibles, has_small_degree_factor
from classprop.limits import LimitFamily, bound_suite, q_infinity_limit
from classprop.matgroup import (
    ActionSpec,
    ResourceCapExceeded,
    build_group,
    enumerate_action,
    group_order,
    membership_sets,
    tau_membership,
)
from classprop.series import gl_no_small_factor_series, sl_coset_series
from classprop.stats import (
    coset_average_fixed_points,
    expectation_inequality,
    fpr_bound_check,
    generation_probe,
    inverse_transpose_identity_check,
    orthogonal_reflection_identity_check,
    proportion,
    psl2,
    subset_expectation,
    symmetric_a,
    symmetric_expectation,
    weyl_negative_cycle_statistic,
    wilson_interval,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "classprop"
RNG = random.Random(20001)


def bad_values(lo, hi=None):
    """Bools, floats, 0 and negatives below lo, and integers past hi."""
    out = [True, False, float(lo), lo + RNG.random()]
    out += sorted({v for v in (0, -1, lo - 1, -RNG.randrange(2, 10**6)) if v < lo},
                  reverse=True)
    if hi is not None:
        out += [hi + 1, hi + RNG.randrange(2, 100)]
    return out


@functools.lru_cache(maxsize=None)
def gl(n, q):
    return build_group("GL", n, q)


@functools.lru_cache(maxsize=None)
def psl2_5():
    return psl2(5)


S1 = ActionSpec("subspace", 1)

# name -> [(argument, call taking the value, lo, hi)]; hi None means no
# upper bound.  Labels and element indices start at 0.
TABLE = {
    "Field": [("q", lambda v: Field(v), 2, 81)],
    "count_irreducibles": [
        ("q", lambda v: count_irreducibles("N", v, 2), 2, None),
        ("j", lambda v: count_irreducibles("N", 2, v), 1, None),
    ],
    "has_small_degree_factor": [
        ("t", lambda v: has_small_degree_factor(Field(2), (1, 1, 1), v), 1, None),
    ],
    "LimitFamily": [
        ("q", lambda v: LimitFamily("Sp", v, 1), 2, None),
        ("t", lambda v: LimitFamily("GL", 2, v), 1, None),
    ],
    "bound_suite": [
        ("q_range", lambda v: bound_suite([v], [1]), 2, None),
        ("t_range", lambda v: bound_suite([2], [v]), 1, None),
    ],
    "q_infinity_limit": [("t", lambda v: q_infinity_limit("GL", v), 1, None)],
    "ActionSpec": [
        ("subspace.k", lambda v: enumerate_action(gl(3, 2), ActionSpec("subspace", v)), 1, 1),
        ("flag.k", lambda v: enumerate_action(gl(3, 2), ActionSpec("flag", v)), 1, 1),
    ],
    # an absent label is a valid query (no members, size 0), so label
    # arguments have no upper end here
    "GroupTable": [
        ("label", lambda v: gl(2, 3).coset_indices(v), 0, None),
        ("coset", lambda v: gl(2, 3).coset_size(v), 0, None),
    ],
    "build_group": [
        ("n", lambda v: build_group("GL", v, 2), 1, None),
        ("q", lambda v: build_group("GL", 2, v), 2, None),
        ("cap", lambda v: build_group("GL", 2, 2, cap=v), 1, None),
    ],
    "enumerate_action": [
        ("antiflag.k", lambda v: enumerate_action(gl(3, 2), ActionSpec("antiflag", v)), 1, 2),
    ],
    "group_order": [
        ("n", lambda v: group_order("GL", v, 2), 1, None),
        ("q", lambda v: group_order("GL", 2, v), 2, None),
    ],
    "membership_sets": [
        ("t", lambda v: membership_sets(gl(3, 2), v), 1, None),
        ("coset", lambda v: membership_sets(gl(2, 3), 1, v), 0, 1),
    ],
    "tau_membership": [("t", lambda v: tau_membership(gl(2, 2), v), 1, None)],
    "gl_no_small_factor_series": [
        ("q", lambda v: gl_no_small_factor_series(v, 1, 4), 2, None),
        ("t", lambda v: gl_no_small_factor_series(2, v, 4), 1, None),
        ("order", lambda v: gl_no_small_factor_series(2, 1, v), 0, None),
    ],
    "sl_coset_series": [
        ("q", lambda v: sl_coset_series(v, 1, 0, 4), 2, 81),
        ("t", lambda v: sl_coset_series(3, v, 0, 4), 1, None),
        ("mu", lambda v: sl_coset_series(3, 1, v, 4), 0, 1),
        ("order", lambda v: sl_coset_series(3, 1, 0, v), 0, None),
    ],
    "coset_average_fixed_points": [
        ("coset", lambda v: coset_average_fixed_points(gl(2, 3), S1, coset=v), 0, 1),
    ],
    "expectation_inequality": [
        ("x", lambda v: expectation_inequality(gl(2, 2), v, [0], S1), 0, 5),
        ("members", lambda v: expectation_inequality(gl(2, 2), 0, [v], S1), 0, 5),
    ],
    "fpr_bound_check": [("kmax", lambda v: fpr_bound_check(gl(2, 3), kmax=v), 1, 1)],
    "generation_probe": [
        ("x", lambda v: generation_probe(psl2_5(), v), 0, 59),
        ("trials", lambda v: generation_probe(psl2_5(), 1, trials=v, seed=1), 1, None),
        ("seed", lambda v: generation_probe(psl2_5(), 1, trials=5, seed=v), 0, None),
    ],
    "inverse_transpose_identity_check": [
        ("n", lambda v: inverse_transpose_identity_check(v, 2, 1), 2, None),
        ("q", lambda v: inverse_transpose_identity_check(2, v, 1), 2, None),
        ("t", lambda v: inverse_transpose_identity_check(2, 2, v), 1, None),
        ("cap", lambda v: inverse_transpose_identity_check(2, 2, 1, cap=v), 1, None),
    ],
    "orthogonal_reflection_identity_check": [
        ("n", lambda v: orthogonal_reflection_identity_check(v, 3, 1), 5, None),
        ("q", lambda v: orthogonal_reflection_identity_check(5, v, 1), 2, None),
        ("t", lambda v: orthogonal_reflection_identity_check(5, 3, v), 1, None),
        ("cap", lambda v: orthogonal_reflection_identity_check(5, 3, 1, cap=v), 1, None),
    ],
    "proportion": [
        ("n", lambda v: proportion(("GL", v, 2), 1), 1, None),
        ("q", lambda v: proportion(("GL", 2, v), 1, method="series"), 2, None),
        ("t", lambda v: proportion(("GL", 2, 2), v), 1, None),
        ("coset", lambda v: proportion(("GL", 2, 3), 1, coset=v), 0, 1),
        ("trials", lambda v: proportion(("GL", 2, 3), 1, method="montecarlo",
                                        trials=v, seed=1), 1, None),
        ("seed", lambda v: proportion(("GL", 2, 3), 1, method="montecarlo",
                                      trials=5, seed=v), 0, None),
        ("cap", lambda v: proportion(("GL", 2, 2), 1, cap=v), 1, None),
    ],
    "psl2": [("p", lambda v: psl2(v), 5, None)],
    "subset_expectation": [
        ("members", lambda v: subset_expectation(gl(2, 2), [v], S1), 0, 5),
    ],
    "symmetric_a": [
        ("n", lambda v: symmetric_a(v, 1), 0, None),
        ("t", lambda v: symmetric_a(4, v), 1, None),
    ],
    "symmetric_expectation": [
        ("n", lambda v: symmetric_expectation(v, 2, 1), 5, None),
        ("k", lambda v: symmetric_expectation(7, v, 1), 1, 3),
        ("t", lambda v: symmetric_expectation(7, 2, v), 1, 2),
    ],
    "weyl_negative_cycle_statistic": [
        ("m", lambda v: weyl_negative_cycle_statistic(v), 1, None),
        ("trials", lambda v: weyl_negative_cycle_statistic(3, trials=v, seed=1), 1, None),
        ("seed", lambda v: weyl_negative_cycle_statistic(3, trials=5, seed=v), 0, None),
    ],
    "wilson_interval": [
        ("hits", lambda v: wilson_interval(v, 4), 0, 4),
        ("trials", lambda v: wilson_interval(0, v), 1, None),
    ],
}

# names of __all__ that take no integer argument
NO_INTEGER_ARGUMENTS = {
    "__version__",
    "Enclosure",
    "limit_value",
    "ResourceCapExceeded",
    "three_halves_generation",
}

CASES = [
    pytest.param(call, bad_values(lo, hi), id=f"{name}-{arg}")
    for name, rows in TABLE.items()
    for arg, call, lo, hi in rows
]


def test_table_covers_every_public_name():
    assert set(TABLE) | NO_INTEGER_ARGUMENTS == set(classprop.__all__)
    assert not set(TABLE) & NO_INTEGER_ARGUMENTS


@pytest.mark.parametrize("call,values", CASES)
def test_bad_integer_raises_value_error(call, values):
    for value in values:
        try:
            result = call(value)
        except (ValueError, ResourceCapExceeded):
            continue
        except Exception as exc:  # noqa: BLE001 - the kind is the finding
            pytest.fail(f"{value!r} raised {type(exc).__name__}: {exc}")
        pytest.fail(f"{value!r} returned {result!r}")


# ---------------------------------------------------------------------------
# The CLI: argparse turns bools and floats away itself, so its table holds
# the 0, negative and past-range integers, the empty grid lists, the
# partial exactness-bridge instances and the probe option combinations
# that would leave an option unused.

CLI_CASES = [
    ("limit", "--family", "gl", "--t", "1", "--q", "{}", [0, 1, -1]),
    ("limit", "--family", "gl", "--q", "2", "--t", "{}", [0, -1]),
    ("series", "--family", "gl", "--t", "1", "--order", "4", "--q", "{}", [0, 1, -1]),
    ("series", "--family", "gl", "--q", "2", "--order", "4", "--t", "{}", [0, -1]),
    ("series", "--family", "gl", "--q", "2", "--t", "1", "--order", "{}", [1, 0, -1]),
    ("series", "--family", "sl", "--q", "3", "--t", "1", "--order", "4",
     "--coset", "{}", [2, -1]),
    ("enumerate", "--family", "GL", "--q", "2", "--n", "{}", [0, -1]),
    ("enumerate", "--family", "GL", "--n", "2", "--q", "{}", [0, 1, -1]),
    ("enumerate", "--family", "GL", "--n", "2", "--q", "2", "--t", "{}", [0, -1]),
    ("enumerate", "--family", "GL", "--n", "2", "--q", "3", "--t", "1",
     "--coset", "{}", [2, -1]),
    ("enumerate", "--family", "GL", "--n", "2", "--q", "2", "--cap", "{}", [0, -1]),
    ("verify", "--suite", "fpr", "--cap", "{}", [0, -1]),
    ("verify", "--suite", "fpr", "--k", "{}", [0, -1, 2]),
    ("verify", "--suite", "fpr", "--n", "{}", [0, -1]),
    ("verify", "--suite", "fpr", "--q", "{}", [0, 1, -1]),
    ("verify", "--suite", "expectation", "--t", "{}", [0, -1]),
    ("verify", "--suite", "expectation", "--k", "{}", [0, -1, 2]),
    ("verify", "--suite", "coset-average", "--k", "{}", [0, -1, 2]),
    ("verify", "--suite", "coset-average", "--coset", "{}", [1, -1]),
    ("verify", "--suite", "bounds", "--q-list", "{}", [0, 1, -1, "", ","]),
    ("verify", "--suite", "bounds", "--t-list", "{}", [0, -1, "", ","]),
    ("verify", "--suite", "exactness-bridge", "--q", "2", "--t", "1", "--n", "{}", [0, -1]),
    ("verify", "--suite", "exactness-bridge", "--q", "2", "--n", "2", "--t", "{}", [0, -1]),
    # a partial instance would run the whole default grid under a config
    # that echoes only part of it
    ("verify", "--suite", "exactness-bridge", "--q", "{}", [2]),
    ("verify", "--suite", "exactness-bridge", "--q", "2", "--n", "{}", [2]),
    ("verify", "--suite", "inverse-transpose", "--n", "{}", [1, 0, -1]),
    ("verify", "--suite", "orthogonal-reflection", "--n", "{}", [4, 0, -1]),
    ("verify", "--suite", "identities", "--cap", "{}", [0, -1]),
    ("probe", "--group", "psl2-{}", [4, 9, 0, -7]),
    ("probe", "--group", "psl2-5", "--x", "{}", [60, -1]),
    ("probe", "--group", "psl2-5", "--x", "1", "--seed", "1", "--trials", "{}", [0, -1]),
    ("probe", "--group", "psl2-5", "--x", "1", "--trials", "5", "--seed", "{}", [-1]),
    # options that the chosen probe would otherwise ignore
    ("probe", "--group", "psl2-5", "--x", "1", "--x-order", "{}", [2, 5]),
    ("probe", "--group", "psl2-5", "--three-halves", "--x", "{}", [1]),
    ("probe", "--group", "psl2-5", "--three-halves", "--x-order", "{}", [2]),
    ("probe", "--group", "psl2-5", "--three-halves", "--trials", "{}", [10]),
    ("probe", "--group", "psl2-5", "--three-halves", "--seed", "{}", [1]),
    ("probe", "--group", "psl2-5", "--x", "1", "--seed", "{}", [1]),
    ("probe", "--group", "psl2-5", "--x-order", "5", "--seed", "{}", [1]),
]


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: " ".join(c[:-1]))
def test_cli_bad_integer_is_a_usage_error(tmp_path, capsys, case):
    *argv, values = case
    for value in values:
        out = tmp_path / f"report-{value}"
        code = cli.main([a.format(value) for a in argv] + ["--out", str(out)])
        err = capsys.readouterr().err
        assert (code, out.exists()) == (cli.EXIT_USAGE, False), (value, err)
        assert err.startswith("classprop: ") and err.count("\n") == 1, (value, err)


def test_cli_cap_absent_echoes_null(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["enumerate", "--family", "GL", "--n", "2", "--q", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    assert '"cap": null' in out.read_text()


# ---------------------------------------------------------------------------
# One boundary: no bool guard outside _check_int.

class _BoolGuards(ast.NodeVisitor):
    """Collects the enclosing function of every isinstance(..., bool) call,
    bool alone or inside a tuple."""

    def __init__(self):
        self.scope = [None]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                self.found.append(self.scope[-1])
        self.generic_visit(node)


def _bool_isinstance_calls():
    """(file, enclosing function) of every bool isinstance call in src/classprop."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        guards = _BoolGuards()
        guards.visit(ast.parse(path.read_text()))
        found += [(path.name, fn) for fn in guards.found]
    return found


def test_bool_guard_lives_only_in_check_int():
    calls = _bool_isinstance_calls()
    assert ("gf.py", "_check_int") in calls
    assert [c for c in calls if c != ("gf.py", "_check_int")] == []
