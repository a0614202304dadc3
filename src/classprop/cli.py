"""Batch command line frontend.

Five commands compute reports and write them as JSON (default) or CSV:

    limit      rigorous enclosure of a limiting proportion
    series     coefficient table of a generating function
    enumerate  build a group table and report sizes and proportions
    verify     run a named verification suite, exit 1 on failure
    probe      generation statistics for the shipped permutation groups
    presets    print the packaged sieved-set parameter table

Every JSON report is one object:

    {
      "schema": "classprop-report-1",
      "version": <toolkit version>,
      "config": <full echo of the parsed run configuration>,
      "ok": <bool>,
      "result": <command specific payload>
    }

Exact rationals appear as "p/q" strings, never as floats; keys are sorted,
so a fixed (config, seed) pair produces byte-identical output.  CSV output
is offered for the tabular commands (limit, series, enumerate) with the
same rational rendering.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
unwritable --out path or cache directory), 3 resource cap exceeded.  The group-table cache
directory is taken from the CLASSPROP_CACHE environment variable when set.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from . import __version__
from .gf import Field, _check_int, prime_power
from .limits import (
    DEFAULT_TOL,
    LimitFamily,
    bound_suite,
    limit_from_series,
    limit_value,
    q_infinity_limit,
)
from .matgroup import (
    ActionSpec,
    ResourceCapExceeded,
    DEFAULT_GROUP_CAP,
    _fixed_rows,
    build_group,
    enumerate_action,
    membership_sets,
)
from .series import gl_no_small_factor_series, sl_coset_series
from .stats import (
    _expectation_fold,
    coset_average_fixed_points,
    fpr_bound_check,
    generation_probe,
    inverse_transpose_identity_check,
    orthogonal_reflection_identity_check,
    proportion,
    psl2,
    three_halves_generation,
)

SCHEMA = "classprop-report-1"
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# The exact series grow about as order^5: 0.9 s at order 150 for GL at
# q = 2, t = 1, 3.6 s at 200 and 34 s at 300; cmd_series scales it to (family, q).
SERIES_ORDER_CAP = 150

_LIMIT_TAGS = {
    "gl": "GL",
    "su": "SU",
    "sp": "Sp",
    "sp-odd": "Sp_odd",
    "sp-even": "Sp_even",
    "o": "O",
    "o-half": "O_half",
}
_GROUP_FAMILIES = ["GL", "SL", "Sp", "SU", "GU", "O+", "O-", "O"]

VERIFY_SUITES = (
    "exactness-bridge",
    "bounds",
    "identities",
    "inverse-transpose",
    "orthogonal-reflection",
    "expectation",
    "fpr",
    "coset-average",
)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation, echoed into every report."""

    command: str
    family: str = None
    n: int = None
    q: int = None
    t: int = None
    coset: object = None
    method: str = None
    trials: int = None
    seed: int = None
    order: int = None
    tol: str = None
    out: str = None
    format: str = "json"
    suite: str = None
    k: int = None
    cap: int = None
    group: str = None
    x: int = None
    x_order: int = None
    three_halves: bool = False
    q_list: str = None
    t_list: str = None

    @property
    def group_cap(self):
        """The --cap value, or the library default when none was given."""
        return DEFAULT_GROUP_CAP if self.cap is None else self.cap

    @property
    def tolerance(self):
        """The --tol value as a positive rational, or the library default
        when none was given; anything else is a usage error."""
        try:
            tol = Fraction(self.tol) if self.tol else DEFAULT_TOL
        except (ValueError, ZeroDivisionError):
            tol = 0
        if tol <= 0:
            raise ValueError(f"--tol must be a positive rational, not {self.tol!r}")
        return tol


# ---------------------------------------------------------------------------
# Rendering.

_DIGIT_BLOCK = 10**600


def _decimal(n):
    """str(n) for an int of any length.  str() refuses ints longer than
    sys.get_int_max_str_digits() (4300 digits by default, and never below
    640), so the digits are written in blocks of 600."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    blocks = []
    while n >= _DIGIT_BLOCK:
        n, r = divmod(n, _DIGIT_BLOCK)
        blocks.append(f"{r:0600d}")
    return sign + str(n) + "".join(reversed(blocks))


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{_decimal(obj.numerator)}/{_decimal(obj.denominator)}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(v) for v in obj)
    return obj


def _render(cfg, ok, result, rows=None):
    if cfg.format == "csv":
        if rows is None:
            raise ValueError(f"{cfg.command} reports are JSON only")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow([_jsonable(v) for v in row])
        return buf.getvalue()
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "config": _jsonable(dataclasses.asdict(cfg)),
        "ok": ok,
        "result": _jsonable(result),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(cfg, text):
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(option, text, fallback):
    """The integers of a comma separated option, or fallback when it is
    absent; a given list that names no value is a usage error."""
    if text is None:
        return list(fallback)
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"{option} names no value: {text!r}")
    return values


def _round_outward(lo, hi, slack):
    """Widen [lo, hi] to decimal-denominator endpoints, moving each end by
    less than slack.  Exact enclosures carry huge numerators; this keeps the
    report readable while staying a valid enclosure."""
    scale = 1
    while Fraction(1, scale) > slack:
        scale *= 10
    lo2 = Fraction(math.floor(lo * scale), scale)
    hi2 = Fraction(math.ceil(hi * scale), scale)
    return lo2, hi2


def _coset_arg(value):
    if value is None or value in ("tau", "S", "O"):
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError(
            f"--coset must be an integer label, tau, S or O, not {value!r}"
        ) from None


# ---------------------------------------------------------------------------
# Commands.

def cmd_limit(cfg):
    fam = LimitFamily(_LIMIT_TAGS[cfg.family], cfg.q, cfg.t)
    tol = cfg.tolerance
    enc = limit_value(fam, tol / 2)
    lo, hi = _round_outward(enc.lo, enc.hi, tol / 4)
    reference = q_infinity_limit(fam.tag, cfg.t)
    result = {
        "family": fam.tag,
        "q": cfg.q,
        "t": cfg.t,
        "tol": tol,
        "lo": lo,
        "hi": hi,
        "width": hi - lo,
        "midpoint": float((lo + hi) / 2),
        "q_infinity": reference,
    }
    rows = [
        ["family", "q", "t", "lo", "hi", "width", "midpoint", "q_infinity"],
        [fam.tag, cfg.q, cfg.t, lo, hi, hi - lo,
         float((lo + hi) / 2), reference],
    ]
    return True, result, rows


def cmd_series(cfg):
    _check_int("series order", cfg.order, 2)
    # check q, then cap the order: time grows as order^2 log q (a coefficient's
    # digits) times m^(4/5) on the ring Q[C_m], m = q - 1 for sl (fitted; it
    # overrates gl at large q, whose edge at q = 1000003 takes 0.08 s)
    (prime_power if cfg.family == "gl" else Field)(cfg.q)
    weight = math.log2(cfg.q) * (cfg.q - 1 if cfg.family == "sl" else 1) ** 0.8
    cap = math.isqrt(int(SERIES_ORDER_CAP**2 / weight))
    if cfg.order > cap:
        raise ResourceCapExceeded(f"series order {cfg.order} is above the cap of {cap}")
    if cfg.family == "gl":
        if cfg.coset is not None:
            raise ValueError("gl series take no coset")
        s = gl_no_small_factor_series(cfg.q, cfg.t, cfg.order)
    else:
        mu = cfg.coset if cfg.coset is not None else 0
        if not isinstance(mu, int):
            raise ValueError("series cosets are determinant labels (integers)")
        s = sl_coset_series(cfg.q, cfg.t, mu, cfg.order)
    coeffs = [s.coeff(n) for n in range(cfg.order + 1)]
    tail = limit_from_series(s)
    result = {
        "family": cfg.family,
        "q": cfg.q,
        "t": cfg.t,
        "coset": cfg.coset,
        "order": cfg.order,
        "coefficients": coeffs,
        "last": coeffs[-1],
        "last_float": float(coeffs[-1]),
        "tail_gap": tail.gap,
    }
    rows = [["n", "coefficient"]]
    rows += [[n, c] for n, c in enumerate(coeffs)]
    return True, result, rows


def cmd_enumerate(cfg):
    if cfg.coset is not None and cfg.t is None:
        raise ValueError("enumerate --coset needs --t")
    table = build_group(cfg.family, cfg.n, cfg.q, cap=cfg.group_cap)
    result = {
        "family": cfg.family,
        "n": cfg.n,
        "q": cfg.q,
        "order": table.order(),
        "generators": len(table.gens),
        "labels": sorted(table.label_values()),
        "coset_sizes": {
            str(lab): table.coset_size(lab)
            for lab in sorted(table.label_values())
        },
    }
    rows = [["key", "value"],
            ["family", cfg.family], ["n", cfg.n], ["q", cfg.q],
            ["order", table.order()]]
    if cfg.t is not None:
        rep = proportion(table, cfg.t, cfg.coset)
        members = int(rep.value * rep.sample_size)
        result.update({"t": cfg.t, "coset": cfg.coset,
                       "members": members, "proportion": rep.value})
        rows += [["t", cfg.t], ["coset", cfg.coset],
                 ["members", members], ["proportion", rep.value]]
    return True, result, rows


# --- verify suites ---------------------------------------------------------

def _suite_exactness_bridge(cfg):
    given = [v is not None for v in (cfg.q, cfg.n, cfg.t)]
    if any(given) and not all(given):
        raise ValueError("exactness-bridge takes --q, --n and --t together or not at all")
    if all(given):
        grid = [(cfg.q, cfg.n, cfg.t)]
    else:
        grid = [(2, n, t) for n in (2, 3, 4) for t in (1, 2, 3)]
        grid += [(3, n, t) for n in (2, 3) for t in (1, 2)]
    cases = []
    failures = []
    for q, n, t in grid:
        for coset in [None] + list(range(q - 1)):
            via_series = proportion(("GL", n, q), t, coset=coset, method="series")
            via_enum = proportion(("GL", n, q), t, coset=coset, cap=cfg.group_cap)
            equal = via_series.value == via_enum.value
            record = {"q": q, "n": n, "t": t, "coset": coset,
                      "series": via_series.value, "enumeration": via_enum.value,
                      "equal": equal}
            cases.append(record)
            if not equal:
                failures.append(record)
    return not failures, {"cases": cases, "failures": failures}


def _suite_bounds(cfg):
    qs = _parse_int_list("--q-list", cfg.q_list, (2, 3, 4, 5, 7, 8, 9))
    ts = _parse_int_list("--t-list", cfg.t_list, (1, 2, 3, 4))
    tol = cfg.tolerance
    report = bound_suite(qs, ts, tol)
    # exact endpoints have huge numerators; widen them slightly for display
    for entry in report["entries"]:
        lo, hi = _round_outward(entry["lo"], entry["hi"], tol)
        entry.update(lo=lo, hi=hi, margin_to_1=1 - hi, margin_to_0=lo)
    return report["all_pass"], report


_IDENTITIES = {
    "inverse-transpose": (inverse_transpose_identity_check, 3, 2),
    "orthogonal-reflection": (orthogonal_reflection_identity_check, 5, 3),
}


def _suite_identity(cfg):
    """One identity check; n and q default per identity, t to 1."""
    check, n, q = _IDENTITIES[cfg.suite]
    n = cfg.n if cfg.n is not None else n
    q = cfg.q if cfg.q is not None else q
    t = cfg.t if cfg.t is not None else 1
    ok = check(n, q, t, cap=cfg.group_cap)
    record = {"n": n, "q": q, "t": t, "holds": ok}
    return ok, {"cases": [record], "failures": [] if ok else [record]}


def _suite_identities(cfg):
    grid = [("inverse-transpose", n, q) for n, q in ((2, 2), (3, 2), (3, 3))]
    grid.append(("orthogonal-reflection", 5, 3))
    cases = []
    for name, n, q in grid:
        ok = _IDENTITIES[name][0](n, q, 1, cap=cfg.group_cap)
        cases.append({"identity": name, "n": n, "q": q, "t": 1, "holds": ok})
    failures = [c for c in cases if not c["holds"]]
    return not failures, {"cases": cases, "failures": failures}


def _suite_table(cfg):
    """The group of a table suite: GL_3(2) unless the flags name another."""
    family = cfg.family or "GL"
    n = cfg.n if cfg.n is not None else 3
    q = cfg.q if cfg.q is not None else 2
    return build_group(family, n, q, cap=cfg.group_cap)


def _suite_expectation(cfg):
    table = _suite_table(cfg)
    t = cfg.t if cfg.t is not None else 1
    k = cfg.k if cfg.k is not None else 1
    members = membership_sets(table, t, cfg.coset)
    if not members:
        raise ValueError("the sieved subset is empty at these parameters")
    act = enumerate_action(table, ActionSpec("subspace", k))
    record = _expectation_fold(table, members, act)
    # the members are conjugation-stable and the action orbits belong to the
    # group, so every field of the record is a class function of x
    classes = table.conjugacy_classes()
    fixed = _fixed_rows(table.space, table.rows[[cls[0] for cls in classes]], act)
    recs = [record(xfix) for mask in fixed for xfix in mask]
    failures = sorted(({"x": x, **rec} for cls, rec in zip(classes, recs) if not rec["ok"]
                       for x in cls), key=lambda rec: rec["x"])
    summary = {"family": table.family, "n": table.n, "q": table.q,
               "t": t, "k": k, "members": len(members),
               "checked": len(table.elements),
               "min_slack": min(rec["rhs"] - rec["lhs"] for rec in recs),
               "failures": failures}
    return not failures, summary


def _suite_fpr(cfg):
    table = _suite_table(cfg)
    reports = fpr_bound_check(table, kmax=cfg.k)
    bad = [r for r in reports if r.violations]
    return not bad, {"reports": reports, "failures": bad}


def _suite_coset_average(cfg):
    table = _suite_table(cfg)
    k = cfg.k if cfg.k is not None else 1
    rep = coset_average_fixed_points(table, ActionSpec("subspace", k),
                                     coset=cfg.coset)
    values = rep.orbit_values if rep.orbit_values is not None else (rep.value,)
    ok = all(v == 1 for v in values)
    record = {"family": table.family, "n": table.n, "q": table.q, "k": k,
              "coset": cfg.coset, "value": rep.value,
              "orbit_values": rep.orbit_values, "transitive": rep.transitive}
    return ok, {"cases": [record], "failures": [] if ok else [record]}


_SUITES = {
    "exactness-bridge": _suite_exactness_bridge,
    "bounds": _suite_bounds,
    "identities": _suite_identities,
    "inverse-transpose": _suite_identity,
    "orthogonal-reflection": _suite_identity,
    "expectation": _suite_expectation,
    "fpr": _suite_fpr,
    "coset-average": _suite_coset_average,
}


def cmd_verify(cfg):
    ok, detail = _SUITES[cfg.suite](cfg)
    result = {"suite": cfg.suite, "pass": ok, **detail}
    return ok, result, None


def cmd_probe(cfg):
    if not cfg.group or not cfg.group.startswith("psl2-"):
        raise ValueError("probe targets are named psl2-<prime>, e.g. psl2-7")
    p = int(cfg.group.split("-", 1)[1])
    picked = (cfg.x, cfg.x_order, cfg.trials, cfg.seed)
    if cfg.three_halves and picked != (None,) * 4:
        raise ValueError("--three-halves takes no --x, --x-order, --trials or --seed")
    if cfg.x is not None and cfg.x_order is not None:
        raise ValueError("give --x or --x-order, not both")
    if cfg.seed is not None and cfg.trials is None:
        raise ValueError("--seed needs --trials: an exhaustive probe draws nothing")
    group = psl2(p)
    if cfg.three_halves:
        records = three_halves_generation(group)
        ok = all(rec["proportion"] > 0 for rec in records)
        result = {"group": group.name, "order": group.order(),
                  "classes": records, "all_positive": ok}
        return ok, result, None
    if cfg.x is not None:
        x = cfg.x
    elif cfg.x_order is not None:
        x = None
        for cls in group.conjugacy_classes():
            rep = cls[0]
            if group.element_order(group.elements[rep]) == cfg.x_order:
                x = rep
                break
        if x is None:
            raise ValueError(f"no element of order {cfg.x_order}")
    else:
        raise ValueError("give --x, --x-order, or --three-halves")
    trials = cfg.trials if cfg.trials is not None else "exhaustive"
    report = generation_probe(group, x, trials=trials, seed=cfg.seed)
    return True, {"group": group.name, "order": group.order(),
                  "report": report}, None


def cmd_presets(cfg):
    text = resources.files("classprop").joinpath("presets.json").read_text()
    return True, json.loads(text), None


# ---------------------------------------------------------------------------
# Argument parsing.

def build_parser():
    parser = argparse.ArgumentParser(
        prog="classprop",
        description="Proportions of classical group elements whose "
                    "characteristic polynomial has no small degree factor.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("limit", help="rigorous enclosure of a limit")
    p.add_argument("--family", required=True, choices=sorted(_LIMIT_TAGS))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", help="enclosure width target, e.g. 1e-6")
    common(p)

    p = sub.add_parser("series", help="coefficient table of a series")
    p.add_argument("--family", required=True, choices=("gl", "sl"))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--coset", help="determinant label for sl")
    p.add_argument("--order", type=int, required=True)
    common(p)

    p = sub.add_parser("enumerate", help="build a group table")
    p.add_argument("--family", required=True, choices=_GROUP_FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--coset", help="label, or tau / S / O")
    p.add_argument("--cap", type=int, help="element count cap")
    common(p)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p.add_argument("--family", choices=_GROUP_FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--coset", help="label, or S / O")
    p.add_argument("--q-list", help="comma separated q grid (bounds)")
    p.add_argument("--t-list", help="comma separated t grid (bounds)")
    p.add_argument("--tol")
    p.add_argument("--cap", type=int)
    common(p)

    p = sub.add_parser("probe", help="generation statistics")
    p.add_argument("--group", required=True, help="psl2-<prime>")
    p.add_argument("--x", type=int, help="element index")
    p.add_argument("--x-order", type=int, help="pick a class of this order")
    p.add_argument("--three-halves", action="store_true",
                   help="exhaustive check over every nontrivial class")
    p.add_argument("--trials", type=int, help="sample count (default exhaustive)")
    p.add_argument("--seed", type=int)
    common(p)

    p = sub.add_parser("presets", help="print the sieved-set parameter table")
    common(p)

    return parser


_COMMANDS = {
    "limit": cmd_limit,
    "series": cmd_series,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "probe": cmd_probe,
    "presets": cmd_presets,
}


def _config_from_args(args):
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {k: v for k, v in vars(args).items() if k in fields}
    if data.get("coset") is not None:
        data["coset"] = _coset_arg(data["coset"])
    if data.get("cap") is not None:
        _check_int("--cap", data["cap"], 1)
    return RunConfig(**data)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        ok, result, rows = _COMMANDS[cfg.command](cfg)
        text = _render(cfg, ok, result, rows)
    except ResourceCapExceeded as exc:
        print(f"classprop: resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"classprop: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _write(cfg, text)
    except OSError as exc:
        print(f"classprop: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not ok:
        failures = result.get("failures") if isinstance(result, dict) else None
        if failures is not None:
            print(json.dumps(_jsonable(failures), sort_keys=True, indent=2),
                  file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
