"""Per-layer metrics of the traced run, and what each one should move.

Each entry is (name, unit, better, prediction).  The prediction names the
end-to-end metric and the workload on which a change to that layer figure
should show; BENCHMARK.json has no field for it, so it lives here.
"""

from statistics import median, median_low

LAYER_PREFIXES = ("gf", "series", "limits", "matgroup", "stats", "cli")

PER_LAYER = [
    ("gf.count_irreducibles.calls", "count", "lower", "wall_s on analytic"),
    ("gf.count_irreducibles.self_s", "s", "lower", "wall_s on analytic"),
    ("gf.count_enumerated.calls", "count", "lower", "wall_s on analytic; ~0 on tables and sampling"),
    ("gf.count_enumerated.self_s", "s", "lower", "wall_s on analytic; ~0 on tables and sampling"),
    ("gf.count_formula.calls", "count", "higher", "wall_s on analytic"),
    ("gf.residue_class_counts.self_s", "s", "lower", "wall_s on analytic"),
    ("gf.has_small_degree_factor.calls", "count", "lower", "wall_s on tables and sampling"),
    ("gf.has_small_degree_factor.self_s", "s", "lower", "wall_s on tables and sampling"),
    ("gf.self_s", "s", "lower", "wall_s on analytic"),
    ("cyclo.CycNum.mul.calls", "count", "lower", "wall_s on analytic"),
    ("series.sl_coset_series.calls", "count", "lower", "wall_s on analytic"),
    ("series.sl_coset_series.self_s", "s", "lower", "wall_s on analytic"),
    ("series.gl_no_small_factor_series.self_s", "s", "lower", "wall_s on analytic"),
    ("series.self_s", "s", "lower", "wall_s on analytic"),
    ("limits.limit_value.calls", "count", "lower", "wall_s on analytic"),
    ("limits.limit_value.self_s", "s", "lower", "wall_s on analytic"),
    ("limits.log1p_enclosure.calls", "count", "lower", "wall_s on analytic"),
    ("limits.refine_passes", "count", "lower", "wall_s on analytic"),
    ("limits.self_s", "s", "lower", "wall_s on analytic"),
    ("matgroup.build_group.calls", "count", "lower", "wall_s on tables; setup_s on cli"),
    ("matgroup.build_group.self_s", "s", "lower", "wall_s on tables; setup_s on cli"),
    ("matgroup.build_group.hit_self_s", "s", "lower", "wall_s on cli"),
    ("matgroup.bfs_closure.calls", "count", "lower", "wall_s on tables; setup_s on cli"),
    ("matgroup.bfs_closure.self_s", "s", "lower", "wall_s on tables; setup_s on cli"),
    ("matgroup.closure_products", "count", "lower", "wall_s on tables; setup_s on cli"),
    ("matgroup.cache_hits", "count", "higher", "wall_s on cli (reads)"),
    ("matgroup.cache_writes", "count", "lower", "wall_s on tables (writes)"),
    ("matgroup.membership_sets.self_s", "s", "lower", "wall_s on tables"),
    ("matgroup.tau_membership.self_s", "s", "lower", "wall_s on tables"),
    ("matgroup.enumerate_action.self_s", "s", "lower", "wall_s on tables"),
    ("matgroup.fixed_point_indices.calls", "count", "lower", "wall_s on tables"),
    ("matgroup.fixed_point_indices.self_s", "s", "lower", "wall_s on tables"),
    ("matgroup.elements_scanned", "count", "lower", "wall_s on tables"),
    ("matgroup.action_points", "count", "lower", "wall_s on tables"),
    ("matgroup.self_s", "s", "lower", "wall_s on tables"),
    ("stats.fpr_bound_check.self_s", "s", "lower", "wall_s on tables"),
    ("stats.fixed_sets.self_s", "s", "lower", "wall_s on tables"),
    ("stats.expectation_inequality.self_s", "s", "lower", "wall_s on tables"),
    ("stats.coset_average_fixed_points.self_s", "s", "lower", "wall_s on tables"),
    ("stats.gf2_nonsingular_batch.calls", "count", "lower", "wall_s and mc samples/s on sampling"),
    ("stats.gf2_nonsingular_batch.self_s", "s", "lower", "wall_s and mc samples/s on sampling"),
    ("stats.mc.raw_draws", "count", "lower", "wall_s and mc samples/s on sampling"),
    ("stats.mc.accept_ratio", "1", "higher", "wall_s and mc samples/s on sampling"),
    ("stats.mc.samples_per_s", "1/s", "higher", "wall_s on sampling (the README sampler claim)"),
    ("stats.weyl_negative_cycle_statistic.self_s", "s", "lower", "wall_s on sampling"),
    ("stats.generation_probe.self_s", "s", "lower", "wall_s on sampling and cli"),
    ("stats.three_halves_generation.self_s", "s", "lower", "wall_s on cli"),
    ("stats.self_s", "s", "lower", "wall_s on tables and sampling"),
    ("cli.startup_s", "s", "lower", "wall_s on cli"),
    ("cli.main.self_s", "s", "lower", "wall_s on cli"),
    ("cli.process.self_s", "s", "lower", "wall_s on cli"),
    ("cli.report_bytes", "bytes", "lower", "wall_s on cli"),
    ("trace.overhead_ratio", "1", "lower", "none: traced over untraced wall_s"),
    ("trace.span_coverage", "1", "higher", "none: span self times over traced wall_s"),
]


def _layer_values(summary):
    """Per-layer figures of one traced pass; spans first, then counters."""
    spans, counters = summary["spans"], summary["counters"]
    accepted = counters.get("stats.mc.accepted", 0)
    raw = counters.get("stats.mc.batch_rows", 0) - accepted
    out = {
        "matgroup.build_group.hit_self_s": summary["hit_self_s"],
        "stats.mc.raw_draws": raw,
        "stats.mc.accept_ratio": accepted / raw if raw else 0.0,
    }
    for prefix in LAYER_PREFIXES:
        out[f"{prefix}.self_s"] = sum(row["self_s"] for fn, row in spans.items()
                                      if fn.startswith(prefix + "."))
    for name, _, _, _ in PER_LAYER:
        fn, _, field = name.rpartition(".")
        if name in out:
            continue
        if fn.count(".") == 1 and field in ("calls", "self_s"):
            out[name] = spans.get(fn, {}).get(field, 0)
        else:
            out[name] = counters.get(name, 0)
    return out


def exact_counts(summary):
    """The figures that must repeat exactly between two traced passes."""
    counts = {f"{fn}.calls": row["calls"] for fn, row in summary["spans"].items()}
    counts.update(summary["counters"])
    return counts


def per_layer_metrics(untraced, traced, startup_s):
    """Per-layer metrics from one untraced and several traced passes."""
    values = [_layer_values(p["trace"]) for p in traced]
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    # counts repeat exactly (checked by run.py); times take the median
    out = {name: (median_low if units.get(name) == "count" else median)(v[name] for v in values)
           for name in values[0]}
    walls = [p["wall_s"] for p in traced]
    out["stats.mc.samples_per_s"] = untraced["extra"].get("mc_samples_per_s", 0.0)
    out["cli.startup_s"] = startup_s
    out["cli.report_bytes"] = traced[0]["report_bytes"]
    out["trace.overhead_ratio"] = median(walls) / untraced["wall_s"]
    out["trace.span_coverage"] = median(p["trace"]["top_s"] / p["wall_s"] for p in traced)
    return {name: {"value": out.get(name, 0), "unit": unit} for name, unit, _, _ in PER_LAYER}
