"""What the traced run wraps, and how its trace becomes per-layer metrics.

Labels are `<home module>.<qualname>@<binding module>`; metric selectors are
fnmatch patterns over labels.  A metric whose patterns match no installed
label is absent at the measured commit and reported as null.
"""

from __future__ import annotations

from fnmatch import fnmatchcase

HARVEST_CAP = 300     # distinct operands kept per (backend, source)


# -- hooks --------------------------------------------------------------------

def _harvest(tracer, source, scalars):
    """Keep serialized operands seen in real traffic (harvest mode only)."""
    for x in scalars:
        field = getattr(x, "field", None)
        key = "generic" if field is None else f"cyc{field.l}"
        bucket = tracer.harvest.setdefault(f"{key}:{source}", {})
        if len(bucket) < HARVEST_CAP:
            text = str(x) if field is None else field.serialize(x)
            bucket.setdefault(text, None)


def _insert_post(tracer, args, result):
    if result is True:
        tracer.count("linalg.insert_gain")
        rows = getattr(args[0], "rows", None)
        if tracer.harvest is not None and isinstance(rows, dict) and rows:
            _harvest(tracer, "pivot", next(reversed(rows.values())).values())


def _apply_word_pre(tracer, args):
    cache = getattr(args[0], "_cache", None)
    if cache is None:
        tracer.count("tensor.apply_word_nomemo")
    elif args[1] in cache:
        tracer.count("tensor.apply_word_hits")


def _module_post(tracer, args, result):
    if tracer.harvest is None:
        return
    for mat in getattr(args[0], "U", ()):
        for col in mat:
            _harvest(tracer, "matrix", col.values())


def _splitting_post(tracer, args, result):
    if getattr(result, "wall", None) is True:
        tracer.count("towers.wall_points")


def _emit_pre(tracer, args):
    report = args[1] if len(args) > 1 else None
    if isinstance(report, dict):
        tracer.count("cli.points", len(report.get("results") or ()))


# -- targets ------------------------------------------------------------------

_ARITH = ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "inv",
          "__truediv__", "__rtruediv__", "__pow__")

_HOOKS = {
    "linalg.SpanSolver.insert": (None, _insert_post),
    "tensor.LinOp.apply_word": (_apply_word_pre, None),
    "weightmod.WeightModule.__init__": (None, _module_post),
    "towers.splitting_check": (None, _splitting_post),
    "cli._emit": (_emit_pre, None),
}

_AGG = [("scalars", f"{cls}.{op}")
        for cls in ("CycScalar", "GenericScalar") for op in _ARITH] + [
    ("scalars", "CyclotomicField._make"),
    ("scalars", "GenericScalar.make"),
    ("linalg", "SpanSolver.insert"),
    ("linalg", "SpanSolver.contains"),
    ("linalg", "mat_mul"),
    ("tensor", "LinOp.apply_word"),
]

_SPAN = [
    ("linalg", "invariant_closure"),
    ("linalg", "nullspace"),
    ("tensor", "LinOp.matrix"),
    ("tensor", "op_X_ctx"),
    ("tensor", "ops_Xk_ctx"),
    ("tensor", "verify_ariki_koike"),
    ("tensor", "verify_blob_identity"),
    ("tensor", "verify_partial_rotation_fixing"),
    ("blob", "verify_blob_relations"),
    ("blob", "verify_ideal_generators"),
    ("blob", "blob_relation_checks_matrices"),
    ("blob", "ariki_koike_checks_matrices"),
    ("weightmod", "WeightModule.__init__"),
    ("weightmod", "adjointness_record"),
    ("weightmod", "_adjointness_surjective"),
    ("weightmod", "_adjointness_injective"),
    ("weightmod", "quotient_scalar_record"),
    ("specht", "dual_adjointness_check"),
    ("specht", "verify_phi_intertwines"),
    ("specht", "verify_S_prime_relations"),
    ("specht", "verify_gi_quadratic_on_bitableaux"),
    ("specht", "xi_word_eigenvalue_checks"),
    ("specht", "xi_bitableau_eigenvalue_checks"),
    ("specht", "verify_dualize_properties"),
    ("towers", "verify_central_z"),
    ("towers", "restriction_sequence"),
    ("towers", "splitting_check"),
    ("towers", "_wall_complement_search"),
    ("cli", "main"),
    ("cli", "_emit"),
]


def targets():
    """(module, qualname, mode, pre, post) for Tracer.install."""
    out = []
    for mode, group in (("agg", _AGG), ("span", _SPAN)):
        for module, qualname in group:
            pre, post = _HOOKS.get(f"{module}.{qualname}", (None, None))
            out.append((module, qualname, mode, pre, post))
    return out


# -- metrics ------------------------------------------------------------------

_CYC = ["scalars.CycScalar.*", "scalars.CyclotomicField._make@*"]
_GEN = ["scalars.GenericScalar.*"]
_INSERT = ["linalg.SpanSolver.insert@*"]
_APPLY = ["tensor.LinOp.apply_word@*"]
_SPLIT = ["towers.splitting_check@*"]

# name -> (unit, kind, label patterns[, counter name]); a ratio is
# (unit, "ratio", numerator metric, denominator metric)
METRICS = {
    "scalars.cyc_mul_calls": ("count", "calls",
                              ["scalars.CycScalar.__mul__@*"]),
    "scalars.cyc_inv_calls": ("count", "calls", ["scalars.CycScalar.inv@*"]),
    "scalars.cyc_make_calls": ("count", "calls",
                               ["scalars.CyclotomicField._make@*"]),
    "scalars.cyc_self_s": ("s", "self", _CYC),
    "scalars.gen_mul_calls": ("count", "calls",
                              ["scalars.GenericScalar.__mul__@*"]),
    "scalars.gen_add_calls": ("count", "calls",
                              ["scalars.GenericScalar.__add__@*"]),
    "scalars.gen_make_calls": ("count", "calls",
                               ["scalars.GenericScalar.make@*"]),
    "scalars.gen_self_s": ("s", "self", _GEN),
    "linalg.insert_calls": ("count", "calls", _INSERT),
    "linalg.insert_rank_gain": ("count", "counter", _INSERT,
                                "linalg.insert_gain"),
    "linalg.insert_useful_ratio": ("ratio", "ratio", "linalg.insert_rank_gain",
                                   "linalg.insert_calls"),
    "linalg.insert_s": ("s", "time", _INSERT),
    "linalg.contains_calls": ("count", "calls",
                              ["linalg.SpanSolver.contains@*"]),
    "linalg.contains_s": ("s", "time", ["linalg.SpanSolver.contains@*"]),
    "linalg.closure_s": ("s", "time", ["linalg.invariant_closure@*"]),
    "linalg.nullspace_s": ("s", "time", ["linalg.nullspace@*"]),
    "linalg.mat_mul_calls": ("count", "calls", ["linalg.mat_mul@*"]),
    "linalg.mat_mul_s": ("s", "time", ["linalg.mat_mul@*"]),
    "tensor.apply_word_calls": ("count", "calls", _APPLY),
    "tensor.apply_word_hits": ("count", "counter", _APPLY,
                               "tensor.apply_word_hits"),
    "tensor.apply_word_hit_ratio": ("ratio", "ratio", "tensor.apply_word_hits",
                                    "tensor.apply_word_calls"),
    "tensor.matrix_calls": ("count", "calls", ["tensor.LinOp.matrix@*"]),
    "tensor.matrix_s": ("s", "time", ["tensor.LinOp.matrix@*"]),
    "tensor.chain_builds": ("count", "calls",
                            ["tensor.op_X_ctx@*", "tensor.ops_Xk_ctx@*"]),
    "tensor.relations_s": ("s", "time", ["tensor.verify_*@*"]),
    "blob.lazy_checks_s": ("s", "time", ["blob.verify_blob_relations@*",
                                         "blob.verify_ideal_generators@*"]),
    "blob.matrix_checks_s": ("s", "time",
                             ["blob.blob_relation_checks_matrices@*",
                              "blob.ariki_koike_checks_matrices@*"]),
    "weightmod.module_builds": ("count", "calls",
                                ["weightmod.WeightModule.__init__@*"]),
    "weightmod.module_build_s": ("s", "time",
                                 ["weightmod.WeightModule.__init__@*"]),
    "weightmod.surjective_s": ("s", "time",
                               ["weightmod._adjointness_surjective@*"]),
    "weightmod.injective_s": ("s", "time",
                              ["weightmod._adjointness_injective@*"]),
    "weightmod.quotient_s": ("s", "time",
                             ["weightmod.quotient_scalar_record@*"]),
    "weightmod.closure_s": ("s", "time",
                            ["linalg.invariant_closure@weightmod"]),
    "specht.dual_s": ("s", "time", ["specht.dual_adjointness_check@*"]),
    "specht.closure_s": ("s", "time", ["linalg.invariant_closure@specht"]),
    "specht.duality_checks_s": ("s", "time", [
        "specht.verify_phi_intertwines@*",
        "specht.verify_S_prime_relations@*",
        "specht.verify_gi_quadratic_on_bitableaux@*",
        "specht.xi_word_eigenvalue_checks@*",
        "specht.xi_bitableau_eigenvalue_checks@*",
        "specht.verify_dualize_properties@*"]),
    "towers.central_s": ("s", "time", ["towers.verify_central_z@*"]),
    "towers.restriction_s": ("s", "time", ["towers.restriction_sequence@*"]),
    "towers.splitting_s": ("s", "time", _SPLIT),
    "towers.wall_points": ("count", "counter", _SPLIT, "towers.wall_points"),
    "towers.wall_search_s": ("s", "time",
                             ["towers._wall_complement_search@*"]),
    "cli.points": ("count", "counter", ["cli._emit@*"], "cli.points"),
    "cli.emit_s": ("s", "time", ["cli._emit@*"]),
    "cli.unattributed_s": ("s", "self", ["cli.main@*"]),
}

# exact counts that must repeat across traced runs of one workload and seed
COUNT_METRICS = [name for name, spec in METRICS.items()
                 if spec[0] == "count"]


def _outermost_time(spans, labels):
    """Inclusive seconds of spans labelled in `labels` that have no ancestor
    labelled in `labels`."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for s in spans:
        if s[1] not in labels:
            continue
        parent = by_id.get(s[4])
        while parent is not None and parent[1] not in labels:
            parent = by_id.get(parent[4])
        if parent is None:
            total += s[3] - s[2]
    return total


def compute(trace):
    """Per-layer metric values (None when absent) from a Tracer.to_json()."""
    spans = trace["spans"]
    aggs = trace["aggregates"]
    counters = trace["counters"]
    by_label = {}
    for s in spans:
        by_label.setdefault(s[1], []).append(s)
    values = {}
    for name, (unit, kind, *rest) in METRICS.items():
        if kind == "ratio":
            continue
        labels = {label for label in trace["installed"]
                  if any(fnmatchcase(label, p) for p in rest[0])}
        if not labels:
            values[name] = None
            continue
        agg = [aggs[label] for label in labels if label in aggs]
        own = [s for label in labels for s in by_label.get(label, ())]
        if kind == "calls":
            values[name] = sum(a["calls"] for a in agg) + len(own)
        elif kind == "self":
            values[name] = (sum(a["self_s"] for a in agg)
                            + sum(s[5] for s in own))
        elif kind == "time":
            values[name] = (sum(a["outer_s"] for a in agg)
                            + _outermost_time(spans, labels))
        else:
            values[name] = counters.get(rest[1], 0)
    if counters.get("tensor.apply_word_nomemo"):
        values["tensor.apply_word_hits"] = None
    for name, (unit, kind, *rest) in METRICS.items():
        if kind == "ratio":
            num, den = values.get(rest[0]), values.get(rest[1])
            values[name] = None if num is None or not den else num / den
    return values
