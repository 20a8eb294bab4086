"""Tracing for the per-layer run, installed from outside the library.

`install(tracer)` replaces public kgraphs functions and methods with
wrappers, patched where callers look them up (for example both
`kgraphs.periodicity.theta` and `kgraphs.kms.theta`).  Nothing under `src/`
changes.

Every timed wrapper pushes a frame on one stack, so a layer's self time is
its duration minus the time of the timed layers it called.  Entry points
also keep a span record (id, name, start, end, parent id, operation id);
hot inner layers, called up to millions of times per operation, keep only
their aggregate counts and times so memory stays bounded.  Counter-only
wrappers (`graphs.path_hash`, `periodicity.decide_periodic`, `kms.psi`,
`kms.algebra_mul`) take no time stamps at all.
"""

import json
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()    # derived counters: paths returned, hits
        self.spans = []
        self.stack = []            # frames: [span id, child seconds]
        self.next_id = 0
        self.op_id = None

    def timed(self, name, fn, keep_spans=False, after=None):
        """Wrap fn as layer `name`; after(args, result, seconds) sees each
        return."""
        clock = time.perf_counter
        stack, calls, self_s, spans = (self.stack, self.calls, self.self_s,
                                       self.spans)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.next_id += 1
            frame = [tracer.next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                calls[name] += 1
                self_s[name] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                if keep_spans:
                    spans.append((frame[0], name, start, end, parent,
                                  tracer.op_id))
            if after is not None:
                after(args, result, seconds)
            return result
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def ratio(self, part, whole):
        return self.counts[part] / self.calls[whole] if self.calls[whole] \
            else 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def install(tracer):
    """Wrap every layer that layer_metrics() reports on."""
    from kgraphs import (builders, cli, degrees, graphs, kms, measure,
                         periodicity, perron, scalars)

    t = tracer

    def patch(owners, attr, wrapper):
        for owner in owners:
            setattr(owner, attr, wrapper)

    patch([degrees], "rho_power",
          t.timed("degrees.rho_power", degrees.rho_power))

    # graphs
    KGraph, Path = graphs.KGraph, graphs.Path
    Path.__hash__ = t.counted("graphs.path_hash", Path.__hash__)
    for method in ("compose", "factorize", "segment"):
        setattr(KGraph, method, t.timed(f"graphs.{method}",
                                        getattr(KGraph, method)))

    def paths_returned(args, result, seconds):
        t.counts["graphs.paths_of_degree.paths_returned"] += len(result)
    KGraph.paths_of_degree = t.timed("graphs.paths_of_degree",
                                     KGraph.paths_of_degree,
                                     after=paths_returned)

    def nonempty(args, result, seconds):
        t.counts["graphs.lambda_min.nonempty"] += bool(result)
    KGraph.lambda_min = t.timed("graphs.lambda_min", KGraph.lambda_min,
                                after=nonempty)
    KGraph.from_json = classmethod(t.timed(
        "graphs.from_json", KGraph.from_json.__func__, keep_spans=True))
    validate = KGraph.validate
    timed_validate = t.timed("graphs.validate", validate, keep_spans=True)

    def validate_once(self):
        # validate() caches its report and every compose() calls it; only
        # the first, uncached call does work worth a span
        if getattr(self, "_report", None) is not None:
            return validate(self)
        return timed_validate(self)
    KGraph.validate = validate_once

    for fn in ("one_graph", "make_single_vertex", "make_pullback",
               "make_product"):
        setattr(builders, fn, t.timed("builders.build",
                                      getattr(builders, fn),
                                      keep_spans=True))

    # scalars: Gaussian-rational arithmetic
    QQi = scalars.QQi
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__neg__"):
        setattr(QQi, op, t.timed("scalars.qqi_ops", getattr(QQi, op)))

    patch([perron, cli], "perron_data",
          t.timed("perron.perron_data", perron.perron_data, keep_spans=True))

    # periodicity
    def pair_true(args, result, seconds):
        t.counts["periodicity.check_pair.true"] += bool(result)
    periodicity.check_pair = t.timed("periodicity.check_pair",
                                     periodicity.check_pair, after=pair_true)
    patch([periodicity, cli], "periodicity_group",
          t.timed("periodicity.periodicity_group",
                  periodicity.periodicity_group, keep_spans=True))
    patch([periodicity, kms], "theta",
          t.timed("periodicity.theta", periodicity.theta, keep_spans=True))
    patch([periodicity, kms], "decide_periodic",
          t.counted("periodicity.decide_periodic",
                    periodicity.decide_periodic))

    # measure
    measure.CylinderMeasure.mass = t.timed("measure.mass",
                                           measure.CylinderMeasure.mass)
    for fn in ("consistency_check", "periodicity_mass_profile",
               "agreement_mass", "find_decay_witness", "decay_check"):
        patch([measure, cli], fn, t.timed(f"measure.{fn}",
                                          getattr(measure, fn),
                                          keep_spans=True))

    # kms
    States = kms.KMSStates
    seen_tables = weakref.WeakKeyDictionary()

    def cold_or_warm(args, rep, seconds):
        # the first check per (states, box, mode) builds the sweep table
        tables = seen_tables.setdefault(args[0], set())
        key = (rep.max_degree, rep.theta_blind)
        t.counts["kms.kms_check.warm_s" if key in tables
                 else "kms.kms_check.cold_s"] += seconds
        tables.add(key)
        t.counts["kms.support_keys"] += rep.support_size
        t.counts["kms.checked_keys"] += rep.explicit_checked
        t.counts["kms.failure_count"] += rep.failure_count
        t.counts["kms.ck_screen_pairs"] += rep.ck_screen_pairs
    States.kms_check = t.timed("kms.kms_check", States.kms_check,
                               keep_spans=True, after=cold_or_warm)
    States.phi_eval = t.timed("kms.phi_eval", States.phi_eval)
    kms.StateSpec.psi = t.counted("kms.psi", kms.StateSpec.psi)
    kms.AlgebraElement.__mul__ = t.counted("kms.algebra_mul",
                                           kms.AlgebraElement.__mul__)
    States.unitary_identities = t.timed("kms.unitary_identities",
                                        States.unitary_identities,
                                        keep_spans=True)

    def cache_probe(name, fn, miss_layer):
        # a lookup that did not call the layer behind the cache was a hit
        def wrapper(*args):
            before = t.calls[miss_layer]
            result = fn(*args)
            t.calls[name] += 1
            t.counts[name + ".hits"] += t.calls[miss_layer] == before
            return result
        return wrapper
    States.periodic = cache_probe("kms.periodic", States.periodic,
                                  "periodicity.decide_periodic")
    States.theta_map = cache_probe("kms.theta_map", States.theta_map,
                                   "periodicity.theta")

    cli.main = t.timed("cli.main", cli.main, keep_spans=True)


def layer_metrics(t):
    """Every per-layer metric derivable from the tracer, by name."""
    out = {}
    for name in ("degrees.rho_power", "graphs.compose", "graphs.factorize",
                 "graphs.segment", "graphs.paths_of_degree",
                 "graphs.lambda_min", "scalars.qqi_ops", "perron.perron_data",
                 "periodicity.check_pair", "periodicity.theta", "measure.mass",
                 "kms.phi_eval"):
        out[f"{name}.calls"] = t.calls[name]
        out[f"{name}.self_s"] = t.self_s[name]
    for name in ("graphs.from_json", "graphs.validate", "builders.build",
                 "periodicity.periodicity_group",
                 "measure.consistency_check",
                 "measure.periodicity_mass_profile", "measure.agreement_mass",
                 "measure.find_decay_witness", "measure.decay_check",
                 "kms.unitary_identities", "cli.main"):
        out[f"{name}.self_s"] = t.self_s[name]
    for name in ("graphs.path_hash", "periodicity.decide_periodic", "kms.psi",
                 "kms.algebra_mul"):
        out[f"{name}.calls"] = t.calls[name]
    out["graphs.paths_of_degree.paths_returned"] = \
        t.counts["graphs.paths_of_degree.paths_returned"]
    out["graphs.lambda_min.nonempty_ratio"] = t.ratio(
        "graphs.lambda_min.nonempty", "graphs.lambda_min")
    out["periodicity.check_pair.true_ratio"] = t.ratio(
        "periodicity.check_pair.true", "periodicity.check_pair")
    out["kms.periodic.hit_ratio"] = t.ratio("kms.periodic.hits",
                                            "kms.periodic")
    out["kms.theta_map.hit_ratio"] = t.ratio("kms.theta_map.hits",
                                             "kms.theta_map")
    for name in ("kms.kms_check.cold_s", "kms.kms_check.warm_s",
                 "kms.support_keys", "kms.checked_keys", "kms.failure_count",
                 "kms.ck_screen_pairs"):
        out[name] = float(t.counts[name]) if name.endswith("_s") \
            else t.counts[name]
    return out
