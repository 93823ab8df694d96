#!/usr/bin/env python3
"""Turns a traced run's span dump into the per-layer table.

Every span is one driver call into a layer's public entry point: a name,
start, end, parent span and request id. A span's self time is its duration
minus the part of it that its child spans cover. Sampled requests were
re-issued through each lower entry point on identical input ("probe"
spans), so each layer's increment over the one below is a difference of
two measured calls; whatever part of a real operation those increments do
not explain is reported as `unattributed`.

    python3 perfbench/summarise.py .bench_build/spans-serving.json \
        [.bench_build/spans-serving.result.json]

prints the span table and the per-layer metrics (the driver's own values
only when its result line is given). perfbench/run.py imports
`summarise()` for the traced run.
"""

import json
import statistics
import sys
from collections import defaultdict


def _p50(values):
    return statistics.median(values) if values else 0.0


def load_spans(path):
    with open(path) as f:
        dump = json.load(f)
    fields = dump["fields"]
    return [dict(zip(fields, row)) for row in dump["spans"]]


def _ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_times(spans):
    """Self time in ms of every span: its duration minus the union of its
    children's intervals (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start_ns"]
        for c in sorted(children[s["id"]], key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], cursor)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end_ns"] - s["start_ns"] - covered) / 1e6
    return out


def span_table(spans):
    """Per span name (qualified by its parent's name): count, total, self
    total and median duration, all in ms."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    rows = defaultdict(lambda: {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "durations": []})
    for s in spans:
        parent = by_id[s["parent"]]["name"] if s["parent"] >= 0 else ""
        key = (parent + "/" if parent else "") + s["name"]
        row = rows[key]
        row["count"] += 1
        row["total_ms"] += _ms(s)
        row["self_ms"] += selfs[s["id"]]
        row["durations"].append(_ms(s))
    return {
        key: {"count": r["count"], "total_ms": r["total_ms"], "self_ms": r["self_ms"],
              "p50_ms": _p50(r["durations"])}
        for key, r in sorted(rows.items())
    }


def summarise(spans, workload, driver_layer):
    """The per-layer metrics: the driver's own values (Stats() deltas,
    sizes, tail latency, tracing overhead) plus the span-derived ones."""
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            kids[s["parent"]].append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    probes = named("probe")
    real_ops = {s["request"]: s for s in named("op")}
    m = dict(driver_layer)

    # net and router: the warm re-issue of a sampled batch at each level.
    net_inc, router_inc, shares, net_ms, router_ms = [], [], [], [], []
    for p in probes:
        ks = kids[p["id"]]
        net = [s for s in ks if s["name"] == "net.submit_batch"]
        router = [s for s in ks if s["name"] == "router.submit_batch"]
        shards = [s for s in ks if s["name"] == "shard.submit_batch"]
        if net and router and shards:
            net_ms.append(_ms(net[0]))
            router_ms.append(_ms(router[0]))
            net_inc.append(_ms(net[0]) - _ms(router[0]))
            router_inc.append(_ms(router[0]) - max(_ms(s) for s in shards))
            shares.append(max(s["arg"] for s in shards) / net[0]["arg"])
    m["net.batch_ms"] = _p50(net_ms)
    m["net.overhead_ms"] = _p50(net_inc)
    m["router.batch_ms"] = _p50(router_ms)
    m["router.overhead_ms"] = _p50(router_inc)
    m["router.max_subbatch_share"] = statistics.fmean(shares) if shares else 0.0
    m.setdefault("net.frame_bytes_per_req", 0.0)

    # service: a warm Submit, Submit over a bare RunPlan, and updates.
    m["service.hit_submit_ms"] = _p50([_ms(s) for s in named("service.submit_hit")])
    overhead = []
    for p in probes:
        ks = kids[p["id"]]
        submits = [s for s in ks if s["name"] == "service.submit"]
        runs = [s for s in ks if s["name"] == "engine.run_plan"]
        overhead += [_ms(a) - _ms(b) for a, b in zip(submits, runs)]
    m["service.overhead_ms"] = _p50(overhead)
    updates = named("service.update")
    m["service.update_ms"] = _p50([_ms(s) for s in updates])
    m["subs.flush_ms"] = _p50([_ms(s) for s in named("subs.flush")])
    m.setdefault("update_p50_ms", 0.0)

    # plan and eval.
    m["plan.compile_ms"] = _p50([_ms(s) for s in named("plan.compile")])
    runs = named("engine.run_plan")
    total_eval = sum(_ms(s) for s in runs)
    for family in ("pf", "core_linear", "cvt", "hybrid"):
        mine = [_ms(s) for s in runs if s["label"] == family]
        m[f"eval.{family}_ms"] = _p50(mine)
        m[f"eval.route_share.{family}"] = sum(mine) / total_eval if total_eval else 0.0
    wide = sum(_ms(s) for s in named("engine.run_plan_wide"))
    m["eval.parallel_speedup"] = total_eval / wide if wide and total_eval else 0.0

    # xml and wal.
    m.setdefault("xml.ingest_mb_per_s", 0.0)
    m["xml.apply_edit_ms"] = _p50([_ms(s) for s in named("xml.apply_edit")])
    recover = named("wal.recover")
    m["wal.recovery_s"] = _ms(recover[0]) / 1e3 if recover else 0.0
    m.setdefault("wal.bytes_per_update", 0.0)
    twin = {s["request"]: s for s in named("twin.update")}
    m["wal.update_overhead_ms"] = _p50(
        [_ms(s) - _ms(twin[s["request"]]) for s in updates if s["request"] in twin])

    # The remainder of sampled operations that the named layers leave.
    remainder, whole = [], []
    for p in probes:
        op = real_ops.get(p["request"])
        if op is None:
            continue
        ks = kids[p["id"]]
        real = kids[op["id"]]
        if workload == "serving":
            warm = [s for s in ks if s["name"] == "net.submit_batch"]
            explained = _ms(warm[0]) if warm else 0.0
        elif workload == "analytic":
            explained = sum(_ms(s) for s in ks if s["name"] == "service.submit")
        else:
            explained = sum(_ms(s) for s in real)
        outer = _ms(op) if workload == "churn" else sum(_ms(s) for s in real)
        remainder.append(outer - explained)
        whole.append(outer)
    m["unattributed_ms"] = _p50(remainder)
    m["unattributed_frac"] = sum(remainder) / sum(whole) if whole and sum(whole) else 0.0
    return m


def format_table(table):
    lines = [f"{'span (parent/name)':44} {'count':>8} {'total_ms':>12} {'self_ms':>12} {'p50_ms':>10}"]
    for key, row in table.items():
        lines.append(f"{key:44} {row['count']:8d} {row['total_ms']:12.3f} "
                     f"{row['self_ms']:12.3f} {row['p50_ms']:10.4f}")
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans = load_spans(argv[1])
    driver = {"workload": "", "layer": {}}
    if len(argv) > 2:
        with open(argv[2]) as f:
            driver = json.load(f)
    print(format_table(span_table(spans)))
    for name, value in sorted(summarise(spans, driver["workload"], driver["layer"]).items()):
        print(f"{name:40} {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
