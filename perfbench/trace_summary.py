#!/usr/bin/env python3
"""Per-layer self time from a benchmark span file.

A traced run of perfbench/run.py writes one span per line:

    id parent request name start_ns end_ns

The layer of a span is the part of its name before the first dot:
``op`` (the workload operation, the benchmark's own code), ``core``
(an IntervalIndex call), ``client`` (a server::Client request) and
``device`` (a Read/Write/Sync of the timing device). A span's self time
is its duration minus that of its child spans.

    python3 perfbench/trace_summary.py .bench_build/traces/*.spans

prints, for each file, the count, total and self time per span name and
per layer, and the share of index-call time spent in nested device
spans. run.py imports derived_metrics() for the per-layer metrics of a
traced run.
"""

import collections
import sys


def load(path):
    """Returns {id: (parent, request, name, start_ns, end_ns)}."""
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, request, name, start, end = line.split()
            spans[int(sid)] = (int(parent), int(request), name, int(start),
                               int(end))
    return spans


def summarize(spans):
    """Aggregates per span name.

    Returns {name: {"count", "total_ns", "self_ns", "device_ns",
    "op_count", "op_self_ns"}}, where device_ns is the time of device
    spans nested directly under spans of that name, and the op_* fields
    count only spans that belong to a workload operation (request != 0),
    leaving out set-up calls.
    """
    child_ns = collections.Counter()
    device_child_ns = collections.Counter()
    for parent, _, name, start, end in spans.values():
        if parent in spans:
            child_ns[parent] += end - start
            if name.startswith("device."):
                device_child_ns[parent] += end - start
    out = collections.defaultdict(lambda: collections.Counter())
    for sid, (_, request, name, start, end) in spans.items():
        row = out[name]
        dur = end - start
        self_ns = dur - child_ns[sid]
        row["count"] += 1
        row["total_ns"] += dur
        row["self_ns"] += self_ns
        row["device_ns"] += device_child_ns[sid]
        if request != 0:
            row["op_count"] += 1
            row["op_total_ns"] += dur
            row["op_self_ns"] += self_ns
            row["op_device_ns"] += device_child_ns[sid]
    return out


def by_layer(rows):
    layers = collections.defaultdict(lambda: collections.Counter())
    for name, row in rows.items():
        layer = layers[name.split(".", 1)[0]]
        for key in ("count", "total_ns", "self_ns"):
            layer[key] += row[key]
    return layers


def _mean_us(row, key, count_key="op_count"):
    return row[key] / row[count_key] / 1e3 if row[count_key] else 0.0


def derived_metrics(rows, nodes_per_search):
    """The per-layer metrics a traced run reports from its spans."""
    search = rows.get("core.Search", collections.Counter())
    search_self_us = _mean_us(search, "op_self_ns")
    core_ns = sum(r["op_total_ns"] for n, r in rows.items()
                  if n.startswith("core."))
    core_device_ns = sum(r["op_device_ns"] for n, r in rows.items()
                         if n.startswith("core."))
    ops = collections.Counter()
    clients = collections.Counter()
    for name, row in rows.items():
        if name.startswith("op."):
            ops += row
        elif name.startswith("client."):
            clients += row
    return {
        "rtree.search_self_us": (search_self_us, "us"),
        "rtree.us_per_node": (search_self_us / nodes_per_search
                              if nodes_per_search else 0.0, "us"),
        "core.commit_self_us": (_mean_us(rows.get(
            "core.Commit", collections.Counter()), "op_self_ns"), "us"),
        "core.insert_self_us": (_mean_us(rows.get(
            "core.Insert", collections.Counter()), "op_self_ns"), "us"),
        "server.request_us": (_mean_us(clients, "op_total_ns"), "us"),
        "bench.op_self_us": (_mean_us(ops, "op_self_ns"), "us"),
        "storage.device_nested_share": (core_device_ns / core_ns
                                        if core_ns else 0.0, "ratio"),
    }


def print_summary(path, rows, out=sys.stdout):
    print(f"== {path}", file=out)
    print(f"  {'span':<16} {'count':>9} {'total_ms':>11} {'self_ms':>11} "
          f"{'self_us/span':>13} {'device_ms':>10}", file=out)
    for name in sorted(rows):
        r = rows[name]
        print(f"  {name:<16} {r['count']:>9} {r['total_ns'] / 1e6:>11.2f} "
              f"{r['self_ns'] / 1e6:>11.2f} "
              f"{r['self_ns'] / r['count'] / 1e3:>13.2f} "
              f"{r['device_ns'] / 1e6:>10.2f}", file=out)
    layers = by_layer(rows)
    self_total = sum(l["self_ns"] for l in layers.values()) or 1
    print(f"  {'layer':<16} {'self_ms':>11} {'share':>7}", file=out)
    for name in sorted(layers):
        l = layers[name]
        print(f"  {name:<16} {l['self_ns'] / 1e6:>11.2f} "
              f"{l['self_ns'] / self_total:>7.1%}", file=out)
    share = derived_metrics(rows, 0)["storage.device_nested_share"][0]
    print(f"  device time nested in core spans: {share:.1%}", file=out)


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        print_summary(path, summarize(load(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
