#!/usr/bin/env python3
"""Pretty-print and diff observability artifacts from the flowtune
stats plane. Three input shapes are auto-detected:

  metrics snapshot   {"ts_us": ..., "metrics": {...}}
      -- the stats socket's "json" request, the daemon's --stats-file,
      or the bench's metrics_snapshot.json artifact
  flight dump        {"kind": "flight", "recent": [...], "black_box": [...]}
      -- the stats socket's "flight" request, the daemon's --flight-out
      auto-flush, or the bench's flight_dump.json artifact
  bench results      {..., "tracing": {"e2e": {...}}}
      -- BENCH_net_throughput.json; renders the traced update path's
      per-hop spans as an ASCII timeline

Usage:

  # Pretty-print one snapshot (live or from a file)
  echo json | nc -U /tmp/flowtune_stats.sock | tools/obs_dump.py
  tools/obs_dump.py metrics_snapshot.json

  # Slow-round forensics: per-round table + phase bars for every round
  # the flight recorder promoted into its black box
  echo flight | nc -U /tmp/flowtune_stats.sock | tools/obs_dump.py
  tools/obs_dump.py flight_dump.json

  # Traced e2e span timeline from a bench run
  tools/obs_dump.py BENCH_net_throughput.json

  # Filter metrics by name substring
  tools/obs_dump.py metrics_snapshot.json --match shard0

  # Diff two metrics snapshots (counter deltas, p99 shifts)
  tools/obs_dump.py before.json after.json

Counters/gauges print as aligned name/value rows; histograms get count,
mean and p50/p90/p99/max plus a compact log2-bucket sparkline. Diffing
shows per-counter deltas and per-histogram p99 movement, which is the
quickest way to see where a regression's latency went.
"""

import argparse
import json
import signal
import sys

# Dying quietly when the reader closes early (| head) beats a traceback.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

SPARK = " .:-=+*#%@"


def load(path):
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path) as f:
            doc = json.load(f)
    return doc


def sparkline(buckets):
    """buckets: [[lower_bound, count], ...] (sparse)."""
    if not buckets:
        return ""
    counts = [n for _, n in buckets]
    peak = max(counts)
    out = []
    for _, n in buckets:
        idx = 0 if n == 0 else 1 + int((len(SPARK) - 2) * n / peak)
        out.append(SPARK[idx])
    return "".join(out)


def fmt_value(v):
    return f"{v:,}" if isinstance(v, int) else f"{v:g}"


def print_snapshot(doc, match):
    metrics = doc["metrics"]
    names = [n for n in metrics if match in n]
    if not names:
        print(f"no metrics match '{match}'", file=sys.stderr)
        return
    width = max(len(n) for n in names)
    scalars = [(n, metrics[n]) for n in names
               if metrics[n]["kind"] in ("counter", "gauge")]
    histos = [(n, metrics[n]) for n in names if metrics[n]["kind"] == "histo"]
    if scalars:
        print(f"-- counters / gauges ({len(scalars)})")
        for n, m in scalars:
            print(f"  {n:<{width}}  {fmt_value(m['value']):>14}")
    if histos:
        print(f"-- histograms ({len(histos)})")
        for n, m in histos:
            print(f"  {n:<{width}}  count={m['count']:<10,} "
                  f"mean={m['mean']:<10g} p50={m['p50']:<8g} "
                  f"p90={m['p90']:<8g} p99={m['p99']:<10g} "
                  f"max<={m['max']:<12g} |{sparkline(m['buckets'])}|")


def print_diff(before, after, match):
    b, a = before["metrics"], after["metrics"]
    names = sorted(set(b) | set(a))
    names = [n for n in names if match in n]
    width = max((len(n) for n in names), default=0)
    dt_us = after.get("ts_us", 0) - before.get("ts_us", 0)
    if dt_us > 0:
        print(f"-- snapshots {dt_us / 1e6:.3f} s apart")
    for n in names:
        mb, ma = b.get(n), a.get(n)
        if mb is None or ma is None:
            side = "after only" if mb is None else "before only"
            print(f"  {n:<{width}}  ({side})")
            continue
        if ma["kind"] in ("counter", "gauge"):
            delta = ma["value"] - mb["value"]
            if delta == 0 and ma["value"] == 0:
                continue  # never fired in either snapshot
            rate = ""
            if ma["kind"] == "counter" and dt_us > 0 and delta:
                rate = f"  ({delta * 1e6 / dt_us:,.0f}/s)"
            print(f"  {n:<{width}}  {fmt_value(mb['value']):>14} -> "
                  f"{fmt_value(ma['value']):>14}  [{delta:+,}]{rate}")
        else:
            dcount = ma["count"] - mb["count"]
            if dcount == 0 and ma["count"] == 0:
                continue
            print(f"  {n:<{width}}  count {mb['count']:,} -> "
                  f"{ma['count']:,} [{dcount:+,}]  "
                  f"p99 {mb['p99']:g} -> {ma['p99']:g}")


# Flight-record phases, in round order, with the single-letter glyph
# used in the attribution bar.
FLIGHT_PHASES = [("ingest_us", "i"), ("solve_us", "s"), ("emit_us", "e"),
                 ("fanout_us", "f")]


def phase_bar(rec, width=32):
    """One round's phase attribution as a proportional ASCII bar."""
    total = max(rec.get("round_us", 0.0), 1e-9)
    bar = ""
    for key, glyph in FLIGHT_PHASES:
        n = round(rec.get(key, 0.0) / total * width)
        bar += glyph * n
    other = width - len(bar)
    if other > 0:
        bar += "." * other  # untimed remainder (scheduling, clock reads)
    return bar[:width]


def print_flight_table(title, recs, detail):
    if not recs:
        print(f"-- {title}: empty")
        return
    print(f"-- {title} ({len(recs)} rounds)")
    hdr = (f"  {'round':>8} {'round_us':>10} {'ingest':>8} {'solve':>8} "
           f"{'emit':>8} {'fanout':>8} {'wakeup':>8} {'churn':>7} "
           f"{'upd':>6} {'hw':>5}")
    if detail:
        hdr += f" {'thresh':>8}  attribution (i=ingest s=solve e=emit f=fanout)"
    print(hdr)
    for r in recs:
        row = (f"  {r['round']:>8} {r['round_us']:>10.1f} "
               f"{r['ingest_us']:>8.1f} {r['solve_us']:>8.1f} "
               f"{r['emit_us']:>8.1f} {r['fanout_us']:>8.1f} "
               f"{r['wakeup_us']:>8.1f} {r['churn_events']:>7} "
               f"{r['updates']:>6} {r['up_ring_hw']:>5}")
        if detail:
            row += f" {r['threshold_us']:>8.1f}  |{phase_bar(r)}|"
        print(row)


def print_flight(doc):
    print(f"flight recorder: {doc['rounds_seen']:,} rounds seen, "
          f"{doc['promoted']:,} promoted "
          f"(p99 estimate {doc['p99_estimate_us']:.1f} us, "
          f"threshold {doc['threshold_us']:.1f} us)")
    print_flight_table("recent rounds", doc.get("recent", []), detail=False)
    print_flight_table("black box (promoted slow rounds)",
                       doc.get("black_box", []), detail=True)


# The e2e.* histogram spans of the traced update path, in hop order.
# Each entry: (metric, label, indent) -- indents show containment:
# update >= wire + service; service >= queue + solve + emit + fanout.
E2E_SPANS = [
    ("e2e.update_us", "update (agent->agent)", 0),
    ("e2e.wire_us", "wire (both directions)", 1),
    ("e2e.service_us", "service (shard->fanout)", 1),
    ("e2e.queue_us", "queue (ingest->pickup)", 2),
    ("e2e.solve_us", "solve", 2),
    ("e2e.emit_us", "emit", 2),
    ("e2e.fanout_us", "fanout", 2),
]


def print_e2e_timeline(tracing):
    e2e = tracing.get("e2e", {})
    if not e2e:
        print("no completed traces in this run", file=sys.stderr)
        return
    print(f"traced update path: 1/{tracing.get('sample_every', '?')} "
          f"sampling, {tracing.get('traces_completed', 0):,} completed "
          f"echoes of {tracing.get('traces_sent', 0):,} sampled")
    if "overhead_pct" in tracing:
        print(f"sampling overhead: {tracing['overhead_pct']:+.2f}% "
              f"msgs/sec vs tracing off")
    total_p99 = max(e2e.get("e2e.update_us", {}).get("p99_us", 0.0), 1e-9)
    width = 40
    print(f"  {'span':<26} {'p50':>10} {'p99':>10}  "
          f"timeline (p99, {total_p99:.0f} us full scale)")
    for metric, label, indent in E2E_SPANS:
        m = e2e.get(metric)
        if m is None:
            continue
        bar_n = min(width, round(m["p99_us"] / total_p99 * width))
        print(f"  {'  ' * indent + label:<26} {m['p50_us']:>8.1f}us "
              f"{m['p99_us']:>8.1f}us  |{'#' * bar_n:<{width}}|")


def print_recovery(rec):
    """The net bench's recovery-drill results: the fault-tolerance
    numbers (reconnect tail, replay-driven reconvergence, lease
    fallback under frame drops) next to the latency timeline."""
    if rec.get("failed"):
        print("recovery drill: FAILED (timed out before reconvergence)")
        return
    print(f"recovery drill: {rec.get('agents', '?')} agents x "
          f"{rec.get('flows_per_agent', '?')} flows, service killed and "
          f"warm-restarted on the same port")
    print(f"  reconnect   p50 {rec.get('reconnect_p50_us', 0):,.0f} us   "
          f"p99 {rec.get('reconnect_p99_us', 0):,.0f} us "
          f"(detection + jittered backoff + re-dial)")
    print(f"  reconverge  {rec.get('reconverge_us', 0):,.0f} us until "
          f"the fresh allocator's rates match pre-kill "
          f"({rec.get('replayed_starts', 0):,} replayed starts)")
    print(f"  degraded    {rec.get('degraded_frac', 0) * 100:.1f}% of "
          f"fleet-time not kConnected during the window")
    lease = rec.get("lease", {})
    if lease.get("failed"):
        print("  lease drill: FAILED (agent never re-armed)")
    elif lease:
        print(f"  lease drill ({lease.get('drop_frac', 0) * 100:.0f}% "
              f"downstream frames dropped): "
              f"{lease.get('sim_lease_frames_dropped', 0):,}/"
              f"{lease.get('sim_lease_frames_down', 0):,} frames lost, "
              f"{lease.get('sim_lease_expiries', 0):,} lease expiries, "
              f"{lease.get('sim_lease_fallback_enters', 0):,} flows to "
              f"fallback, degraded "
              f"{lease.get('sim_lease_degraded_frac', 0) * 100:.1f}%, "
              f"re-armed {lease.get('reclaim_us', 0):,.0f} us after "
              f"drops stopped")


def kind_of(doc):
    if doc.get("kind") == "flight":
        return "flight"
    if "metrics" in doc:
        return "metrics"
    if "tracing" in doc or "recovery" in doc:
        return "bench"
    return None


def main():
    ap = argparse.ArgumentParser(
        description="Pretty-print or diff flowtune observability "
                    "artifacts (metrics snapshots, flight-recorder "
                    "dumps, bench e2e traces).")
    ap.add_argument("snapshot", nargs="*", default=["-"],
                    help="one artifact to print, or two metrics "
                         "snapshots to diff (default: stdin)")
    ap.add_argument("--match", default="",
                    help="only show metrics whose name contains this")
    args = ap.parse_args()
    if len(args.snapshot) > 2:
        ap.error("pass one artifact to print or two snapshots to diff")
    if not args.snapshot:
        args.snapshot = ["-"]
    docs = [load(p) for p in args.snapshot]
    kinds = [kind_of(d) for d in docs]
    for path, kind in zip(args.snapshot, kinds):
        if kind is None:
            raise SystemExit(f"{path}: not a metrics snapshot, flight "
                             f"dump or bench results file")
    if len(docs) == 1:
        doc, kind = docs[0], kinds[0]
        if kind == "flight":
            print_flight(doc)
        elif kind == "bench":
            if "tracing" in doc:
                print_e2e_timeline(doc["tracing"])
            if "recovery" in doc:
                if "tracing" in doc:
                    print()
                print_recovery(doc["recovery"])
        else:
            print_snapshot(doc, args.match)
    else:
        if kinds != ["metrics", "metrics"]:
            ap.error("diffing needs two metrics snapshots")
        print_diff(docs[0], docs[1], args.match)


if __name__ == "__main__":
    main()
