"""Per-request time ledger from client records and tier spans.

Each request's latency (intended send -> response complete) is split into
the self times of the spans along its path, every span nested in its
caller:

    client [sent, done]        loadgen.queue_us   = sent - intended
      dpc handler              net.ingress_us     = client - dpc
        upstream round trips   dpc.self_us        = dpc - upstream
          origin handlers      net.hop_us         = upstream - origin
            /page scripts      appserver.self_us  = origin - script
                               workload.script_us = script

where "parent - child" is the parent's length minus the part of it the
child spans cover.

A child counts only where it lies inside its parent, so the parts add up
to the latency exactly when every span nests; ledger.residual_us is the
latency minus the sum of the parts, and is non-zero only when spans of one
request id do not nest (a join error or a clock problem). Requests missing
a span of some layer are counted as unjoined.
"""

import array
from collections import defaultdict

# Must match e2ebench/tracer/traced_tier.cc SpanKind.
SPAN_KINDS = {0: "dpc", 1: "upstream", 2: "origin", 3: "script"}

# Must match e2ebench/loadgen/loadgen.cc Record: six int64 then two int32.
RECORD_FIELDS = ("index", "intended", "taken", "sent", "head", "done")
# Record kinds (loadgen.cc Kind); 0 is success.
FAIL_KINDS = {1: "connect", 2: "send", 3: "recv", 4: "timeout",
              5: "status", 6: "length", 7: "fragments", 8: "tag_bytes"}
# Kinds with no response, whose latency counts as infinite.
NO_RESPONSE = (1, 2, 3, 4)


def read_records(path):
    """Load generator records as a list of dicts (times in ns since the
    generator's origin)."""
    raw = array.array("q")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    records = []
    for at in range(0, len(raw), 7):
        rec = dict(zip(RECORD_FIELDS, raw[at:at + 6]))
        packed = raw[at + 6]
        rec["page"] = packed & 0xFFFFFFFF
        rec["kind"] = (packed >> 32) & 0xFFFFFFFF
        records.append(rec)
    return records


def read_spans(path):
    """Spans as (index, start_ns, end_ns, kind name, prefix letter)."""
    raw = array.array("q")
    with open(path, "rb") as f:
        raw.frombytes(f.read())
    spans = []
    for at in range(0, len(raw), 4):
        index, start, end, packed = raw[at:at + 4]
        kind = SPAN_KINDS[packed & 0xFFFFFFFF]
        prefix = chr((packed >> 32) & 0xFFFFFFFF)
        spans.append((index, start, end, kind, prefix))
    return spans


def covered(intervals, within):
    """Length of the union of `intervals` clipped to `within` (a list of
    intervals that do not overlap each other)."""
    clipped = []
    for lo, hi in intervals:
        for wlo, whi in within:
            a, b = max(lo, wlo), min(hi, whi)
            if a < b:
                clipped.append((a, b))
    clipped.sort()
    total, end = 0, None
    for a, b in clipped:
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def length(intervals):
    return sum(hi - lo for lo, hi in intervals)


LAYERS = ("loadgen.queue_us", "net.ingress_us", "dpc.self_us", "net.hop_us",
          "appserver.self_us", "workload.script_us")


def build(records, origin_ns, spans, prefix):
    """Ledger rows for every answered request of the phase whose request
    ids start with `prefix`. Each row maps LAYERS, the span totals and
    latency_us / residual_us to microseconds."""
    by_request = defaultdict(lambda: defaultdict(list))
    for index, start, end, kind, letter in spans:
        if letter == prefix:
            by_request[index][kind].append((start, end))
    rows = []
    unjoined = 0
    for rec in records:
        if rec["kind"] in NO_RESPONSE:
            continue
        got = by_request.get(rec["index"], {})
        if any(not got.get(kind) for kind in SPAN_KINDS.values()):
            unjoined += 1
        client = [(origin_ns + rec["sent"], origin_ns + rec["done"])]
        dpc, upstream = got.get("dpc", []), got.get("upstream", [])
        origin, script = got.get("origin", []), got.get("script", [])
        parts = {
            "loadgen.queue_us": rec["sent"] - rec["intended"],
            "net.ingress_us": length(client) - covered(dpc, client),
            "dpc.self_us": length(dpc) - covered(upstream, dpc),
            "net.hop_us": length(upstream) - covered(origin, upstream),
            "appserver.self_us": length(origin) - covered(script, origin),
            "workload.script_us": length(script),
        }
        row = {name: ns / 1000.0 for name, ns in parts.items()}
        latency = rec["done"] - rec["intended"]
        row["latency_us"] = latency / 1000.0
        row["residual_us"] = (latency - sum(parts.values())) / 1000.0
        row["net.upstream_us"] = length(upstream) / 1000.0
        row["appserver.handle_us"] = length(origin) / 1000.0
        rows.append(row)
    return rows, unjoined


def means(rows):
    """Column means over ledger rows."""
    if not rows:
        raise ValueError("empty ledger")
    return {name: sum(row[name] for row in rows) / len(rows)
            for name in rows[0]}
