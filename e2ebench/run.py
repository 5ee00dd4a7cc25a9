#!/usr/bin/env python3
"""e2ebench: open-loop end-to-end benchmark of client -> DPC -> origin+BEM.

Starts the shipped dynaprox_origin and dynaprox_proxy on loopback, drives
them with the open-loop Poisson generator (e2e_loadgen, at most 4
keep-alive connections) and prints every metric by name and unit, then one
JSON line. Run from the root of a dynaprox checkout:

    python3 e2ebench/run.py --workload table2_hot --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics (README.md lists them);
--trace 1 gives the per-layer metrics: metric-scrape deltas from the
shipped tools, then a second pass through the benchmark's own traced
tiers whose spans build the per-request ledger. The first run builds
everything under $CARGO_TARGET_DIR/e2ebench (default .bench_build).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from e2e import ledger, scrape, stats, tiers  # noqa: E402

SETUP_REPEATS = 7
# Valid trials per --trace 0 run: fresh deployments measured at load_rps.
# On a shared 4-vCPU VM one deployment's speed drifts by about 10% within
# seconds, so the fixed-rate metrics pool or take medians over trials and
# the rate search is spread across them. Each trial takes these shares of
# --seconds for warm-up, the fixed-rate phase and its slice of the search.
TRIALS = 5
EXTRA_TRIALS = 2
TRIAL_WARM_SHARE = 0.04
TRIAL_LOAD_SHARE = 0.08
TRIAL_SEARCH_SHARE = 0.075
# --trace 1 runs two deployments (tools, then traced tiers) with these
# shares of --seconds for warm-up and the fixed-rate phase.
TRACE_WARM_SHARE = 0.08
TRACE_LOAD_SHARE = 0.3
# The generator ran late if a free connection sent this much after the
# request was due, at p99; such a phase is invalid, not a latency.
SEND_LAG_LIMIT_MS = 1.0
# Rate search: first probe at SEARCH_START x load_rps, then steps of
# SEARCH_STEP up until a probe fails, then bisection down to brackets no
# wider than SEARCH_RESOLUTION.
SEARCH_START = 1.9
SEARCH_STEP = 1.1
SEARCH_RESOLUTION = 1.03
# p99_ms is the median over windows of this many seconds of the fixed-rate
# phases of each window's p99. Probes are judged the same way on shorter
# windows.
P99_WINDOW_S = 0.5
PROBE_S = 1.0
PROBE_WINDOW_S = 0.2


class BenchError(RuntimeError):
    pass


def load_config():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def reported_metrics(trace):
    """Names of the metrics the JSON line carries: BENCHMARK.json's
    end_to_end list for --trace 0, its per_layer list for --trace 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    return [m["name"] for m in benchmark["per_layer" if trace
                                         else "end_to_end"]]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(targets):
    """Configures once, then builds `targets`; output goes to build.log."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no dynaprox sources next to e2ebench/; run from "
                         "the root of a dynaprox checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    with open(os.path.join(out, "build.log"), "ab") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed: {' '.join(step)} (see "
                                 f"{os.path.join(out, 'build.log')})")


def binary(name):
    return os.path.join(build_dir(), name)


def tool_argv(site, seed):
    """Command lines for the shipped tools: address flags, --seed and the
    site-shape flags only, so the engine runs with the defaults it ships."""
    shape = [f"--pages={site['pages']}", f"--fragments={site['fragments']}",
             f"--fragment-size={site['fragment_size']}",
             f"--cacheability={site['cacheability']}",
             f"--hit-ratio={site['hit_ratio']}"]
    if "capacity" in site:
        shape.append(f"--capacity={site['capacity']}")
    origin = lambda port: [binary("dynaprox/tools/dynaprox_origin"),
                           f"--port={port}", f"--seed={seed}", *shape]
    proxy = lambda port, origin_port: [
        binary("dynaprox/tools/dynaprox_proxy"), f"--port={port}",
        f"--origin-port={origin_port}"]
    return origin, proxy


def traced_argv(site, seed, run_dir):
    origin, _ = tool_argv(site, seed)
    tier = binary("e2e_traced_tier")
    traced_origin = lambda port: [
        tier, "--role=origin",
        f"--spans={os.path.join(run_dir, 'origin.spans')}",
        *origin(port)[1:]]
    traced_proxy = lambda port, origin_port: [
        tier, "--role=proxy",
        f"--spans={os.path.join(run_dir, 'proxy.spans')}",
        f"--port={port}", f"--origin-port={origin_port}"]
    return traced_origin, traced_proxy


class Phase:
    """One generator run: its summary and per-request records."""

    def __init__(self, prefix, summary, records):
        self.prefix = prefix  # Leading letter of its request ids.
        self.summary = summary
        self.records = records
        inf, no_response = math.inf, ledger.NO_RESPONSE
        self.latency_ms = [(r["done"] - r["intended"]) / 1e6
                           if r["kind"] not in no_response else inf
                           for r in records]
        self.ttfb_ms = [(r["head"] - r["intended"]) / 1e6
                        if r["kind"] not in no_response else inf
                        for r in records]
        self.send_lag_ms = [(r["sent"] - max(r["intended"], r["taken"]))
                            / 1e6 for r in records]
        self.failures = {}
        for r in records:
            if r["kind"]:
                kind = ledger.FAIL_KINDS[r["kind"]]
                self.failures[kind] = self.failures.get(kind, 0) + 1
        self.answered = sum(1 for r in records
                            if r["kind"] not in no_response)
        self.unsent = summary["unsent"]

    @property
    def transport_failures(self):
        return sum(self.failures.get(ledger.FAIL_KINDS[k], 0)
                   for k in ledger.NO_RESPONSE)

    @property
    def throughput(self):
        return self.answered / self.summary["elapsed_s"]

    def window_p99s(self, window_s):
        """p99 latency of each consecutive window (by intended send
        time)."""
        windows = {}
        for rec, latency in zip(self.records, self.latency_ms):
            windows.setdefault(int(rec["intended"] / 1e9 / window_s),
                               []).append(latency)
        return [stats.percentile(w, 99) for w in windows.values()]

    def windowed_p99(self, window_s):
        """Median over the windows of each window's p99, so one host stall
        moves one window, not the figure."""
        return stats.median(self.window_p99s(window_s))

    def send_lag_p99(self):
        return stats.percentile(self.send_lag_ms, 99) if self.records else 0

    def healthy(self):
        return self.send_lag_p99() <= SEND_LAG_LIMIT_MS


def run_generator(run_dir, port, site, connections, rate, seconds, seed,
                  prefix, abort_backlog=0, name=None):
    """Runs e2e_loadgen over `connections` keep-alive connections; request
    ids are `prefix` + schedule index, and the records stay in the run
    directory as <name or prefix>.records."""
    records_path = os.path.join(run_dir, f"{name or prefix}.records")
    argv = [binary("e2e_loadgen"), f"--port={port}", f"--rate={rate:.3f}",
            f"--seconds={seconds}", f"--seed={seed}",
            f"--pages={site['pages']}", f"--fragments={site['fragments']}",
            f"--fragment-size={site['fragment_size']}",
            f"--connections={connections}", f"--id-prefix={prefix}",
            f"--records={records_path}", f"--abort-backlog={abort_backlog}"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=seconds + 60)
    if done.returncode != 0:
        raise BenchError(f"e2e_loadgen failed ({done.returncode}): "
                         f"{done.stderr.strip()}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    return Phase(prefix, summary, ledger.read_records(records_path))


def wiring_check(deployment, before, after):
    """Over warm-up the DPC's upstream fetches must all have reached the
    origin started here: a DPC talking to some other origin fails it."""
    proxy = scrape.Delta("dpc", scrape.parse(before[1]),
                         scrape.parse(after[1]))
    origin = scrape.Delta("origin", scrape.parse(before[0]),
                          scrape.parse(after[0]))
    fetches = proxy["dynaprox_upstream_fetch_duration_seconds_count"]
    served = origin["dynaprox_origin_requests_total"]
    if fetches <= 0 or fetches != served:
        raise BenchError(f"wiring check: the DPC made {fetches:.0f} upstream "
                         f"fetches but the origin on port "
                         f"{deployment.origin_port} served {served:.0f}")


class Session:
    """A warmed deployment with its measured phases."""

    def __init__(self, config, workload, seed, run_dir, seconds):
        self.config = config
        self.site = config["workloads"][workload]["site"]
        self.load_rps = config["workloads"][workload]["load_rps"]
        self.connections = config["workloads"][workload]["connections"]
        self.seed = seed
        self.run_dir = run_dir
        self.seconds = seconds
        self.phases = []
        self.count_mismatches = 0
        self.phase_seed = seed * 1000

    def next_seed(self):
        self.phase_seed += 1
        return self.phase_seed

    def warm(self, deployment, seconds, prefix="w"):
        deployment.check_wiring()
        before = deployment.scrape()
        deployment.prime()
        phase = run_generator(self.run_dir, deployment.proxy_port, self.site,
                              self.connections, self.load_rps, seconds,
                              self.next_seed(), prefix)
        after = deployment.scrape()
        wiring_check(deployment, before, after)
        return phase

    def measure_load(self, deployment, seconds, prefix="m"):
        """The fixed-rate phase: client latency plus the tiers' CPU and
        metric deltas over it."""
        before = deployment.scrape()
        cpu_before = (deployment.origin.cpu_seconds(),
                      deployment.proxy.cpu_seconds())
        phase = run_generator(self.run_dir, deployment.proxy_port, self.site,
                              self.connections, self.load_rps, seconds,
                              self.next_seed(), prefix,
                              name=f"{prefix}{len(self.phases)}")
        cpu_after = (deployment.origin.cpu_seconds(),
                     deployment.proxy.cpu_seconds())
        after = deployment.scrape()
        self.phases.append(phase)
        phase.origin_cpu_s = cpu_after[0] - cpu_before[0]
        phase.proxy_cpu_s = cpu_after[1] - cpu_before[1]
        phase.origin_delta = scrape.Delta("origin", scrape.parse(before[0]),
                                          scrape.parse(after[0]))
        phase.proxy_delta = scrape.Delta("dpc", scrape.parse(before[1]),
                                         scrape.parse(after[1]))
        # The DPC's own count must match what the client saw answered
        # (requests that got no response may or may not have reached it).
        served = phase.proxy_delta["dynaprox_requests_total"]
        if not phase.answered <= served <= len(phase.records):
            self.count_mismatches += 1
        return phase

    def measure_valid_load(self, deployment, seconds, prefix="m"):
        """measure_load, repeated once (with the upper-case prefix, so its
        request ids stay distinct) if the generator fell behind; a phase it
        still fell behind in is invalid, never a latency."""
        for letter in (prefix, prefix.upper()):
            phase = self.measure_load(deployment, seconds, letter)
            if phase.healthy():
                return phase
        raise BenchError(invalid_message(phase, self.load_rps))

    def probe(self, deployment, rate, seconds):
        """One rate-search probe: (passed, phase)."""
        phase = run_generator(self.run_dir, deployment.proxy_port, self.site,
                              self.connections, rate, seconds,
                              self.next_seed(), "p",
                              name=f"p{len(self.phases)}",
                              abort_backlog=max(16, int(rate * 0.1)))
        self.phases.append(phase)
        return self.meets_slo(phase), phase

    def meets_slo(self, phase):
        """The rate-search pass rule: windowed p99 within the limit, every
        request sent and answered with a 200, no runaway backlog, and a
        generator that kept up."""
        return (not phase.summary["aborted"] and phase.unsent == 0 and
                phase.transport_failures == 0 and
                "status" not in phase.failures and phase.healthy() and
                phase.windowed_p99(PROBE_WINDOW_S) <=
                self.config["latency_limit_ms"])


class RateSearch:
    """The slo_rps search: the highest offered rate whose probe meets the
    p99 limit with a backlog that does not run away. Probes step up by
    SEARCH_STEP from SEARCH_START x load_rps until one fails, then bisect
    the bracket down to SEARCH_RESOLUTION; with no passing rate yet, a
    failure steps down by SEARCH_STEP squared. A failure counts only when
    a second probe at the same rate fails too, so one host stall does not
    end the search. Probes run in slices on successive deployments, which
    spreads them over the whole run, and each trial's fixed-rate phase
    counts as a probe at load_rps."""

    def __init__(self, session):
        self.session = session
        self.rate = session.load_rps * SEARCH_START
        self.lo = self.hi = None
        self.confirming = False
        self.done = False
        self.log = []

    def run(self, deployment, budget_s):
        end = time.monotonic() + budget_s
        while not self.done and time.monotonic() + PROBE_S < end:
            passed, phase = self.session.probe(deployment, self.rate,
                                               PROBE_S)
            self.log.append((self.rate, passed, phase))
            if not passed and not self.confirming:
                self.confirming = True
                continue
            self.confirming = False
            if passed:
                self.lo = (self.rate, phase)
            else:
                self.hi = (self.rate, phase)
            if self.hi is None:
                self.rate *= SEARCH_STEP
            elif self.lo is None:
                self.rate /= SEARCH_STEP ** 2
            elif self.hi[0] / self.lo[0] <= SEARCH_RESOLUTION:
                self.done = True
            else:
                self.rate = math.sqrt(self.lo[0] * self.hi[0])

    def note_fixed_rate(self, rate, phase):
        """A trial's fixed-rate phase is a probe at load_rps too, so the
        search has a floor even when every stepped-down probe fails."""
        if self.session.meets_slo(phase) and (self.lo is None or
                                              self.lo[0] < rate):
            self.lo = (rate, phase)

    def result(self):
        """Answered rate of the highest passing probe, or None when no
        phase met the limit."""
        return None if self.lo is None else self.lo[1].throughput


def invalid_message(phase, rate):
    return (f"invalid: the generator fell behind at {rate} req/s (send lag "
            f"p99 {phase.send_lag_p99():.3f} ms > {SEND_LAG_LIMIT_MS} ms)")


def attempted_and_failed(session):
    attempted = failed = 0
    for phase in session.phases:
        attempted += len(phase.records)
        failed += sum(phase.failures.values())
    return attempted, failed


def counts_check(session):
    return (session.count_mismatches == 0,
            "DPC request counts disagree with the client's in "
            f"{session.count_mismatches} fixed-rate phase(s)")


def fixed_rate_metrics(loads):
    """The fixed-rate metrics over the trials' phases: latencies over all
    their requests pooled (p99 as the median of the windows' p99s), the
    per-request costs and peak RSS as medians of the per-trial values."""
    def median_of(per_trial):
        return stats.median([per_trial(load) for load in loads])
    return {
        "p50_ms": (stats.median(
            [x for load in loads for x in load.latency_ms]), "ms"),
        "p99_ms": (stats.median(
            [x for load in loads for x in load.window_p99s(P99_WINDOW_S)]),
            "ms"),
        "ttfb_p50_ms": (stats.median(
            [x for load in loads for x in load.ttfb_ms]), "ms"),
        "dpc_cpu_us_per_req": (median_of(
            lambda load: load.proxy_cpu_s * 1e6 / load.answered), "us"),
        "origin_cpu_us_per_req": (median_of(
            lambda load: load.origin_cpu_s * 1e6 / load.answered), "us"),
        "origin_bytes_per_req": (median_of(
            lambda load: load.proxy_delta["dynaprox_bytes_from_upstream_total"]
            / load.proxy_delta["dynaprox_requests_total"]), "B"),
        "peak_rss_mib": (median_of(lambda load: load.peak_rss_kib / 1024.0),
                         "MiB"),
    }


def run_end_to_end(session):
    """--trace 0: the end-to-end metrics. After SETUP_REPEATS - TRIALS bare
    set-ups, each deployment is warmed, measured at load_rps and given a
    slice of the rate search until TRIALS trials are valid; the
    fixed-rate metrics come from those trials (fixed_rate_metrics). A
    trial whose generator fell behind is reported and replaced, at most
    EXTRA_TRIALS times."""
    origin_argv, proxy_argv = tool_argv(session.site, session.seed)
    seconds = session.seconds
    warm_s = max(1.0, TRIAL_WARM_SHARE * seconds)
    load_s = TRIAL_LOAD_SHARE * seconds
    search = RateSearch(session)
    setups, loads, notes = [], [], []
    attempt = 0
    while len(loads) < TRIALS:
        if attempt >= SETUP_REPEATS + EXTRA_TRIALS:
            raise BenchError(f"only {len(loads)} of {TRIALS} trials valid")
        deployment = tiers.Deployment(f"tools{attempt}", session.run_dir,
                                      origin_argv, proxy_argv, session.site)
        attempt += 1
        try:
            setup_s = deployment.start()
            if len(setups) < SETUP_REPEATS:
                setups.append(setup_s)
            if attempt <= SETUP_REPEATS - TRIALS:
                continue
            session.warm(deployment, warm_s)
            load = session.measure_load(deployment, load_s)
            if not load.healthy():
                notes.append("trial replaced, " +
                             invalid_message(load, session.load_rps))
                continue
            # After a fixed amount of work: a tier whose memory grows with
            # requests served would otherwise report the search's length.
            load.peak_rss_kib = (deployment.origin.peak_rss_kib() +
                                 deployment.proxy.peak_rss_kib())
            loads.append(load)
            notes.append(f"trial {len(loads)}: {len(load.records)} "
                         f"requests at {session.load_rps} req/s offered, "
                         f"{load.throughput:.0f} answered, send lag p99 "
                         f"{load.send_lag_p99():.3f} ms, backlog peak "
                         f"{load.summary['backlog_peak']}; " + ", ".join(
                             f"{name} {value:.4g}" for name, (value, _)
                             in fixed_rate_metrics([load]).items()))
            search.note_fixed_rate(session.load_rps, load)
            search.run(deployment, TRIAL_SEARCH_SHARE * seconds)
        finally:
            exit_codes = deployment.stop()
            if any(exit_codes.values()):
                notes.append(f"tier exit codes: {exit_codes}")
    attempted, failed = attempted_and_failed(session)
    metrics = {"setup_s": (stats.median(setups), "s"),
               "slo_rps": (search.result(), "req/s")}
    metrics.update(fixed_rate_metrics(loads))
    metrics["error_ratio"] = (scrape.ratio(failed, attempted), "ratio")
    notes.insert(0, "setup runs (s): " +
                 ", ".join(f"{t:.4f}" for t in setups))
    notes.append("rate search (offered -> answered req/s, windowed p99 ms, "
                 "send lag p99 ms, backlog peak):")
    for rate, passed, phase in search.log:
        notes.append(f"  {rate:9.0f} -> {phase.throughput:9.0f}  p99 "
                     f"{phase.windowed_p99(PROBE_WINDOW_S):9.3f}  lag "
                     f"{phase.send_lag_p99():6.3f}  backlog "
                     f"{phase.summary['backlog_peak']:6d}  "
                     f"{'pass' if passed else 'FAIL'}")
    return metrics, notes, [counts_check(session)]


# --trace 1 also reports the fixed-rate end-to-end figures of its untraced
# pass under these names (unbounded, see README.md).
LOADGEN_VIEW = {"p50_ms": "loadgen.p50_ms", "p99_ms": "loadgen.p99_ms",
                "ttfb_p50_ms": "loadgen.ttfb_p50_ms",
                "dpc_cpu_us_per_req": "dpc.cpu_us_per_req",
                "origin_cpu_us_per_req": "appserver.cpu_us_per_req"}


def scrape_layers(load):
    """Per-layer metrics from the shipped tools' metric deltas."""
    o, p = load.origin_delta, load.proxy_delta
    requests = p["dynaprox_requests_total"]
    origin_requests = o["dynaprox_origin_requests_total"]
    lookups = o["dynaprox_bem_directory_lookup_duration_seconds_count"]
    gets = p["dynaprox_store_gets_total"]
    checkouts = p["dynaprox_upstream_pool_checkouts_total"]
    hits = o["dynaprox_bem_directory_hits_total"]
    misses = o["dynaprox_bem_directory_misses_total"]
    per_req = lambda x: scrape.ratio(x, requests)
    per_origin = lambda x: scrape.ratio(x, origin_requests)
    return {
        "dpc.scan_us": (per_req(
            p["dynaprox_scan_duration_seconds_sum"]) * 1e6, "us"),
        "dpc.splice_us": (per_req(
            p["dynaprox_splice_duration_seconds_sum"]) * 1e6, "us"),
        "dpc.bytes_copied_per_req": (per_req(
            p["dynaprox_dpc_body_bytes_copied_total"]), "B"),
        "dpc.bytes_referenced_per_req": (per_req(
            p["dynaprox_dpc_body_bytes_referenced_total"]), "B"),
        "dpc.store_sets_per_req": (per_req(
            p["dynaprox_store_sets_total"]), "count"),
        "dpc.store_get_hit_ratio": (scrape.ratio(
            gets - p["dynaprox_store_get_misses_total"], gets), "ratio"),
        "dpc.recoveries_per_kreq": (per_req(
            p["dynaprox_recoveries_total"]) * 1000, "count"),
        "net.pool_connects_per_kreq": (per_req(
            p["dynaprox_upstream_pool_connects_total"]) * 1000, "count"),
        "net.pool_reuse_ratio": (scrape.ratio(
            checkouts - p["dynaprox_upstream_pool_connects_total"],
            checkouts), "ratio"),
        "bem.lookup_us": (scrape.ratio(
            o["dynaprox_bem_directory_lookup_duration_seconds_sum"],
            lookups) * 1e6, "us"),
        "bem.lookups_per_req": (per_origin(lookups), "count"),
        "bem.hit_ratio": (scrape.ratio(hits, hits + misses), "ratio"),
        "bem.block_exec_us": (per_origin(
            o["dynaprox_bem_block_execution_duration_seconds_sum"]) * 1e6,
            "us"),
        "bem.tag_emit_us": (per_origin(
            o["dynaprox_bem_tag_emission_duration_seconds_sum"]) * 1e6,
            "us"),
        "bem.evictions_per_req": (per_origin(
            o["dynaprox_bem_directory_evictions_total"]), "count"),
        "bem.insert_races_per_kreq": (per_origin(
            o["dynaprox_bem_insert_races_total"]) * 1000, "count"),
        "bem.contentions_per_kreq": (per_origin(o.sum(
            "dynaprox_bem_stripe_contentions_total",
            "dynaprox_bem_free_list_contentions_total",
            "dynaprox_bem_policy_contentions_total",
            "dynaprox_bem_registry_contentions_total")) * 1000, "count"),
    }


def run_traced(session):
    """--trace 1: per-layer metrics. Pass 1 runs the shipped tools and
    diffs their metrics over the fixed-rate phase; pass 2 runs the traced
    tiers at the same rate and builds the ledger from their spans."""
    seconds = session.seconds
    warm_s = max(1.0, TRACE_WARM_SHARE * seconds)
    load_s = TRACE_LOAD_SHARE * seconds
    origin_argv, proxy_argv = tool_argv(session.site, session.seed)
    deployment = tiers.Deployment("tools", session.run_dir, origin_argv,
                                  proxy_argv, session.site)
    try:
        deployment.start()
        session.warm(deployment, warm_s)
        untraced = session.measure_valid_load(deployment, load_s)
        untraced.peak_rss_kib = (deployment.origin.peak_rss_kib() +
                                 deployment.proxy.peak_rss_kib())
    finally:
        deployment.stop()

    build(["e2e_traced_tier"])
    origin_argv, proxy_argv = traced_argv(session.site, session.seed,
                                          session.run_dir)
    deployment = tiers.Deployment("traced", session.run_dir, origin_argv,
                                  proxy_argv, session.site)
    try:
        deployment.start()
        session.warm(deployment, warm_s)
        traced = session.measure_valid_load(deployment, load_s, prefix="t")
    finally:
        exit_codes = deployment.stop()
    if any(exit_codes.values()):
        raise BenchError(f"traced tiers exited with {exit_codes}")
    spans = (ledger.read_spans(os.path.join(session.run_dir, "proxy.spans")) +
             ledger.read_spans(os.path.join(session.run_dir,
                                            "origin.spans")))
    rows, unjoined = ledger.build(traced.records, traced.summary["origin_ns"],
                                  spans, traced.prefix)
    mean = ledger.means(rows)

    metrics = {name: (mean[name], "us") for name in ledger.LAYERS}
    metrics["net.upstream_us"] = (mean["net.upstream_us"], "us")
    metrics["appserver.handle_us"] = (mean["appserver.handle_us"], "us")
    metrics["ledger.residual_us"] = (mean["residual_us"], "us")
    metrics["ledger.latency_us"] = (mean["latency_us"], "us")
    metrics["ledger.unjoined"] = (unjoined, "count")
    untraced_p50 = stats.percentile(untraced.latency_ms, 50)
    traced_p50 = stats.percentile(traced.latency_ms, 50)
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    metrics.update(scrape_layers(untraced))
    for name, (value, unit) in fixed_rate_metrics([untraced]).items():
        if name in LOADGEN_VIEW:
            metrics[LOADGEN_VIEW[name]] = (value, unit)
    metrics["loadgen.send_lag_p99_ms"] = (untraced.send_lag_p99(), "ms")
    metrics["loadgen.backlog_peak"] = (untraced.summary["backlog_peak"],
                                       "count")
    metrics["loadgen.cpu_us_per_req"] = (
        untraced.summary["cpu_us"] / max(1, len(untraced.records)), "us")
    attempted, failed = attempted_and_failed(session)
    metrics["error_ratio"] = (scrape.ratio(failed, attempted), "ratio")
    notes = [f"ledger over {len(rows)} traced requests "
             f"({unjoined} without a complete span chain); untraced p50 "
             f"{untraced_p50:.4f} ms, traced p50 {traced_p50:.4f} ms"]
    ledger_ok = (unjoined == 0 and
                 max(abs(row["residual_us"]) for row in rows) < 1.0)
    return metrics, notes, [
        counts_check(session),
        (ledger_ok, "the ledger does not add up: requests without a "
                    "complete span chain, or spans that do not nest")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    config = load_config()
    if args.workload not in config["workloads"]:
        raise BenchError(f"unknown workload '{args.workload}' (have "
                         f"{', '.join(config['workloads'])})")
    reported = reported_metrics(args.trace)
    build(["dynaprox_origin", "dynaprox_proxy", "e2e_loadgen"])
    run_dir = os.path.join(build_dir(), "runs",
                           f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    session = Session(config, args.workload, args.seed, run_dir,
                      args.seconds)
    runner = run_traced if args.trace else run_end_to_end
    metrics, notes, checks = runner(session)
    attempted, failed = attempted_and_failed(session)
    correct = all(ok for ok, _ in checks)
    notes += [f"CHECK FAILED: {message}" for ok, message in checks if not ok]

    failures = {}
    for phase in session.phases:
        for kind, count in phase.failures.items():
            failures[kind] = failures.get(kind, 0) + count
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace} "
          f"(run directory {run_dir})")
    for line in notes:
        print(line)
    kinds = ", ".join(f"{k}: {v}" for k, v in sorted(failures.items()))
    print(f"requests: {attempted} attempted, {failed} failed"
          + (f" ({kinds})" if kinds else ""))
    for name, (value, unit) in metrics.items():
        shown = "none met the limit" if value is None else f"{value:14.4f}"
        print(f"  {name:32s} {shown} {unit}")
    missing = [name for name in reported if name not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    # The binary records and spans are ~15 MB a run; the logs stay.
    for name in os.listdir(run_dir):
        if name.endswith((".records", ".spans")):
            os.remove(os.path.join(run_dir, name))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in reported},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, tiers.TierError, scrape.MissingSeries) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        sys.exit(1)
