"""Metric arithmetic for the benchmark.

perfbench/bench.exe prints one raw JSON document per run (set-up times,
per-iteration phase and block times, reference-kernel timings, GC deltas,
Obs snapshots, critical-path samples and failed operations).  This module
turns that document into the
end-to-end metrics (untraced passes only) and the per-layer metrics
(traced run), plus a report of the paper's ratios with their bases.
The names, units and directions here are the ones BENCHMARK.json lists.
"""

import math

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("crit_tx_us_p50", "us", "lower"),
    ("node_tx_per_cpu_s", "tx/cpu-s", "higher"),
    ("satisfied_pct", "%", "higher"),
    ("import_mgas_per_cpu_s", "Mgas/cpu-s", "higher"),
    ("par_import_mgas_per_cpu_s", "Mgas/cpu-s", "higher"),
    ("heap_peak_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("crit.tx_us_p99", "us", "lower"),
    ("crit.samples", "count", "higher"),
    ("crit.mgas_per_s", "Mgas/s", "higher"),
    ("node.tx_per_wall_s", "tx/s", "higher"),
    ("import.mgas_per_wall_s", "Mgas/s", "higher"),
    ("par.mgas_per_wall_s", "Mgas/s", "higher"),
    ("host.cpu_share_pct", "%", "higher"),
    ("predictor.contexts_per_heard_tx", "count", "lower"),
    ("node.respec_ms", "ms", "lower"),
    ("spec.ms", "ms", "lower"),
    ("spec.contexts", "count", "lower"),
    ("spec.us_per_context", "us", "lower"),
    ("spec.paths_per_context", "count", "lower"),
    ("spec.build_error_pct", "%", "lower"),
    ("node.execute_ms", "ms", "lower"),
    ("node.commit_ms_per_block", "ms", "lower"),
    ("node.barrier_ms", "ms", "lower"),
    ("outcome.perfect_pct", "%", "higher"),
    ("outcome.imperfect_pct", "%", "higher"),
    ("outcome.missed_pct", "%", "lower"),
    ("outcome.unheard_pct", "%", "lower"),
    ("node.unexecuted_tx_pct", "%", "lower"),
    ("ap.hit_pct", "%", "higher"),
    ("ap.guard_checks_per_exec", "count", "lower"),
    ("ap.skip_pct", "%", "higher"),
    ("storm.ap_exec_us_p50", "us", "lower"),
    ("storm.fallback_us_p50", "us", "lower"),
    ("storm.key_us_p50", "us", "lower"),
    ("apstore.hit_pct", "%", "higher"),
    ("apstore.violations", "count", "lower"),
    ("apstore.published", "count", "lower"),
    ("statedb.cache_hit_pct", "%", "higher"),
    ("trie.node_reads_per_tx", "count", "lower"),
    ("trie.node_writes_per_tx", "count", "lower"),
    ("import.commit_ms_per_block", "ms", "lower"),
    ("import.exec_ms_per_block", "ms", "lower"),
    ("par.abort_pct", "%", "lower"),
    ("par.static_serial_pct", "%", "lower"),
    ("par.partition_ms_per_block", "ms", "lower"),
    ("par.exec_ms_per_block", "ms", "lower"),
    ("par.commit_ms_per_block", "ms", "lower"),
    ("gc.minor_words_per_tx", "count", "lower"),
    ("gc.minor_collections", "count", "lower"),
    ("gc.major_collections", "count", "lower"),
    ("setup.sim_s", "s", "lower"),
    ("setup.genesis_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# The node-side phase of each workload: where speculation, serving and
# the per-transaction critical path live.
NODE_PHASE = {"dice-l1": "forerunner", "transfer-import": "forerunner", "airdrop-storm": "serve"}

# A tail percentile is reported only where at least this many samples
# lie beyond it.
TAIL_SAMPLES = 10

# Scaled CPU times are in units of bench.ml's reference kernel, converted
# at this many nanoseconds each: about what the kernel takes on an idle
# core of the 2-vCPU Xeon VM the benchmark was tuned on.  See NOTES.md.
REFERENCE_NS = 5_000_000


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def tail_percentile(samples, want):
    """Nearest-rank percentile [want] of [samples], lowered to the highest
    percentile that still has TAIL_SAMPLES samples beyond it.

    Returns (value, percentile_used, sample_count); raises ValueError when
    not even the median has TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    rank = min(math.ceil(want * n / 100.0 - 1e-9), n - TAIL_SAMPLES)
    if n == 0 or rank < math.ceil(n / 2.0):
        raise ValueError("%d samples cannot support a tail percentile" % n)
    used = want if rank * 100.0 >= want * n - 1e-9 else 100.0 * rank / n
    return float(sorted(samples)[rank - 1]), used, n


def per_second(count, ns):
    return count / (ns / 1e9)


def mgas_per_s(gas, ns):
    return gas / 1e6 / (ns / 1e9)


def ratio(part, whole, scale=1.0):
    """part / whole (times scale), 0 when there is no whole."""
    return scale * part / whole if whole else 0.0


def count_failures(ops, failed_per_iteration, run_failed):
    """(attempted, failed) over the run's operations.

    An operation fails if any check of any pass rejected it; a run that
    raised counts every operation as failed, so failures never vanish."""
    attempted = max(1, ops)
    if run_failed or ops < 1:
        return attempted, attempted
    failed = set()
    for indices in failed_per_iteration:
        failed.update(indices)
    return attempted, len(failed)


# ---- the raw document ----


def untraced(doc):
    return [it for it in doc["iterations"] if not it["traced"]]


def traced(doc):
    return [it for it in doc["iterations"] if it["traced"]]


def phase(it, name):
    for p in it["phases"]:
        if p["name"] == name:
            return p
    raise KeyError(name)


def pass_cpu_ns(it):
    return sum(p["cpu_ns"] for p in it["phases"])


def wall_throughputs(doc):
    """Median over untraced passes of the node, import and parallel-import
    throughputs in wall time."""
    its = untraced(doc)
    node = NODE_PHASE[doc["workload"]]
    return (
        median(per_second(it["node_txs"], phase(it, node)["wall_ns"]) for it in its),
        median(mgas_per_s(it["import_gas"], phase(it, "import")["wall_ns"]) for it in its),
        median(mgas_per_s(it["par_gas"], phase(it, "par_import")["wall_ns"]) for it in its),
    )


def all_references(doc):
    return doc["setup_ref_cpu_ns"] + [
        r for it in untraced(doc) for p in it["phases"] for r in p["ref_cpu_ns"]
    ]


def scaled(times, refs):
    """[times] in reference units: times[k] ran between the reference
    timings refs[k] and refs[k+1] and is divided by their mean, then
    multiplied by REFERENCE_NS."""
    if len(refs) != len(times) + 1:
        raise ValueError("%d timings need %d references" % (len(times), len(times) + 1))
    return [t * REFERENCE_NS * 2.0 / (refs[k] + refs[k + 1]) for k, t in enumerate(times)]


def phase_cpu_ns(its, name, scale):
    """CPU time of phase [name] over the passes [its]: each block's time
    (scaled, with [scale]), median over the passes, summed over the blocks.
    A phase not timed block by block is one block."""
    units = []
    for it in its:
        p = phase(it, name)
        times = p["block_cpu_ns"] or [p["cpu_ns"]]
        units.append(scaled(times, p["ref_cpu_ns"]) if scale else times)
    if len({len(u) for u in units}) != 1:
        raise ValueError("passes of %s timed different block counts" % name)
    return sum(median([u[k] for u in units]) for k in range(len(units[0])))


def cpu_throughputs(doc):
    """Node, import and parallel-import throughputs in CPU time.

    The single-domain phases are scaled.  The parallel import is not: its
    references run beside the pool's idle worker domains and read about
    40 % slower than the others in the same pass, and with both vCPUs busy
    no neighbour shares its core."""
    its = untraced(doc)
    work = lambda key: median(it[key] for it in its)
    return (
        per_second(work("node_txs"), phase_cpu_ns(its, NODE_PHASE[doc["workload"]], True)),
        mgas_per_s(work("import_gas"), phase_cpu_ns(its, "import", True)),
        mgas_per_s(work("par_gas"), phase_cpu_ns(its, "par_import", False)),
    )


def crit_p50_ns(doc):
    """Median critical-path time per transaction: each pass's median, median
    over the passes.  Where the node phase runs block by block (the storm's
    serve), its references are spread through it and the pass's median is
    scaled by their mean.  A replay has only two references, 1.5 s apart,
    and is not scaled: on transfer-import a pass's median moved 4.0-5.0 us
    while those references moved 5.6-13 ms."""
    node = NODE_PHASE[doc["workload"]]

    def one(it):
        p50 = tail_percentile(it["crit_ns"], 50)[0]
        p = phase(it, node)
        if not p["block_cpu_ns"]:
            return p50
        return p50 * REFERENCE_NS * len(p["ref_cpu_ns"]) / sum(p["ref_cpu_ns"])

    return median(one(it) for it in untraced(doc))


def setup_ns(doc):
    """Median set-up CPU time, each set-up scaled by the references around it."""
    return median(scaled(doc["setup_cpu_ns"], doc["setup_ref_cpu_ns"]))


def end_to_end(doc):
    its = untraced(doc)
    node, imp, par = cpu_throughputs(doc)
    return {
        "setup_s": setup_ns(doc) / 1e9,
        "crit_tx_us_p50": crit_p50_ns(doc) / 1e3,
        "node_tx_per_cpu_s": node,
        "satisfied_pct": median(it["satisfied_pct"] for it in its),
        "import_mgas_per_cpu_s": imp,
        "par_import_mgas_per_cpu_s": par,
        "heap_peak_mb": doc["heap_top_bytes"] / float(1 << 20),
    }


class ObsSum:
    """One phase's Obs snapshots summed over the traced passes."""

    def __init__(self, its, name):
        self.counters, self.spans, self.hists = {}, {}, {}
        for it in its:
            obs = phase(it, name).get("obs", {})
            for k, v in obs.get("counters", {}).items():
                self.counters[k] = self.counters.get(k, 0) + v
            for k, v in obs.get("spans", {}).items():
                c, t = self.spans.get(k, (0, 0))
                self.spans[k] = (c + v["count"], t + v["total_ns"])
            for k, v in obs.get("histograms", {}).items():
                c, s = self.hists.get(k, (0, 0.0))
                self.hists[k] = (c + v["count"], s + v["sum"])

    def counter(self, name):
        return self.counters.get(name, 0)

    def span_ns(self, name):
        return self.spans.get(name, (0, 0))[1]

    def span_count(self, name):
        return self.spans.get(name, (0, 0))[0]

    def hist_mean(self, name):
        c, s = self.hists.get(name, (0, 0.0))
        return ratio(s, c)


def p50_us(samples):
    return tail_percentile(samples, 50)[0] / 1e3 if len(samples) >= 2 * TAIL_SAMPLES else 0.0


def per_layer(doc):
    wl = doc["workload"]
    its, plain = traced(doc), untraced(doc)
    n = len(its)
    node_phase = NODE_PHASE[wl]
    node = ObsSum(its, node_phase)
    imp = ObsSum(its, "import")
    par = ObsSum(its, "par_import")
    ops = doc["ops"] * n
    blocks = doc["blocks"] * n
    storm = wl == "airdrop-storm"
    contexts = node.counter("speculator.contexts_built")
    ap_execs = node.counter("ap.hits") + node.counter("ap.violations")
    instrs = node.counter("ap.instrs_executed") + node.counter("ap.instrs_skipped")
    cache = node.counter("statedb.cache.hits") + node.counter("statedb.cache.misses")
    lookups = node.counter("apstore.hits") + node.counter("apstore.misses")
    outcomes = {}
    for it in its:
        for k, v in it.get("outcomes", {}).items():
            outcomes[k] = outcomes.get(k, 0) + v
    node_txs = sum(it["node_txs"] for it in its)
    par_txs = sum(it["par_txs"] for it in its)
    sum_it = lambda key: sum(it.get(key, 0) for it in its)
    gc = lambda key: ratio(sum(p["gc"][key] for it in plain for p in it["phases"]), len(plain))
    setup_s = median(doc["setup_cpu_ns"]) / 1e9
    crit = [ns for it in plain for ns in it["crit_ns"]]
    node_wall, imp_wall, par_wall = wall_throughputs(doc)
    genesis_s = doc["genesis_ns"] / 1e9
    spec_ms = sum_it("build_ns") / 1e6 if storm else node.span_ns("replay.forerunner.speculate") / 1e6
    m = {
        "crit.tx_us_p99": tail_percentile(crit, 99)[0] / 1e3,
        "crit.samples": len(crit),
        "crit.mgas_per_s": mgas_per_s(sum(it["crit_gas"] for it in plain), sum(crit)),
        "node.tx_per_wall_s": node_wall,
        "import.mgas_per_wall_s": imp_wall,
        "par.mgas_per_wall_s": par_wall,
        "host.cpu_share_pct": 100.0
        * median(phase(it, node_phase)["cpu_ns"] / phase(it, node_phase)["wall_ns"] for it in plain),
        "predictor.contexts_per_heard_tx": ratio(
            node.counter("predictor.contexts_predicted"), doc["info"].get("heard_txs", 0) * n
        ),
        "node.respec_ms": ratio(node.span_ns("replay.forerunner.respec") / 1e6, n),
        "spec.ms": ratio(spec_ms, n),
        "spec.contexts": ratio(sum_it("builds") if storm else contexts, n),
        "spec.us_per_context": (
            ratio(sum_it("build_ns") / 1e3, sum_it("builds"))
            if storm
            else node.hist_mean("speculator.context_build_ns") / 1e3
        ),
        "spec.paths_per_context": ratio(node.counter("speculator.paths_synthesized"), contexts),
        "spec.build_error_pct": ratio(node.counter("speculator.build_errors"), contexts, 100.0),
        "node.execute_ms": ratio(node.span_ns("replay.forerunner.execute") / 1e6, n),
        "node.commit_ms_per_block": ratio(
            node.span_ns("replay.forerunner.commit") / 1e6, node.span_count("replay.forerunner.commit")
        ),
        "node.barrier_ms": ratio(node.span_ns("replay.forerunner.barrier") / 1e6, n),
        "node.unexecuted_tx_pct": ratio(sum_it("unexecuted"), ops, 100.0),
        "ap.hit_pct": ratio(node.counter("ap.hits"), ap_execs, 100.0),
        "ap.guard_checks_per_exec": ratio(node.counter("ap.guard_checks"), ap_execs),
        "ap.skip_pct": ratio(node.counter("ap.instrs_skipped"), instrs, 100.0),
        "storm.ap_exec_us_p50": p50_us([x for it in its for x in it.get("ap_ns", [])]),
        "storm.fallback_us_p50": p50_us([x for it in its for x in it.get("fallback_ns", [])]),
        "storm.key_us_p50": p50_us([x for it in its for x in it.get("key_ns", [])]),
        "apstore.hit_pct": ratio(node.counter("apstore.hits"), lookups, 100.0),
        "apstore.violations": ratio(sum_it("violations"), n),
        "apstore.published": ratio(node.counter("apstore.published"), n),
        "statedb.cache_hit_pct": ratio(node.counter("statedb.cache.hits"), cache, 100.0),
        "trie.node_reads_per_tx": ratio(imp.counter("trie.node_reads"), ops),
        "trie.node_writes_per_tx": ratio(imp.counter("trie.node_writes"), ops),
        "import.commit_ms_per_block": ratio(
            imp.span_ns("statedb.commit") / 1e6, imp.span_count("statedb.commit")
        ),
        "import.exec_ms_per_block": ratio(
            (sum(phase(it, "import")["wall_ns"] for it in its) - imp.span_ns("statedb.commit")) / 1e6,
            blocks,
        ),
        "par.abort_pct": ratio(sum_it("par_aborted") + sum_it("par_forced"), par_txs, 100.0),
        "par.static_serial_pct": ratio(sum_it("par_static_serial"), par_txs, 100.0),
        "par.partition_ms_per_block": ratio(par.span_ns("stf.parallel.partition") / 1e6, blocks),
        "par.exec_ms_per_block": ratio(par.span_ns("stf.parallel.exec") / 1e6, blocks),
        "par.commit_ms_per_block": ratio(par.span_ns("stf.parallel.commit") / 1e6, blocks),
        "gc.minor_words_per_tx": ratio(gc("minor_words"), doc["ops"]),
        "gc.minor_collections": gc("minor_collections"),
        "gc.major_collections": gc("major_collections"),
        "setup.sim_s": max(0.0, setup_s - genesis_s),
        "setup.genesis_s": genesis_s,
        "trace.overhead_pct": 100.0
        * (median(pass_cpu_ns(it) for it in its) / median(pass_cpu_ns(it) for it in plain) - 1.0),
    }
    for k in ("perfect", "imperfect", "missed", "unheard"):
        m["outcome.%s_pct" % k] = ratio(outcomes.get(k, 0), node_txs, 100.0)
    return m


def report(doc):
    """Everything a reader needs beside the metrics: sample counts, the
    paper's ratios with their bases, and GC deltas per phase."""
    its = untraced(doc)
    crit = [ns for it in its for ns in it["crit_ns"]]
    rep = {
        "workload": doc["workload"],
        "seed": doc["seed"],
        "passes": {"untraced": len(its), "traced": len(traced(doc))},
        "operations": doc["ops"],
        "blocks": doc["blocks"],
        "info": doc["info"],
        "crit_samples": len(crit),
        "node_unexecuted_ops": its[-1].get("unexecuted", 0) if its else 0,
    }
    refs = all_references(doc)
    if refs:
        rep["reference_ms"] = {"fastest": min(refs) / 1e6, "median": median(refs) / 1e6, "samples": len(refs)}
    if len(crit) > 2 * TAIL_SAMPLES:
        for want in (50, 99):
            value, used, n = tail_percentile(crit, want)
            rep["crit_pooled_us_p%d" % want] = {"value": value / 1e3, "percentile": used, "samples": n}
    ratios = {}
    if doc["workload"] != "airdrop-storm" and its:
        ratios["effective_speedup"] = {
            "value": median(it["effective_speedup"] for it in its),
            "base": "Baseline policy, heard canonical txs (Table 2)",
        }
        ratios["e2e_speedup"] = {
            "value": median(it["e2e_speedup"] for it in its),
            "base": "Baseline policy, all canonical txs (Table 2)",
        }
        ratios["table3"] = {"value": its[-1]["table3"], "base": "heard canonical txs (Table 3)"}
        ratios["spec_to_exec"] = {
            "value": median(it["spec_to_exec_ratio"] for it in its),
            "base": "plain-execution share of speculation (section 5.6)",
        }
    if its:
        for clock, what in (("wall_ns", "wall-clock speedup"), ("cpu_ns", "CPU-time efficiency")):
            ratios["par_import_over_import_" + clock[:-3]] = {
                "value": median(
                    phase(it, "import")[clock] / phase(it, "par_import")[clock] for it in its
                ),
                "base": "sequential Stf.apply_txs over the same blocks (%s)" % what,
            }
    rep["ratios"] = ratios
    rep["gc_per_pass"] = {"untraced": gc_by_phase(its), "traced": gc_by_phase(traced(doc))}
    return rep


def gc_by_phase(its):
    """GC deltas of each phase, averaged over the passes."""
    out = {}
    for it in its:
        for p in it["phases"]:
            acc = out.setdefault(p["name"], {})
            for k, v in p["gc"].items():
                acc[k] = acc.get(k, 0) + v / len(its)
    return out


def result(doc):
    """The benchmark's last output line, as a dict."""
    attempted, failed = count_failures(
        doc["ops"], [it["failed"] for it in doc["iterations"]], doc["run_failed"]
    )
    names = PER_LAYER if doc["trace"] else END_TO_END
    values = {}
    ok = not doc["run_failed"] and failed == 0
    try:
        values = per_layer(doc) if doc["trace"] else end_to_end(doc)
    except (ValueError, KeyError, ZeroDivisionError):
        ok = False
    metrics = {}
    for name, unit, _ in names:
        v = values.get(name, 0.0)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            ok, v = False, 0.0
        metrics[name] = {"value": v, "unit": unit}
    return {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
