"""Turn the benchmark binary's raw measurements into the benchmark's metrics.

Pure functions only, so that perfbench/test_metrics.py can cover the
arithmetic without building or running the simulator.
"""

import hashlib
import statistics

# Paper headline results the campaign reproduces (percent).
# Figure 6: mean SOE speedup over single thread, by enforcement level.
PAPER_FIG6 = {0.0: 24.0, 0.25: 21.0, 0.5: 19.0, 1.0: 15.0}
# Figure 7: mean throughput degradation relative to F = 0.
PAPER_FIG7 = {0.25: 2.2, 0.5: 3.7, 1.0: 7.2}

def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def csv_digest(csv):
    """Digest of a campaign CSV with its rows in sorted order: the
    seed permutes the order pairs are enqueued, and so the row order."""
    lines = csv.splitlines()
    return sha256("\n".join(lines[:1] + sorted(lines[1:])))


def check_rep(rep, digests):
    """Failures of one repetition: every error the binary reported
    (exception, timeout, MISSING cell, cache-accounting mismatch) and
    every payload or CSV whose digest differs from the recorded one.
    Returns (failed cells, messages)."""
    messages = list(rep["errors"])
    cells = digests["cells"]
    for cell, payload in sorted(rep["payloads"].items()):
        if cells.get(cell) != sha256(payload):
            messages.append(f"{cell}: payload digest mismatch")
    if rep["csv"] and csv_digest(rep["csv"]) != digests["campaign_csv"]:
        messages.append("campaign CSV digest mismatch")
    return min(rep["attempted"], len(messages)), messages


def _by_level(pairs):
    levels = {}
    for p in pairs:
        levels.setdefault(float(p["F"]), []).append(p)
    return levels


def paper_error_pp(pairs):
    """Mean absolute gap, in percentage points, between the simulated
    Figure 6 / Figure 7 headline numbers and the paper's, over the
    entries the workload's levels determine (Figure 7 needs F = 0)."""
    levels = _by_level(pairs)
    gaps = []
    for f, rows in levels.items():
        if f in PAPER_FIG6:
            sim = 100.0 * (statistics.mean(
                r["speedup_over_st"] for r in rows) - 1.0)
            gaps.append(abs(sim - PAPER_FIG6[f]))
    base = {r["pair"]: r["ipc_total"] for r in levels.get(0.0, [])}
    for f, rows in levels.items():
        if f in PAPER_FIG7 and base:
            norm = [r["ipc_total"] / base[r["pair"]] for r in rows
                    if r["pair"] in base]
            sim = 100.0 * (1.0 - statistics.mean(norm))
            gaps.append(abs(sim - PAPER_FIG7[f]))
    return statistics.mean(gaps)


def fairness_attainment_pct(pairs):
    """Figure 8: mean over enforcement levels F > 0 of the mean
    min(F, achieved) / F. A workload with only F = 0 runs is scored
    against full fairness (F = 1)."""
    levels = _by_level(pairs)
    enforced = {f: rows for f, rows in levels.items() if f > 0.0}
    if not enforced:
        enforced = {1.0: levels[0.0]}
    per_level = [
        statistics.mean(min(f, r["fairness"]) / f for r in rows)
        for f, rows in enforced.items()]
    return 100.0 * statistics.mean(per_level)


def self_times(spans):
    """Self time per span name (seconds): each span's duration minus
    the part of its interval that its children cover (overlapping
    children counted once)."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = {}
    for i, s in enumerate(spans):
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(i, []),
                        key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["name"]] = out.get(s["name"], 0.0) + \
            (s["end"] - s["start"] - covered) * 1e-9
    return out


def _durations(spans, name):
    return [(s["end"] - s["start"]) * 1e-9 for s in spans
            if s["name"] == name]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(layers, traced_rep):
    """Per-layer metrics from one traced repetition: the service
    timings the binary took, and the simulator layers when the traced
    repetition stepped a System itself."""
    out = dict(layers["service"])
    spans = layers["spans"]
    calls = layers["soe_calls"]
    # Each timed controller call costs about two clock reads beyond the
    # call itself; take them out of the step time the shares divide.
    step = sum(_durations(spans, "system.step")) - \
        2 * calls * layers["clock_ns"] * 1e-9
    if step > 0:
        st = layers["stats"]
        cycles = layers["cycles"]
        retired = st.get("system.core.retiredOps", 0.0)
        out["system.construct_ms"] = 1e3 * statistics.median(
            _durations(spans, "system.construct"))
        out["system.warm_s"] = sum(_durations(spans, "system.warm"))
        out["system.step_s"] = step
        out["system.ns_per_cycle"] = 1e9 * step / cycles
        out["system.ff_frac"] = layers["ff_cycles"] / cycles

        soe_s = max(0, layers["soe_ns"] - calls * layers["clock_ns"]) * 1e-9
        out["soe.calls"] = float(calls)
        out["soe.calls_per_cycle"] = calls / cycles
        out["soe.ns_per_call_p50"] = layers["soe_p50_ns"]
        out["soe.ns_per_call_p99"] = layers["soe_p99_ns"]
        out["soe.share"] = soe_s / step
        windows = _durations(spans, "soe.window")
        if windows:
            out["soe.window_us"] = 1e6 * statistics.median(windows)
        switches = instrs = 0
        for cell, payload in traced_rep["payloads"].items():
            if cell.startswith("soe:"):
                f = payload.split()
                n = int(f[0])
                instrs += sum(int(f[2 + 4 * t]) for t in range(n))
                switches += sum(int(x) for x in f[-4:-1])
        out["soe.switches_per_kinstr"] = 1e3 * _ratio(switches, instrs)

        next_ns = _ratio(layers["replay_gen_ns"], layers["replay_ops"])
        out["workload.next_ns"] = next_ns
        out["workload.share_est"] = \
            next_ns * layers["step_generated"] * 1e-9 / step
        access_ns = _ratio(layers["replay_access_ns"],
                           layers["replay_accesses"])
        fetch_ns = _ratio(layers["replay_fetch_ns"],
                          layers["replay_fetches"])
        out["mem.access_ns"] = access_ns
        out["mem.fetch_ns"] = fetch_ns
        out["mem.share_est"] = (
            access_ns * st.get("system.mem.l1d.accesses", 0.0) +
            fetch_ns * st.get("system.mem.l1i.accesses", 0.0)) * 1e-9 / step
        l1d = st.get("system.mem.l1d.accesses", 0.0)
        out["mem.l1d_miss_ratio"] = _ratio(
            st.get("system.mem.l1d.misses", 0.0), l1d)
        out["mem.l1d_mshr_retry_ratio"] = _ratio(
            st.get("system.mem.l1d.mshrFullRetries", 0.0), l1d)
        out["mem.l2_mpki"] = 1e3 * _ratio(
            st.get("system.mem.l2.misses", 0.0), retired)
        out["mem.dtlb_walks_pki"] = 1e3 * _ratio(
            st.get("system.mem.dtlb.walks", 0.0), retired)

        out["cpu.share_est"] = 1.0 - out["soe.share"] - \
            out["workload.share_est"] - out["mem.share_est"]
        out["cpu.ipc"] = retired / cycles
        out["cpu.squash_ratio"] = _ratio(
            st.get("system.core.squashedOps", 0.0),
            st.get("system.core.fetch.fetched", 0.0))
        out["cpu.bpred_mispredict_ratio"] = _ratio(
            st.get("system.core.bpred.mispredicts", 0.0),
            st.get("system.core.bpred.lookups", 0.0))
    return out

