"""Benchmark of the ackflow fluid engine: cost, memory and oracle error.

Run from the repository root::

    python3 perfbench/run.py --workload chain_sched --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload, each time in a fresh process, for about
``--seconds`` seconds (at least twice) and reports the end-to-end metrics
listed in BENCHMARK.json.  Times are given at a reference host speed:
``hostclock.py`` calibrates the host while the timed code runs and scales
the host seconds by how slow it ran.  ``--trace 1`` runs the workload once untraced,
once under the outside-in tracer of ``tracer.py`` and once with history
pruning on, and reports the per-layer metrics.  Every run checks its
outputs: finite values, nonnegative backlog, queue mass balance and an
identical trace digest across the runs of the set.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (scenario source, oracle, packet-oracle warm-up).  The packet simulator
# starts empty; where the fluid run starts at equilibrium it is started 5 s
# early so that it has reached its own steady state by t = 0.
WORKLOADS = {
    "chain_sched": ("scenario3", "packet", 5.0),
    "squarewave": ("squarewave", "packet", 0.0),
    "fast_pair_offgrid": (str(HERE / "fast_pair_offgrid.yaml"), "fast_fixed_point", 0.0),
}

MIN_REPEATS = 2             # for the digest check; the host clock keeps a
                            # slow moment of the host out of the median
RUN_LIMIT_S = 170.0         # whole invocation, children included
SAMPLE_DT_S = 0.01          # packet_sim's default sampling grid
FINAL_STRETCH_FRAC = 0.05   # fixed-point errors use the last 5 % of the horizon
ORACLE_GATE_PKTS = 5.0      # fluid vs packet agreement bound (ROADMAP item 2)
MASS_TOL = 1e-9             # queue mass balance, relative to packets carried
SETUP_BUDGET_S = 0.5        # long enough that one CPU-speed dip cannot set it
SETUP_REPEATS = (20, 10000)  # min, max


def load_workload(scenario_mod, name: str, horizon_s: float | None):
    scenario = scenario_mod.load_scenario(WORKLOADS[name][0])
    if horizon_s is not None:
        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, horizon_s=horizon_s))
    return scenario


# ---------------------------------------------------------------------------
# one run, in a fresh process

def time_setup(scenario_mod, source: str):
    """Median load and build times over repeated set-ups, in reference seconds."""
    loads, builds = [], []
    lo, hi = SETUP_REPEATS
    with HostClock() as clock:
        deadline = clock.now() + SETUP_BUDGET_S
        while len(loads) < lo or (len(loads) < hi and clock.now() < deadline):
            t0 = clock.now()
            scenario = scenario_mod.load_scenario(source)
            t1 = clock.now()
            scenario_mod.to_network(scenario)
            t2 = clock.now()
            loads.append(t1 - t0)
            builds.append(t2 - t1)
    scale = clock.scale()
    totals = [a + b for a, b in zip(loads, builds)]
    return tuple(statistics.median(v) * scale for v in (loads, builds, totals))


def check_outputs(traces, np):
    """Output checks, trace digest and the counters the layers leave behind."""
    problems = []
    digest = hashlib.sha256()
    for name in sorted(traces.signals):
        values = np.ascontiguousarray(traces.signals[name], dtype=np.float64)
        if not np.isfinite(values).all():
            problems.append(f"non-finite values in {name}")
        digest.update(name.encode())
        digest.update(values.tobytes())
    dt = traces.dt_s
    mass_gap = 0.0
    for qid, queue in traces.queues.items():
        backlog = traces[f"q.{qid}"]
        if backlog.min() < 0.0:
            problems.append(f"negative backlog in queue {qid}: {backlog.min()!r}")
        arrived = float(np.sum(traces[f"arrival.{qid}"])) * dt
        served = float(np.sum(traces[f"r.{qid}"])) * dt
        departed = sum(float(np.sum(traces[f"out.{qid}.{f}"])) for f in queue.flow_ids) * dt
        gap = max(abs(queue.backlog - backlog[0] - (arrived - served)),
                  abs(departed - served))
        if not gap <= MASS_TOL * max(1.0, arrived):
            problems.append(f"queue {qid} mass balance off by {gap!r} pkts")
        mass_gap = max(mass_gap, gap)
    users = traces.users
    counters = {
        "ticks": len(traces.time),
        "samples_held": sum(
            len(traj) for q in traces.queues.values()
            for traj in (q.forward_map, *q.inputs.values(), *q.outputs.values()))
            + sum(len(u.sending) + len(u.acks) for u in users.values()),
        "mode_switches": sum(int(np.count_nonzero(np.diff(traces[f"congested.{qid}"])))
                             for qid in traces.queues),
        "stall_fallbacks": sum(q.stall_fallbacks for q in traces.queues.values()),
        "mass_gap_pkts": mass_gap,
        "retain_entries": sum(
            int(np.count_nonzero(np.diff(traces[f"active.{uid}"], prepend=1.0) < 0))
            for uid in users),
        "flight_gap_pkts": max(
            (float(np.max(np.abs(traces[f"flight.{uid}"] - traces[f"flight_ode.{uid}"])))
             for uid in users), default=0.0),
        "equilibrium_sweeps": (traces.equilibrium_init.sweeps
                               if traces.equilibrium_init is not None else 0),
    }
    return problems, digest.hexdigest(), counters


def oracle_samples(traces, np) -> dict:
    """Backlog, cumulative per-flow departures and send rates on the oracle grid."""
    dt = traces.dt_s
    n = int(round(traces.config.horizon_s / SAMPLE_DT_S)) + 1
    idx = np.rint(np.arange(n) * SAMPLE_DT_S / dt).astype(int)
    samples = {}
    for qid, queue in traces.queues.items():
        samples[f"q.{qid}"] = traces[f"q.{qid}"][idx].tolist()
        for fid in queue.flow_ids:
            cum = np.concatenate(([0.0], np.cumsum(traces[f"out.{qid}.{fid}"]) * dt))
            samples[f"dep.{qid}.{fid}"] = cum[idx].tolist()
    for uid in traces.users:
        samples[f"send.{uid}"] = traces[f"send.{uid}"][idx].tolist()
    return samples


def run_once(name: str, mode: str, horizon_s: float | None) -> dict:
    """One workload run; ``mode`` is plain, traced or prune."""
    t0 = time.perf_counter()
    import ackflow.engine as engine  # imports every other ackflow module
    import ackflow.scenario as scenario_mod
    import_s = time.perf_counter() - t0
    import numpy as np
    from tracer import ENGINE_SPAN, LAYER_SPANS, Tracer, trace_layers

    load_s, build_s, setup_s = time_setup(scenario_mod, WORKLOADS[name][0])
    scenario = load_workload(scenario_mod, name, horizon_s)
    network = scenario_mod.to_network(scenario)
    config = engine.SimConfig(dt_s=scenario.run.dt_s, horizon_s=scenario.run.horizon_s,
                              init=scenario.run.init, prune_history=mode == "prune")
    out = {"import_s": import_s, "load_s": load_s, "build_s": build_s,
           "setup_s": setup_s}
    spans = {"plain": (), "traced": LAYER_SPANS,
             "prune": [s for s in LAYER_SPANS if s[2] == "history.prune_before"]}[mode]
    tracer = Tracer()
    trace_layers(tracer, (ENGINE_SPAN, *spans))
    # Calibrations would land inside the spans, so only the plain run has them.
    clock = HostClock() if mode == "plain" else None
    try:
        with tracer, clock or contextlib.nullcontext():
            now = clock.now if clock else time.perf_counter
            t0 = now()
            traces = engine.simulate(network, scenario, config)
            out["raw_wall_s"] = now() - t0
        if clock:
            out["wall_s"] = out["raw_wall_s"] * clock.scale()
            out["calib_s"] = statistics.fmean(clock.calibrations)
    except Exception as exc:  # reported to the parent as a failed run
        traceback.print_exc()
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["spans"] = {n: {"calls": tracer.calls(n), "self_s": tracer.self_s(n),
                        "total_s": tracer.total_s(n)} for n in tracer.stats}
    if "error" in out:
        return out
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["problems"], out["digest"], out["counters"] = check_outputs(traces, np)
    if mode == "plain":
        out["samples"] = oracle_samples(traces, np)
    return out


# ---------------------------------------------------------------------------
# the set of runs, in the parent

def spawn(name: str, mode: str, horizon_s: float | None, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", name]
    if horizon_s is not None:
        cmd += ["--horizon-s", repr(horizon_s)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} run timed out"}
    if proc.returncode != 0:
        return {"error": f"{mode} run exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if "error" in result and mode != "prune":
        sys.stderr.write(proc.stderr)
    return result


def oracle_errors(name: str, scenario, reference, samples: dict, np) -> dict:
    """Fluid-vs-oracle errors, in packets, from one run's samples."""
    if WORKLOADS[name][1] == "packet":
        q_err = max(float(np.max(np.abs(np.asarray(samples[f"q.{qid}"]) - q_pkt)))
                    for qid, q_pkt in reference.queue_lengths.items())
        dep_err = max(
            float(np.max(np.abs(np.asarray(samples[f"dep.{qid}.{fid}"]) - (cnt - cnt[0]))))
            for (qid, fid), cnt in reference.dequeue_counts.items())
        return {"q_err_pkts": q_err, "dep_err_pkts": dep_err}
    # FAST fixed point on one bottleneck: each user keeps alpha_u packets
    # queued, so the backlog is sum(alpha) and user u gets c * alpha_u / sum(alpha)
    (queue,) = scenario.queues
    cap = queue.capacity_pps
    alphas = {u.id: u.protocol.alpha_pkts for u in scenario.users}
    alpha_sum = sum(alphas.values())
    q = np.asarray(samples[f"q.{queue.id}"])
    t = np.arange(len(q)) * SAMPLE_DT_S
    tail = t >= t[-1] * (1.0 - FINAL_STRETCH_FRAC)
    span_s = t[tail][-1] - t[tail][0]
    dep_err = fast_err = 0.0
    for uid, alpha in alphas.items():
        dep = np.asarray(samples[f"dep.{queue.id}.{uid}"])[tail]
        dep_err = max(dep_err, abs(dep[-1] - dep[0] - cap * alpha / alpha_sum * span_s))
        send = np.asarray(samples[f"send.{uid}"])[tail]
        fast_err = max(fast_err, float(np.max(np.abs(send * q[tail] / cap - alpha))))
    return {"q_err_pkts": float(np.max(np.abs(q[tail] - alpha_sum))),
            "dep_err_pkts": float(dep_err), "fast_err_pkts": fast_err}


def judge(runs: list[dict]) -> list[dict]:
    """Runs that passed their checks and share the set's common digest."""
    ok = [r for r in runs if "error" not in r and not r["problems"]]
    for r in runs:
        for problem in [r["error"]] if "error" in r else r["problems"]:
            print(f"run failed: {problem}", file=sys.stderr)
    if not ok:
        return []
    common, _ = Counter(r["digest"] for r in ok).most_common(1)[0]
    good = [r for r in ok if r["digest"] == common]
    if len(good) < len(ok):
        print(f"{len(ok) - len(good)} run(s) gave another trace digest", file=sys.stderr)
    return good


def measure(name: str, seconds: float, horizon_s: float | None, deadline: float):
    """End-to-end metrics from repeated untraced runs."""
    import numpy as np
    import ackflow.scenario as scenario_mod
    from ackflow.oracle import packet_sim

    scenario = load_workload(scenario_mod, name, horizon_s)
    _, oracle, warmup_s = WORKLOADS[name]
    reference = packet_sim(scenario, warmup_s=warmup_s) if oracle == "packet" else None
    runs, durations = [], []
    start = time.monotonic()
    while (len(runs) < MIN_REPEATS
           or time.monotonic() - start + statistics.median(durations) <= seconds):
        t0 = time.monotonic()
        runs.append(spawn(name, "plain", horizon_s, deadline))
        durations.append(time.monotonic() - t0)
    good = judge(runs)
    if not good:
        return False, len(runs), len(runs), {}, {}
    errors = oracle_errors(name, scenario, reference, good[0]["samples"], np)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "q_err_pkts": errors["q_err_pkts"],
        "dep_err_pkts": errors["dep_err_pkts"],
    }
    for key in ("wall_s", "raw_wall_s", "calib_s"):
        print(f"  runs {key}: " + " ".join(f"{r[key]:.6g}" for r in good))
    correct = len(good) == len(runs)
    if oracle == "packet":
        correct = correct and max(errors.values()) <= ORACLE_GATE_PKTS
    extra = {"fast_err_pkts": errors.get("fast_err_pkts")}
    return correct, len(runs), len(runs) - len(good), metrics, extra


def trace(name: str, horizon_s: float | None, deadline: float):
    """Per-layer metrics from one untraced, one traced and one pruning run."""
    import heapq
    import types
    import ackflow.oracle as oracle_mod
    import ackflow.scenario as scenario_mod
    from tracer import LAYER_SPANS, Tracer

    plain = spawn(name, "plain", horizon_s, deadline)
    traced = spawn(name, "traced", horizon_s, deadline)
    pruned = spawn(name, "prune", horizon_s, deadline)
    good = judge([plain, traced])
    if len(good) < 2:
        return False, 2, 2 - len(good), {}, {}

    scenario = load_workload(scenario_mod, name, horizon_s)
    _, oracle, warmup_s = WORKLOADS[name]
    packet_sim_s = 0.0
    with Tracer() as tracer:
        if oracle == "packet":
            heap_ops = types.SimpleNamespace(heappush=heapq.heappush, heappop=heapq.heappop)
            tracer.patch(oracle_mod, "heapq", heap_ops)
            tracer.count(heap_ops, "heappop", "oracle.packet_events")
            with HostClock() as clock:
                t0 = clock.now()
                oracle_mod.packet_sim(scenario, warmup_s=warmup_s)
                packet_sim_s = clock.now() - t0
            packet_sim_s *= clock.scale()

    spans, counters = traced["spans"], traced["counters"]
    ticks = counters["ticks"]
    metrics = {
        "engine.self_s": spans["engine"]["self_s"],
        "engine.us_per_tick": plain["wall_s"] / ticks * 1e6,
        "engine.ticks": ticks,
        "engine.prune_run_ok": int("error" not in pruned and not pruned["problems"]),
    }
    # pruning is off in the traced run; prune_before is timed in the pruning run
    spans["history.prune_before"] = pruned.get("spans", {}).get(
        "history.prune_before", {"calls": 0, "self_s": 0.0})
    for _, _, span in LAYER_SPANS:
        if span != "oracle.equilibrium":
            metrics[f"{span}_s"] = spans[span]["self_s"]
            metrics[f"{span}_calls"] = spans[span]["calls"]
    metrics["history.samples_held"] = counters["samples_held"]
    for key in ("mode_switches", "stall_fallbacks", "mass_gap_pkts"):
        metrics[f"fifo_queue.{key}"] = counters[key]
    for key in ("retain_entries", "flight_gap_pkts"):
        metrics[f"user.{key}"] = counters[key]
    metrics.update({
        "scenario.load_s": plain["load_s"],
        "topology.build_s": plain["build_s"],
        "setup.import_s": plain["import_s"],
        "oracle.packet_sim_s": packet_sim_s,
        "oracle.packet_events": tracer.calls("oracle.packet_events"),
        "oracle.equilibrium_s": spans["oracle.equilibrium"]["total_s"],
        "oracle.equilibrium_sweeps": counters["equilibrium_sweeps"],
        "oracle.fluid_over_packet": plain["wall_s"] / packet_sim_s if packet_sim_s else 0.0,
        "trace.overhead_frac": spans["engine"]["total_s"] / plain["raw_wall_s"] - 1.0,
        "host.calib_s": plain["calib_s"],
        "host.raw_wall_s": plain["raw_wall_s"],
    })
    extra = {"prune_error": pruned.get("error")}
    return True, 2, 0, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon-s", type=float, default=None,
                        help="shorten the workload's horizon (smoke tests)")
    parser.add_argument("--child", choices=("plain", "traced", "prune"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ackflow").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/ackflow and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        print(json.dumps(run_once(args.workload, args.child, args.horizon_s)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    deadline = time.monotonic() + RUN_LIMIT_S
    # The workloads are fixed scenarios with no random input, so every seed
    # gives the same inputs; the seed is echoed for the record.
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        correct, attempted, failed, metrics, extra = trace(
            args.workload, args.horizon_s, deadline)
    else:
        correct, attempted, failed, metrics, extra = measure(
            args.workload, args.seconds, args.horizon_s, deadline)
    if metrics and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {units[key]}")
    if not args.trace:
        fast_err = extra["fast_err_pkts"]
        print(f"  {'fast_err_pkts':34s} "
              + ("n/a (no FAST users)" if fast_err is None else f"{fast_err:.6g} pkts"))
    elif extra["prune_error"]:
        print(f"  prune run: {extra['prune_error']}")
    print(f"  {'fail_frac':34s} {failed / attempted:.6g} ({failed} of {attempted} runs)")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
