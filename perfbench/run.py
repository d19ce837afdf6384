"""The roleflow benchmark: seeded workloads driven through the public API.

Each run of a workload follows `roleflow run`: parse the generated model and
scenario text, decompose, synthesize (set-up), then run the adaptive loop or
the concurrent scheduler and render the trace and report (run). Every run's
outputs are checked against the outcome the generator computed.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 40 --trace 0

With `--trace 0` the untraced runs give the end-to-end metrics; with
`--trace 1` traced runs (alternating with untraced ones, for the tracing
overhead) give the per-layer metrics. `--workload all` runs every workload
in its own process and prints one table. The last line of standard output
is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
try:
    import roleflow
    from roleflow import (
        adaptation,
        cpn,
        decomposition,
        marking_codec,
        modelio,
        organization,
        runtime,
    )
except ImportError as exc:
    raise SystemExit(f"error: cannot import roleflow from {SRC}: {exc}")
if Path(roleflow.__file__).resolve().parent != (SRC / "roleflow").resolve():
    raise SystemExit(f"error: roleflow was imported from {roleflow.__file__}, not from {SRC}")

import gen  # noqa: E402  (sibling modules, imported after the program check)
from tracer import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _count_hits(tracer, bindings):
    tracer.counters["bindings_returned"] += len(bindings)
    tracer.counters["hits"] += bool(bindings)


def _count_bytes(key):
    def observe(tracer, data):
        tracer.counters[key] += len(data)

    return observe


# (span name, owner, attribute, observe): the layer boundaries the traced run times.
TRACE_TARGETS = [
    ("cpn.enabled_bindings", cpn, "enabled_bindings", _count_hits),
    ("cpn.fire", cpn, "fire", None),
    ("cpn.type_check_net", cpn, "type_check_net", None),
    ("runtime.loop", runtime, "adaptive_loop", None),
    ("runtime.loop", runtime, "run_concurrent", None),
    ("runtime.go", runtime, "go", None),
    ("runtime.quiescent", runtime.RunnableSystem, "quiescent", None),
    ("runtime.save_context", runtime, "save_context", None),
    ("runtime.resume_context", runtime, "resume_context", None),
    ("adaptation.evolve", adaptation, "evolve", None),
    ("adaptation.apply_op", adaptation, "apply_op", None),
    ("adaptation.validate_op", adaptation, "validate_op", None),
    ("adaptation.diff_models", adaptation, "diff_models", None),
    ("decomposition.validate_model", decomposition, "validate_model", None),
    ("decomposition.synthesize", decomposition, "synthesize", None),
    ("decomposition.decompose", decomposition, "decompose", None),
    ("marking_codec.save_marking", marking_codec, "save_marking", _count_bytes("save_marking")),
    ("marking_codec.restore_marking", marking_codec, "restore_marking", None),
    ("modelio.parse_model", modelio, "parse_model", None),
    ("modelio.parse_scenario", modelio, "parse_scenario", None),
    ("modelio.render_trace", modelio, "render_trace", None),
    ("modelio.render_report", modelio, "render_report", None),
    ("modelio.write_context", modelio, "write_context", _count_bytes("write_context")),
    ("modelio.read_context", modelio, "read_context", None),
    ("modelio.serialize_model", modelio, "serialize_model", None),
    ("organization.validate_organization", organization, "validate_organization", None),
]

# Per-layer metrics: span name -> the stats reported for it.
SPAN_STATS = {
    "cpn.enabled_bindings": ("calls", "self_s"),
    "cpn.fire": ("calls", "self_s"),
    "cpn.type_check_net": ("calls", "self_s"),
    "runtime.loop": ("self_s",),
    "runtime.go": ("calls",),
    "runtime.quiescent": ("calls", "s"),
    "runtime.save_context": ("s",),
    "runtime.resume_context": ("s",),
    "adaptation.evolve": ("calls", "self_s"),
    "adaptation.apply_op": ("calls",),
    "adaptation.validate_op": ("calls",),
    "adaptation.diff_models": ("s",),
    "decomposition.validate_model": ("calls", "s"),
    "decomposition.synthesize": ("calls", "self_s"),
    "decomposition.decompose": ("s",),
    "marking_codec.save_marking": ("calls", "s"),
    "marking_codec.restore_marking": ("calls", "s"),
    "modelio.parse_model": ("s",),
    "modelio.parse_scenario": ("s",),
    "modelio.render_trace": ("s",),
    "modelio.write_context": ("s",),
    "modelio.read_context": ("s",),
    "modelio.serialize_model": ("s",),
    "organization.validate_organization": ("s",),
}
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Per-layer metrics that are not a plain span statistic.
DERIVED = {
    "cpn.enabled_bindings.hit_ratio": "ratio",
    "cpn.bindings_used_ratio": "ratio",
    "runtime.adapt_pause_ms.p50": "ms",
    "runtime.adapt_pause_ms.max": "ms",
    "runtime.bus_peak": "count",
    "runtime.mailbox_peak": "count",
    "marking_codec.save_marking.bytes": "bytes",
    "modelio.write_context.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat] for span, stats in SPAN_STATS.items() for stat in stats
    }
    units.update(DERIVED)
    return units


# ---------------------------------------------------------------------------
# one run of a workload


def setup(wl: gen.Workload):
    """Model and scenario text to a runnable system."""
    doc = modelio.parse_model(wl.org_text)
    sdoc = modelio.parse_scenario(wl.scn_text)
    mam = decomposition.decompose(doc.model, sdoc.assignment)
    return decomposition.synthesize(mam), sdoc.scenario


def execute(wl: gen.Workload, system, scenario):
    """Runnable system to rendered trace and report, as `roleflow run` does it.

    With a checkpoint, the run stops there, the context and model go through
    their text codecs, and a second run resumes from them; the two traces
    are concatenated.
    """
    if wl.concurrent:
        reports = [runtime.run_concurrent(system, scenario, wl.seed)]
    elif wl.checkpoint_at is None:
        reports = [runtime.adaptive_loop(system, scenario)]
    else:
        saved = {}

        def sink(context, model):
            saved["context"] = modelio.write_context(context)
            saved["model"] = modelio.serialize_model(model)

        first = runtime.adaptive_loop(
            system, scenario, checkpoint_at=wl.checkpoint_at, checkpoint_sink=sink
        )
        context = modelio.read_context(saved["context"])
        resumed = decomposition.synthesize(modelio.parse_model(saved["model"]).model)
        impact = adaptation.PlanImpact({aid: "preserving" for aid in resumed.agent_ids})
        resumed = runtime.resume_context(resumed, context, impact)
        resumed.trigger_cursor = sum(
            1 for t in scenario.triggers if t.at_step < context.step_count
        )
        reports = [first, runtime.adaptive_loop(resumed, scenario)]
    trace_text = "".join(modelio.render_trace(r.trace) for r in reports)
    report_text = "".join(modelio.render_report(r) for r in reports)
    return reports, trace_text, report_text


def check(wl: gen.Workload, reports, trace_text: str) -> list[str]:
    """Problems with a run's outputs, judged against the generator's expectations."""
    problems = []
    final = reports[-1]
    if final.end_reason != "quiescence":
        problems.append(f"run ended by {final.end_reason}, not quiescence")
    if final.steps != wl.steps:
        problems.append(f"{final.steps} steps, expected {wl.steps}")
    if wl.checkpoint_at is not None and reports[0].end_reason != "checkpoint":
        problems.append("the first half did not stop at the checkpoint")
    sink_agent, sink_place = wl.sink
    got = tuple(
        sorted(v.payload for v in final.final_markings[sink_agent].get(sink_place).values())
    )
    if got != wl.expected_sink:
        problems.append(f"{sink_agent}.{sink_place} holds {got[:5]}..., expected {wl.expected_sink[:5]}...")
    for aid, marking in final.final_markings.items():
        for pid in marking.place_ids():
            if (aid, pid) != wl.sink and not marking.get(pid).is_empty:
                problems.append(f"{aid}.{pid} is not empty")
        if final.final_mailboxes[aid]:
            problems.append(f"mailbox of {aid} is not empty")
    adapted = sum(1 for line in trace_text.splitlines() if line.split("\t")[2] == "adapted")
    if adapted != wl.adaptations:
        problems.append(f"{adapted} adapted entries, expected {wl.adaptations}")
    return problems


class Sample(NamedTuple):
    setup_s: float
    run_s: float
    trace_text: str
    report_text: str
    problems: list


def once(wl: gen.Workload, tracer: Tracer | None = None) -> Sample:
    """One timed and checked run."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    system, scenario = setup(wl)
    t1 = time.perf_counter()
    reports, trace_text, report_text = execute(wl, system, scenario)
    t2 = time.perf_counter()
    return Sample(t1 - t0, t2 - t1, trace_text, report_text, check(wl, reports, trace_text))


def queue_peaks(trace_text: str) -> tuple[int, int]:
    """Peak bus length and peak single-mailbox length, replayed from the trace."""
    bus = bus_peak = mail_peak = 0
    mail: dict[str, int] = {}
    for line in trace_text.splitlines():
        _, agent, kind, detail = line.split("\t")
        if kind == "delivered":
            bus -= 1
            mail[agent] = mail.get(agent, 0) + 1
            mail_peak = max(mail_peak, mail[agent])
        elif kind == "fired":
            words = detail.split(" ")
            bus += words.count("sent")
            mail[agent] = mail.get(agent, 0) - words.count("recv")
            bus_peak = max(bus_peak, bus)
    return bus_peak, mail_peak


def adaptation_windows(spans):
    """(pause seconds, validate_model calls) per adaptation.

    A window runs from a save_context entry to the next resume_context exit,
    and counts only when an evolve happened in between; a checkpoint's save
    and resume enclose no evolve.
    """
    windows = []
    opened = None
    for name, start, end, _ in spans:
        if name == "runtime.save_context":
            opened, evolved, validations = start, False, 0
        elif opened is None:
            continue
        elif name == "adaptation.evolve":
            evolved = True
        elif name == "decomposition.validate_model":
            validations += 1
        elif name == "runtime.resume_context":
            if evolved:
                windows.append((end - opened, validations))
            opened = None
    return windows


def layer_metrics(tracer: Tracer, run_s: float, trace_text: str) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the figures that check the workload design."""
    summary = tracer.summary()

    def stat(span, key):
        return summary[span][key] if span in summary else 0

    out = {f"{span}.{s}": stat(span, s) for span, stats in SPAN_STATS.items() for s in stats}
    calls = stat("cpn.enabled_bindings", "calls")
    returned = tracer.counters["bindings_returned"]
    out["cpn.enabled_bindings.hit_ratio"] = tracer.counters["hits"] / calls if calls else 0.0
    out["cpn.bindings_used_ratio"] = stat("cpn.fire", "calls") / returned if returned else 0.0
    windows = adaptation_windows(tracer.spans)
    pauses = [w[0] * 1e3 for w in windows]
    out["runtime.adapt_pause_ms.p50"] = statistics.median(pauses) if pauses else 0.0
    out["runtime.adapt_pause_ms.max"] = max(pauses) if pauses else 0.0
    out["runtime.bus_peak"], out["runtime.mailbox_peak"] = queue_peaks(trace_text)
    out["marking_codec.save_marking.bytes"] = tracer.counters["save_marking"]
    out["modelio.write_context.bytes"] = tracer.counters["write_context"]
    adaptation_calls = sum(
        stat(span, "calls") for span in SPAN_STATS if span.startswith("adaptation.")
    )
    design = {
        "enabled_bindings_share_of_run": stat("cpn.enabled_bindings", "s") / run_s,
        "adaptation_share_of_run": sum(pauses) / 1e3 / run_s,
        "validate_model_calls_in_adaptations": sum(w[1] for w in windows),
        "evolve_calls": stat("adaptation.evolve", "calls"),
        "adaptation_calls": adaptation_calls,
    }
    return out, design


# ---------------------------------------------------------------------------
# measurement


# The shared host's speed drifts by up to 2x over seconds to minutes, for all
# code alike (see README, Noise). Each timed run is therefore scaled by a
# reference loop timed around it: a time metric is the run's wall time at
# the speed where the loop takes REFERENCE_S. Changing the loop or the
# constant rescales every time metric, so either change needs a new baseline.
REFERENCE_S = 0.030


@dataclass(frozen=True)
class _Item:
    payload: int
    name: str


def reference_loop() -> int:
    """Fixed interpreter work in the program's mix: frozen-object hashing, dicts, keyed sorts."""
    table = {}
    items = []
    for i in range(12000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
        items.append(_Item(i % 1009, str(i % 13)))
    counts = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    ordered = sorted(counts, key=lambda v: (v.payload, v.name))
    return len(table) + len([f"{v.payload}:{v.name}" for v in ordered])


def reference_time() -> float:
    """Best of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """Attempt and failure counts, with the traceback of each failed run on stderr."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def attempt(self, tracer=None):
        self.attempted += 1
        try:
            result = once(self.wl, tracer)
        except Exception:  # a failing run is counted, and the benchmark goes on
            self.failed += 1
            traceback.print_exc()
            return None
        if result.problems:
            self.failed += 1
            print(f"{self.wl.name}: check failed: {'; '.join(result.problems)}", file=sys.stderr)
            return None
        return result

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(wl: gen.Workload, seconds: float) -> dict:
    """Untraced runs for `seconds`: end-to-end medians.

    Times are scaled to the reference host speed by the reference-loop
    timings taken just before and just after each run.
    """
    deadline = time.perf_counter() + seconds  # the warm-up counts against the budget
    tally = Tally(wl)
    tally.attempt()  # warm-up: lazy set-up settles before timing
    setups, runs, rates, wall = [], [], [], []
    before = reference_time()
    lap = 0.0  # the last run's length: a run starts only if one more such run fits
    while time.perf_counter() + lap < deadline or not (runs or tally.failed):
        start = time.perf_counter()
        result = tally.attempt()
        after = reference_time()
        lap = time.perf_counter() - start
        scale = REFERENCE_S / ((before + after) / 2)  # below 1 while the host runs slow
        before = after
        if result is None:
            continue
        setups.append(result.setup_s * scale)
        runs.append(result.run_s * scale)
        rates.append(wl.steps / runs[-1])
        wall.append(result.run_s)
    if not runs:
        raise SystemExit(f"error: no run of {wl.name} succeeded")
    samples = {"setup_s": setups, "run_s": runs, "steps_per_s": rates}
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        print(
            f"{wl.name} {name} median {statistics.median(values):.6g} {END_TO_END[name]}"
            f" (q1 {q1:.6g}, q3 {q3:.6g}, n {len(values)})"
        )
    q1, q3 = _quartiles(wall)
    print(
        f"{wl.name} run_s unscaled wall time median {statistics.median(wall):.6g} s"
        f" (q1 {q1:.6g}, q3 {q3:.6g}, n {len(wall)})"
    )
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END[name]}
        for name, values in samples.items()
    }
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(f"{wl.name} peak_rss_mb {peak_mb:.6g} MB")
    print(
        f"{wl.name} failed_share {tally.failed / tally.attempted:.6g}"
        f" ({tally.failed} of {tally.attempted})"
    )
    return tally.result(metrics)


def measure_traced(wl: gen.Workload, seconds: float) -> dict:
    """Untraced and traced runs in turn for `seconds`: per-layer medians.

    Every traced run must render the same trace and report bytes as the
    untraced reference run; a difference counts as a failed run.
    """
    deadline = time.perf_counter() + seconds  # the reference run counts against the budget
    tally = Tally(wl)
    reference = tally.attempt()
    if reference is None:
        raise SystemExit(f"error: the reference run of {wl.name} failed")
    tracer = Tracer(TRACE_TARGETS)
    untraced, traced, layers = [], [], []
    design = None
    lap = 0.0  # the last pair's length: a pair starts only if one more such pair fits
    while time.perf_counter() + lap < deadline or not (layers or tally.failed):
        start = time.perf_counter()
        result = tally.attempt()
        if result is not None:
            untraced.append(result.run_s)
        with tracer:
            result = tally.attempt(tracer)
        lap = time.perf_counter() - start
        if result is None:
            continue
        if (result.trace_text, result.report_text) != (reference.trace_text, reference.report_text):
            tally.failed += 1
            print(f"{wl.name}: traced run rendered different bytes", file=sys.stderr)
            continue
        traced.append(result.run_s)
        values, design = layer_metrics(tracer, result.run_s, result.trace_text)
        layers.append(values)
    if not layers or not untraced:
        raise SystemExit(f"error: no traced run of {wl.name} succeeded")
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{wl.name}.tsv")

    units = per_layer_units()
    metrics = {}
    for name in units:
        if name == "trace.overhead_ratio":
            value = statistics.median(traced) / statistics.median(untraced)
        else:
            value = statistics.median(sample[name] for sample in layers)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    for key, value in design.items():
        print(f"{wl.name} design {key} {value:.6g}")
    print(f"{wl.name} traced runs {len(layers)}, untraced runs {len(untraced)}")
    return tally.result(metrics)


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak memory."""
    results = {}
    status = 0
    for name in gen.GENERATORS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<17} {metric:<40} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<17} {'failed_share':<40} {result['failed'] / result['attempted']:>14.6g}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark roleflow on a seeded workload.")
    parser.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = gen.generate(args.workload, args.seed)
    result = measure_traced(wl, args.seconds) if args.trace else measure(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
