"""Tests of the benchmark itself: generators, checks, tracing, checkpoint split.

Run with `python -m pytest perfbench`. Workloads are generated at reduced
sizes so the suite stays fast; the code paths are the benchmark's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gen
import run
from tracer import Tracer

from roleflow import cli

SMALL = {
    "pipeline": {"tokens": 20},
    "relay-adapt": {"agents": 12, "tokens": 2, "adaptations": 4},
    "relay-concurrent": {"agents": 12, "tokens": 3},
}


def small(name: str, seed: int = 5) -> gen.Workload:
    return gen.generate(name, seed, **SMALL[name])


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    a, b, c = gen.generate(name, 3), gen.generate(name, 3), gen.generate(name, 4)
    assert (a.org_text, a.scn_text) == (b.org_text, b.scn_text)
    assert a == b
    assert (a.org_text, a.scn_text) != (c.org_text, c.scn_text)


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_run_passes_its_checks(name):
    wl = small(name)
    sample = run.once(wl)
    assert sample.problems == []
    assert sample.setup_s > 0 and sample.run_s > 0
    assert sample.trace_text.count("\n") > wl.steps


def test_check_rejects_a_wrong_sink():
    wl = small("pipeline")
    reports, trace_text, _ = run.execute(wl, *run.setup(wl))
    wrong = gen.Workload(**{**wl.__dict__, "expected_sink": wl.expected_sink[1:] + (-1,)})
    assert any("out_" in p for p in run.check(wrong, reports, trace_text))
    missing = gen.Workload(**{**wl.__dict__, "adaptations": 1})
    assert run.check(missing, reports, trace_text) == ["0 adapted entries, expected 1"]


def _roleflow_attributes():
    holders = [m for n, m in sys.modules.items() if n.split(".")[0] == "roleflow"]
    holders.append(run.runtime.RunnableSystem)
    return {(id(h), k): v for h in holders for k, v in list(vars(h).items()) if callable(v)}


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_traced_run_renders_identical_bytes_and_restores_attributes(name):
    wl = small(name)
    before = _roleflow_attributes()
    plain = run.once(wl)
    tracer = Tracer(run.TRACE_TARGETS)
    with tracer:
        assert run.runtime.enabled_bindings is run.cpn.enabled_bindings
        assert run.runtime.enabled_bindings is not before[(id(run.cpn), "enabled_bindings")]
        assert run.adaptation.validate_model is run.decomposition.validate_model
        traced = run.once(wl, tracer)
    after = _roleflow_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced[2:] == plain[2:]  # trace text, report text, problems

    layers, design = run.layer_metrics(tracer, traced.run_s, traced.trace_text)
    assert set(layers) | {"trace.overhead_ratio"} == set(run.per_layer_units())
    assert layers["runtime.go.calls"] + layers["runtime.quiescent.calls"] > 0
    assert design["validate_model_calls_in_adaptations"] == 2 * design["evolve_calls"]
    assert design["evolve_calls"] == wl.adaptations
    if not wl.adaptations:
        assert design["adaptation_calls"] == 0


def test_checkpoint_split_traces_concatenate_to_the_uninterrupted_trace():
    wl = small("relay-adapt")
    reports, split_trace, _ = run.execute(wl, *run.setup(wl))
    assert reports[0].end_reason == "checkpoint" and reports[0].steps == wl.checkpoint_at
    system, scenario = run.setup(wl)
    whole = run.runtime.adaptive_loop(system, scenario)
    assert split_trace == run.modelio.render_trace(whole.trace)
    # the resumed report counts only its own adaptations; the end state is the same
    assert (reports[1].end_reason, reports[1].steps) == (whole.end_reason, whole.steps)
    assert reports[1].final_markings == whole.final_markings


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_cli_replays_the_generated_files(name, tmp_path, monkeypatch, capsys):
    wl = small(name)
    trace_text = run.once(wl).trace_text
    org, scn = tmp_path / f"{name}.org", tmp_path / f"{name}.scn"
    org.write_text(wl.org_text, encoding="utf-8")
    scn.write_text(wl.scn_text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    traces = []
    for command in wl.cli_commands(str(org), str(scn)):
        argv = command.split()[4:]  # drop "PYTHONPATH=src python3 -m roleflow.cli"
        assert cli.run_cli(argv) == 0
        traces.append(Path(argv[argv.index("--trace") + 1]).read_text(encoding="utf-8"))
    capsys.readouterr()
    assert "".join(traces) == trace_text


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(gen.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
