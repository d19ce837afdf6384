import io
import runpy
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from roleflow import parse_model
from roleflow.cli import run_cli

from conftest import GOLDEN, MODELS
from helpers import deadline, nested_inputs, shared_product_chain

DEEP = nested_inputs((MODELS / "org1.org").read_text(), 600, 1000)

# adds a procedure over a text Tok to an agent whose net's Tok is int
CLASH_SCN = (MODELS / "org1_run.scn").read_text() + (
    "colorset Tok = text\n"
    "at 1 adapt { aP agent1 proc p(n:Tok) -> (o:Tok) { o = concat(n, n) } }\n"
)


def run(capsys, *args):
    code = run_cli([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (model, scenario, checkpoint steps); the org1 runs end before step 3
CHECKPOINTS = [
    ("org1", "org1_run", (1, 2)),
    ("org1", "org1_adapt", (1, 2)),
    ("org1", "org1_replace_task", (1, 2)),
    ("devsociety", "devsociety", (1, 2, 3, 5)),
]


def write_checkpoints(directory: Path) -> None:
    """Write the context and `.model` sidecar of each run in CHECKPOINTS
    into `directory`, as `<scenario>.k<K>.ctx` and `<scenario>.k<K>.ctx.model`."""
    for model, scenario, steps in CHECKPOINTS:
        for k in steps:
            ctx = directory / f"{scenario}.k{k}.ctx"
            args = ["run", MODELS / f"{model}.org", MODELS / f"{scenario}.scn", "--checkpoint-at", k, "--context", ctx]
            assert run_cli([str(a) for a in args]) == 0


# (model, scenario) pairs whose CLI outputs `write_cli_outputs` pins
DEMOS = [
    ("org1", "org1_run"),
    ("org1", "org1_adapt"),
    ("org1", "org1_replace_task"),
    ("devsociety", "devsociety"),
]


def write_cli_outputs(directory: Path) -> None:
    """Write what the CLI makes of each pair in DEMOS into `directory`:
    `decompose.<scenario>/` holds the `--emit-agents` files, and
    `validate.<model>.out`, `recompose-check.<scenario>.out` and
    `adapt.<scenario>.out` hold the exit code, the standard output and the
    standard error. `<workload>.trace` and `<workload>.report` are the trace
    and report of `roleflow run` on small benchmark workloads of seed 1: the
    40-agent relay-adapt, the 40-token pipeline, and the 12-agent
    relay-concurrent under `--concurrent --seed 1`."""

    def record(name, *args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli([str(a) for a in args])
        text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        (directory / f"{name}.out").write_text(text, encoding="utf-8")

    for model in dict.fromkeys(model for model, _ in DEMOS):
        record(f"validate.{model}", "validate", MODELS / f"{model}.org")
    for model, scenario in DEMOS:
        files = (MODELS / f"{model}.org", MODELS / f"{scenario}.scn")
        assert run_cli(["decompose", *map(str, files), "--emit-agents", str(directory / f"decompose.{scenario}")]) == 0
        for command in ("recompose-check", "adapt"):
            record(f"{command}.{scenario}", command, *files)
    gen = runpy.run_path(str(MODELS.parent / "perfbench" / "gen.py"))
    for name, workload, flags in (
        ("relay_adapt", gen["relay_adapt"](1, agents=40), ()),
        ("pipeline", gen["pipeline"](1, tokens=40), ()),
        ("relay_concurrent", gen["relay_concurrent"](1, agents=12), ("--concurrent", "--seed", "1")),
    ):
        org, scn = directory / f"{name}.org", directory / f"{name}.scn"
        org.write_text(workload.org_text, encoding="utf-8")
        scn.write_text(workload.scn_text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = run_cli(["run", str(org), str(scn), "--trace", str(directory / f"{name}.trace"), *flags])
        assert code == 0
        (directory / f"{name}.report").write_text(out.getvalue(), encoding="utf-8")
        org.unlink()
        scn.unlink()


class TestValidate:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "validate", MODELS / "org1.org")
        assert code == 0 and out == "ok\n"

    def test_missing_comm_link(self, capsys, tmp_path):
        text = (MODELS / "org1.org").read_text().replace("comm A -> B\n", "")
        bad = tmp_path / "bad.org"
        bad.write_text(text)
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert out.count("\n") == 1
        assert "undeclared communication A->B" in out

    def test_mas_document(self, capsys, tmp_path, mam1):
        from roleflow import serialize_model

        path = tmp_path / "m.mas"
        path.write_text(serialize_model(mam1))
        code, out, _ = run(capsys, "validate", path)
        assert code == 0 and out == "ok\n"

    def test_syntax_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.org"
        bad.write_text("org x\nplace p :\n")
        code, _, err = run(capsys, "validate", bad)
        assert code == 3 and "expected" in err

    def test_non_decimal_digit_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.org"
        bad.write_text((MODELS / "org1.org").read_text().replace("init { 1 }", "init { ² }"), encoding="utf-8")
        code, _, err = run(capsys, "validate", bad)
        assert code == 3 and "8:24: expected a token (found '²')" in err

    @pytest.mark.parametrize("kind", ["expression", "colorset chain", "channel descriptor"])
    def test_deep_nesting_exits_3(self, capsys, tmp_path, kind):
        bad = tmp_path / "bad.org"
        bad.write_text(DEEP[kind])
        code, _, err = run(capsys, "validate", bad)
        assert code == 3 and "expected" in err and "Traceback" not in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", tmp_path / "nope.org")
        assert code == 3


class TestRun:
    def test_baseline_report_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        code, out, _ = run(
            capsys, "run", MODELS / "org1.org", MODELS / "org1_run.scn", "--trace", trace
        )
        assert code == 0
        assert out == (GOLDEN / "org1.report").read_text()
        assert trace.read_text() == (GOLDEN / "org1.trace").read_text()
        assert "place out_ { 2 }" in out

    def test_adaptation_scenario(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        code, out, _ = run(
            capsys, "run", MODELS / "org1.org", MODELS / "org1_adapt.scn", "--trace", trace
        )
        assert code == 0
        assert "place out_ { 3 }" in out
        assert trace.read_text() == (GOLDEN / "org1_adapt.trace").read_text()

    def test_determinism_across_invocations(self, capsys, tmp_path):
        outs = []
        for i in range(2):
            trace = tmp_path / f"t{i}.trace"
            code, out, _ = run(
                capsys, "run", MODELS / "devsociety.org", MODELS / "devsociety.scn", "--trace", trace
            )
            assert code == 0
            outs.append((out, trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_checkpoint_then_resume_concatenates(self, capsys, tmp_path):
        golden = (GOLDEN / "devsociety.trace").read_text()
        ctx = tmp_path / "snap.ctx"
        head_trace, tail_trace = tmp_path / "head.trace", tmp_path / "tail.trace"
        code, out, _ = run(
            capsys,
            "run", MODELS / "devsociety.org", MODELS / "devsociety.scn",
            "--trace", head_trace, "--checkpoint-at", 10, "--context", ctx,
        )
        assert code == 0 and "end checkpoint" in out
        assert ctx.exists() and Path(str(ctx) + ".model").exists()
        code, out, _ = run(
            capsys,
            "run", MODELS / "devsociety.org", MODELS / "devsociety.scn",
            "--trace", tail_trace, "--resume-from", ctx,
        )
        assert code == 0
        assert head_trace.read_text() + tail_trace.read_text() == golden

    def test_resume_from_deep_context_exits_3(self, capsys, tmp_path):
        ctx = tmp_path / "deep.ctx"
        ctx.write_text(DEEP["context descriptor"])
        args = ("run", MODELS / "org1.org", MODELS / "org1_run.scn", "--resume-from", ctx)
        code, _, err = run(capsys, *args)
        assert code == 3 and "bad channel descriptor" in err
        Path(str(ctx) + ".model").write_text(DEEP["channel descriptor"])
        code, _, err = run(capsys, *args)
        assert code == 3 and "nested products" in err

    def test_checkpoint_bytes_match_the_golden(self, capsys, tmp_path):
        """Each checkpoint's context and model sidecar are pinned byte for
        byte, so a change to how a system is saved, adapted or resumed that
        alters what a checkpoint holds fails here.

        Regenerate with
        `cd tests && PYTHONPATH=../src python -c "import test_cli; test_cli.write_checkpoints(test_cli.GOLDEN / 'checkpoints')" > /dev/null`
        only when a context's contents change on purpose.
        """
        write_checkpoints(tmp_path)
        capsys.readouterr()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(p.name for p in (GOLDEN / "checkpoints").iterdir())
        changed = [n for n in names if (tmp_path / n).read_bytes() != (GOLDEN / "checkpoints" / n).read_bytes()]
        assert not changed

    @pytest.mark.parametrize("where", ["bus", "mail"])
    def test_resume_from_mis_colored_message_exits_2(self, capsys, tmp_path, where):
        """A context may say a channel carries another color than the model's;
        its message must not reach the receiving procedure."""
        ctx = tmp_path / "snap.ctx"
        base = ("run", MODELS / "org1.org", MODELS / "org1_run.scn")
        code, _, _ = run(capsys, *base, "--checkpoint-at", 1, "--context", ctx)
        assert code == 0 and "bus mid 1\n" in ctx.read_text()
        text = ctx.read_text().replace("channel mid : Tok=int", "channel mid : Tok=text")
        if where == "bus":
            text = text.replace("bus mid 1\n", 'bus mid "x"\n')
        else:  # already delivered: the message waits in agent2's mailbox
            text = text.replace("bus mid 1\n", "").replace("marking-end\n", 'marking-end\nmail mid "x"\n')
            text = text.replace('marking-end\nmail mid "x"\n', "marking-end\n", 1)
        ctx.write_text(text)
        code, out, err = run(capsys, *base, "--resume-from", ctx)
        assert code == 2 and out == ""
        assert "error: transition tB: variable 'n' has color Tok=text, needed Tok=int" in err

    def test_concurrent_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "run", MODELS / "org1.org", MODELS / "org1_run.scn", "--concurrent", "--seed", 3,
        )
        assert code == 0
        assert "place out_ { 2 }" in out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "model, scenario, golden",
        [
            ("org1", "org1_run", "org1"),
            ("org1", "org1_adapt", "org1_adapt"),
            ("devsociety", "devsociety", "devsociety"),  # covers an adapt! intercept
        ],
    )
    def test_concurrent_bytes_are_pinned_per_seed(self, capsys, tmp_path, model, scenario, golden, seed):
        trace = tmp_path / "run.trace"
        code, out, _ = run(
            capsys,
            "run", MODELS / f"{model}.org", MODELS / f"{scenario}.scn",
            "--concurrent", "--seed", seed, "--trace", trace,
        )
        assert code == 0
        assert out == (GOLDEN / f"{golden}.seed{seed}.report").read_text()
        assert trace.read_text() == (GOLDEN / f"{golden}.seed{seed}.trace").read_text()

    @pytest.mark.parametrize("mode", [(), ("--concurrent",)])
    def test_rejected_adaptation_leaves_the_partial_trace(self, capsys, tmp_path, mode):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "assign A -> agent1\nassign B -> agent2\n"
            "colorset Tok = int\n"
            "at 1 adapt { rP agent2 inc1 }\n"  # procedure in use: rejected
        )
        trace = tmp_path / "run.trace"
        code, _, err = run(capsys, "run", MODELS / "org1.org", scn, "--trace", trace, *mode)
        assert code == 2 and "rejected" in err
        assert trace.read_text() == "0\tagent1\tfired\ttA n=1 sent mid 1\n"

    def test_checkpoint_rejected_in_concurrent_mode(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "run", MODELS / "org1.org", MODELS / "org1_run.scn",
            "--concurrent", "--checkpoint-at", 1, "--context", tmp_path / "c",
        )
        assert code == 2 and "deterministic" in err

    def test_seed_rejected_in_deterministic_mode(self, capsys, tmp_path):
        """A seed without --concurrent would be ignored, so it is refused."""
        trace = tmp_path / "run.trace"
        code, out, err = run(capsys, "run", MODELS / "org1.org", MODELS / "org1_run.scn", "--seed", 3, "--trace", trace)
        assert code == 2 and out == "" and "--concurrent" in err
        assert not trace.exists()

    def test_concurrent_without_a_seed_runs_seed_0(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        code, out, _ = run(
            capsys, "run", MODELS / "devsociety.org", MODELS / "devsociety.scn", "--concurrent", "--trace", trace
        )
        assert code == 0
        assert out == (GOLDEN / "devsociety.seed0.report").read_text()
        assert trace.read_text() == (GOLDEN / "devsociety.seed0.trace").read_text()

    def test_bad_request_exits_2(self, capsys, tmp_path):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "assign A -> agent1\nassign B -> agent2\n"
            "colorset Tok = int\n"
            "at 1 adapt { rP agent2 inc1 }\n"  # procedure in use: rejected
        )
        code, _, err = run(capsys, "run", MODELS / "org1.org", scn)
        assert code == 2
        assert "rejected" in err

    def test_a_repeated_assign_exits_3(self, capsys, tmp_path):
        scn = tmp_path / "twice.scn"
        scn.write_text((MODELS / "org1_run.scn").read_text() + "assign A -> agent3\n")
        for cmd in ("run", "decompose", "recompose-check"):
            code, out, err = run(capsys, cmd, MODELS / "org1.org", scn)
            assert code == 3 and out == ""
            assert "expected a fresh role id" in err

    def test_an_undeclared_role_exits_1(self, capsys, tmp_path):
        scn = tmp_path / "ghost.scn"
        scn.write_text((MODELS / "org1_run.scn").read_text() + "assign ghost -> agent9\n")
        for cmd in ("run", "decompose", "recompose-check"):
            code, out, err = run(capsys, cmd, MODELS / "org1.org", scn)
            assert code == 1 and out == ""
            assert err == "validation error: roles the organization does not declare: ['ghost']\n"

    def test_negative_trigger_step_exits_3(self, capsys, tmp_path):
        scn = tmp_path / "neg.scn"
        scn.write_text((MODELS / "org1_adapt.scn").read_text().replace("at 2 adapt", "at -1 adapt"))
        for cmd in ("run", "adapt"):
            code, out, err = run(capsys, cmd, MODELS / "org1.org", scn)
            assert code == 3 and out == ""
            assert "expected a non-negative trigger step" in err

    @pytest.mark.parametrize("checkpoint", [(), ("--checkpoint-at", 2)])
    def test_a_payload_color_named_like_a_net_color_exits_2_and_writes_nothing(self, capsys, tmp_path, checkpoint):
        scn = tmp_path / "clash.scn"
        scn.write_text(CLASH_SCN)
        ctx = ("--context", tmp_path / "snap.ctx") if checkpoint else ()
        code, out, err = run(capsys, "run", MODELS / "org1.org", scn, *checkpoint, *ctx)
        assert code == 2 and out == ""
        assert "[aP] agent1: net agent1 has two colors named 'Tok'" in err
        assert list(tmp_path.iterdir()) == [scn]

    def test_resume_of_a_short_place_line_for_a_deep_place_exits_2_at_once(self, capsys, tmp_path):
        org = tmp_path / "deep.org"
        org.write_text(shared_product_chain((MODELS / "org1.org").read_text(), 32) + "place deep : D31\n")
        ctx = tmp_path / "snap.ctx"
        base = ("run", org, MODELS / "org1_run.scn")
        code, _, _ = run(capsys, *base, "--checkpoint-at", 1, "--context", ctx)
        head = "agent agent1\nmarking-begin\nMRK1\n"
        assert code == 0 and head in ctx.read_text()
        ctx.write_text(ctx.read_text().replace(head, head + "place deep : Tok=int\n"))
        with deadline(20):
            code, out, err = run(capsys, *base, "--resume-from", ctx)
        assert code == 2 and out == ""
        assert "agent agent1 classified preserving but marking restore failed: place 'deep'" in err

    def test_resume_from_a_context_with_a_token_count_save_marking_never_writes_exits_3(self, capsys, tmp_path):
        ctx = tmp_path / "snap.ctx"
        base = ("run", MODELS / "devsociety.org", MODELS / "devsociety.scn")
        code, _, _ = run(capsys, *base, "--checkpoint-at", 3, "--context", ctx)
        text = ctx.read_text()
        assert code == 0 and '\ntoken 1 "r2"\n' in text
        ctx.write_text(text.replace('\ntoken 1 "r2"\n', '\ntoken 1_0 "r2"\n'))
        code, out, err = run(capsys, *base, "--resume-from", ctx)
        assert code == 3 and out == ""
        assert "bad token count in 'token 1_0 \"r2\"'" in err

    @pytest.mark.parametrize("value", ["007", "-0", "٣"])
    def test_resume_from_a_message_value_write_context_never_writes_exits_3(self, capsys, tmp_path, value):
        ctx = tmp_path / "snap.ctx"
        base = ("run", MODELS / "org1.org", MODELS / "org1_run.scn")
        code, _, _ = run(capsys, *base, "--checkpoint-at", 1, "--context", ctx)
        assert code == 0 and "bus mid 1\n" in ctx.read_text()
        ctx.write_text(ctx.read_text().replace("bus mid 1\n", f"bus mid {value}\n"), encoding="utf-8")
        code, out, err = run(capsys, *base, "--resume-from", ctx)
        assert code == 3 and out == ""
        assert "bad bus value" in err and "canonical integer" in err

    @pytest.mark.parametrize("edit", ["steps", "agent"])
    def test_resume_from_a_context_write_context_never_writes_exits_3(self, capsys, tmp_path, edit):
        ctx = tmp_path / "snap.ctx"
        base = ("run", MODELS / "org1.org", MODELS / "org1_run.scn")
        code, _, _ = run(capsys, *base, "--checkpoint-at", 2, "--context", ctx)
        text = ctx.read_text()
        assert code == 0 and "steps 2\n" in text
        if edit == "steps":
            ctx.write_text(text.replace("steps 2\n", "steps -7\n"))
        else:
            ctx.write_text(text + text[text.index("agent agent2\n"):])
        code, out, err = run(capsys, *base, "--resume-from", ctx)
        assert code == 3 and out == ""
        assert ("bad steps value" if edit == "steps" else "second agent section") in err


class TestDecompose:
    def test_emit_agents_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "agents"
        code, out, _ = run(
            capsys,
            "decompose", MODELS / "org1.org", MODELS / "org1_run.scn",
            "--emit-agents", out_dir,
        )
        assert code == 0
        assert "agents 2" in out and "channels 1" in out
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["agent1.mas", "agent2.mas", "channels.manifest"]
        doc = parse_model((out_dir / "agent2.mas").read_text())
        agent = doc.model.agents["agent2"]
        assert agent.sensors == frozenset({"mid"})
        manifest = (out_dir / "channels.manifest").read_text()
        assert manifest.startswith("channel mid : Tok=int from agent1 to agent2")


class TestRecomposeCheck:
    def test_equivalent(self, capsys):
        code, out, _ = run(
            capsys, "recompose-check", MODELS / "org1.org", MODELS / "org1_run.scn"
        )
        assert code == 0 and out == "equivalent\n"

    def test_demo_model_equivalent(self, capsys):
        code, out, _ = run(
            capsys, "recompose-check", MODELS / "devsociety.org", MODELS / "devsociety.scn"
        )
        assert code == 0


class TestAdapt:
    def test_offline_diff(self, capsys):
        code, out, _ = run(
            capsys, "adapt", MODELS / "org1.org", MODELS / "org1_adapt.scn"
        )
        assert code == 0
        assert "agent agent2: procedure inc1 replaced by inc2" in out
        assert "impact agent1 preserving" in out
        assert "impact agent2 preserving" in out

    def test_rejected_request_exits_2(self, capsys, tmp_path):
        scn = tmp_path / "req.scn"
        scn.write_text(
            "assign A -> agent1\nassign B -> agent2\nat 0 adapt { rCom mid }\n"
        )
        code, _, err = run(capsys, "adapt", MODELS / "org1.org", scn)
        assert code == 2


def test_cli_outputs_match_the_golden(capsys, tmp_path):
    """What `validate`, `decompose --emit-agents`, `recompose-check`, `adapt`
    and `run` make of the demo models and of small benchmark workloads, in
    both scheduling modes, is pinned byte for byte.

    Regenerate with
    `cd tests && PYTHONPATH=../src python -c "import test_cli; test_cli.write_cli_outputs(test_cli.GOLDEN / 'cli')" > /dev/null`
    only when an output changes on purpose.
    """
    write_cli_outputs(tmp_path)
    capsys.readouterr()
    golden = GOLDEN / "cli"
    names = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(golden)) for p in golden.rglob("*") if p.is_file())
    changed = [n for n in names if (tmp_path / n).read_bytes() != (golden / n).read_bytes()]
    assert not changed
