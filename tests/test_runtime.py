import random
from pathlib import Path

import pytest

from roleflow import (
    AdaptationNeeded,
    CoherenceError,
    Delivered,
    Marking,
    Multiset,
    Progressed,
    QuiescentPass,
    Scenario,
    SentMessage,
    Trigger,
    adaptive_loop,
    decompose,
    go,
    parse_model,
    parse_scenario,
    resume_context,
    run_concurrent,
    save_context,
    synthesize,
    system_ended,
    write_context,
)
from roleflow.adaptation import AdaptationRequest, modify_agent, rp_p, rp_t
from roleflow.modelio import render_trace
import roleflow.runtime as runtime_mod

from conftest import MODELS, TOK, tok
from helpers import enumerate_final_states, freeze_report_state, gen_org

from test_adaptation import hold_task, inc2


def marking_of(**tokens):
    return Marking({pid: Multiset([tok(v) for v in vs]) for pid, vs in tokens.items()})


def demo():
    doc = parse_model((MODELS / "devsociety.org").read_text())
    sdoc = parse_scenario((MODELS / "devsociety.scn").read_text())
    return decompose(doc.model, sdoc.assignment), sdoc.scenario


class TestGo:
    def test_first_action_fires_the_producer(self, mam1):
        system = synthesize(mam1)
        out = go(system, Scenario())
        assert isinstance(out, Progressed)
        assert (out.agent, out.transition) == ("agent1", "tA")
        assert out.events == (SentMessage("mid", tok(1)),)
        assert system.bus == [("mid", tok(1))]

    def test_second_action_delivers(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        out = go(system, Scenario())
        assert out == Delivered("agent2", "mid", tok(1))
        assert system.states["agent2"].mailbox == [("mid", tok(1))]

    def test_trigger_preempts_everything(self, mam1):
        system = synthesize(mam1)
        scenario = Scenario(
            triggers=(Trigger(0, AdaptationRequest((modify_agent("agent1", ()),))),)
        )
        out = go(system, scenario)
        assert isinstance(out, AdaptationNeeded)
        assert system.step_count == 0 and not system.bus

    def test_quiescent_pass(self, mam1):
        system = synthesize(mam1)
        for _ in range(3):
            go(system, Scenario())
        assert isinstance(go(system, Scenario()), QuiescentPass)


class TestSystemEnded:
    def test_fresh_system_not_ended(self, mam1):
        assert not system_ended(synthesize(mam1), Scenario())

    def test_quiescence_after_run(self, mam1):
        system = synthesize(mam1)
        while not system_ended(system, Scenario()):
            go(system, Scenario())
        assert system_ended(system, Scenario())
        assert system.states["agent2"].marking == marking_of(out_=[2])

    def test_place_marked(self, mam1):
        scenario = Scenario(end_condition=("marked", "agent2", "out_"))
        system = synthesize(mam1)
        assert not system_ended(system, scenario)
        for _ in range(3):  # fire, deliver, fire
            go(system, scenario)
        assert system_ended(system, scenario)

    def test_budget_end(self, mam1):
        scenario = Scenario(max_steps=1)
        report = adaptive_loop(synthesize(mam1), scenario)
        assert report.end_reason == "budget"
        assert report.steps == 1

    def test_stalled_when_condition_unreachable(self, mam1):
        scenario = Scenario(end_condition=("marked", "agent2", "nowhere"))
        report = adaptive_loop(synthesize(mam1), scenario)
        assert report.end_reason == "stalled"


def rebuilt(system):
    """A system built afresh in the state `system` is in now, so nothing is cached."""
    states = {
        aid: runtime_mod.AgentState(st.marking, list(st.mailbox)) for aid, st in system.states.items()
    }
    return runtime_mod.RunnableSystem(
        system.model, states, list(system.bus), system.cursor, system.step_count
    )


def edited_after_quiescence(mam, edit):
    """Run to quiescence through go(), then change state from outside the scheduler."""
    system = synthesize(mam)
    while not isinstance(go(system, Scenario()), QuiescentPass):
        pass
    assert system.quiescent()
    if edit in ("marking", "both"):
        system.states["agent1"].marking = marking_of(in_=[5, 3])
    if edit in ("mailbox", "both"):
        system.states["agent2"].mailbox.append(("mid", tok(9)))
    return system


EDITS = ["marking", "mailbox", "both"]


class TestFirstFiringCache:
    @pytest.mark.parametrize("edit", EDITS)
    def test_go_and_quiescent_see_outside_edits(self, mam1, edit):
        system = edited_after_quiescence(mam1, edit)
        fresh = rebuilt(system)
        assert not system.quiescent() and not fresh.quiescent()
        while True:
            outcome = go(system, Scenario())
            assert outcome == go(fresh, Scenario())
            assert system.quiescent() == fresh.quiescent()
            if isinstance(outcome, QuiescentPass):
                break
        assert system.states == fresh.states

    @pytest.mark.parametrize("edit", EDITS)
    def test_adaptive_loop_after_outside_edits(self, mam1, edit):
        system = edited_after_quiescence(mam1, edit)
        expected = adaptive_loop(rebuilt(system), Scenario())
        got = adaptive_loop(system, Scenario())
        assert len(expected.trace) > 1
        assert render_trace(got.trace) == render_trace(expected.trace)
        assert got.final_markings == expected.final_markings

    @pytest.mark.parametrize("edit", EDITS)
    def test_run_concurrent_after_outside_edits(self, mam1, edit):
        for seed in range(4):
            system = edited_after_quiescence(mam1, edit)
            expected = run_concurrent(rebuilt(system), Scenario(), seed)
            got = run_concurrent(system, Scenario(), seed)
            assert len(expected.trace) > 1
            assert render_trace(got.trace) == render_trace(expected.trace)
            assert got.final_markings == expected.final_markings


class TestSaveContext:
    def test_fresh_snapshot(self, mam1):
        system = synthesize(mam1)
        ctx = save_context(system)
        markings = dict(ctx.agent_markings)
        assert b"in_" in markings["agent1"] and b"token 1 1" in markings["agent1"]
        assert ctx.bus == () and ctx.step_count == 0

    def test_bus_captured_after_one_go(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        ctx = save_context(system)
        assert ctx.bus == (("mid", tok(1)),)

    def test_save_save_is_byte_identical(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        assert write_context(save_context(system)) == write_context(save_context(system))


class TestResumeContext:
    def test_work_retained_across_procedure_swap(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())  # tA fires; message still on the bus
        ctx = save_context(system)
        from roleflow import evolve

        new_model, impact = evolve(
            system.model, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))
        )
        resumed = resume_context(synthesize(new_model), ctx, impact)
        report = adaptive_loop(resumed, Scenario())
        assert report.final_markings["agent2"] == marking_of(out_=[3])
        assert report.final_markings["agent1"] == Marking()  # tA not re-fired
        fired = [e for e in report.trace if e.kind == "fired"]
        assert all(not e.detail.startswith("tA") for e in fired)

    def test_noop_adaptation_resumes_identically(self, mam1):
        golden = adaptive_loop(synthesize(mam1), Scenario())
        scenario = Scenario(
            triggers=(Trigger(1, AdaptationRequest((modify_agent("agent2", ()),))),)
        )
        report = adaptive_loop(synthesize(mam1), scenario)
        got = [e for e in report.trace if e.kind != "adapted"]
        assert [e.render() for e in got] == [e.render() for e in golden.trace]
        assert report.final_markings == golden.final_markings

    def test_incompatible_task_restarts_only_affected_agent(self, mam1):
        scenario = Scenario(
            triggers=(Trigger(1, AdaptationRequest((rp_t("agent2", hold_task()),))),)
        )
        report = adaptive_loop(synthesize(mam1), scenario)
        # agent1 kept its consumed marking; agent2 started fresh on the new task
        assert report.final_markings["agent1"] == Marking()
        assert report.final_markings["agent2"] == marking_of(hold=[2])
        assert report.adaptations == (("agent agent2: task replaced",),)


class TestAdaptiveLoop:
    def test_baseline(self, mam1):
        report = adaptive_loop(synthesize(mam1), Scenario())
        assert report.end_reason == "quiescence"
        assert report.final_markings["agent2"] == marking_of(out_=[2])
        assert report.adaptations == ()

    def test_procedure_swap_at_step_two(self, mam1):
        scenario = Scenario(
            triggers=(Trigger(2, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))),)
        )
        report = adaptive_loop(synthesize(mam1), scenario)
        assert report.final_markings["agent2"] == marking_of(out_=[3])
        fired = [e.detail.split(" ")[0] for e in report.trace if e.kind == "fired"]
        assert fired.count("tA") == 1
        assert [e.kind for e in report.trace] == [
            "fired", "delivered", "adapted", "fired", "quiescent",
        ]

    def test_demo_self_requested_adaptation(self):
        mam, scenario = demo()
        report = adaptive_loop(synthesize(mam), scenario)
        assert report.end_reason == "quiescence"
        assert len(report.adaptations) == 1
        released = report.final_markings["ops_agent"].get("released")
        assert sorted(v.payload for v in released.values()) == [
            "r1-build-v1",
            "r2-build-v2",
        ]
        golden = (Path(__file__).parent / "golden" / "devsociety.trace").read_text()
        assert render_trace(report.trace) == golden

    def test_invalid_request_halts_with_partial_trace(self, mam1):
        scenario = Scenario(
            triggers=(Trigger(1, AdaptationRequest((rp_p("agent2", "ghost", inc2()),))),)
        )
        with pytest.raises(CoherenceError) as err:
            adaptive_loop(synthesize(mam1), scenario)
        assert err.value.partial_trace is not None
        assert len(err.value.partial_trace) == 1  # tA fired before the bad trigger

    def test_figure_three_call_order(self, mam1, monkeypatch):
        calls = []
        for name in ("save_context", "evolve", "synthesize", "resume_context"):
            original = getattr(runtime_mod, name)

            def wrap(original=original, name=name):
                def inner(*args, **kwargs):
                    calls.append(name)
                    return original(*args, **kwargs)

                return inner

            monkeypatch.setattr(runtime_mod, name, wrap())
        scenario = Scenario(
            triggers=(
                Trigger(1, AdaptationRequest((modify_agent("agent1", ()),))),
                Trigger(2, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))),
            )
        )
        adaptive_loop(synthesize(mam1), scenario)
        assert calls == ["save_context", "evolve", "synthesize", "resume_context"] * 2

    def test_in_memory_checkpoint_resume_identity(self):
        mam, scenario = demo()
        golden = adaptive_loop(synthesize(mam), scenario)
        for k in range(0, 11):
            captured = {}

            def sink(context, model):
                captured["context"] = context
                captured["model"] = model

            head = adaptive_loop(
                synthesize(mam), scenario, checkpoint_at=k, checkpoint_sink=sink
            )
            assert head.end_reason == "checkpoint"
            resumed = synthesize(captured["model"])
            from roleflow import PlanImpact

            impact = PlanImpact({aid: "preserving" for aid in resumed.agent_ids})
            resumed = resume_context(resumed, captured["context"], impact)
            tail = adaptive_loop(resumed, scenario)
            assert render_trace(head.trace) + render_trace(tail.trace) == render_trace(
                golden.trace
            )

    def test_message_conservation_each_step(self, mam1):
        system = synthesize(mam1)
        sent = {"mid": 0}
        delivered = {"mid": 0}
        scenario = Scenario()
        while not system_ended(system, scenario):
            out = go(system, scenario)
            if isinstance(out, Progressed):
                for ev in out.events:
                    if isinstance(ev, SentMessage):
                        sent[ev.channel] += 1
            elif isinstance(out, Delivered):
                delivered[out.channel] += 1
            for ch in sent:
                in_flight = sum(1 for c, _ in system.bus if c == ch)
                assert sent[ch] - delivered[ch] == in_flight


class TestEvolutionResumeFuzz:
    def test_random_accepted_evolutions_always_resume(self):
        """Plan-impact soundness: preserving agents never fail to restore."""
        from roleflow import evolve, validate_op
        from helpers import gen_org, gen_random_op, all_assignments

        rng = random.Random(4242)
        resumed_runs = 0
        for i in range(10):
            org = gen_org(rng, f"rf{i}")
            mam = decompose(org, next(iter(all_assignments(org.roles))))
            system = synthesize(mam)
            scenario = Scenario(max_steps=400)
            for _ in range(rng.randint(0, 4)):
                if system_ended(system, scenario):
                    break
                go(system, scenario)
            ctx = save_context(system)
            for _ in range(30):
                op = gen_random_op(rng, system.model)
                if not validate_op(system.model, op).empty:
                    continue
                new_model, impact = evolve(system.model, AdaptationRequest((op,)))
                resumed = resume_context(synthesize(new_model), ctx, impact)
                report = adaptive_loop(resumed, scenario)
                assert report.end_reason in ("quiescence", "budget")
                resumed_runs += 1
                break
        assert resumed_runs >= 8


class TestDeletedChannelHandling:
    def test_mailbox_and_bus_entries_dropped_with_warning(self, mam1):
        from roleflow import Channel
        from roleflow.adaptation import a_com, a_sn, a_ef, r_com, r_ef, r_sn

        grown, _ = evolve_chain(
            mam1,
            [a_com(Channel("side", TOK, "agent1", "agent2")), a_sn("agent2", "side"), a_ef("agent1", "side")],
        )
        system = synthesize(grown)
        system.states["agent2"].mailbox.append(("side", tok(9)))
        system.bus.append(("side", tok(8)))
        ctx = save_context(system)
        shrunk, impact = evolve_chain(
            grown, [r_sn("agent2", "side"), r_ef("agent1", "side"), r_com("side")]
        )
        assert impact.per_agent == {"agent1": "preserving", "agent2": "preserving"}
        resumed = resume_context(synthesize(shrunk), ctx, impact)
        assert resumed.states["agent2"].mailbox == []
        assert resumed.bus == []
        assert any("deleted channel side" in w for w in resumed.warnings)


def evolve_chain(mam, ops):
    from roleflow import evolve

    return evolve(mam, AdaptationRequest(tuple(ops)))


class TestRunConcurrent:
    def test_confluent_two_agent_model(self, mam1):
        expected = marking_of(out_=[2])
        for seed in range(5):
            report = run_concurrent(synthesize(mam1), Scenario(), seed)
            assert report.end_reason == "quiescence"
            assert report.final_markings["agent2"] == expected

    def test_single_agent_matches_deterministic_trace(self, org1):
        mam = decompose(org1, {"A": "ag", "B": "ag"})
        det = adaptive_loop(synthesize(mam), Scenario())
        for seed in (0, 7):
            conc = run_concurrent(synthesize(mam), Scenario(), seed)
            assert render_trace(conc.trace) == render_trace(det.trace)

    def test_disjoint_agents_match_deterministic_finals(self):
        rng = random.Random(55)
        while True:
            org = gen_org(rng, "dis")
            if len(org.roles) >= 2 and not org.links:
                break
        assignment = {r: f"ag{i+1}" for i, r in enumerate(sorted(org.roles))}
        mam = decompose(org, assignment)
        if mam.channels:
            pytest.skip("generated org not channel-free")
        det = adaptive_loop(synthesize(mam), Scenario())
        for seed in (1, 2, 3):
            conc = run_concurrent(synthesize(mam), Scenario(), seed)
            assert conc.final_markings == det.final_markings

    def test_final_states_within_interleaving_set(self, mam1):
        reachable = enumerate_final_states(mam1)
        for seed in range(6):
            report = run_concurrent(synthesize(mam1), Scenario(), seed)
            assert freeze_report_state(report) in reachable

    def test_concurrent_with_trigger_matches_outcome(self, mam1):
        scenario = Scenario(
            triggers=(Trigger(2, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))),)
        )
        for seed in range(4):
            report = run_concurrent(synthesize(mam1), scenario, seed)
            assert report.final_markings["agent2"] == marking_of(out_=[3])

    def test_demo_under_concurrency_still_ships_both_releases(self):
        # which release the adaptation lands before is a legitimate race; the
        # pipeline still quiesces with both artifacts released
        mam, scenario = demo()
        for seed in range(6):
            report = run_concurrent(synthesize(mam), scenario, seed)
            assert report.end_reason == "quiescence"
            released = sorted(
                v.payload for v in report.final_markings["ops_agent"].get("released").values()
            )
            assert len(released) == 2
            assert released[0].startswith("r1-build-v") and released[1].startswith("r2-build-v")
            assert len(report.adaptations) == 1
