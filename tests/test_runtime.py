import copy
import gc
import pickle
import random
import sys
import weakref
from pathlib import Path

import pytest

from roleflow import (
    AdaptationNeeded,
    CoherenceError,
    ColorSet,
    Context,
    Delivered,
    Expr,
    ImpactMismatch,
    InputArc,
    Marking,
    Multiset,
    Net,
    Organization,
    OutputArc,
    Place,
    ProcedureDef,
    Progressed,
    ReceivedMessage,
    QuiescentPass,
    Role,
    Scenario,
    SentMessage,
    Transition,
    Trigger,
    TypeMismatch,
    Value,
    adaptive_loop,
    communication_structure,
    decompose,
    go,
    parse_model,
    parse_scenario,
    resume_context,
    resume_run,
    run_concurrent,
    save_context,
    synthesize,
    system_ended,
    TraceEntry,
    write_context,
)
from roleflow.adaptation import AdaptationRequest, PlanImpact, modify_agent, rp_p, rp_t
from roleflow.modelio import read_context, render_trace
import roleflow.runtime as runtime_mod

from conftest import MODELS, TOK, tok
from helpers import (
    all_assignments,
    enumerate_final_states,
    freeze_report_state,
    gen_org,
    gen_random_op,
    naive_adapt,
    naive_diff_models,
    naive_first_firings,
    naive_ready_actions,
    naive_save_context,
)

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


STEP_RECORDS = [
    (SentMessage("mid", tok(1)), "SentMessage(channel='mid', value=Value(Tok:1))"),
    (ReceivedMessage("mid", tok(1)), "ReceivedMessage(channel='mid', value=Value(Tok:1))"),
    (
        Progressed("agent1", "tA", (("n", tok(1)),), (SentMessage("mid", tok(1)),)),
        "Progressed(agent='agent1', transition='tA', binding=(('n', Value(Tok:1)),),"
        " events=(SentMessage(channel='mid', value=Value(Tok:1)),))",
    ),
    (Delivered("agent2", "mid", tok(1)), "Delivered(agent='agent2', channel='mid', value=Value(Tok:1))"),
    (TraceEntry(3, "agent2", "fired", "tB n=1"), "TraceEntry(step=3, agent='agent2', kind='fired', detail='tB n=1')"),
]


@pytest.mark.parametrize("record, text", STEP_RECORDS, ids=[type(r).__name__ for r, _ in STEP_RECORDS])
def test_step_records_keep_fields_repr_and_immutability(record, text):
    cls = type(record)
    fields = {
        SentMessage: ("channel", "value"),
        ReceivedMessage: ("channel", "value"),
        Progressed: ("agent", "transition", "binding", "events"),
        Delivered: ("agent", "channel", "value"),
        TraceEntry: ("step", "agent", "kind", "detail"),
    }[cls]
    assert cls._fields == fields
    assert repr(record) == text
    items = tuple(getattr(record, name) for name in fields)
    twin = cls(*items)
    assert twin == record and hash(twin) == hash(record)
    # equal only to a record of its own type, as a frozen dataclass was
    assert record != items and not record == items and items != record
    other = ReceivedMessage if cls is SentMessage else SentMessage
    if len(items) == 2:
        assert record != other(*items) and other(*items) != record
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record and hash(back) == hash(record)


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
    """A system built afresh in the state `system` is in now, so nothing is cached.

    Mailboxes are read through save_context: reading `state.mailbox` would
    make `system` check the agent again and so hide an edit it missed.
    """
    saved = dict(save_context(system).agent_mailboxes)
    new = runtime_mod.RunnableSystem(system.model, list(system.bus), system.cursor, system.step_count)
    markings = [system.states[aid].marking for aid in new.agent_ids]
    mailboxes = [list(saved[aid]) for aid in new.agent_ids]
    new._install(markings, mailboxes, runtime_mod._ReadySet([runtime_mod._DIRTY] * len(new.agent_ids)))
    return new


def edited_after_quiescence(mam, edit):
    """Run through go(), then change state from outside the scheduler.

    The run stops at quiescence, or for "mid-run" at the first delivery.
    quiescent() has checked every agent just before the edit, so only an
    edit the system sees can make it check the edited agent again.
    """
    system = synthesize(mam)
    stop = Delivered if edit == "mid-run" else QuiescentPass
    while not isinstance(go(system, Scenario()), stop):
        pass
    assert system.quiescent() == (stop is QuiescentPass)
    agent1, agent2 = system.states["agent1"], system.states["agent2"]
    if edit == "behind-cursor":
        system.cursor = 1  # agent1 (index 0) is reached only after the cursor wraps
    if edit in ("marking", "both", "behind-cursor"):
        agent1.marking = marking_of(in_=[5, 3])
    if edit in ("mailbox", "both"):
        agent2.mailbox.append(("mid", tok(9)))
    if edit == "mailbox-reassigned":
        agent2.mailbox = [("mid", tok(9)), ("mid", tok(4))]
    if edit == "mailbox-del":
        agent2.mailbox.extend([("mid", tok(9)), ("mid", tok(4))])
        assert not system.quiescent()  # agent2 is now known ready to receive 9
        del agent2.mailbox[0]
    if edit == "mid-run":  # agent2 is known ready to receive 1
        agent2.mailbox.insert(0, ("mid", tok(7)))
    return system


EDITS = [
    "marking",
    "mailbox",
    "both",
    "mailbox-reassigned",
    "mailbox-del",
    "mid-run",
    "behind-cursor",
]


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


def relay_org(k: int, tokens: int) -> Organization:
    """k roles in a chain; role i takes a token from x{i} to y{i} and hands it to x{i+1}."""
    take = ProcedureDef("take", (("n", TOK),), (("o", TOK),), (("o", Expr.call("inc", Expr.var("n"))),))
    hand = ProcedureDef("hand", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
    places = [Place("x0", TOK, Multiset([tok(v) for v in range(tokens)]))]
    places += [Place(f"x{i}", TOK) for i in range(1, k + 1)] + [Place(f"y{i}", TOK) for i in range(k)]
    transitions, arcs = [], []
    for i in range(k):
        transitions += [Transition(f"take{i}", f"r{i}", "take"), Transition(f"hand{i}", f"r{i}", "hand")]
        arcs += [InputArc(f"x{i}", f"take{i}", "n"), OutputArc(f"take{i}", f"y{i}", "o")]
        arcs += [InputArc(f"y{i}", f"hand{i}", "n"), OutputArc(f"hand{i}", f"x{i + 1}", "o")]
    net = Net("relay", colorsets=[TOK], places=places, transitions=transitions, procedures=[take, hand], arcs=arcs)
    org = Organization("relay", "relay", [Role(f"r{i}") for i in range(k)], [], net)
    return Organization("relay", "relay", org.roles, communication_structure(org), net)


def fan_out_model(consumers: int = 3, tokens: int = 12):
    """A producer deals `tokens` tokens round-robin to `consumers` consumers.

    Its transition give{j} takes a token from `src` and the turn token from
    turn{j}, sends the token on channel m{j} and passes the turn on, so the
    producer's sends interleave the channels; consumer j keeps what it gets.
    """
    give = ProcedureDef(
        "give", (("n", TOK), ("c", TOK)), (("o", TOK), ("d", TOK)), (("o", Expr.var("n")), ("d", Expr.var("c")))
    )
    keep = ProcedureDef("keep", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
    places = [Place("src", TOK, Multiset([tok(v) for v in range(tokens)])), Place("turn0", TOK, Multiset([tok(0)]))]
    places += [Place(f"turn{j}", TOK) for j in range(1, consumers)]
    places += [Place(f"m{j}", TOK) for j in range(consumers)] + [Place(f"got{j}", TOK) for j in range(consumers)]
    transitions, arcs = [], []
    for j in range(consumers):
        transitions += [Transition(f"give{j}", "p", "give"), Transition(f"keep{j}", f"c{j}", "keep")]
        arcs += [InputArc("src", f"give{j}", "n"), InputArc(f"turn{j}", f"give{j}", "c")]
        arcs += [OutputArc(f"give{j}", f"m{j}", "o"), OutputArc(f"give{j}", f"turn{(j + 1) % consumers}", "d")]
        arcs += [InputArc(f"m{j}", f"keep{j}", "n"), OutputArc(f"keep{j}", f"got{j}", "o")]
    net = Net("fan", colorsets=[TOK], places=places, transitions=transitions, procedures=[give, keep], arcs=arcs)
    roles = [Role("p")] + [Role(f"c{j}") for j in range(consumers)]
    org = Organization("fan", "fan", roles, [], net)
    org = Organization("fan", "fan", roles, communication_structure(org), net)
    return decompose(org, {"p": "producer", **{f"c{j}": f"consumer{j}" for j in range(consumers)}})


def ready_set_cases():
    """(model, scenario) pairs for the ready-set property test.

    The demo scenarios; a 6-agent relay, once with a procedure swap at step
    9; gen_org models that take at least 3 steps, every other one with a
    no-op adaptation at step 2; and a producer that fans out to three
    consumers.
    """
    org1 = parse_model((MODELS / "org1.org").read_text()).model
    dev = parse_model((MODELS / "devsociety.org").read_text()).model
    cases = []
    for org, name in [(org1, "org1_adapt"), (org1, "org1_replace_task"), (dev, "devsociety")]:
        sdoc = parse_scenario((MODELS / f"{name}.scn").read_text())
        cases.append((decompose(org, sdoc.assignment), sdoc.scenario))
    relay = decompose(relay_org(6, 4), {f"r{i}": f"a{i}" for i in range(6)})
    swap = AdaptationRequest((rp_p("a3", "take", inc2()),))
    cases += [(relay, Scenario()), (relay, Scenario((Trigger(9, swap),)))]
    rng = random.Random(4711)
    while len(cases) < 15:
        org = gen_org(rng, f"rs{len(cases)}")
        mam = decompose(org, rng.choice(list(all_assignments(org.roles))))
        if adaptive_loop(synthesize(mam), Scenario()).steps < 3:
            continue
        noop = AdaptationRequest((modify_agent(sorted(mam.agents)[0], ()),))
        cases.append((mam, Scenario((Trigger(2, noop),) if len(cases) % 2 else ())))
    return cases + [(fan_out_model(), Scenario())]


def assert_clean_agents_match_oracle(system):
    """Every agent the ready set does not hold dirty has the oracle's first firing."""
    expected = naive_first_firings(system)
    ready_set = system._ready_set
    ready = []
    for index, aid in enumerate(system.agent_ids):
        firing = ready_set.firing[index]
        if firing is not runtime_mod._DIRTY:
            assert firing == expected[aid], aid
            if firing is not None:
                ready.append(index)
    assert ready_set.ready == ready


def check_against_oracle(monkeypatch):
    """Compare go(), quiescent() and _seeded_step() with the oracle on every call.

    A seeded step is replayed: the RNG state saved before it, drawn with
    `choice` over the oracle's action list, must give the step's delivery of
    that channel's oldest message or its firing of that agent, and leave the
    RNG where the step left it. A due trigger draws nothing. Each drawn
    action is appended, with its bus position, to the returned list.
    """
    real_go, real_step = runtime_mod.go, runtime_mod._seeded_step
    real_quiescent = runtime_mod.RunnableSystem.quiescent
    drawn = []

    def go_checked(system, scenario):
        can_fire = [a[1] for a in naive_ready_actions(system) if a[0] == "fire"]
        start = system.cursor
        outcome = real_go(system, scenario)
        if isinstance(outcome, Progressed):
            ids = system.agent_ids
            round_robin = [ids[(start + k) % len(ids)] for k in range(len(ids))]
            assert outcome.agent == next(aid for aid in round_robin if aid in can_fire)
        elif isinstance(outcome, QuiescentPass):
            assert can_fire == []
        assert_clean_agents_match_oracle(system)
        return outcome

    def quiescent_checked(system):
        got = real_quiescent(system)
        assert got == (naive_ready_actions(system) == [])
        assert_clean_agents_match_oracle(system)
        return got

    def step_checked(rng, system, scenario):
        saved, bus = rng.getstate(), list(system.bus)
        triggers, at = scenario.triggers, system.trigger_cursor
        due = at < len(triggers) and triggers[at].at_step == system.step_count
        actions = naive_ready_actions(system)
        outcome = real_step(rng, system, scenario)
        assert_clean_agents_match_oracle(system)
        if due or not actions:
            assert isinstance(outcome, AdaptationNeeded if due else QuiescentPass)
            assert rng.getstate() == saved
            return outcome
        replay = random.Random()
        replay.setstate(saved)
        kind, target, index = replay.choice(actions)
        assert rng.getstate() == replay.getstate()
        drawn.append((kind, target, index))
        if kind == "fire":
            assert isinstance(outcome, Progressed) and outcome.agent == target
            assert system.bus[: len(bus)] == bus
        else:
            channel, value = bus[index]
            assert channel == target
            if channel == runtime_mod.ADAPT_CHANNEL:
                assert isinstance(outcome, AdaptationNeeded)
            else:
                consumer = system.model.channels[channel].consumer
                assert outcome == Delivered(consumer, channel, value)
            assert system.bus == bus[:index] + bus[index + 1 :]
        return outcome

    monkeypatch.setattr(runtime_mod, "go", go_checked)
    monkeypatch.setattr(runtime_mod.RunnableSystem, "quiescent", quiescent_checked)
    monkeypatch.setattr(runtime_mod, "_seeded_step", step_checked)
    return drawn


def forget_before_every_call(monkeypatch):
    """Mark every agent dirty before each scheduler call, so no cached firing is used."""

    def forgetting(fn, at=0):
        """`fn`, first marking dirty every agent of the system that is its argument `at`."""

        def call(*args):
            for state in args[at].states.values():
                state.mailbox  # reading the mailbox marks the agent dirty
            return fn(*args)

        return call

    monkeypatch.setattr(runtime_mod, "go", forgetting(runtime_mod.go))
    monkeypatch.setattr(
        runtime_mod.RunnableSystem, "quiescent", forgetting(runtime_mod.RunnableSystem.quiescent)
    )
    monkeypatch.setattr(runtime_mod, "_seeded_step", forgetting(runtime_mod._seeded_step, at=1))


class TestReadySet:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_every_step_matches_a_cache_free_rescan(self, monkeypatch, seed):
        """seed None runs adaptive_loop; a seed runs run_concurrent with it."""

        def run(mam, scenario):
            system = synthesize(mam)
            if seed is None:
                return adaptive_loop(system, scenario)
            return run_concurrent(system, scenario, seed)

        for mam, scenario in ready_set_cases():
            with monkeypatch.context() as m:
                forget_before_every_call(m)
                expected = run(mam, scenario)
            with monkeypatch.context() as m:
                check_against_oracle(m)
                got = run(mam, scenario)
            assert render_trace(got.trace) == render_trace(expected.trace)
            assert got.final_markings == expected.final_markings
            assert got.end_reason == expected.end_reason

    @pytest.mark.parametrize("seed", range(6))
    def test_a_fan_out_bus_delivers_the_drawn_channels_oldest_message(self, monkeypatch, seed):
        """The fan-out model, its bus first given three messages per channel
        interleaved out of channel id order: every seeded step is the
        oracle's draw, and some draws deliver a message behind the bus head."""
        mam = fan_out_model()

        def run():
            system = synthesize(mam)
            system.bus.extend((f"m{j}", tok(100 + 10 * j + r)) for r in range(3) for j in (2, 0, 1))
            return run_concurrent(system, Scenario(), seed)

        with monkeypatch.context() as m:
            forget_before_every_call(m)
            expected = run()
        with monkeypatch.context() as m:
            drawn = check_against_oracle(m)
            got = run()
        assert got.end_reason == "quiescence" and got.steps == 2 * 9 + 3 * 12
        assert render_trace(got.trace) == render_trace(expected.trace)
        assert got.final_markings == expected.final_markings
        assert any(kind == "deliver" and index > 0 for kind, _, index in drawn)

    def test_a_dropped_system_is_freed_without_the_cycle_collector(self, mam1):
        """Adaptation drops the old system; it must not wait for gc (peak memory)."""
        system = synthesize(mam1)
        go(system, Scenario())
        dropped = weakref.ref(system)
        gc.disable()
        try:
            del system
            assert dropped() is None
        finally:
            gc.enable()


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

    def test_copy_and_pickle_carry_public_fields_only(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        ctx = save_context(system)
        for twin in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert twin == ctx and hash(twin) == hash(ctx)
            assert write_context(twin) == write_context(ctx)
            assert twin._live is None
        go(system, Scenario())  # delivers tA's message to agent2
        state = system.states["agent2"]
        index = state._index
        firing = system.first_firing("agent2")  # agent2 is clean now
        for twin in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert twin == state and twin._ready_set is None
            twin.mailbox.append(("mid", tok(7)))
            twin.marking = Marking()
            assert state._mailbox == [("mid", tok(1))]
            assert system._ready_set.firing[index] == firing  # still clean


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

    @pytest.mark.parametrize("from_bytes", [False, True])
    def test_a_made_up_preserving_impact_needs_each_marked_place(self, mam1, from_bytes):
        """A preserving impact for an agent whose new task lacks or re-colors
        a marked place is refused; a missing empty place is no obstacle."""
        ctx = save_context(synthesize(mam1))  # agent1 holds in_ {1}; agent2's out_ is empty
        if from_bytes:
            ctx = read_context(write_context(ctx))
        preserving = PlanImpact({"agent1": "preserving", "agent2": "preserving"})

        def bare(aid, *places):
            """mam1 with the agent's task reduced to `places`."""
            parts = mam1.agents[aid].task.parts()
            parts.update(places=list(places), transitions=[], arcs=[], procedures=[])
            parts["colorsets"] += [p.colorset for p in places]
            return evolve_chain(mam1, [rp_t(aid, Net(**parts))])[0]

        for places in ((), (Place("in_", ColorSet("Txt", "text")),)):
            with pytest.raises(ImpactMismatch, match="^agent agent1 classified preserving .* place 'in_' missing or re-colored"):
                resume_context(synthesize(bare("agent1", *places)), ctx, preserving)
        resumed = resume_context(synthesize(bare("agent2")), ctx, preserving)
        assert resumed.states["agent1"].marking == marking_of(in_=[1])
        assert resumed.states["agent2"].marking == Marking()

    @pytest.mark.parametrize("from_bytes", [False, True])
    def test_a_made_up_impact_is_honored_for_an_unchanged_agent(self, mam1, from_bytes):
        """The model did not change, so a live context is carried by column;
        the impact still decides, agent by agent."""
        system = synthesize(mam1)
        go(system, Scenario())
        go(system, Scenario())  # tA fired, and its message waits in agent2's mailbox
        system._resolve_all()  # both agents resolved
        ctx = save_context(system)
        if from_bytes:
            ctx = read_context(write_context(ctx))
        impact = PlanImpact({"agent1": "modifying", "agent2": "preserving"})
        resumed = resume_context(synthesize(mam1), ctx, impact)
        assert resumed.states["agent1"].marking == marking_of(in_=[1])  # restarted
        assert resumed.states["agent2"]._mailbox == [("mid", tok(1))]
        assert resumed._ready_set.dirty == [0] + ([1] if from_bytes else [])
        for kinds in ({"agent1": "preserving"}, {"agent1": "preserving", "ghost": "preserving"}):
            with pytest.raises(ImpactMismatch, match="^no impact classification for agent agent2$"):
                resume_context(synthesize(mam1), ctx, PlanImpact(kinds))

    def test_states_read_before_a_resume_do_not_stand_for_the_resumed_agents(self, mam1):
        """A synthesized system whose states were read is resumed: `states`
        then gives views of the resumed columns, and a view taken before
        still shows the fresh state it was made over."""
        system = synthesize(mam1)
        go(system, Scenario())
        go(system, Scenario())  # agent1's token is gone; agent2 holds its message
        target = synthesize(mam1)
        before = {aid: target.states[aid] for aid in target.agent_ids}
        preserving = PlanImpact({"agent1": "preserving", "agent2": "preserving"})
        resumed = resume_context(target, save_context(system), preserving)
        assert all(resumed.states[aid] is not state for aid, state in before.items())
        assert resumed.states == system.states
        assert before["agent1"].marking == marking_of(in_=[1]) and before["agent2"].mailbox == []


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

    def test_in_memory_checkpoint_resume_identity(self, mam1):
        """resume_run continues the trace; triggers before the checkpoint count as done."""
        two_triggers = Scenario(
            triggers=(
                Trigger(1, AdaptationRequest((modify_agent("agent1", ()),))),
                Trigger(2, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))),
            )
        )
        for (mam, scenario), checkpoints in [(demo(), range(0, 11)), ((mam1, two_triggers), range(0, 3))]:
            golden = adaptive_loop(synthesize(mam), scenario)
            for k in checkpoints:
                captured = {}

                def sink(context, model):
                    captured["context"] = context
                    captured["model"] = model

                head = adaptive_loop(
                    synthesize(mam), scenario, checkpoint_at=k, checkpoint_sink=sink
                )
                assert head.end_reason == "checkpoint"
                resumed = resume_run(captured["context"], captured["model"], scenario)
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


class TestForeignValues:
    """Values a net is handed from outside (a mailbox, an assigned marking)
    are checked against the receiving procedure's colors before it runs."""

    TEXT = ColorSet("Tok", "text")

    def identity_model(self):
        text = (MODELS / "org1.org").read_text().replace("o = inc(n)", "o = n")
        doc = parse_model(text)
        return decompose(doc.model, {"A": "agent1", "B": "agent2"})

    @pytest.mark.parametrize("seed", [None, 0])
    def test_mis_colored_message_raises_before_the_procedure(self, seed):
        system = synthesize(self.identity_model())
        system.states["agent1"].marking = Marking()
        system.states["agent2"].mailbox.append(("mid", Value(self.TEXT, "x")))
        with pytest.raises(TypeMismatch, match="variable 'n' has color Tok=text, needed Tok=int"):
            if seed is None:
                adaptive_loop(system, Scenario())
            else:
                run_concurrent(system, Scenario(), seed)
        assert system.states["agent2"].marking == Marking()

    def test_mis_colored_token_in_an_assigned_marking_raises(self, mam1):
        system = synthesize(mam1)
        system.states["agent1"].marking = Marking({"in_": Multiset([Value(self.TEXT, "x")])})
        with pytest.raises(TypeMismatch, match="transition tA: variable 'n' has color Tok=text"):
            adaptive_loop(system, Scenario())
        assert system.bus == []


    @staticmethod
    def context_with(system, mail=(), bus=()):
        """The system's context through its bytes, with messages added to
        agent2's mailbox and to the bus."""
        ctx = read_context(write_context(save_context(system)))
        mailboxes = tuple((aid, box + tuple(mail) if aid == "agent2" else box) for aid, box in ctx.agent_mailboxes)
        return Context(ctx.version, ctx.agent_markings, mailboxes, ctx.bus + tuple(bus), ctx.cursor, ctx.step_count)

    @pytest.mark.parametrize("where", ["mail", "bus"])
    def test_resume_from_bytes_checks_message_colors(self, mam1, where):
        system = synthesize(mam1)
        message = ("mid", Value(self.TEXT, "x"))
        ctx = self.context_with(system, **{where: [message]})
        with pytest.raises(
            TypeMismatch, match="transition tB: variable 'n' has color Tok=text, needed Tok=int, on channel mid"
        ):
            resume_run(ctx, mam1, Scenario())
        # a message of the channel's color passes, as do ones on channels the model lacks
        ctx = self.context_with(system, **{where: [("mid", tok(5)), ("gone", Value(self.TEXT, "x"))]})
        assert adaptive_loop(resume_run(ctx, mam1, Scenario()), Scenario()).final_markings["agent2"].get("out_")

    def test_a_message_no_transition_receives_is_checked_too(self, mam1):
        parts = mam1.agents["agent2"].task.parts()
        parts.update(transitions=[], arcs=[], procedures=[])
        idle, _ = evolve_chain(mam1, [rp_t("agent2", Net(**parts))])
        ctx = self.context_with(synthesize(idle), mail=[("mid", Value(self.TEXT, "x"))])
        with pytest.raises(TypeMismatch, match="^channel mid: a message has color Tok=text, needed Tok=int$"):
            resume_run(ctx, idle, Scenario())

    def test_messages_resume_drops_are_not_checked(self, mam1):
        """A mis-colored message that resuming drops anyway, in the mailbox of
        a plan-modifying agent or of an agent the model lacks, is no error."""
        bad = ("mid", Value(self.TEXT, "x"))
        ctx = self.context_with(synthesize(mam1), mail=[bad])
        modified, impact = evolve_chain(mam1, [rp_t("agent2", hold_task())])
        assert impact.per_agent["agent2"] == "modifying"
        assert resume_context(synthesize(modified), ctx, impact).states["agent2"].mailbox == []
        ctx = self.context_with(synthesize(mam1))
        mailboxes = (("a_ghost", (bad,)),) + ctx.agent_mailboxes + (("ghost", (bad,)),)
        ghost = Context(ctx.version, ctx.agent_markings, mailboxes, ctx.bus, ctx.cursor, ctx.step_count)
        assert adaptive_loop(resume_run(ghost, mam1, Scenario()), Scenario()).end_reason == "quiescence"

    def test_a_context_from_save_context_is_not_checked(self, mam1, monkeypatch):
        checked = []
        monkeypatch.setattr(runtime_mod, "_check_message_color", lambda model, ch, v: checked.append(ch))
        scenario = Scenario(triggers=(Trigger(1, AdaptationRequest((rp_p("agent2", "inc1", inc2()),))),))
        assert adaptive_loop(synthesize(mam1), scenario).adaptations
        assert checked == []
        resume_run(self.context_with(synthesize(mam1), mail=[("mid", tok(5))], bus=[("mid", tok(6))]), mam1, Scenario())
        assert checked == ["mid", "mid"]


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


# ---------------------------------------------------------------------------
# carry-over across adaptation, checked against an oracle that carries nothing


def checking_adapt(monkeypatch, carried):
    """Compare every adaptation with `naive_adapt` before the run goes on.

    `carried` gets, per adaptation, the number of agents that start clean in
    the new ready set.
    """
    real = runtime_mod._adapt

    def adapt(system, request, trace, adaptations):
        old_bytes = write_context(naive_save_context(system))
        old_firing = list(system._ready_set.firing)
        old_warnings = list(system.warnings)
        expected = naive_adapt(system, request, [], [])
        got = real(system, request, trace, adaptations)
        saved = write_context(save_context(got))
        assert saved == write_context(save_context(expected))
        assert saved == write_context(naive_save_context(got))  # lazy bytes are the eager bytes
        assert got.warnings == expected.warnings
        assert got.model == expected.model
        assert got.trigger_cursor == expected.trigger_cursor
        assert adaptations[-1] == naive_diff_models(system.model, got.model)
        assert_clean_agents_match_oracle(got)
        assert naive_ready_actions(got) == naive_ready_actions(expected)
        # the system adapted away is left as it was, with states of its own
        assert write_context(naive_save_context(system)) == old_bytes
        assert system._ready_set.firing == old_firing
        assert system.warnings == old_warnings
        assert all(got.states.get(aid) is not state for aid, state in system.states.items())
        carried.append(sum(f is not runtime_mod._DIRTY for f in got._ready_set.firing))
        return got

    monkeypatch.setattr(runtime_mod, "_adapt", adapt)


def run_outcome(mam, scenario, seed):
    """What a run shows: rendered trace, end, warnings, final state and diffs."""
    system = synthesize(mam)
    try:
        if seed is None:
            report = adaptive_loop(system, scenario)
        else:
            report = run_concurrent(system, scenario, seed)
    except CoherenceError as exc:
        return ("error", str(exc), render_trace(exc.partial_trace))
    return (
        report.end_reason,
        render_trace(report.trace),
        report.warnings,
        report.final_markings,
        report.final_mailboxes,
        report.adaptations,
    )


def assert_matches_oracle(monkeypatch, mam, scenario, seed):
    """The run with carry-over equals the run without it, checked at every adaptation."""
    with monkeypatch.context() as m:
        m.setattr(runtime_mod, "_adapt", naive_adapt)
        expected = run_outcome(mam, scenario, seed)
    carried = []
    with monkeypatch.context() as m:
        checking_adapt(m, carried)
        got = run_outcome(mam, scenario, seed)
    assert got == expected
    return got, carried


def accepted_request(rng, model, ops):
    """A request of up to `ops` random operations that `evolve` accepts, or None."""
    from roleflow import apply_op, validate_op

    chosen, current = [], model
    for _ in range(ops):
        for _ in range(40):
            op = gen_random_op(rng, current)
            if validate_op(current, op).empty:
                chosen.append(op)
                current = apply_op(current, op)
                break
    return AdaptationRequest(tuple(chosen)) if chosen else None


def carry_over_cases():
    """gen_org models with accepted random requests of one or two operations
    at random steps, the self-adapting demo, and a relay with a procedure swap."""
    from roleflow import evolve

    rng = random.Random(6060)
    cases = []
    while len(cases) < 30:
        org = gen_org(rng, f"co{len(cases)}")
        assignment = rng.choice(list(all_assignments(org.roles)))
        if len(set(assignment.values())) < 2:
            continue
        mam = decompose(org, assignment)
        steps = adaptive_loop(synthesize(mam), Scenario(max_steps=60)).steps
        model, triggers = mam, []
        for at in sorted(rng.sample(range(steps + 1), min(4, steps + 1))):
            request = accepted_request(rng, model, rng.choice((1, 1, 2)))
            if request is not None:
                model, _ = evolve(model, request)
                triggers.append(Trigger(at, request))
        if triggers:
            cases.append((mam, Scenario(tuple(triggers), max_steps=80)))
    cases.append(demo())
    relay = decompose(relay_org(6, 4), {f"r{i}": f"a{i}" for i in range(6)})
    cases.append((relay, Scenario((Trigger(9, AdaptationRequest((rp_p("a3", "take", inc2()),))),))))
    cases.append(mixed_relay_case())
    return cases


def mixed_relay_case():
    """A 40-agent relay under every kind of request `resume_context` treats
    apart: a procedure swap (agents carried by column), a new channel whose
    initial message a preserving consumer must not get, a removed channel
    whose initial messages wait in a mailbox (dropped mail), an added and a
    removed agent (shifted indices), and a task replacement that drops a
    marked place (a fresh restart) together with a second swap."""
    from roleflow import Channel, evolve
    from roleflow.adaptation import a_com, add_agent, r_com, remove_agent

    relay = decompose(relay_org(40, 3), {f"r{i}": f"a{i}" for i in range(40)})
    side = Channel("side", TOK, "a5", "a9", initial=(tok(5), tok(6)))
    model, _ = evolve(relay, AdaptationRequest((a_com(side),)))
    late = Channel("late", TOK, "a12", "a20", initial=(tok(7),))
    task = model.agents["a2"].task
    moved = Net(
        **{
            **task.parts(),
            "places": [p._replace(id="z2") if p.id == "y2" else p for p in task.places.values()],
            "arcs": [a._replace(place="z2") if a.place == "y2" else a for a in task.arcs],
            "procedures": [],
        }
    )
    requests = [
        (rp_p("a3", "take", inc2()),),
        (a_com(late),),
        (r_com("side"),),
        (add_agent(idle_agent("a3x", looping=True)),),
        (remove_agent("a3x"),),
        (rp_p("a30", "hand", inc2()), rp_t("a2", moved)),
    ]
    triggers = tuple(Trigger(at, AdaptationRequest(ops)) for at, ops in zip((10, 25, 40, 55, 70, 85), requests))
    return model, Scenario(triggers)


def idle_agent(aid, looping=False):
    """An agent of its own; with `looping`, one that can always fire."""
    from roleflow import AgentModel

    if not looping:
        return AgentModel(aid, frozenset(), frozenset(), frozenset(), Net(aid, colorsets=[TOK]))
    spin = ProcedureDef("spin", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
    task = Net(
        aid,
        colorsets=[TOK],
        places=[Place(f"own_{aid}", TOK, Multiset([tok(1)]))],
        transitions=[Transition(f"t_{aid}", f"role_{aid}", "spin")],
        procedures=[spin],
        arcs=[InputArc(f"own_{aid}", f"t_{aid}", "n"), OutputArc(f"t_{aid}", f"own_{aid}", "o")],
    )
    return AgentModel(aid, frozenset({f"role_{aid}"}), frozenset(), frozenset(), task)


class TestCarryOver:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_every_adaptation_matches_the_oracle(self, monkeypatch, seed):
        """seed None runs adaptive_loop; a seed runs run_concurrent with it."""
        adapted = carried_total = 0
        for mam, scenario in carry_over_cases():
            _, carried = assert_matches_oracle(monkeypatch, mam, scenario, seed)
            adapted += len(carried)
            carried_total += sum(carried)
        assert adapted >= 60 and carried_total >= 40

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_rcom_drops_a_message_of_an_unchanged_consumer(self, mam1, monkeypatch, seed):
        """agent2 holds no sensor for 'side', so rCom leaves its AgentModel
        alone, yet the channel's initial message in its mailbox must go."""
        from roleflow import Channel, evolve
        from roleflow.adaptation import a_com, r_com

        side = Channel("side", TOK, "agent1", "agent2", initial=(tok(5),))
        grown, _ = evolve(mam1, AdaptationRequest((a_com(side),)))
        assert synthesize(grown).states["agent2"]._mailbox == [("side", tok(5))]
        drop = AdaptationRequest((r_com("side"),))
        assert evolve(grown, drop)[0].agents["agent2"] is grown.agents["agent2"]
        got, carried = assert_matches_oracle(monkeypatch, grown, Scenario((Trigger(1, drop),)), seed)
        assert got[2] == ("dropped mailbox message on deleted channel side for agent2",)
        assert len(carried) == 1

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_added_and_removed_agents_shift_carried_entries(self, monkeypatch, seed):
        from roleflow.adaptation import add_agent, remove_agent

        relay = decompose(relay_org(5, 3), {f"r{i}": f"a{i}" for i in range(5)})
        scenario = Scenario(
            (
                Trigger(3, AdaptationRequest((add_agent(idle_agent("a0x")),))),
                Trigger(6, AdaptationRequest((add_agent(idle_agent("a1x", looping=True)),))),
                Trigger(10, AdaptationRequest((remove_agent("a0x"),))),
                Trigger(14, AdaptationRequest((rp_p("a3", "take", inc2()),))),
            ),
            max_steps=60,
        )
        _, carried = assert_matches_oracle(monkeypatch, relay, scenario, seed)
        assert len(carried) == 4 and min(carried) > 0

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_a_preserving_agent_with_a_new_task_is_checked_again(self, mam1, monkeypatch, seed):
        """agent2 keeps its place, so it preserves, but tB became tC: the
        ready-set entry from the old task must not be carried over."""
        from roleflow import ReceiveEvent

        task = Net(
            "agent2",
            colorsets=[TOK],
            places=[Place("out_", TOK)],
            transitions=[Transition("tC", "B", "inc1", event=ReceiveEvent("mid", "n"))],
            arcs=[OutputArc("tC", "out_", "o")],
        )
        scenario = Scenario((Trigger(2, AdaptationRequest((rp_t("agent2", task),))),))
        got, _ = assert_matches_oracle(monkeypatch, mam1, scenario, seed)
        assert "tC n=1" in got[1]

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_a_consumed_initial_message_is_not_delivered_again(self, mam1, monkeypatch, seed):
        """`synthesize` puts a channel's initial messages in the new system's
        mailboxes; a preserving agent that already took them must not see them again."""
        from roleflow import Channel, evolve
        from roleflow.adaptation import rp_com

        seeded = Channel("mid", TOK, "agent1", "agent2", initial=(tok(7),))
        model, _ = evolve(mam1, AdaptationRequest((rp_com("mid", seeded),)))
        scenario = Scenario((Trigger(4, AdaptationRequest((modify_agent("agent1", ()),))),))
        got, carried = assert_matches_oracle(monkeypatch, model, scenario, seed)
        assert got[0] == "quiescence" and carried == [2]
        assert got[3]["agent2"] == marking_of(out_=[2, 8])

    def test_a_rejected_second_op_leaves_the_system_untouched(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        assert not system.quiescent()  # every agent resolved: the ready set holds entries
        before = write_context(naive_save_context(system))
        firing, states, bus = list(system._ready_set.firing), dict(system.states), list(system.bus)
        request = AdaptationRequest((rp_p("agent2", "inc1", inc2()), rp_p("agent2", "ghost", inc2())))
        trace, adaptations = [], []
        with pytest.raises(CoherenceError):
            runtime_mod._adapt(system, request, trace, adaptations)
        assert (trace, adaptations) == ([], [])
        assert write_context(naive_save_context(system)) == before
        assert system._ready_set.firing == firing and system.bus == bus
        assert all(system.states[aid] is state for aid, state in states.items())
        assert_clean_agents_match_oracle(system)

    def test_the_system_adapted_away_keeps_its_own_states(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())  # tA fired; its message is on the bus
        system.quiescent()
        request = AdaptationRequest((rp_p("agent2", "inc1", inc2()),))
        new = runtime_mod._adapt(system, request, [], [])
        assert all(new.states[aid] is not system.states[aid] for aid in system.agent_ids)
        # agent1's task is unchanged: its Marking and ready-set entry are carried over
        assert new.states["agent1"].marking is system.states["agent1"].marking
        assert new._ready_set.firing[0] is system._ready_set.firing[0]
        assert new._ready_set.firing[1] is runtime_mod._DIRTY
        assert_clean_agents_match_oracle(system)
        assert_clean_agents_match_oracle(new)
        new_bytes = write_context(save_context(new))
        old_report = adaptive_loop(system, Scenario())  # the old system runs on by itself
        assert old_report.final_markings["agent2"] == marking_of(out_=[2])
        assert write_context(save_context(new)) == new_bytes
        assert adaptive_loop(new, Scenario()).final_markings["agent2"] == marking_of(out_=[3])


    @pytest.mark.parametrize("written", ["old", "new"])
    @pytest.mark.parametrize("aid", ["agent1", "agent2"])
    def test_the_two_systems_share_no_mailbox(self, mam1, written, aid):
        """After an adaptation, a write through `states[aid].mailbox` in one
        system leaves the other's mailbox as it was: for agent2, carried over
        with mail, and for agent1, whose mailbox is empty."""
        system = synthesize(mam1)
        go(system, Scenario())  # tA fires
        go(system, Scenario())  # its message is delivered to agent2
        new = runtime_mod._adapt(system, AdaptationRequest((rp_p("agent1", "pass", inc2()),)), [], [])
        before = {"agent1": (), "agent2": (("mid", tok(1)),)}
        for side in (system, new):
            assert dict(save_context(side).agent_mailboxes) == before
        one, other = (system, new) if written == "old" else (new, system)
        one.states[aid].mailbox.append(("mid", tok(9)))
        assert dict(save_context(one).agent_mailboxes)[aid] == before[aid] + (("mid", tok(9)),)
        assert dict(save_context(other).agent_mailboxes) == before
        assert other.states[aid].mailbox == list(before[aid])

    def test_a_delivery_to_an_empty_mailbox_reaches_no_other_agent(self, mam1):
        """Both agents hold an empty mailbox when the system is adapted; the
        delivery to agent2 that follows lands in agent2's mailbox of the new
        system only."""
        system = synthesize(mam1)
        go(system, Scenario())  # tA fires; its message is on the bus
        new = runtime_mod._adapt(system, AdaptationRequest((rp_p("agent2", "inc1", inc2()),)), [], [])
        empty = {"agent1": (), "agent2": ()}
        assert dict(save_context(new).agent_mailboxes) == empty
        assert isinstance(go(new, Scenario()), Delivered)
        assert dict(save_context(new).agent_mailboxes) == {"agent1": (), "agent2": (("mid", tok(1)),)}
        assert dict(save_context(system).agent_mailboxes) == empty
        assert adaptive_loop(system, Scenario()).final_mailboxes == empty

    def test_no_model_keeps_its_predecessor_alive(self, mam1):
        """Each adaptation builds on the model before it; none may hold on to it (peak memory)."""
        from roleflow import evolve

        model, _ = evolve(mam1, AdaptationRequest((rp_p("agent2", "inc1", inc2()),)))
        system = synthesize(model)
        first = weakref.ref(model)
        del model
        back = ProcedureDef("inc1", (("n", TOK),), (("o", TOK),), (("o", Expr.call("inc", Expr.var("n"))),))
        for request in (rp_p("agent2", "inc2", back), rp_p("agent2", "inc1", inc2())):
            system = runtime_mod._adapt(system, AdaptationRequest((request,)), [], [])
        gc.disable()
        try:
            assert first() is None
        finally:
            gc.enable()


class TestAdaptationCost:
    """One procedure swap, or one added agent, costs the same work on a relay
    of 20 agents as on one of 80."""

    @staticmethod
    def counted_run(monkeypatch, agents, ops=()):
        """Calls of the marking codec and of `_resolve` in a run, and the lines
        `resume_context` executes: the Python-level work it does agent by agent."""
        from collections import Counter

        calls = Counter()

        def counting(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        def count_line(frame, event, arg):
            calls["resume_context lines"] += event == "line"
            return count_line

        def trace_resume(frame, event, arg):
            return count_line if frame.f_code is runtime_mod.resume_context.__code__ else None

        relay = decompose(relay_org(agents, 2), {f"r{i}": f"a{i}" for i in range(agents)})
        scenario = Scenario((Trigger(6, AdaptationRequest(ops)),) if ops else ())
        with monkeypatch.context() as m:
            for name in ("save_marking", "restore_marking"):
                m.setattr(runtime_mod, name, counting(name, getattr(runtime_mod, name)))
            m.setattr(
                runtime_mod.RunnableSystem, "_resolve", counting("_resolve", runtime_mod.RunnableSystem._resolve)
            )
            previous = sys.gettrace()
            sys.settrace(trace_resume)
            try:
                report = adaptive_loop(synthesize(relay), scenario)
            finally:
                sys.settrace(previous)
        assert report.end_reason == "quiescence"
        return calls

    def test_a_procedure_swap_looks_again_only_at_the_replaced_agent(self, monkeypatch):
        """On a 160-agent relay with every agent resolved, one plan-preserving
        swap builds no initial marking and leaves one agent to resolve; the
        system adapted away keeps its states, ready set and warnings."""
        from collections import Counter

        agents = 160
        relay = decompose(relay_org(agents, 2), {f"r{i}": f"a{i}" for i in range(agents)})
        system = synthesize(relay)
        for _ in range(50):
            go(system, Scenario())
        system._resolve_all()
        system.warnings.append("an earlier warning")
        states, warnings = dict(system.states), system.warnings
        ready_set = system._ready_set
        firing, ready = list(ready_set.firing), list(ready_set.ready)
        assert ready_set.dirty == [] and len(ready) > 1

        calls, resolved = Counter(), []
        real_initial, real_resolve = Net.initial_marking, runtime_mod.RunnableSystem._resolve

        def initial_marking(net):
            calls["initial_marking"] += 1
            return real_initial(net)

        def resolve(sys_, index):
            resolved.append(sys_.agent_ids[index])
            return real_resolve(sys_, index)

        with monkeypatch.context() as m:
            m.setattr(Net, "initial_marking", initial_marking)
            m.setattr(runtime_mod.RunnableSystem, "_resolve", resolve)
            new = runtime_mod._adapt(system, AdaptationRequest((rp_p("a7", "take", inc2()),)), [], [])
            assert calls["initial_marking"] == 0 and resolved == []
            new._resolve_all()
        assert resolved == ["a7"]
        assert new.warnings == ["an earlier warning"] and new.warnings is not warnings
        assert len(new.states) == agents and all(new.states[aid] is not states[aid] for aid in states)
        assert system.states == states and all(system.states[aid] is states[aid] for aid in states)
        assert system._ready_set is ready_set and ready_set.firing == firing and ready_set.ready == ready
        assert all(f is g for f, g in zip(ready_set.firing, firing))
        assert system.warnings is warnings and warnings == ["an earlier warning"]
        assert_clean_agents_match_oracle(new)

    def test_untouched_agents_get_no_agent_state(self, monkeypatch):
        """On a 160-agent relay, one procedure swap and the 50 scheduler steps
        after it, none of which reads `states`, make no `AgentState`; the
        system makes one for an agent a caller asks for, and only once."""
        agents = 160
        relay = decompose(relay_org(agents, 2), {f"r{i}": f"a{i}" for i in range(agents)})
        system = synthesize(relay)
        for _ in range(50):
            go(system, Scenario())
        made, real_init = [], runtime_mod.AgentState.__init__

        def init(state, *args):
            made.append(state)
            real_init(state, *args)

        monkeypatch.setattr(runtime_mod.AgentState, "__init__", init)
        system = runtime_mod._adapt(system, AdaptationRequest((rp_p("a7", "take", inc2()),)), [], [])
        for _ in range(50):
            go(system, Scenario())
        assert made == []
        assert system.states["a7"] is system.states["a7"] and len(made) == 1

    def test_counts_do_not_grow_with_the_agent_count(self, monkeypatch):
        from roleflow.adaptation import add_agent

        for ops in ((rp_p("a1", "take", inc2()),), (add_agent(idle_agent("a1x")),)):
            extra, lines = {}, {}
            for agents in (20, 80):
                adapted = self.counted_run(monkeypatch, agents, ops)
                plain = self.counted_run(monkeypatch, agents)
                # a live context goes through no marking bytes, not even for the changed agent
                assert (adapted["save_marking"], adapted["restore_marking"]) == (0, 0)
                extra[agents] = adapted["_resolve"] - plain["_resolve"]
                lines[agents] = adapted["resume_context lines"]
            assert extra[20] == extra[80] <= 2, ops
            assert lines[20] == lines[80] > 0, ops

    def test_an_added_or_removed_agent_looks_again_only_at_the_added_one(self, monkeypatch):
        """On a 160-agent relay with every agent resolved, adding an agent
        with no channels leaves only that agent to resolve, and removing it
        again leaves none: the other agents keep their ready-set entries
        under their shifted indices."""
        from roleflow.adaptation import add_agent, remove_agent

        agents = 160
        relay = decompose(relay_org(agents, 2), {f"r{i}": f"a{i}" for i in range(agents)})
        system = synthesize(relay)
        for _ in range(50):
            go(system, Scenario())
        system._resolve_all()
        assert system._ready_set.dirty == []

        resolved, real_resolve = [], runtime_mod.RunnableSystem._resolve

        def resolve(sys_, index):
            resolved.append(sys_.agent_ids[index])
            return real_resolve(sys_, index)

        with monkeypatch.context() as m:
            m.setattr(runtime_mod.RunnableSystem, "_resolve", resolve)
            for op, looked_at in ((add_agent(idle_agent("a7x")), ["a7x"]), (remove_agent("a7x"), [])):
                system = runtime_mod._adapt(system, AdaptationRequest((op,)), [], [])
                assert resolved == []
                assert_clean_agents_match_oracle(system)
                system._resolve_all()
                assert resolved == looked_at
                resolved.clear()
        assert len(system.agent_ids) == agents
