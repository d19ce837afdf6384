import random
from dataclasses import replace

import pytest

from roleflow import (
    Channel,
    CoherenceError,
    ColorSet,
    Expr,
    MultiAgentModel,
    Net,
    ProcedureDef,
    apply_op,
    diff_models,
    evolve,
    recompose,
    serialize_model,
    synthesize,
    validate_model,
    validate_op,
)
from roleflow import adaptation
from roleflow.adaptation import (
    AdaptationRequest,
    a_com,
    a_p,
    a_sn,
    add_agent,
    modify_agent,
    r_com,
    r_p,
    remove_agent,
    rp_p,
    rp_t,
)

from conftest import TOK, tok
from helpers import (
    all_assignments,
    cold_model,
    gen_agent_payload,
    gen_org,
    gen_random_op,
    naive_validate_model,
    naive_validate_op,
)
from roleflow import decompose


def inc2():
    return ProcedureDef(
        "inc2",
        (("n", TOK),),
        (("o", TOK),),
        (("o", Expr.call("addK", Expr.var("n"), Expr.lit(tok(2)))),),
    )


def hold_task():
    from roleflow import OutputArc, Place, ReceiveEvent, Transition

    return Net(
        "agent2",
        colorsets=[TOK],
        places=[Place("hold", TOK)],
        transitions=[Transition("tB", "B", "inc1", event=ReceiveEvent("mid", "n"))],
        arcs=[OutputArc("tB", "hold", "o")],
    )


class TestValidateOp:
    def test_remove_procedure_in_use(self, mam1):
        report = validate_op(mam1, r_p("agent2", "inc1"))
        assert any("in use by tB" in v.message for v in report.entries)

    def test_replace_with_same_signature_ok(self, mam1):
        assert validate_op(mam1, rp_p("agent2", "inc1", inc2())).empty

    def test_remove_channel_in_use(self, mam1):
        report = validate_op(mam1, r_com("mid"))
        assert any("in use by agent1" in v.message for v in report.entries)

    def test_signature_change_blocked_when_referenced(self, mam1):
        two_in = ProcedureDef(
            "wider",
            (("n", TOK), ("m", TOK)),
            (("o", TOK),),
            (("o", Expr.var("n")),),
        )
        report = validate_op(mam1, rp_p("agent2", "inc1", two_in))
        assert any("keep the signature" in v.message for v in report.entries)

    def test_add_channel_requires_both_endpoints(self, mam1):
        report = validate_op(mam1, a_com(Channel("extra", TOK, "agent1", "nobody")))
        assert any("not an agent" in v.message for v in report.entries)

    def test_remove_agent_still_named_by_channel(self, mam1):
        report = validate_op(mam1, remove_agent("agent2"))
        assert any("still name the agent" in v.message for v in report.entries)


class TestApplyOp:
    def test_rpp_changes_only_the_body(self, mam1):
        got = apply_op(mam1, rp_p("agent2", "inc1", inc2()))
        assert sorted(got.agents["agent2"].task.procedures) == ["inc2"]
        assert got.agents["agent2"].task.transitions["tB"].procedure == "inc2"
        assert got.agents["agent1"] == mam1.agents["agent1"]
        assert got.channels == mam1.channels
        assert mam1.agents["agent2"].task.procedures.get("inc1") is not None  # input untouched

    def test_add_agent_keeps_channels(self, mam1):
        rng = random.Random(5)
        got = apply_op(mam1, add_agent(gen_agent_payload(rng, "agent3")))
        assert sorted(got.agents) == ["agent1", "agent2", "agent3"]
        assert got.channels == mam1.channels

    def test_rpt_touches_exactly_one_task(self, mam1):
        got = apply_op(mam1, rp_t("agent2", hold_task()))
        assert sorted(got.agents["agent2"].task.places) == ["hold"]
        assert sorted(got.agents["agent2"].task.procedures) == ["inc1"]  # knowledge kept
        diff = diff_models(mam1, got)
        assert diff == ("agent agent2: task replaced",)

    def test_rejected_op_raises(self, mam1):
        with pytest.raises(CoherenceError):
            apply_op(mam1, r_p("agent2", "inc1"))


class TestEvolve:
    def test_preserving_impact(self, mam1):
        got, impact = evolve(mam1, AdaptationRequest((rp_p("agent2", "inc1", inc2()),)))
        assert impact.per_agent == {"agent1": "preserving", "agent2": "preserving"}
        assert sorted(got.agents["agent2"].task.procedures) == ["inc2"]

    def test_task_replacement_is_modifying(self, mam1):
        _, impact = evolve(mam1, AdaptationRequest((rp_t("agent2", hold_task()),)))
        assert impact.per_agent == {"agent1": "preserving", "agent2": "modifying"}

    def test_new_agents_are_modifying(self, mam1):
        rng = random.Random(6)
        _, impact = evolve(mam1, AdaptationRequest((add_agent(gen_agent_payload(rng, "agent3")),)))
        assert impact.per_agent["agent3"] == "modifying"

    def test_atomic_rejection(self, mam1):
        before = serialize_model(mam1)
        request = AdaptationRequest((rp_p("agent2", "inc1", inc2()), r_p("agent2", "nonexistent")))
        with pytest.raises(CoherenceError):
            evolve(mam1, request)
        assert serialize_model(mam1) == before

    def test_empty_request_rejected(self, mam1):
        with pytest.raises(CoherenceError):
            evolve(mam1, AdaptationRequest(()))

    def test_noop_modify_agent(self, mam1):
        got, impact = evolve(mam1, AdaptationRequest((modify_agent("agent2", ()),)))
        assert serialize_model(got) == serialize_model(mam1)
        assert impact.per_agent == {"agent1": "preserving", "agent2": "preserving"}


class TestDiff:
    def test_identity_is_empty(self, mam1):
        assert diff_models(mam1, mam1) == ()

    def test_added_agent(self, mam1):
        rng = random.Random(7)
        got = apply_op(mam1, add_agent(gen_agent_payload(rng, "agent3")))
        assert diff_models(mam1, got) == ("agent agent3 added",)

    def test_two_ops_two_entries(self, mam1):
        request = AdaptationRequest(
            (
                a_p("agent2", ProcedureDef("spare", (("x", TOK),), (("y", TOK),), (("y", Expr.var("x")),))),
                a_com(Channel("side", TOK, "agent2", "agent1")),
            )
        )
        got, _ = evolve(mam1, request)
        diff = diff_models(mam1, got)
        assert len(diff) == len(request.ops) == 2
        assert diff == ("channel side added", "agent agent2: procedure spare added")


class TestInversePairs:
    def test_add_remove_agent(self, mam1):
        rng = random.Random(8)
        agent = gen_agent_payload(rng, "agent9")
        back = apply_op(apply_op(mam1, add_agent(agent)), remove_agent("agent9"))
        assert serialize_model(back) == serialize_model(mam1)

    def test_add_remove_channel(self, mam1):
        ch = Channel("spare", TOK, "agent1", "agent2")
        back = apply_op(apply_op(mam1, a_com(ch)), r_com("spare"))
        assert serialize_model(back) == serialize_model(mam1)

    def test_add_remove_procedure(self, mam1):
        proc = ProcedureDef("spare", (("x", TOK),), (("y", TOK),), (("y", Expr.var("x")),))
        back = apply_op(apply_op(mam1, a_p("agent2", proc)), r_p("agent2", "spare"))
        assert serialize_model(back) == serialize_model(mam1)

    def test_sensor_and_effector_pairs(self, mam1):
        ch = Channel("spare", TOK, "agent1", "agent2")
        with_ch = apply_op(mam1, a_com(ch))
        with_sn = apply_op(with_ch, a_sn("agent2", "spare"))
        from roleflow.adaptation import r_sn

        assert serialize_model(apply_op(with_sn, r_sn("agent2", "spare"))) == serialize_model(with_ch)


class TestClosureSample:
    def test_accepted_ops_stay_coherent(self):
        rng = random.Random(99)
        for i in range(8):
            org = gen_org(rng, f"cl{i}")
            assignment = next(iter(all_assignments(org.roles)))
            mam = decompose(org, assignment)
            for _ in range(20):
                op = gen_random_op(rng, mam)
                report = validate_op(mam, op)
                if report.empty:
                    mam = apply_op(mam, op)
                    assert validate_model(mam).empty
                    recompose(mam)


def _edit_in_place(rng, mam):
    """Replace one agent or channel inside the model's own dicts, as a caller might."""
    if mam.channels and rng.random() < 0.5:
        cid = rng.choice(sorted(mam.channels))
        ends = sorted(mam.agents) + ["ghost"]
        mam.channels[cid] = replace(mam.channels[cid], consumer=rng.choice(ends))
    elif mam.agents:
        aid = rng.choice(sorted(mam.agents))
        agent = mam.agents[aid]
        if rng.random() < 0.5:
            mam.agents[aid] = replace(agent, roles=frozenset())
        else:
            mam.agents[aid] = replace(agent, sensors=agent.sensors | {"ghost_ch"})


class TestIncrementalValidation:
    def test_validate_op_matches_the_cold_oracle(self):
        rng = random.Random(2024)
        counts = {"accepted": 0, "op rejected": 0, "model rejected": 0, "edited": 0}
        for i in range(12):
            org = gen_org(rng, f"inc{i}")
            assignments = list(all_assignments(org.roles))
            for assignment in (assignments[0], assignments[-1]):
                current = decompose(org, assignment)
                for _ in range(25):
                    op = gen_random_op(rng, current)
                    report = validate_op(current, op)
                    assert report == naive_validate_op(current, op), op.describe()
                    if not report.empty:
                        applied = adaptation._speculate(current, op)[0] is not None
                        counts["model rejected" if applied else "op rejected"] += 1
                        continue
                    counts["accepted"] += 1
                    got = apply_op(current, op)
                    assert got == adaptation._apply(current, op)
                    assert validate_model(got).empty and naive_validate_model(got).empty
                    current = got
                    if rng.random() < 0.25:
                        # an edit in place must be seen by the next validation
                        edited = MultiAgentModel(
                            current.organization_ref, current.assignment, current.agents, current.channels
                        )
                        validate_model(edited)
                        _edit_in_place(rng, edited)
                        assert validate_model(edited) == naive_validate_model(edited)
                        counts["edited"] += 1
        assert min(counts.values()) >= 20, counts

    def test_first_invalid_op_rejects_the_request_with_the_oracle_entries(self):
        rng = random.Random(2025)
        rejected = 0
        for i in range(10):
            org = gen_org(rng, f"req{i}")
            mam = decompose(org, next(iter(all_assignments(org.roles))))
            validate_model(mam)
            for _ in range(8):
                ops = []
                current = mam
                for _ in range(3):
                    op = gen_random_op(rng, current)
                    ops.append(op)
                    if validate_op(current, op).empty:
                        current = apply_op(current, op)
                request = AdaptationRequest(tuple(ops))
                expected, oracle_model = None, mam
                for op in ops:
                    expected = naive_validate_op(oracle_model, op)
                    if not expected.empty:
                        break
                    oracle_model = adaptation._apply(oracle_model, op)
                if expected.empty:
                    got, _ = evolve(mam, request)
                    assert got == oracle_model
                    continue
                with pytest.raises(CoherenceError) as exc:
                    evolve(mam, request)
                assert exc.value.report == expected
                rejected += 1
        assert rejected >= 20

    def test_apply_op_applies_once(self, mam1, monkeypatch):
        calls = []
        original = adaptation._apply

        def counting(mam, op):
            calls.append(op.kind)
            return original(mam, op)

        monkeypatch.setattr(adaptation, "_apply", counting)
        apply_op(mam1, rp_p("agent2", "inc1", inc2()))
        assert calls == ["rpP"]

    def test_unchanged_agents_are_shared_and_revalidation_is_free(self, mam1):
        got = apply_op(mam1, rp_p("agent2", "inc1", inc2()))
        assert got.agents["agent1"] is mam1.agents["agent1"]
        assert got.agents["agent2"] is not mam1.agents["agent2"]
        assert validate_model(got) is validate_model(got)

    def test_replaced_agents_update_the_tables_without_a_full_pass(self, mam1, monkeypatch):
        """agent1 gives up its place in_ and agent2 takes it, one op after the other."""
        from roleflow import decomposition

        validate_model(mam1)
        full = []
        real = decomposition._full_pass
        monkeypatch.setattr(decomposition, "_full_pass", lambda mam: full.append(mam) or real(mam))
        request = AdaptationRequest(
            (
                rp_t("agent1", agent1_task("in2")),
                rp_t("agent2", with_place(mam1.agents["agent2"].task, "in_", procedures=False)),
                rp_p("agent2", "inc1", inc2()),
            )
        )
        moved, impact = evolve(mam1, request)
        assert full == []
        assert validate_model(moved).empty and naive_validate_model(moved).empty
        assert impact.per_agent == {"agent1": "modifying", "agent2": "preserving"}

    def test_diff_of_equal_but_distinct_agents_is_empty(self, mam1):
        assert diff_models(mam1, cold_model(mam1)) == ()


def agent1_task(place):
    """agent1's task with its private place renamed to `place`."""
    from roleflow import InputArc, Multiset, Place, SendEvent, Transition

    return Net(
        "agent1",
        colorsets=[TOK],
        places=[Place(place, TOK, Multiset([tok(1)]))],
        transitions=[Transition("tA", "A", "pass", event=SendEvent("mid", Expr.var("o")))],
        arcs=[InputArc(place, "tA", "n")],
    )


def with_place(task, place, procedures=True):
    """The task with one more empty private place."""
    from roleflow import Place

    parts = task.parts()
    parts["places"] = parts["places"] + [Place(place, TOK)]
    if not procedures:
        parts["procedures"] = []
    return Net(**parts)


class TestValidationStaleness:
    def _evolved(self, mam1):
        got, _ = evolve(mam1, AdaptationRequest((rp_p("agent2", "inc1", inc2()),)))
        assert validate_model(got).empty
        return got

    def test_synthesize_rejects_a_model_edited_after_evolve(self, mam1):
        got = self._evolved(mam1)
        got.channels["mid"] = replace(got.channels["mid"], consumer="ghost")
        with pytest.raises(CoherenceError) as exc:
            synthesize(got)
        assert exc.value.report == naive_validate_model(got)
        assert any("'ghost' is not an agent" in v.message for v in exc.value.report.entries)

    def test_replaced_channel_rechecks_the_agents_naming_it(self, mam1):
        got = self._evolved(mam1)
        got.channels["mid"] = replace(got.channels["mid"], consumer="agent1")
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert any("consumed elsewhere" in v.message for v in report.entries)

    def test_replaced_agent_is_checked_again(self, mam1):
        got = self._evolved(mam1)
        got.agents["agent2"] = replace(got.agents["agent2"], roles=frozenset())
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert [v.code for v in report.entries] == ["role"]

    def test_replaced_agent_taking_a_place_of_another(self, mam1):
        got = self._evolved(mam1)
        agent2 = got.agents["agent2"]
        got.agents["agent2"] = replace(agent2, task=with_place(agent2.task, "in_"))
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert [v.message for v in report.entries] == ["also owned by agent agent1"]

    def test_replaced_agent_with_another_id(self, mam1):
        got = self._evolved(mam1)
        got.agents["agent2"] = replace(got.agents["agent2"], id="agent9")
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert any(v.code == "agent" and v.subject == "agent2" for v in report.entries)

    def test_agent_filed_under_another_key(self, mam1):
        got = self._evolved(mam1)
        got.agents["agent3"] = got.agents["agent2"]
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert any(v.code == "agent" and v.subject == "agent3" for v in report.entries)

    def test_channel_named_only_by_an_event_is_tracked(self, mam1):
        # agent2 receives on 'mid' without holding the sensor; the channel's
        # color still decides whether the received message fits
        got = self._evolved(mam1)
        got.agents["agent2"] = replace(got.agents["agent2"], sensors=frozenset())
        before = validate_model(got)
        assert [v.code for v in before.entries] == ["event"]
        text = ColorSet("Txt", "text")
        got.channels["mid"] = replace(got.channels["mid"], colorset=text)
        report = validate_model(got)
        assert report == naive_validate_model(got)
        assert any("does not match parameter" in v.message for v in report.entries)


# one color named like the net's Tok, but text where the net's is int
TEXT_TOK = ColorSet("Tok", "text")


def spare(color):
    """A procedure no transition uses, over `color`."""
    return ProcedureDef("spare", (("x", color),), (("y", color),), (("y", Expr.var("x")),))


def pair_task():
    """agent2's task receiving into a place whose color is a product of the text Tok."""
    from roleflow import Place, ReceiveEvent, Transition

    pair = ColorSet("Pair", "product", components=(TEXT_TOK, TEXT_TOK))
    return Net(
        "agent2",
        places=[Place("hold", pair)],
        transitions=[Transition("tB", "B", "inc1", event=ReceiveEvent("mid", "n"))],
    )


# (op kind, the model before the op, the op); each payload brings a color named
# 'Tok' that is not the net's Tok: through a signature, a component, a task
CLASHES = {
    "aP": (lambda mam: mam, a_p("agent1", spare(TEXT_TOK))),
    "rpP": (lambda mam: apply_op(mam, a_p("agent1", spare(TOK))), rp_p("agent1", "spare", spare(TEXT_TOK))),
    "rpT": (lambda mam: mam, rp_t("agent2", pair_task())),
}


def assert_closed(net):
    """Every color a place, variable or procedure signature references, components included, is the table's."""
    todo = [p.colorset for p in net.places.values()] + [v.colorset for v in net.variables.values()]
    for proc in net.procedures.values():
        todo += [cs for _, cs in proc.inputs + proc.outputs]
    for cs in todo:
        assert net.colorsets[cs.name] is cs, (net.id, cs.name)
        todo += cs.components


class TestColorClash:
    @pytest.mark.parametrize("kind", sorted(CLASHES))
    def test_a_payload_color_named_like_a_net_color_is_rejected(self, mam1, kind):
        from roleflow import go, save_context, write_context
        from roleflow.runtime import Scenario, _adapt

        prepare, op = CLASHES[kind]
        mam = prepare(mam1)
        assert op.kind == kind
        report = validate_op(mam, op)
        assert report == naive_validate_op(mam, op)
        assert [(v.code, v.subject) for v in report.entries] == [(kind, op.agent_id)]
        assert "two colors named 'Tok'" in report.entries[0].message

        before = serialize_model(mam)
        with pytest.raises(CoherenceError):
            evolve(mam, AdaptationRequest((op,)))
        assert serialize_model(mam) == before
        system = synthesize(mam)
        go(system, Scenario())
        state = write_context(save_context(system))
        trace, adaptations = [], []
        with pytest.raises(CoherenceError):
            _adapt(system, AdaptationRequest((op,)), trace, adaptations)
        assert (trace, adaptations) == ([], [])
        assert write_context(save_context(system)) == state and system.model is mam

    def test_decompositions_and_adapted_models_are_closed_and_round_trip(self):
        from roleflow import parse_model

        rng = random.Random(15)
        models = 0
        for i in range(8):
            org = gen_org(rng, f"cc{i}")
            assert_closed(org.global_task)
            mam = decompose(org, next(iter(all_assignments(org.roles))))
            for _ in range(20):
                for agent in mam.agents.values():
                    assert_closed(agent.task)
                assert parse_model(serialize_model(mam)).model == mam
                models += 1
                op = gen_random_op(rng, mam)
                if validate_op(mam, op).empty:
                    mam = apply_op(mam, op)
        assert models == 160
