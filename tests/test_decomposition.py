import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roleflow import (
    CommLink,
    Expr,
    IncoherentOrganization,
    InconsistentChannels,
    InputArc,
    Marking,
    Multiset,
    Net,
    Organization,
    OutputArc,
    PartialAssignment,
    Place,
    ProcedureDef,
    ReceiveEvent,
    Role,
    RoleflowError,
    SendEvent,
    Transition,
    adaptive_loop,
    check_equivalence,
    communication_structure,
    decompose,
    project_marking,
    recompose,
    run_to_quiescence,
    synthesize,
    type_check_net,
    validate_model,
    validate_organization,
)
from roleflow import cpn
from roleflow.decomposition import AgentModel, MultiAgentModel, _AgentChecks, changed_keys
from roleflow.modelio import parse_model, parse_scenario, serialize_model
from roleflow.runtime import Scenario

from conftest import MODELS, TOK, tok
from helpers import all_assignments, cold_net, gen_org, naive_decompose, naive_validate_model


def marking_of(**tokens):
    return Marking({pid: Multiset([tok(v) for v in vs]) for pid, vs in tokens.items()})


class TestDecompose:
    def test_shape_of_mam1(self, mam1):
        assert sorted(mam1.channels) == ["mid"]
        ch = mam1.channels["mid"]
        assert (ch.producer, ch.consumer) == ("agent1", "agent2")
        a1, a2 = mam1.agents["agent1"], mam1.agents["agent2"]
        assert sorted(a1.task.places) == ["in_"] and sorted(a2.task.places) == ["out_"]
        assert isinstance(a1.task.transitions["tA"].event, SendEvent)
        assert isinstance(a2.task.transitions["tB"].event, ReceiveEvent)
        assert a1.effectors == frozenset({"mid"}) and a1.sensors == frozenset()
        assert a2.sensors == frozenset({"mid"}) and a2.effectors == frozenset()
        assert validate_model(mam1).empty

    def test_colocated_roles_keep_place_private(self, org1):
        mam = decompose(org1, {"A": "agent1", "B": "agent1"})
        assert len(mam.agents) == 1 and not mam.channels
        task = mam.agents["agent1"].task
        assert sorted(task.places) == ["in_", "mid", "out_"]
        assert all(t.event is None for t in task.transitions.values())

    def test_single_role_org_task_is_global_task(self):
        rng = random.Random(7)
        while True:
            org = gen_org(rng, "solo")
            if len(org.roles) == 1:
                break
        mam = decompose(org, {r: "only" for r in org.roles})
        assert not mam.channels
        assert check_equivalence(org.global_task, mam.agents["only"].task)

    def test_partial_assignment_rejected(self, org1):
        with pytest.raises(PartialAssignment):
            decompose(org1, {"A": "agent1"})

    def test_undeclared_roles_rejected(self, org1):
        with pytest.raises(PartialAssignment, match=r"^roles the organization does not declare: \['ghost', 'zed'\]$"):
            decompose(org1, {"A": "agent1", "B": "agent2", "zed": "agent1", "ghost": "agent9"})
        # a missing role is named first
        with pytest.raises(PartialAssignment, match=r"^roles without an agent: \['B'\]$"):
            decompose(org1, {"A": "agent1", "ghost": "agent9"})

    def test_multi_producer_place_rejected(self, org1):
        net = org1.global_task
        parts = net.parts()
        parts["procedures"] = list(net.procedures.values()) + [
            ProcedureDef("feed", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
        ]
        parts["transitions"] = list(net.transitions.values()) + [Transition("tC", "C", "feed")]
        parts["places"] = parts["places"] + [Place("side", TOK, Multiset([tok(4)]))]
        parts["arcs"] = list(parts["arcs"]) + [InputArc("side", "tC", "n"), OutputArc("tC", "mid", "o")]
        roles = list(org1.roles.values()) + [Role("C")]
        org = Organization("two", "", roles, [CommLink("A", "B"), CommLink("C", "B")], Net(**parts))
        with pytest.raises(IncoherentOrganization, match="^place mid is written by several agents; no single producer$"):
            decompose(org, {"A": "a1", "B": "a2", "C": "a3"})
        assert decompose(org, {"A": "a1", "B": "a2", "C": "a1"}).channels["mid"].producer == "a1"

    def test_invalid_org_rejected(self, org1):
        broken = Organization("x", "", list(org1.roles.values()), [], org1.global_task)
        with pytest.raises(IncoherentOrganization):
            decompose(broken, {"A": "a1", "B": "a2"})

    def test_multi_consumer_place_rejected(self, org1):
        net = org1.global_task
        parts = net.parts()
        parts["procedures"] = list(net.procedures.values()) + [
            ProcedureDef("steal", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
        ]
        parts["transitions"] = list(net.transitions.values()) + [
            Transition("tC", "C", "steal")
        ]
        parts["places"] = parts["places"] + [Place("sink", TOK)]
        parts["arcs"] = list(parts["arcs"]) + [
            InputArc("mid", "tC", "n"),
            OutputArc("tC", "sink", "o"),
        ]
        org = Organization(
            "amb",
            "",
            list(org1.roles.values()) + [Role("C")],
            [CommLink("A", "B"), CommLink("A", "C")],
            Net(**parts),
        )
        with pytest.raises(IncoherentOrganization, match="consumer"):
            decompose(org, {"A": "a1", "B": "a2", "C": "a3"})

    def test_two_events_on_one_transition_rejected(self):
        # a middle transition reading and writing cross-role places needs two events
        net = Net(
            "pipe",
            colorsets=[TOK],
            places=[
                Place("s", TOK, Multiset([tok(1)])),
                Place("m1", TOK),
                Place("m2", TOK),
                Place("d", TOK),
            ],
            transitions=[
                Transition("t1", "A", "f"),
                Transition("t2", "B", "f"),
                Transition("t3", "C", "f"),
            ],
            procedures=[
                ProcedureDef("f", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
            ],
            arcs=[
                InputArc("s", "t1", "n"),
                OutputArc("t1", "m1", "o"),
                InputArc("m1", "t2", "n"),
                OutputArc("t2", "m2", "o"),
                InputArc("m2", "t3", "n"),
                OutputArc("t3", "d", "o"),
            ],
        )
        org = Organization(
            "pipe",
            "",
            [Role("A"), Role("B"), Role("C")],
            [CommLink("A", "B"), CommLink("B", "C")],
            net,
        )
        # co-locating B with either end keeps one event per transition
        decompose(org, {"A": "x", "B": "x", "C": "y"})
        with pytest.raises(IncoherentOrganization, match="events"):
            decompose(org, {"A": "x", "B": "y", "C": "z"})


class TestRecompose:
    def test_round_trip(self, org1, mam1):
        assert check_equivalence(org1.global_task, recompose(mam1))

    def test_single_agent_round_trip(self, org1):
        mam = decompose(org1, {"A": "ag", "B": "ag"})
        assert check_equivalence(org1.global_task, recompose(mam))

    def test_altered_receive_channel_is_inconsistent(self, mam1):
        a2 = mam1.agents["agent2"]
        parts = a2.task.parts()
        parts["transitions"] = [
            Transition("tB", "B", "inc1", event=ReceiveEvent("elsewhere", "n"))
        ]
        broken = AgentModel(a2.id, a2.roles, a2.sensors, a2.effectors, Net(**parts))
        bad = MultiAgentModel(
            mam1.organization_ref, mam1.assignment, {**mam1.agents, "agent2": broken}, mam1.channels
        )
        with pytest.raises(InconsistentChannels):
            recompose(bad)

    def test_assignment_invariance(self, org1):
        forms = set()
        for assignment in all_assignments(org1.roles):
            net = recompose(decompose(org1, assignment))
            from roleflow import canonical_net_text

            forms.add(canonical_net_text(net))
        assert len(forms) == 1


class TestCheckEquivalence:
    def test_against_unrelated_net(self, org1, net1):
        assert not check_equivalence(org1.global_task, net1)

    def test_initial_marking_matters(self, org1):
        parts = org1.global_task.parts()
        parts["places"] = [
            Place("in_", TOK),  # token removed
            Place("mid", TOK),
            Place("out_", TOK),
        ]
        assert not check_equivalence(org1.global_task, Net(**parts))


class TestProjectMarking:
    def test_private_routing(self, mam1):
        per_agent, per_channel = project_marking(marking_of(in_=[1]), mam1)
        assert per_agent["agent1"] == marking_of(in_=[1])
        assert per_agent["agent2"] == Marking()
        assert per_channel["mid"] == ()

    def test_channel_routing(self, mam1):
        _, per_channel = project_marking(marking_of(mid=[1]), mam1)
        assert per_channel["mid"] == (tok(1),)

    def test_exhaustive_routing(self, mam1):
        per_agent, per_channel = project_marking(
            marking_of(in_=[1], mid=[2, 3], out_=[9]), mam1
        )
        assert per_agent["agent1"] == marking_of(in_=[1])
        assert per_agent["agent2"] == marking_of(out_=[9])
        assert per_channel["mid"] == (tok(2), tok(3))


class TestSynthesize:
    def test_initial_state(self, mam1):
        system = synthesize(mam1)
        assert system.agent_ids == ("agent1", "agent2")
        assert not system.bus
        assert system.states["agent1"].marking == marking_of(in_=[1])
        assert system.states["agent2"].mailbox == []

    def test_run_matches_global_projection(self, org1, mam1):
        report = adaptive_loop(synthesize(mam1), Scenario())
        assert report.final_markings["agent2"] == marking_of(out_=[2])
        global_final = run_to_quiescence(
            org1.global_task, org1.global_task.initial_marking(), max_steps=100
        ).marking
        per_agent, per_channel = project_marking(global_final, mam1)
        assert report.final_markings == per_agent
        assert all(not v for v in per_channel.values())

    def test_single_agent_system_equals_net_run(self, org1):
        mam = decompose(org1, {"A": "ag", "B": "ag"})
        report = adaptive_loop(synthesize(mam), Scenario())
        task = mam.agents["ag"].task
        solo = run_to_quiescence(task, task.initial_marking(), max_steps=100)
        assert report.final_markings["ag"] == solo.marking
        fired = [e.detail.split(" ")[0] for e in report.trace if e.kind == "fired"]
        assert fired == [f.transition for f in solo.firings]

    def test_channel_initial_tokens_preload_mailbox(self, org1):
        parts = org1.global_task.parts()
        parts["places"] = [
            Place("in_", TOK, Multiset([tok(1)])),
            Place("mid", TOK, Multiset([tok(9), tok(5)])),
            Place("out_", TOK),
        ]
        org = Organization(
            org1.id, org1.objective, list(org1.roles.values()), list(org1.links), Net(**parts)
        )
        mam = decompose(org, {"A": "agent1", "B": "agent2"})
        assert mam.channels["mid"].initial == (tok(5), tok(9))
        system = synthesize(mam)
        assert system.states["agent2"].mailbox == [("mid", tok(5)), ("mid", tok(9))]
        # projection at step zero matches the preloaded mailboxes
        _, per_channel = project_marking(Net(**parts).initial_marking(), mam)
        assert per_channel["mid"] == (tok(5), tok(9))


class TestCapabilityDerivation:
    def test_sensors_effectors_exactly_match_channel_usage(self):
        rng = random.Random(91)
        for i in range(20):
            org = gen_org(rng, f"cap{i}")
            for assignment in all_assignments(org.roles):
                mam = decompose(org, assignment)
                for aid, agent in mam.agents.items():
                    consumed = {
                        t.event.channel
                        for t in agent.task.transitions.values()
                        if isinstance(t.event, ReceiveEvent)
                    }
                    produced = {
                        t.event.channel
                        for t in agent.task.transitions.values()
                        if isinstance(t.event, SendEvent)
                    }
                    assert agent.sensors == frozenset(consumed)
                    assert agent.effectors == frozenset(produced)
                    assert consumed == {
                        c.id for c in mam.channels.values() if c.consumer == aid
                    }
                    assert produced == {
                        c.id for c in mam.channels.values() if c.producer == aid
                    }


class TestSemanticPreservation:
    def test_sampled_generated_orgs(self):
        rng = random.Random(77)
        checked = 0
        for i in range(25):
            org = gen_org(rng, f"sp{i}")
            g = run_to_quiescence(
                org.global_task, org.global_task.initial_marking(), max_steps=200
            )
            if g.exhausted:
                continue
            for assignment in all_assignments(org.roles):
                mam = decompose(org, assignment)
                report = adaptive_loop(synthesize(mam), Scenario(max_steps=2000))
                assert report.end_reason == "quiescence"
                per_agent, per_channel = project_marking(g.marking, mam)
                assert report.final_markings == per_agent
                got_mail = {
                    cid: tuple(
                        sorted(
                            (v for a in report.final_mailboxes.values() for c, v in a if c == cid),
                            key=lambda v: v.sort_key(),
                        )
                    )
                    for cid in mam.channels
                }
                assert got_mail == per_channel
                checked += 1
        assert checked >= 20


class TestDecomposeInvariants:
    def test_generated_orgs_under_every_assignment(self):
        rng = random.Random(2024)
        checked = 0
        for i in range(20):
            org = gen_org(rng, f"inv{i}")
            # the same global task declared in a shuffled order
            parts = org.global_task.parts()
            for key in ("places", "transitions", "procedures", "arcs"):
                rng.shuffle(parts[key])
            shuffled = Organization(org.id, org.objective, org.roles, org.links, Net(**parts))
            net = org.global_task
            for assignment in all_assignments(org.roles):
                mam = decompose(shuffled, assignment)
                assert mam == decompose(org, assignment)
                assert sorted(mam.agents) == sorted(set(assignment.values()))
                owned_places = []
                for aid, agent in mam.agents.items():
                    task = agent.task
                    assert list(task.places) == sorted(task.places)
                    assert list(task.transitions) == sorted(task.transitions)
                    assert agent.roles == {r for r, a in assignment.items() if a == aid}
                    assert all(assignment[t.role] == aid for t in task.transitions.values())
                    owned_places += task.places
                # every place is one agent's or a channel, never both
                assert sorted(owned_places + list(mam.channels)) == sorted(net.places)
                assert sum(len(a.task.transitions) for a in mam.agents.values()) == len(net.transitions)
                text = serialize_model(mam)
                assert serialize_model(parse_model(text).model) == text
                checked += 1
        assert checked >= 40


class TestOrganizationVerdict:
    """Decomposed agents carry the organization's check; nothing else does."""

    @staticmethod
    def demo_orgs():
        for name, scn in (("org1", "org1_run"), ("devsociety", "devsociety")):
            org = parse_model((MODELS / f"{name}.org").read_text()).model
            yield org, parse_scenario((MODELS / f"{scn}.scn").read_text()).assignment

    @staticmethod
    def count_type_checks(monkeypatch):
        calls = []
        check = cpn._type_check
        monkeypatch.setattr(cpn, "_type_check", lambda net: calls.append(net.id) or check(net))
        return calls

    def test_synthesize_checks_only_the_organization_net(self, monkeypatch):
        calls = self.count_type_checks(monkeypatch)
        for org, assignment in self.demo_orgs():
            calls.clear()
            mam = decompose(org, assignment)
            synthesize(mam)
            assert calls == [org.global_task.id]
            # the same model read back from text has no organization: each agent net is checked
            calls.clear()
            synthesize(parse_model(serialize_model(mam)).model)
            assert sorted(calls) == sorted(mam.agents)

    def test_carried_checks_match_a_cold_check(self):
        rng = random.Random(1414)
        cases = list(self.demo_orgs())
        for i in range(20):
            org = gen_org(rng, f"vd{i}")
            assignments = list(all_assignments(org.roles))
            cases += [(org, a) for a in rng.sample(assignments, min(3, len(assignments)))]
        for org, assignment in cases:
            assert_carried_checks_match_a_cold_check(decompose(org, assignment))

    def test_decompose_matches_the_naive_decompose(self):
        """Agent by agent, and error by error, on the demo organizations, on
        generated ones, and on generated ones with one transition moved to
        another role, where a place may get several writing or reading agents
        and a transition two events."""
        rng = random.Random(2626)
        orgs = [org for org, _ in self.demo_orgs()] + [gen_org(rng, f"nd{i}") for i in range(15)]
        orgs += list(rewired_orgs(rng, 150)) + [chain_org(4)]
        errors = models = 0
        for org in orgs:
            assert validate_organization(org).empty
            for assignment in all_assignments(org.roles):
                got, want = decompose_outcome(decompose, org, assignment), decompose_outcome(naive_decompose, org, assignment)
                if isinstance(want, tuple):
                    assert got == want
                    errors += 1
                    continue
                assert_same_decomposition(got, want)
                assert_carried_checks_match_a_cold_check(got)
                models += 1
        assert errors >= 10 and models >= 100

    def test_a_replaced_ill_typed_task_is_checked_again(self):
        rng = random.Random(1515)
        cases = list(self.demo_orgs())
        cases += [(org, {r: "ag1" for r in org.roles}) for org in (gen_org(rng, f"it{i}") for i in range(5))]
        for org, assignment in cases:
            mam = decompose(org, assignment)
            assert validate_model(mam).empty
            aid = sorted(mam.agents)[0]
            agent = mam.agents[aid]
            parts = agent.task.parts()
            parts["transitions"] = parts["transitions"] + [Transition("t_bad", sorted(agent.roles)[0], "nope")]
            bad = MultiAgentModel(
                mam.organization_ref,
                mam.assignment,
                {**mam.agents, aid: replace(agent, task=Net(**parts))},
                mam.channels,
            )
            expected = naive_validate_model(bad)
            assert not expected.empty
            assert validate_model(bad, base=mam) == expected


def assert_carried_checks_match_a_cold_check(mam):
    """Each agent's kept type report and `_AgentChecks` equal the ones a cold copy computes."""
    for aid, agent in mam.agents.items():
        task = agent.task
        assert type_check_net(task) == cpn._type_check(cold_net(task))
        carried = agent._checks
        assert _AgentChecks.of(aid, agent, mam.channels) is carried
        cold = _AgentChecks.run(aid, replace(agent, task=cold_net(task)), mam.channels)
        for slot in _AgentChecks.__slots__:
            assert getattr(carried, slot) == getattr(cold, slot), slot
    assert validate_model(mam) == naive_validate_model(mam)


def decompose_outcome(decompose_fn, org, assignment):
    """The model, or the type and text of the error."""
    try:
        return decompose_fn(org, assignment)
    except RoleflowError as exc:
        return type(exc), str(exc)


def assert_same_decomposition(got, want):
    """Equal models, and each agent's task equal down to its table orders, arc groups and carried checks."""
    assert (got.organization_ref, got.assignment) == (want.organization_ref, want.assignment)
    assert list(got.channels.items()) == list(want.channels.items())
    assert list(got.agents) == list(want.agents)
    for aid, agent in got.agents.items():
        naive = want.agents[aid]
        assert agent == naive
        task, other = agent.task, naive.task
        for table in ("colorsets", "variables", "places", "transitions", "procedures"):
            assert list(getattr(task, table).items()) == list(getattr(other, table).items()), table
        assert task.arcs == other.arcs and task.transition_ids == other.transition_ids
        for tid in task.transition_ids:
            assert task.input_arcs(tid) == other.input_arcs(tid) and task.output_arcs(tid) == other.output_arcs(tid)
        assert task.initial_marking() == other.initial_marking()
        assert type_check_net(task) == type_check_net(other)
        for slot in _AgentChecks.__slots__:
            assert getattr(agent._checks, slot) == getattr(naive._checks, slot), slot


def chain_org(n):
    """Roles R1..Rn in a chain of one transition each, t1 to tn: under distinct
    agents every transition but the ends needs two events."""
    f = ProcedureDef("f", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
    stops = ["s"] + [f"m{i}" for i in range(1, n)] + ["d"]
    arcs = []
    for i in range(1, n + 1):
        arcs += [InputArc(stops[i - 1], f"t{i}", "n"), OutputArc(f"t{i}", stops[i], "o")]
    net = Net(
        "chain",
        colorsets=[TOK],
        places=[Place("s", TOK, Multiset([tok(1)]))] + [Place(pid, TOK) for pid in stops[1:]],
        transitions=[Transition(f"t{i}", f"R{i}", "f") for i in range(1, n + 1)],
        procedures=[f],
        arcs=arcs,
    )
    links = [CommLink(f"R{i}", f"R{i + 1}") for i in range(1, n)]
    return Organization("chain", "", [Role(f"R{i}") for i in range(1, n + 1)], links, net)


def rewired_orgs(rng, count):
    """Generated organizations with one transition moved to another role, and
    the links the moved net induces."""
    made = 0
    while made < count:
        org = gen_org(rng, f"rw{made}")
        if len(org.roles) < 2:
            continue
        net = org.global_task
        moved_id = rng.choice(net.transition_ids)
        role = rng.choice(sorted(set(org.roles) - {net.transitions[moved_id].role}))
        parts = net.parts()
        parts["transitions"] = [t._replace(role=role) if t.id == moved_id else t for t in parts["transitions"]]
        moved = Net(**parts)
        roles = list(org.roles.values())
        links = communication_structure(Organization(org.id, org.objective, roles, [], moved))
        made += 1
        yield Organization(org.id, org.objective, roles, links, moved)


# ---------------------------------------------------------------------------
# changed_keys, against its definition


def naive_changed_keys(old, new):
    absent = object()
    return sorted(k for k in set(old) | set(new) if old.get(k, absent) is not new.get(k, absent))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_changed_keys_matches_its_definition(data):
    """Kept, equal-but-distinct, other, removed and added values, with the
    keys kept in order or shuffled: a value counts as changed unless it is
    the same object."""
    keys = data.draw(st.lists(st.sampled_from("abcdefgh"), unique=True), label="keys")
    old = {k: [k] for k in keys}
    new = {}
    for k in keys:
        fate = data.draw(st.sampled_from(["same", "same", "equal", "other", "removed"]), label=k)
        if fate == "same":
            new[k] = old[k]
        elif fate == "equal":
            new[k] = list(old[k])  # equal to the old value, not the same object
        elif fate == "other":
            new[k] = [k, k]
    for k in data.draw(st.lists(st.sampled_from("xyz"), unique=True), label="added"):
        new[k] = [k]
    if data.draw(st.booleans(), label="reorder"):
        new = {k: new[k] for k in data.draw(st.permutations(list(new)), label="order")}
    assert changed_keys(old, new) == naive_changed_keys(old, new)
    assert changed_keys(new, old) == naive_changed_keys(new, old)


def test_changed_keys_in_the_same_order_and_reordered():
    a, b, c = [1], [2], [3]
    old = {"a": a, "b": b, "c": c}
    assert changed_keys(old, {"a": a, "b": [2], "c": c}) == ["b"]  # equal is not the same
    assert changed_keys(old, {"c": c, "a": a, "b": b}) == []  # reordered, every value kept
    assert changed_keys(old, {"b": b, "a": [1], "c": c}) == ["a"]
    assert changed_keys(old, {"a": a, "c": c}) == ["b"]
    assert changed_keys(old, {"a": a, "b": b, "c": c, "d": c}) == ["d"]
