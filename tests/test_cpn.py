import copy
import itertools
import pickle
import random
import sys
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roleflow import (
    Channel,
    ColorSet,
    CommLink,
    Expr,
    Firing,
    InputArc,
    InvalidModel,
    Marking,
    Multiset,
    Net,
    NotEnabled,
    OutputArc,
    Place,
    ProcedureDef,
    ProcedureFailure,
    ReceivedMessage,
    ReceiveEvent,
    Role,
    RoleflowError,
    RunResult,
    Scenario,
    SendEvent,
    SentMessage,
    StepFired,
    StepQuiescent,
    Transition,
    UnknownTransition,
    Value,
    Variable,
    decompose,
    TypeMismatch,
    UnboundVariable,
    enabled_bindings,
    fire,
    first_binding,
    go,
    iter_bindings,
    parse_model,
    parse_scenario,
    run_to_quiescence,
    step,
    synthesize,
    type_check_net,
)
import roleflow.cpn as cpn_mod
from roleflow.cpn import compiled_procedure, transition_plans
from roleflow.runtime import QuiescentPass

from conftest import GOLDEN, MODELS, TOK, build_net1, tok
from helpers import (
    accounting_events,
    accounting_fire,
    all_assignments,
    brute_force_bindings,
    cold_net,
    deadline,
    gen_bounded_net,
    gen_colorset,
    gen_org,
    naive_color_equal,
    type_check_outcome_lines,
)


def marking_of(net, **tokens):
    return Marking({pid: Multiset([tok(v) for v in vs]) for pid, vs in tokens.items()})


class TestTypeCheck:
    def test_net1_is_clean(self, net1):
        assert type_check_net(net1).empty

    def test_arc_label_outside_signature(self, net1):
        parts = net1.parts()
        parts["arcs"] = [InputArc("p", "t", "bogus"), OutputArc("t", "q", "out")]
        report = type_check_net(Net(**parts))
        assert any("not in signature" in v.message for v in report.entries)

    def test_transition_without_role(self, net1):
        parts = net1.parts()
        parts["transitions"] = [Transition("t", "", "inc1")]
        report = type_check_net(Net(**parts))
        assert any("transition without role" in v.message for v in report.entries)

    def test_uncovered_input_flagged(self, net1):
        parts = net1.parts()
        parts["arcs"] = [OutputArc("t", "q", "out")]
        report = type_check_net(Net(**parts))
        assert any(v.code == "missing-arc" for v in report.entries)

    def test_colorset_mismatch_on_arc(self):
        txt = ColorSet("Txt", "text")
        net = Net(
            "bad",
            colorsets=[TOK, txt],
            places=[Place("p", txt), Place("q", TOK)],
            transitions=[Transition("t", "R", "inc1")],
            procedures=[
                ProcedureDef(
                    "inc1", (("n", TOK),), (("out", TOK),), (("out", Expr.call("inc", Expr.var("n"))),)
                )
            ],
            arcs=[InputArc("p", "t", "n"), OutputArc("t", "q", "out")],
        )
        report = type_check_net(net)
        assert any(v.code == "arc-color" for v in report.entries)


class TestTypeReportCache:
    def test_report_belongs_to_its_own_net(self, net1):
        clean = type_check_net(net1)
        assert type_check_net(net1) is clean
        parts = net1.parts()
        parts["transitions"] = [Transition("t", "R", "nosuch")]
        broken = Net(**parts)
        assert any("unknown procedure" in v.message for v in type_check_net(broken).entries)
        assert type_check_net(net1) is clean and clean.empty
        twin = Net(**net1.parts())
        assert twin == net1
        assert type_check_net(twin) is not clean and type_check_net(twin) == clean

    def test_pickled_net_round_trips_with_its_report(self, net1):
        parts = net1.parts()
        parts["arcs"] = [OutputArc("t", "q", "out")]
        for net in (net1, Net(**parts)):
            report = type_check_net(net)
            back = pickle.loads(pickle.dumps(net))
            assert back == net
            assert type_check_net(back) == report
            assert back.input_arcs("t") == net.input_arcs("t")


class TestEnabledBindings:
    def test_single_token(self, net1):
        assert enabled_bindings(net1, marking_of(net1, p=[1]), "t") == [{"n": tok(1)}]

    def test_empty_place(self, net1):
        assert enabled_bindings(net1, marking_of(net1, p=[]), "t") == []

    def test_duplicates_collapse(self, net1):
        got = enabled_bindings(net1, marking_of(net1, p=[1, 1, 2]), "t")
        assert got == [{"n": tok(1)}, {"n": tok(2)}]
        assert got == brute_force_bindings(net1, marking_of(net1, p=[1, 1, 2]), "t")

    def test_unknown_transition(self, net1):
        with pytest.raises(UnknownTransition):
            enabled_bindings(net1, Marking(), "nope")

    def test_receive_requires_mailbox_entry(self, net1):
        parts = net1.parts()
        parts["transitions"] = [Transition("t", "R", "inc1", event=ReceiveEvent("ch", "n"))]
        parts["arcs"] = [OutputArc("t", "q", "out")]
        net = Net(**parts)
        assert enabled_bindings(net, marking_of(net, p=[1, 2, 3]), "t", ()) == []
        got = enabled_bindings(net, Marking(), "t", [("ch", tok(5)), ("ch", tok(4))])
        assert got == [{"n": tok(5)}]  # earliest entry, not least value

    def test_joint_selection_from_one_place(self):
        net = Net(
            "joint",
            colorsets=[TOK],
            places=[Place("p", TOK), Place("q", TOK)],
            transitions=[Transition("t", "R", "two")],
            procedures=[
                ProcedureDef(
                    "two",
                    (("a", TOK), ("b", TOK)),
                    (("o", TOK),),
                    (("o", Expr.var("a")),),
                )
            ],
            arcs=[InputArc("p", "t", "a"), InputArc("p", "t", "b"), OutputArc("t", "q", "o")],
        )
        # one token cannot feed both parameters
        assert enabled_bindings(net, marking_of(net, p=[1]), "t") == []
        got = enabled_bindings(net, marking_of(net, p=[1, 2]), "t")
        assert got == [{"a": tok(1), "b": tok(2)}, {"a": tok(2), "b": tok(1)}]


class TestFire:
    def test_basic(self, net1):
        m2, events = fire(net1, marking_of(net1, p=[1]), "t", {"n": tok(1)})
        assert m2 == marking_of(net1, q=[2])
        assert events == []

    def test_partial_consumption(self, net1):
        m2, _ = fire(net1, marking_of(net1, p=[1, 2]), "t", {"n": tok(2)})
        assert m2 == marking_of(net1, p=[1], q=[3])
        assert m2 == accounting_fire(net1, marking_of(net1, p=[1, 2]), "t", {"n": tok(2)})

    def test_not_enabled(self, net1):
        with pytest.raises(NotEnabled):
            fire(net1, marking_of(net1, p=[1]), "t", {"n": tok(9)})

    def test_send_event_from_decomposed_agent(self, org1):
        mam = decompose(org1, {"A": "agent1", "B": "agent2"})
        agent1 = mam.agents["agent1"].task
        m2, events = fire(agent1, agent1.initial_marking(), "tA", {"n": tok(1)})
        assert m2 == Marking()
        assert events == [SentMessage("mid", tok(1))]


class TestStep:
    def test_fires_only_choice(self, net1):
        result = step(net1, marking_of(net1, p=[1]))
        assert isinstance(result, StepFired)
        assert result.transition == "t"
        assert result.binding == {"n": tok(1)}
        assert result.marking == marking_of(net1, q=[2])

    def test_quiescent(self, net1):
        assert isinstance(step(net1, Marking()), StepQuiescent)

    def test_canonical_transition_order(self):
        net = Net(
            "race",
            colorsets=[TOK],
            places=[Place("p", TOK), Place("q", TOK)],
            transitions=[Transition("b", "R", "f"), Transition("a", "R", "f")],
            procedures=[
                ProcedureDef("f", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),))
            ],
            arcs=[
                InputArc("p", "a", "n"),
                OutputArc("a", "q", "o"),
                InputArc("p", "b", "n"),
                OutputArc("b", "q", "o"),
            ],
        )
        result = step(net, marking_of(net, p=[1]))
        assert result.transition == "a"


class TestRunToQuiescence:
    def test_single_firing(self, net1):
        result = run_to_quiescence(net1, marking_of(net1, p=[1]), max_steps=10)
        assert result.marking == marking_of(net1, q=[2])
        assert len(result.firings) == 1 and not result.exhausted

    def test_two_tokens(self, net1):
        result = run_to_quiescence(net1, marking_of(net1, p=[1, 2]), max_steps=10)
        assert result.marking == marking_of(net1, q=[2, 3])
        assert len(result.firings) == 2

    def test_self_loop_budget(self):
        net = Net(
            "loop",
            colorsets=[TOK],
            places=[Place("p", TOK, Multiset([tok(1)]))],
            transitions=[Transition("t", "R", "inc1")],
            procedures=[
                ProcedureDef(
                    "inc1", (("n", TOK),), (("out", TOK),), (("out", Expr.call("inc", Expr.var("n"))),)
                )
            ],
            arcs=[InputArc("p", "t", "n"), OutputArc("t", "p", "out")],
        )
        result = run_to_quiescence(net, net.initial_marking(), max_steps=5)
        assert result.exhausted
        assert len(result.firings) == 5
        assert result.marking == marking_of(net, p=[6])

    def test_trace_is_deterministic(self, net1):
        a = run_to_quiescence(net1, marking_of(net1, p=[3, 1, 2]), max_steps=10)
        b = run_to_quiescence(net1, marking_of(net1, p=[3, 1, 2]), max_steps=10)
        assert [f.render() for f in a.firings] == [f.render() for f in b.firings]

    def test_a_clean_net_builds_each_plan_once(self, monkeypatch, net1):
        """The checked functions lend the plans `transition_plans` keeps, so a
        whole run builds one plan per transition, not one per step."""
        built = Counter()
        real = cpn_mod.TransitionPlan.__init__

        def counting(plan, net, tid):
            built[net.id, tid] += 1
            real(plan, net, tid)

        monkeypatch.setattr(cpn_mod.TransitionPlan, "__init__", counting)
        loop = build_loop_net()
        result = run_to_quiescence(loop, marking_of(loop, p=[0]), max_steps=2000)
        assert result.exhausted and len(result.firings) == 2000
        assert result.marking == marking_of(loop, p=[2000])
        marking = net1.initial_marking()
        for _ in range(3):
            first_binding(net1, marking, "t")
            assert enabled_bindings(net1, marking, "t") == [{"n": tok(1)}]
        assert step(net1, marking).marking == marking_of(net1, q=[2])
        assert fire(net1, marking, "t", {"n": tok(1)})[0] == marking_of(net1, q=[2])
        assert built == {("loop", "t"): 1, ("net1", "t"): 1}


def assert_lazy_paths_match_oracle(net, marking, tid, mailbox=()):
    expected = brute_force_bindings(net, marking, tid, mailbox)
    assert enabled_bindings(net, marking, tid, mailbox) == expected
    assert list(iter_bindings(net, marking, tid, mailbox)) == expected
    assert first_binding(net, marking, tid, mailbox) == (expected[0] if expected else None)


class TestOracleEquivalence:
    def test_bounded_family(self):
        rng = random.Random(801)
        for _ in range(150):
            net, marking, mailbox = gen_bounded_net(rng)
            for tid in sorted(net.transitions):
                assert_lazy_paths_match_oracle(net, marking, tid, mailbox)

    @pytest.mark.parametrize("guarded", [False, True])
    @pytest.mark.parametrize("receive", [False, True])
    def test_join_on_one_place(self, guarded, receive):
        net = build_join_net(guarded, receive)
        rng = random.Random(803)
        pool = [flagged(n, f) for n in (1, 2, 3, 10) for f in ("false", "true")]
        mailboxes = [(), [("ch", tok(7)), ("ch", tok(5))], [("other", tok(1))]]
        distinct_counts = set()
        for _ in range(80):
            tokens = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            distinct_counts.add(len(set(tokens)))
            marking = Marking({"p": Multiset(tokens)})
            for mailbox in mailboxes:
                assert_lazy_paths_match_oracle(net, marking, "t", mailbox)
        assert max(distinct_counts) >= 3

    def test_token_conservation(self):
        rng = random.Random(802)
        checked = 0
        for _ in range(120):
            net, marking, mailbox = gen_bounded_net(rng)
            for tid in sorted(net.transitions):
                for binding in enabled_bindings(net, marking, tid, mailbox)[:3]:
                    got, _ = fire(net, marking, tid, binding)
                    assert got == accounting_fire(net, marking, tid, binding)
                    checked += 1
        assert checked > 50


FLAG = ColorSet("Flag", "enum", members=("false", "true"))


def build_guarded_net():
    """Tokens carry their own go/no-go flag; the guard reads it."""
    net = Net(
        "guarded",
        colorsets=[FLAG],
        places=[Place("p", FLAG), Place("q", FLAG)],
        transitions=[Transition("t", "R", "f", guard=Expr.var("b"))],
        procedures=[
            ProcedureDef("f", (("b", FLAG),), (("o", FLAG),), (("o", Expr.var("b")),))
        ],
        arcs=[InputArc("p", "t", "b"), OutputArc("t", "q", "o")],
    )
    return net


PAIR = ColorSet("Pair", "product", components=(TOK, FLAG))


def flagged(n, flag):
    return Value(PAIR, (tok(n), Value(FLAG, flag)))


def build_join_net(guarded, receive):
    """Two input arcs on one place; the guard reads the flag of the first token."""
    inputs = (("a", PAIR), ("b", PAIR)) + ((("m", TOK),) if receive else ())
    net = Net(
        "join",
        colorsets=[TOK, FLAG, PAIR],
        places=[Place("p", PAIR), Place("q", PAIR)],
        transitions=[
            Transition(
                "t",
                "R",
                "f",
                guard=Expr.call("second", Expr.var("a")) if guarded else None,
                event=ReceiveEvent("ch", "m") if receive else None,
            )
        ],
        procedures=[ProcedureDef("f", inputs, (("o", PAIR),), (("o", Expr.var("b")),))],
        arcs=[InputArc("p", "t", "b"), InputArc("p", "t", "a"), OutputArc("t", "q", "o")],
    )
    assert type_check_net(net).empty
    return net


class TestGuards:
    def test_guard_filters_bindings(self):
        net = build_guarded_net()
        marking = Marking(
            {"p": Multiset([Value(FLAG, "true"), Value(FLAG, "false")])}
        )
        got = enabled_bindings(net, marking, "t")
        assert got == [{"b": Value(FLAG, "true")}]
        assert got == brute_force_bindings(net, marking, "t")

    def test_guard_rejects_at_fire(self):
        net = build_guarded_net()
        marking = Marking({"p": Multiset([Value(FLAG, "false")])})
        with pytest.raises(NotEnabled):
            fire(net, marking, "t", {"b": Value(FLAG, "false")})

    def test_guard_type_checks(self):
        net = build_guarded_net()
        assert type_check_net(net).empty

    def test_non_boolean_guard_flagged(self, net1):
        parts = net1.parts()
        parts["transitions"] = [Transition("t", "R", "inc1", guard=Expr.var("n"))]
        report = type_check_net(Net(**parts))
        assert any("enum containing member 'true'" in v.message for v in report.entries)


TOK_REPR = "ColorSet(name='Tok', kind='int', members=(), components=())"
# each model record with the repr, fields and defaults it had as a frozen dataclass
MODEL_RECORDS = [
    (Place("p", TOK), f"Place(id='p', colorset={TOK_REPR}, initial={{}})"),
    (Place("p", TOK, Multiset([tok(2), tok(1)])), f"Place(id='p', colorset={TOK_REPR}, initial={{1, 2}})"),
    (Variable("v", TOK), f"Variable(name='v', colorset={TOK_REPR})"),
    (Expr.lit(tok(3)), "Expr(kind='lit', name='', value=Value(Tok:3), args=())"),
    (
        Expr.call("inc", Expr.var("n")),
        "Expr(kind='call', name='inc', value=None, args=(Expr(kind='var', name='n', value=None, args=()),))",
    ),
    (Transition("t", "R", "p"), "Transition(id='t', role='R', procedure='p', guard=None, event=None)"),
    (
        Transition("t", "R", "p", Expr.var("g"), ReceiveEvent("ch", "n")),
        "Transition(id='t', role='R', procedure='p', guard=Expr(kind='var', name='g', value=None, args=()),"
        " event=ReceiveEvent(channel='ch', var='n'))",
    ),
    (InputArc("p", "t", "n"), "InputArc(place='p', transition='t', label='n')"),
    (OutputArc("p", "t", "n"), "OutputArc(transition='p', place='t', label='n')"),
    (SendEvent("ch", Expr.var("o")), "SendEvent(channel='ch', message=Expr(kind='var', name='o', value=None, args=()))"),
    (ReceiveEvent("ch", "n"), "ReceiveEvent(channel='ch', var='n')"),
    (Channel("mid", TOK, "a1", "a2"), f"Channel(id='mid', colorset={TOK_REPR}, producer='a1', consumer='a2', initial=())"),
    (
        Channel("mid", TOK, "a1", "a2", (tok(1),)),
        f"Channel(id='mid', colorset={TOK_REPR}, producer='a1', consumer='a2', initial=(Value(Tok:1),))",
    ),
    (Role("A"), "Role(id='A', description='')"),
    (CommLink("A", "B"), "CommLink(source='A', target='B')"),
]
RECORD_FIELDS = {
    Place: (("id", "colorset", "initial"), {"initial": Multiset()}),
    Variable: (("name", "colorset"), {}),
    Expr: (("kind", "name", "value", "args"), {"name": "", "value": None, "args": ()}),
    Transition: (("id", "role", "procedure", "guard", "event"), {"guard": None, "event": None}),
    InputArc: (("place", "transition", "label"), {}),
    OutputArc: (("transition", "place", "label"), {}),
    SendEvent: (("channel", "message"), {}),
    ReceiveEvent: (("channel", "var"), {}),
    Channel: (("id", "colorset", "producer", "consumer", "initial"), {"initial": ()}),
    Role: (("id", "description"), {"description": ""}),
    CommLink: (("source", "target"), {}),
}


@pytest.mark.parametrize("record, text", MODEL_RECORDS, ids=[f"{type(r).__name__}-{i}" for i, (r, _) in enumerate(MODEL_RECORDS)])
def test_model_records_keep_fields_repr_hash_and_immutability(record, text):
    cls = type(record)
    fields, defaults = RECORD_FIELDS[cls]
    assert cls._fields == fields and cls._field_defaults == defaults
    assert repr(record) == text
    items = tuple(getattr(record, name) for name in fields)
    assert tuple(record) == items
    # the frozen dataclass hashed its field tuple: set and dict orders stay
    assert hash(record) == hash(items)
    twin = cls(*items)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    # equal only to a record of its own type, never to a plain tuple or another record type
    assert record != items and not record == items and items != record
    for other in RECORD_FIELDS:
        if other is not cls and len(RECORD_FIELDS[other][0]) == len(items):
            assert record != other(*items) and other(*items) != record
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(back) is cls and back == record and hash(back) == hash(record) and repr(back) == text
    changed = record._replace(**{fields[-1]: None})
    assert type(changed) is cls and changed[:-1] == items[:-1] and changed[-1] is None
    assert record == twin  # `_replace` leaves the record as it was


def test_duplicate_ids_rejected_at_construction():
    from roleflow import InvalidModel

    with pytest.raises(InvalidModel):
        Net("dup", colorsets=[TOK], places=[Place("p", TOK), Place("p", TOK)])


def test_net_closes_its_color_table():
    flag = ColorSet("Flag", "enum", members=("false", "true"))
    pair = ColorSet("Pair", "product", components=(TOK, flag))
    proc = ProcedureDef("same", (("x", pair),), (("y", pair),), (("y", Expr.var("x")),))
    net = Net("open", variables=[Variable("f", flag)], places=[Place("p", pair)], procedures=[proc])
    assert net.colorsets == {"Flag": flag, "Pair": pair, "Tok": TOK}
    assert Net("same", colorsets=[TOK, pair, TOK], places=[Place("p", pair)]).colorsets == net.colorsets
    with pytest.raises(InvalidModel, match="two colors named 'Tok'"):
        Net("clash", colorsets=[TOK], places=[Place("p", ColorSet("Tok", "text"))])
    with pytest.raises(InvalidModel, match="two colors named 'Tok'"):
        Net("clash", colorsets=[ColorSet("Tok", "text")], procedures=[proc])


def net1_with(**parts):
    changed = build_net1().parts()
    changed.update(parts)
    return Net(**changed)


def fired_into(pid):
    """What the five checked functions give for net1 firing its token 1 into `pid`."""
    binding, after = {"n": tok(1)}, Marking({pid: Multiset([tok(2)])})
    firing = Firing("t", (("n", tok(1)),), ())
    return ([binding], binding, (after, []), StepFired("t", binding, after, ()), RunResult(after, (firing,), False))


TXT = ColorSet("Txt", "text")
INC1 = partial(ProcedureDef, "inc1", (("n", TOK),), (("out", TOK),))
# One net per type-check code: (id, parts that replace net1's, the code the net
# violates, and the outcomes of enabled_bindings, first_binding, fire, step and
# run_to_quiescence, or the one error class all five raise).
ILL_TYPED = [
    ("role-less", dict(transitions=[Transition("t", "", "inc1")]), "role", fired_into("q")),
    ("initial-marking", dict(places=[Place("p", TOK, Multiset([Value(TXT, "a")])), Place("q", TOK)]), "initial-marking", TypeMismatch),
    ("guard-int", dict(transitions=[Transition("t", "R", "inc1", guard=Expr.var("n"))]), "guard", TypeMismatch),
    ("guard-unbound", dict(transitions=[Transition("t", "R", "inc1", guard=Expr.var("zz"))]), "guard", UnboundVariable),
    ("output-ill-typed", dict(procedures=[INC1((("out", Expr.lit(Value(TXT, "x"))),))]), "procedure", ProcedureFailure),
    ("output-missing", dict(procedures=[INC1(())]), "procedure", ProcedureFailure),
    ("send-unknown-name", dict(transitions=[Transition("t", "R", "inc1", event=SendEvent("ch", Expr.var("zz")))]), "event", UnboundVariable),
    ("missing-input-arc", dict(arcs=[OutputArc("t", "q", "out")]), "missing-arc", InvalidModel),
    ("extra-input-label", dict(arcs=[*build_net1().arcs, InputArc("q", "t", "k")]), "arc-label", InvalidModel),
    ("extra-output-label", dict(arcs=[InputArc("p", "t", "n"), OutputArc("t", "q", "k")]), "arc-label", InvalidModel),
    ("arc-color", dict(colorsets=[TOK, TXT], places=[Place("p", TXT, Multiset([Value(TXT, "a")])), Place("q", TOK)]), "arc-color", TypeMismatch),
    ("unknown-procedure", dict(transitions=[Transition("t", "R", "nosuch")]), "transition", InvalidModel),
    ("unknown-output-place", dict(arcs=[InputArc("p", "t", "n"), OutputArc("t", "zz", "out")]), "arc", fired_into("zz")),
]


@pytest.mark.parametrize("parts,code,outcomes", [row[1:] for row in ILL_TYPED], ids=[row[0] for row in ILL_TYPED])
def test_checked_functions_on_ill_typed_nets(parts, code, outcomes):
    """The checked functions give a result or a typed error on any net, never a bare exception."""
    net = net1_with(**parts)
    assert code in {v.code for v in type_check_net(net).entries}
    marking = net.initial_marking()
    binding = {"n": marking.get("p").values()[0]}
    calls = [
        lambda: enabled_bindings(net, marking, "t"),
        lambda: first_binding(net, marking, "t"),
        lambda: fire(net, marking, "t", binding),
        lambda: step(net, marking),
        lambda: run_to_quiescence(net, marking),
    ]
    got = []
    for call in calls:
        try:
            got.append(call())
        except RoleflowError as exc:
            got.append(type(exc))
    assert tuple(got) == (outcomes if isinstance(outcomes, tuple) else (outcomes,) * len(calls))


# Nets with two faults, and nets whose report and checked functions part ways:
# (id, parts that replace net1's).
BIT = ColorSet("Bit", "enum", members=("zero", "one"))
ILL_TYPED_TWICE = [
    ("feed+guard", dict(arcs=[OutputArc("t", "q", "out")], transitions=[Transition("t", "R", "inc1", guard=Expr.var("n"))])),
    ("guard+send", dict(transitions=[Transition("t", "R", "inc1", guard=Expr.var("n"), event=SendEvent("ch", Expr.var("zz")))])),
    ("route+procedure", dict(arcs=[InputArc("p", "t", "n"), OutputArc("t", "q", "k")], procedures=[INC1((("out", Expr.lit(Value(TXT, "x"))),))])),
    ("guard+procedure", dict(transitions=[Transition("t", "R", "inc1", guard=Expr.var("n"))], procedures=[INC1(())])),
    ("procedure+send", dict(transitions=[Transition("t", "R", "inc1", event=SendEvent("ch", Expr.var("zz")))], procedures=[INC1(())])),
    ("unknown-procedure+feed", dict(transitions=[Transition("t", "R", "nosuch")], arcs=[OutputArc("t", "q", "out")])),
    ("receive+feed", dict(transitions=[Transition("t", "R", "inc1", event=ReceiveEvent("ch", "n"))])),
    ("sent-and-routed", dict(transitions=[Transition("t", "R", "inc1", event=SendEvent("ch", Expr.var("out")))])),
    ("guard-without-true", dict(colorsets=[TOK, BIT], transitions=[Transition("t", "R", "inc1", guard=Expr.lit(Value(BIT, "one")))])),
]


def outcome_nets():
    """The hand-made nets of the type-check golden."""
    return [(name, net1_with(**parts)) for name, parts, *_ in ILL_TYPED + ILL_TYPED_TWICE]


def test_type_check_outcomes_match_the_golden():
    """Each net's report and each checked function's outcome are pinned, so
    the wording `roleflow validate` prints and which error a transition
    with several faults raises stay as they are.

    Regenerate with
    `cd tests && PYTHONPATH=../src python -c "import helpers, test_cpn; print('\\n'.join(helpers.type_check_outcome_lines(test_cpn.outcome_nets())))" > golden/type_check_outcomes.tsv`
    only when a report entry or an error changes on purpose.
    """
    golden = (GOLDEN / "type_check_outcomes.tsv").read_text(encoding="utf-8").splitlines()
    got = type_check_outcome_lines(outcome_nets())
    assert len(got) == len(golden)
    changed = [(want, line) for want, line in zip(golden, got) if want != line]
    assert not changed, changed[:5]


def build_receive_net():
    flag_place = Place("g", FLAG)
    net = Net(
        "recv",
        colorsets=[TOK, FLAG],
        places=[Place("q", TOK)],
        transitions=[Transition("t", "R", "f", event=ReceiveEvent("ch", "m"))],
        procedures=[
            ProcedureDef("f", (("m", TOK),), (("o", TOK),), (("o", Expr.var("m")),))
        ],
        arcs=[OutputArc("t", "q", "o")],
    )
    return net


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=9), max_size=5))
def test_receive_disabled_without_message_regardless_of_marking(values):
    net = build_receive_net()
    marking = Marking({"q": Multiset([tok(v) for v in values])})
    assert enabled_bindings(net, marking, "t", ()) == []
    assert enabled_bindings(net, marking, "t", [("other", tok(1))]) == []


class TestMultisetCaches:
    def test_distinct_follows_plus_minus_chains(self):
        rng = random.Random(804)
        for _ in range(60):
            expected = {}
            ms = Multiset()
            for _ in range(rng.randint(1, 25)):
                present = [v for v, n in expected.items() if n]
                if present and rng.random() < 0.45:
                    gone = rng.sample(present, rng.randint(1, min(2, len(present))))
                    ms = ms.minus(gone)
                    for v in gone:
                        expected[v] -= 1
                else:
                    added = [tok(rng.randint(-5, 12)) for _ in range(rng.randint(1, 3))]
                    ms = ms.plus(added)
                    for v in added:
                        expected[v] = expected.get(v, 0) + 1
                if rng.random() < 0.5:  # sort now, so later steps hand the order on
                    ms.distinct()
                live = sorted((v for v, n in expected.items() if n), key=Value.sort_key)
                assert ms.distinct() == live
                assert ms.items() == [(v, expected[v]) for v in live]

    def test_plus_rejects_mixed_colors(self):
        with pytest.raises(TypeMismatch):
            Multiset([tok(1)]).plus([Value(FLAG, "true")])
        with pytest.raises(TypeMismatch):
            Multiset().plus([tok(1), Value(FLAG, "true")])
        ms = Multiset([tok(1), tok(2)])
        ms.distinct()
        with pytest.raises(TypeMismatch):
            ms.plus([tok(3), flagged(1, "true")])

    def test_versions_match_a_counter_model(self):
        """Random plus/minus chains against a Counter: every earlier version
        still reads as it did, and a held `distinct()` list never changes."""
        rng = random.Random(805)
        for _ in range(40):
            model = Counter()
            ms = Multiset()
            versions = []  # (multiset, its Counter, its distinct() list, a copy of that list)
            for _ in range(rng.randint(1, 40)):
                present = list(model.elements())
                if present and rng.random() < 0.45:
                    gone = rng.sample(present, rng.randint(1, min(3, len(present))))
                    if rng.random() < 0.5:  # equal values, but not the objects the multiset holds
                        gone = [tok(v.payload) for v in gone]
                    ms = ms.minus(gone)
                    model.subtract(gone)
                    model = +model
                else:
                    added = [tok(rng.randint(-5, 30)) for _ in range(rng.randint(1, 4))]
                    ms = ms.plus(added)
                    model.update(added)
                held = ms.distinct() if rng.random() < 0.6 else None
                versions.append((ms, Counter(model), held, None if held is None else list(held)))
                for old, counts, held, snapshot in versions:
                    live = sorted(counts, key=Value.sort_key)
                    assert old.distinct() == live
                    assert old.items() == [(v, counts[v]) for v in live]
                    assert held is None or (held == snapshot and old.distinct() is held)
                    twin = Multiset.from_counts(counts)
                    assert old == twin and hash(old) == hash(twin)
                    assert old.total() == sum(counts.values())

    def test_cached_value_hash_matches_a_fresh_equal_value(self):
        v = flagged(4, "true")
        first = hash(v)
        assert hash(v) == first
        fresh = flagged(4, "true")
        assert fresh == v and hash(fresh) == first
        assert v.sort_key() == fresh.sort_key() == ("(4,true)", "Pair")


class TestMarkingUpdates:
    def test_with_updates_matches_its_old_definition(self):
        """Random markings and changes, among them places that empty and
        places that are new: `with_updates` gives the marking that
        `Marking({**m._places, **changes})` gives, in the same place order,
        with the same hash and no empty multiset, and leaves `m` as it was."""
        rng = random.Random(806)
        ids = [f"p{i}" for i in range(8)]

        def multiset():
            return Multiset([tok(rng.randint(-3, 6)) for _ in range(rng.randint(0, 3))])

        seen = Counter()
        for _ in range(400):
            marking = Marking({pid: multiset() for pid in rng.sample(ids, rng.randint(0, 6))})
            before = dict(marking._places)
            changes = {pid: multiset() for pid in rng.sample(ids, rng.randint(0, 8))}
            got = marking.with_updates(changes)
            want = Marking({**marking._places, **changes})
            assert got == want and hash(got) == hash(want)
            assert got.place_ids() == want.place_ids()
            assert list(got._places) == list(want._places)
            assert not any(ms.is_empty for ms in got._places.values())
            assert marking._places == before
            for pid, ms in changes.items():
                if pid in before:
                    seen["emptied" if ms.is_empty else "changed"] += 1
                elif not ms.is_empty:
                    seen["new"] += 1
        assert min(seen["emptied"], seen["new"], seen["changed"]) > 100


class TestColorSetHash:
    @staticmethod
    def chain(depth):
        """`depth` nested products, each of two references to the one below."""
        cs = TOK
        for i in range(depth):
            cs = ColorSet(f"D{i}", "product", components=(cs, cs))
        return cs

    def test_shared_chain_hashes_at_once(self):
        with deadline(2):
            assert hash(self.chain(32)) == hash(self.chain(32))
        assert hash(self.chain(3)) != hash(self.chain(4))

    def test_shared_chains_built_apart_are_one_object(self):
        with deadline(2):
            a, b = self.chain(32), self.chain(32)
            assert a is b and a == b and not a != b

    def test_identity_is_structural_equality(self):
        # one name for all, so that equal structures come up often among the seeds
        colors = [gen_colorset(random.Random(seed), "C") for seed in range(60)]
        outcomes = Counter()
        for a, b in itertools.combinations(colors, 2):
            assert (a is b) == (a == b) == naive_color_equal(a, b)
            outcomes[a is b] += 1
        assert outcomes[True] and outcomes[False]
        for cs in colors:
            assert pickle.loads(pickle.dumps(cs)) is cs
            assert copy.copy(cs) is cs and copy.deepcopy(cs) is cs
            assert hash(cs) == hash((cs.name, cs.kind, cs.members, cs.components))

    def test_pickle_drops_the_cached_hash(self):
        cs = self.chain(2)
        back = pickle.loads(pickle.dumps(cs))
        assert back is cs and hash(back) == hash(cs) and back.depth == 2


# ---------------------------------------------------------------------------
# transition plans, the runtime's compiled path, against the oracles


def assert_plans_match_oracle(net, marking, mailbox=()):
    """Each plan's first binding is the oracle's first, and firing it gives
    `accounting_fire`'s marking and the oracle's events. Returns how many fired."""
    fired = 0
    for tid, plan in transition_plans(net).items():
        expected = brute_force_bindings(net, marking, tid, mailbox)
        binding = plan.first_binding(marking, mailbox)
        assert binding == (expected[0] if expected else None), tid
        if binding is not None:
            want = (accounting_fire(net, marking, tid, binding), accounting_events(net, tid, binding))
            assert plan.fire(marking, binding) == want, tid
            assert fire(net, marking, tid, binding) == want, tid
            fired += 1
    return fired


def build_send_net():
    """A guarded transition with a receive, then a join on one place that sends a computed result."""
    sent = Expr.call("addK", Expr.call("first", Expr.var("b")), Expr.lit(tok(10)))
    procedures = [
        ProcedureDef("f", (("a", PAIR), ("m", TOK)), (("o", PAIR),), (("o", Expr.var("a")),)),
        ProcedureDef("g", (("a", PAIR), ("b", PAIR)), (("s", TOK),), (("s", sent),)),
    ]
    net = Net(
        "send",
        colorsets=[TOK, FLAG, PAIR],
        places=[Place("p", PAIR), Place("q", PAIR)],
        transitions=[
            Transition("t", "R", "f", guard=Expr.call("second", Expr.var("a")), event=ReceiveEvent("ch", "m")),
            Transition("u", "R", "g", event=SendEvent("out", Expr.var("s"))),
        ],
        procedures=procedures,
        arcs=[InputArc("p", "t", "a"), OutputArc("t", "q", "o"), InputArc("q", "u", "a"), InputArc("q", "u", "b")],
    )
    assert type_check_net(net).empty
    return net


class TestTransitionPlans:
    def test_bounded_family(self):
        rng = random.Random(811)
        fired = 0
        for _ in range(150):
            net, marking, mailbox = gen_bounded_net(rng)
            fired += assert_plans_match_oracle(net, marking, mailbox)
        assert fired > 50

    @pytest.mark.parametrize(
        "net_of",
        [build_guarded_net, build_send_net] + [partial(build_join_net, g, r) for g in (False, True) for r in (False, True)],
        ids=["guarded", "send", "join", "join-receive", "join-guarded", "join-guarded-receive"],
    )
    def test_hand_made_nets_along_their_runs(self, net_of):
        """Guards, two input arcs on one place, a receive and a send, fired until quiescent."""
        net = net_of()
        rng = random.Random(812)
        flags = [Value(FLAG, f) for f in ("false", "true")]
        fired = 0
        for _ in range(40):
            color = net.places["p"].colorset
            pool = flags if color == FLAG else [flagged(n, f.payload) for n in (1, 2, 10) for f in flags]
            marking = Marking({"p": Multiset([rng.choice(pool) for _ in range(rng.randint(0, 5))])})
            mailbox = [("ch", tok(rng.randint(0, 3))) for _ in range(rng.randint(0, 3))]
            while True:
                fired += assert_plans_match_oracle(net, marking, mailbox)
                result = step(net, marking, mailbox)
                if isinstance(result, StepQuiescent):
                    break
                marking = result.marking
                if any(isinstance(ev, ReceivedMessage) for ev in result.events):
                    mailbox.pop(0)
        assert fired >= 10

    def test_decomposed_agents_along_their_runs(self):
        """Every agent of every system, at every state a deterministic run reaches."""
        rng = random.Random(813)
        dev = parse_model((MODELS / "devsociety.org").read_text()).model
        cases = [(dev, parse_scenario((MODELS / "devsociety.scn").read_text()).assignment)]
        while len(cases) < 30:
            org = gen_org(rng, f"tp{len(cases)}")
            cases.append((org, rng.choice(list(all_assignments(org.roles)))))
        fired = 0
        for org, assignment in cases:
            system = synthesize(decompose(org, assignment))
            for _ in range(200):
                for aid in system.agent_ids:
                    state = system.states[aid]
                    fired += assert_plans_match_oracle(system.task(aid), state.marking, tuple(state._mailbox))
                if isinstance(go(system, Scenario()), QuiescentPass):
                    break
        assert fired > 100

    @pytest.mark.parametrize(
        "net_of, tokens, mailbox, name",
        [
            (build_guarded_net, [tok(1)], [], "b"),  # a guard: the search with a filter
            (partial(build_join_net, False, False), [tok(1), tok(2)], [], "a"),  # one place twice
            (partial(build_join_net, False, True), [flagged(1, "true")] * 2, [("ch", Value(FLAG, "true"))], "m"),
            (build_send_net, [flagged(1, "true")], [("ch", flagged(2, "true"))], "m"),
        ],
        ids=["guarded", "join", "join-receive", "send"],
    )
    def test_mis_colored_values_raise_before_any_closure(self, net_of, tokens, mailbox, name):
        """A marking or mailbox from outside the net may hold a value of the wrong color."""
        net = net_of()
        with pytest.raises(TypeMismatch, match=f"transition t: variable '{name}' has color"):
            transition_plans(net)["t"].first_binding(Marking({"p": Multiset(tokens)}), mailbox)

    def test_only_a_clean_net_gets_plans(self, net1):
        parts = net1.parts()
        parts["transitions"] = [Transition("t", "", "inc1")]
        unchecked = Net(**parts)
        assert not type_check_net(unchecked).empty
        with pytest.raises(InvalidModel, match="fails its type check"):
            transition_plans(unchecked)
        # the public functions stay checked and keep working on it
        assert fire(unchecked, marking_of(unchecked, p=[1]), "t", {"n": tok(1)})[0] == marking_of(unchecked, q=[2])
        assert transition_plans(net1) is transition_plans(net1)

    def test_plans_recheck_nothing_the_report_proved(self, monkeypatch):
        """Plans built while the transition check raises match the oracles along
        their runs: on the agents of decomposed organizations, which inherit
        their reports, and on nets right after `type_check_net`."""
        rng = random.Random(818)
        systems = []
        for i in range(12):
            org = gen_org(rng, f"rc{i}")
            systems.append(synthesize(decompose(org, rng.choice(list(all_assignments(org.roles))))))
        runs = [gen_bounded_net(rng) for _ in range(40)]
        runs.append((build_send_net(), Marking({"p": Multiset([flagged(1, "true"), flagged(2, "true")])}), [("ch", tok(1))] * 2))
        for net, _, _ in runs:
            assert type_check_net(net).empty

        def refuse(net, t):
            raise AssertionError(f"transition {t.id} of {net.id} checked again")

        with monkeypatch.context() as patch:
            patch.setattr(cpn_mod, "_transition_check", refuse)
            nets = [system.task(aid) for system in systems for aid in system.agent_ids] + [net for net, _, _ in runs]
            plans = [transition_plans(net) for net in nets]
            with pytest.raises(AssertionError, match="checked again"):
                type_check_net(cold_net(runs[0][0]))
        assert all(transition_plans(net) is built for net, built in zip(nets, plans))
        fired = 0
        for system in systems:
            for _ in range(100):
                for aid in system.agent_ids:
                    state = system.states[aid]
                    fired += assert_plans_match_oracle(system.task(aid), state.marking, tuple(state._mailbox))
                if isinstance(go(system, Scenario()), QuiescentPass):
                    break
        for net, marking, mailbox in runs:
            mailbox = list(mailbox)
            for _ in range(20):
                fired += assert_plans_match_oracle(net, marking, mailbox)
                result = step(net, marking, mailbox)
                if isinstance(result, StepQuiescent):
                    break
                marking = result.marking
                for ev in result.events:
                    if isinstance(ev, ReceivedMessage):
                        mailbox.remove((ev.channel, ev.value))
        assert fired > 100

    def test_pickled_net_builds_its_own_plans(self, net1):
        plans = transition_plans(net1)
        back = pickle.loads(pickle.dumps(net1))
        assert back == net1 and transition_plans(back) is not plans
        marking = marking_of(net1, p=[4])
        binding = transition_plans(back)["t"].first_binding(marking, ())
        assert transition_plans(back)["t"].fire(marking, binding) == plans["t"].fire(marking, binding)


class TestSharedProcedureCompile:
    """A procedure is compiled once and every net that holds it shares the compile."""

    # each ill-typed body, and what `fire` gives for it: the `ProcedureFailure`
    # text, or, when it fires, the names of its compiled outputs
    ILL_TYPED_BODIES = {
        "text-literal": (
            (("out", Expr.lit(Value(TXT, "x"))),),
            "procedure inc1, output out: literal of color Txt where Tok needed",
        ),
        "unbound": ((("out", Expr.call("inc", Expr.var("zz"))),), "procedure inc1, output out: unbound variable 'zz'"),
        "missing": ((), "procedure inc1, output out: 'out'"),
        "extra": ((("out", Expr.var("n")), ("spare", Expr.var("n"))), ("out",)),
    }

    @pytest.mark.parametrize("body", [body for body, _ in ILL_TYPED_BODIES.values()], ids=ILL_TYPED_BODIES.keys())
    def test_a_shared_ill_typed_procedure_is_in_both_reports(self, body):
        proc = INC1(body)
        first = net1_with(procedures=[proc])
        second = Net(**{**first.parts(), "id": "net2"})
        entries = [type_check_net(net).entries for net in (first, second)]
        compiled = proc._compiled
        assert entries[0] == entries[1] == type_check_net(cold_net(second)).entries
        assert [v for v in entries[0] if v.code == "procedure"] == list(compiled.violations) != []
        assert compiled_procedure(proc) is compiled

    @pytest.mark.parametrize("body, plan", ILL_TYPED_BODIES.values(), ids=ILL_TYPED_BODIES.keys())
    def test_a_plan_raises_the_same_failure_with_or_without_a_check_first(self, body, plan):
        for check_first in (False, True):
            net = net1_with(procedures=[INC1(body)])
            if check_first:
                type_check_net(net)
            try:
                fire(net, net.initial_marking(), "t", {"n": tok(1)})
                got = tuple(name for name, _ in compiled_procedure(net.procedures["inc1"]).outputs)
            except ProcedureFailure as exc:
                got = str(exc)
            assert got == plan

    def test_pickles_and_copies_drop_the_compile(self, net1):
        proc = net1.procedures["inc1"]
        transition_plans(net1)
        assert proc._compiled.outputs is transition_plans(net1)["t"].outputs
        for back in (pickle.loads(pickle.dumps(proc)), copy.deepcopy(proc), copy.copy(proc)):
            assert back == proc and hash(back) == hash(proc)
            assert getattr(back, "_compiled", None) is None
        net = pickle.loads(pickle.dumps(net1))
        assert net == net1 and getattr(net.procedures["inc1"], "_compiled", None) is None
        assert fire(net, net.initial_marking(), "t", {"n": tok(1)}) == fire(net1, net1.initial_marking(), "t", {"n": tok(1)})

    def test_plans_of_agents_sharing_procedures_match_the_oracle(self):
        """Decompositions of one organization hold its procedure objects, and
        each agent's plans run the organization's compile."""
        rng = random.Random(817)
        fired = shared = 0
        for i in range(12):
            org = gen_org(rng, f"sp{i}")
            holders = Counter()
            for assignment in all_assignments(org.roles):
                system = synthesize(decompose(org, assignment))
                for aid in system.agent_ids:
                    task = system.task(aid)
                    for tid, plan in transition_plans(task).items():
                        proc = task.procedures[task.transitions[tid].procedure]
                        assert proc is org.global_task.procedures[proc.name]
                        assert plan.outputs is compiled_procedure(proc).outputs
                        holders[proc.name] += 1
                for _ in range(50):
                    for aid in system.agent_ids:
                        state = system.states[aid]
                        fired += assert_plans_match_oracle(system.task(aid), state.marking, tuple(state._mailbox))
                    if isinstance(go(system, Scenario()), QuiescentPass):
                        break
            shared += any(n > 1 for n in holders.values())
        assert fired > 50 and shared > 5


BOOL = ColorSet("Bool", "enum", members=("false", "true"))
SPLIT = ProcedureDef(
    "split", (("n", TOK),), (("o", TOK), ("s", TOK)), (("o", Expr.call("inc", Expr.var("n"))), ("s", Expr.var("n")))
)


def split_parts(proc):
    """A clean net of three transitions over `proc`, each of its own shape:
    tS sends s, tR receives n, tG is guarded."""
    return dict(
        id="split",
        colorsets=[TOK, TXT, BOOL],
        places=[Place("a", TOK, Multiset([tok(1)])), Place("b", TOK), Place("c", TOK)],
        transitions=[
            Transition("tS", "A", proc.name, event=SendEvent("ch", Expr.var("s"))),
            Transition("tR", "B", proc.name, event=ReceiveEvent("ch", "n")),
            Transition("tG", "A", proc.name, guard=Expr.lit(Value(BOOL, "true"))),
        ],
        procedures=[proc],
        arcs=[
            InputArc("a", "tS", "n"), OutputArc("tS", "b", "o"),
            OutputArc("tR", "b", "o"), OutputArc("tR", "c", "s"),
            InputArc("a", "tG", "n"), OutputArc("tG", "b", "o"), OutputArc("tG", "c", "s"),
        ],
    )


def replaced(items, key, new):
    """`items` with the one whose id (or, for an arc, transition and label) is `key` replaced by `new`."""
    def ident(x):
        return (x.transition, x.label) if isinstance(x, (InputArc, OutputArc)) else x.id
    return [new if ident(x) == key else x for x in items]


# Each variant changes one thing the transition check reads, so one
# transition's shape is no longer the clean one's: (id, parts -> changed parts).
SHAPE_VARIANTS = [
    ("place-color", lambda p: {**p, "places": replaced(p["places"], "b", Place("b", TXT))}),
    ("arc-label", lambda p: {**p, "arcs": replaced(p["arcs"], ("tG", "n"), InputArc("a", "tG", "k"))}),
    ("missing-place", lambda p: {**p, "places": p["places"][:2]}),
    ("arc-direction", lambda p: {**p, "arcs": replaced(p["arcs"], ("tG", "o"), InputArc("b", "tG", "o"))}),
    ("receive-variable", lambda p: {**p, "transitions": replaced(
        p["transitions"], "tR", Transition("tR", "B", "split", event=ReceiveEvent("ch", "o")))}),
    ("send-message", lambda p: {**p, "transitions": replaced(
        p["transitions"], "tS", Transition("tS", "A", "split", event=SendEvent("ch", Expr.var("o"))))}),
    ("guard", lambda p: {**p, "transitions": replaced(
        p["transitions"], "tG", Transition("tG", "A", "split", guard=Expr.var("n")))}),
    ("empty-role", lambda p: {**p, "transitions": replaced(
        p["transitions"], "tG", Transition("tG", "", "split", guard=Expr.lit(Value(BOOL, "true"))))}),
]


def check_outcomes(net):
    """The net's report entries and, per transition, the error `_checked_plan` raises (or None)."""
    errors = []
    for tid in net.transition_ids:
        try:
            cpn_mod._checked_plan(net, tid)
            errors.append(None)
        except RoleflowError as exc:
            errors.append((type(exc), str(exc)))
    return type_check_net(net).entries, errors


class TestTransitionCheckMemo:
    """A procedure keeps the transition shapes that passed; what it keeps must
    never stand in for a check whose outcome differs."""

    @pytest.mark.parametrize("change", [change for _, change in SHAPE_VARIANTS], ids=[n for n, _ in SHAPE_VARIANTS])
    def test_a_changed_shape_is_checked_anew(self, change):
        proc = copy.copy(SPLIT)
        assert type_check_net(Net(**split_parts(proc))).empty
        assert len(compiled_procedure(proc).clean_shapes) == 3
        shared = check_outcomes(Net(**change(split_parts(proc))))
        fresh = check_outcomes(Net(**change(split_parts(copy.copy(proc)))))
        assert shared == fresh
        assert shared[0] != ()

    def test_ids_and_channels_are_not_in_the_shape(self):
        proc = copy.copy(SPLIT)
        parts = split_parts(proc)
        assert type_check_net(Net(**parts)).empty
        clean = compiled_procedure(proc).clean_shapes
        kept = set(clean)
        events = {"tS": SendEvent("other", Expr.var("s")), "tR": ReceiveEvent("other", "n"), "tG": None}
        renamed = {
            **parts,
            "transitions": [
                Transition(t.id + "x", t.role + "x", t.procedure, t.guard, events[t.id]) for t in parts["transitions"]
            ],
            "places": [Place(p.id + "x", p.colorset, p.initial) for p in parts["places"]],
            "arcs": [
                InputArc(a.place + "x", a.transition + "x", a.label) if isinstance(a, InputArc)
                else OutputArc(a.transition + "x", a.place + "x", a.label)
                for a in parts["arcs"]
            ],
        }
        assert type_check_net(Net(**renamed)).empty
        assert clean == kept

    def test_an_unclean_verdict_is_not_kept(self):
        proc = copy.copy(SPLIT)
        change = dict(SHAPE_VARIANTS)["guard"]  # tG's guard has color Tok
        for run in range(2):
            report = type_check_net(Net(**change(split_parts(proc))))
            assert [v.code for v in report.entries] == ["guard"]
        assert len(compiled_procedure(proc).clean_shapes) == 2


def test_keyed_tables_read_a_generator_once(org1):
    parts = {**org1.global_task.parts(), "variables": [Variable("v", TOK), Variable("w", TOK)]}
    whole = Net(**parts)
    for key, what in (("places", "place"), ("transitions", "transition"),
                      ("procedures", "procedure"), ("variables", "variable")):
        assert Net(**{**parts, key: (x for x in parts[key])}) == whole
        with pytest.raises(InvalidModel, match=f"duplicate {what} id in net"):
            Net(**{**parts, key: (x for x in parts[key] + parts[key][:1])})


def naive_arcs(net, tid, kind):
    """The arcs of `kind` on `tid`, stably sorted by label: duplicates stay, in net order."""
    return tuple(sorted([a for a in net.arcs if isinstance(a, kind) and a.transition == tid], key=lambda a: a.label))


def assert_grouping_matches_oracle(net):
    built = Net(**net.parts())
    assert built.transition_ids == tuple(sorted(t.id for t in net.parts()["transitions"]))
    for tid in (*built.transition_ids, "nosuch"):
        assert built.input_arcs(tid) == naive_arcs(built, tid, InputArc)
        assert built.output_arcs(tid) == naive_arcs(built, tid, OutputArc)
    initial = built.initial_marking()
    assert initial.place_ids() == sorted(p.id for p in built.places.values() if not p.initial.is_empty)
    assert all(initial.get(p.id) == p.initial for p in built.places.values())


def test_net_groups_arcs_like_the_oracle():
    rng = random.Random(2309)
    nets = []
    for name, scenario in (("org1", "org1_run"), ("devsociety", "devsociety")):
        org = parse_model((MODELS / f"{name}.org").read_text(encoding="utf-8")).model
        scn = parse_scenario((MODELS / f"{scenario}.scn").read_text(encoding="utf-8"))
        nets.append(org.global_task)
        nets += [agent.task for agent in decompose(org, scn.assignment).agents.values()]
    for i in range(30):
        nets.append(gen_org(rng, f"g{i}").global_task)
        net, _, _ = gen_bounded_net(rng)
        arcs = list(net.arcs)
        rng.shuffle(arcs)
        nets.append(Net(**{**net.parts(), "arcs": arcs}))
    # arcs written against label order, and a duplicated label (kept, in net order)
    two = ProcedureDef("two", (("a", TOK), ("b", TOK)), (("x", TOK), ("y", TOK)), (("x", Expr.var("a")), ("y", Expr.var("b"))))
    nets.append(Net(
        "odd", colorsets=[TOK], places=[Place("p", TOK, Multiset([tok(1)])), Place("q", TOK)],
        transitions=[Transition("rev", "R", "two"), Transition("dup", "R", "two")], procedures=[two],
        arcs=[OutputArc("rev", "q", "y"), InputArc("q", "rev", "b"), OutputArc("rev", "p", "x"), InputArc("p", "rev", "a"),
              InputArc("q", "dup", "a"), InputArc("p", "dup", "a"), OutputArc("dup", "q", "x"), OutputArc("dup", "p", "x")],
    ))
    for net in nets:
        assert_grouping_matches_oracle(net)
    odd = nets[-1]
    assert [a.label for a in odd.input_arcs("rev")] == ["a", "b"]
    assert [a.place for a in odd.input_arcs("dup")] == ["q", "p"]
    assert [a.place for a in odd.output_arcs("dup")] == ["q", "p"]


def build_loop_net():
    """One transition that takes a token from p and puts it back incremented."""
    net = Net(
        "loop",
        colorsets=[TOK],
        places=[Place("p", TOK)],
        transitions=[Transition("t", "R", "inc1")],
        procedures=[
            ProcedureDef("inc1", (("n", TOK),), (("o", TOK),), (("o", Expr.call("inc", Expr.var("n"))),))
        ],
        arcs=[InputArc("p", "t", "n"), OutputArc("t", "p", "o")],
    )
    assert type_check_net(net).empty
    return net


def python_calls(fn):
    """How many Python-level functions `fn()` calls, generator resumptions included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestOccurrenceCost:
    """A firing costs what it moves, whatever its places hold."""

    NETS = {
        # the head leaves p and a value p lacks enters it
        "loop": (build_loop_net, lambda n: [tok(2 * i) for i in range(n)]),
        # two tokens leave one place, the second not its head
        "join": (partial(build_join_net, False, False), lambda n: [flagged(i, "true") for i in range(n)]),
    }

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_plan_fire_matches_accounting_on_large_places(self, name):
        build, tokens = self.NETS[name]
        net = build()
        rng = random.Random(814)
        values = tokens(2000)
        marking = Marking({"p": Multiset(values + rng.sample(values, 300))})
        plan = transition_plans(net)["t"]
        for _ in range(25):
            binding = plan.first_binding(marking, ())
            want = accounting_fire(net, marking, "t", binding)
            got, events = plan.fire(marking, binding)
            assert got == want and events == []
            assert got.get("p").distinct() == sorted(want.get("p").distinct(), key=Value.sort_key)
            marking = got

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_python_calls_do_not_grow_with_the_place(self, name):
        build, tokens = self.NETS[name]
        net = build()
        counts = []
        for n in (20, 2000):
            marking = Marking({"p": Multiset(tokens(n))})
            plan = transition_plans(net)["t"]
            binding = plan.first_binding(marking, ())  # sorts the pool
            counts.append(python_calls(lambda: plan.fire(marking, binding)))
        assert counts[0] == counts[1]


def random_join_case(rng):
    """A transition with one to three input arcs on one or two places, maybe a
    guard, and pools of up to 500 tokens; the token combinations stay few
    enough for the oracle to enumerate."""
    while True:
        n_in = rng.randint(1, 3)
        names = [f"a{j}" for j in range(n_in)]
        arcs = [InputArc(rng.choice(["p", "q"]), "t", name) for name in names]
        sizes = {pid: rng.choice([0, 1, 3, 6, 40, 500, 500]) for pid in ("p", "q")}
        combos = 1
        for arc in arcs:
            combos *= sizes[arc.place]
        if combos <= 4000:
            break
    guard = Expr.call("second", Expr.var(rng.choice(names))) if rng.random() < 0.5 else None
    net = Net(
        "join",
        colorsets=[TOK, FLAG, PAIR],
        places=[Place("p", PAIR), Place("q", PAIR), Place("r", PAIR)],
        transitions=[Transition("t", "R", "f", guard=guard)],
        procedures=[ProcedureDef("f", tuple((n, PAIR) for n in names), (("o", PAIR),), (("o", Expr.var("a0")),))],
        arcs=arcs + [OutputArc("t", "r", "o")],
    )
    assert type_check_net(net).empty
    spread = rng.choice([2, 10, 1000])  # few distinct values, or mostly distinct ones
    flags = ["false", "true"] if rng.random() < 0.7 else ["false"]
    marking = Marking(
        {pid: Multiset([flagged(rng.randrange(spread), rng.choice(flags)) for _ in range(n)]) for pid, n in sizes.items()}
    )
    return net, marking


class TestBindingSearch:
    def test_guards_shared_places_and_large_pools_match_brute_force(self):
        rng = random.Random(815)
        shapes = Counter()
        for _ in range(50):
            net, marking = random_join_case(rng)
            expected = brute_force_bindings(net, marking, "t")
            assert enabled_bindings(net, marking, "t") == expected
            assert transition_plans(net)["t"].first_binding(marking, ()) == (expected[0] if expected else None)
            places = [arc.place for arc in net.input_arcs("t")]
            pools = [len(marking.get(pid)) for pid in places]
            shapes["shared"] += len(set(places)) < len(places)
            shapes["guarded"] += net.transitions["t"].guard is not None
            shapes["large"] += max(pools) == 500
            shapes["enabled"] += bool(expected)
        assert min(shapes.values()) >= 8, shapes
