import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roleflow import (
    ColorSet,
    Expr,
    InputArc,
    Marking,
    Multiset,
    Net,
    NotEnabled,
    OutputArc,
    Place,
    ProcedureDef,
    ReceiveEvent,
    SentMessage,
    StepFired,
    StepQuiescent,
    Transition,
    UnknownTransition,
    Value,
    decompose,
    TypeMismatch,
    enabled_bindings,
    fire,
    first_binding,
    iter_bindings,
    run_to_quiescence,
    step,
    type_check_net,
)

from conftest import TOK, tok
from helpers import accounting_fire, brute_force_bindings, gen_bounded_net


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


def test_duplicate_ids_rejected_at_construction():
    from roleflow import InvalidModel

    with pytest.raises(InvalidModel):
        Net("dup", colorsets=[TOK], places=[Place("p", TOK), Place("p", TOK)])


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

    def test_cached_value_hash_matches_a_fresh_equal_value(self):
        v = flagged(4, "true")
        first = hash(v)
        assert hash(v) == first
        fresh = flagged(4, "true")
        assert fresh == v and hash(fresh) == first
        assert v.sort_key() == fresh.sort_key() == ("(4,true)", "Pair")
