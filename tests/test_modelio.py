import copy
import dataclasses
import pickle
import random
import time
from collections import Counter

import pytest

from roleflow import (
    Expr,
    FormatError,
    ModelSyntaxError,
    Organization,
    ProcedureDef,
    ResolutionError,
    RoleflowError,
    Scenario,
    UnknownOp,
    VersionMismatch,
    canonical_net_text,
    decompose,
    diff_models,
    evolve,
    go,
    parse_model,
    parse_ops_text,
    parse_scenario,
    read_context,
    restore_marking,
    save_context,
    serialize_model,
    synthesize,
    validate_model,
    validate_organization,
    write_context,
)
from roleflow import modelio
from roleflow.adaptation import OP_KINDS, AdaptationRequest, a_p
from roleflow.runtime import TraceEntry
from roleflow.modelio import MAX_EXPR_DEPTH, render_trace
from roleflow.textscan import MAX_COLOR_DEPTH, Shape, TokenStream, parse_descriptor_text, tokenize

from conftest import GOLDEN, MODELS
from helpers import (
    LEXICAL_EDGES,
    all_assignments,
    codec_samples,
    deadline,
    expect_read,
    gen_org,
    model_texts,
    mutate_text,
    naive_tokenize,
    nested_inputs,
    parse_corpus,
    parse_outcome_lines,
    random_lexer_text,
    shared_product_chain,
)

ORG1_TEXT = (MODELS / "org1.org").read_text()
# the keyword before a declared name, and the kind `ModelDocument.locations` files it under
_DECLARING = {
    "role": "role",
    "colorset": "colorset",
    "var": "variable",
    "place": "place",
    "proc": "procedure",
    "trans": "transition",
}


class TestParseModel:
    def test_org1_fixture_parses_clean(self):
        doc = parse_model(ORG1_TEXT)
        assert validate_organization(doc.model).empty
        assert doc.model.id == "org1"
        assert sorted(doc.model.roles) == ["A", "B"]

    def test_locations_recorded(self):
        doc = parse_model(ORG1_TEXT)
        assert ("place", "in_") in doc.locations
        line, col = doc.locations[("place", "in_")]
        assert line > 1 and col == len("place ") + 1  # points at the declared name

    def test_locations_point_at_each_declared_name(self):
        org = gen_org(random.Random(5), "loc")
        texts = [(MODELS / "org1.org").read_text(), (MODELS / "devsociety.org").read_text(), serialize_model(org)]
        texts.append(serialize_model(decompose(org, {role: f"ag_{role}" for role in org.roles})))
        with_var = ORG1_TEXT.replace("colorset Tok = int\n", "colorset Tok = int\nvar v : Tok\n")
        texts += [with_var, serialize_model(decompose(parse_model(with_var).model, {"A": "agent1", "B": "agent2"}))]
        seen = {"Organization": set(), "MultiAgentModel": set()}
        for text in texts:
            doc = parse_model(text)
            # a .mas text records its channels and agents and every kind its agent sections declare
            kinds = dict(_DECLARING)
            if not isinstance(doc.model, Organization):
                del kinds["role"]
                kinds.update(channel="channel", agent="agent")
            tokens = naive_tokenize(text)
            expected = {}
            for kw, name in zip(tokens, tokens[1:]):
                if kw.kind == "ident" and kw.text in kinds and name.kind == "ident":
                    # where several agents declare one name, the first declaration is given
                    expected.setdefault((kinds[kw.text], name.text), (name.line, name.col))
            assert len(expected) > 2
            assert doc.locations == expected
            seen[type(doc.model).__name__].update(kind for kind, _ in expected)
        # between them the texts declare every kind, in both formats
        assert seen["Organization"] == set(_DECLARING.values())
        assert seen["MultiAgentModel"] == set(_DECLARING.values()) - {"role"} | {"channel", "agent"}

    def test_empty_input(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_comment_only_input(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("# nothing here\n")

    def test_unknown_comm_role(self):
        bad = ORG1_TEXT.replace("comm A -> B", "comm A -> C")
        with pytest.raises(ResolutionError) as err:
            parse_model(bad)
        assert err.value.name == "C"

    def test_unknown_colorset_reference(self):
        bad = ORG1_TEXT.replace("place in_ : Tok", "place in_ : Missing")
        with pytest.raises(ResolutionError):
            parse_model(bad)

    def test_unknown_procedure_reference(self):
        bad = ORG1_TEXT.replace("proc=inc1", "proc=ghost")
        with pytest.raises(ResolutionError) as err:
            parse_model(bad)
        assert err.value.name == "ghost"

    def test_matches_programmatic_org(self, org1):
        doc = parse_model(ORG1_TEXT)
        assert doc.model == org1

    def test_non_decimal_digit_is_a_syntax_error(self):
        # '²' is a digit to str.isdigit but not a decimal one, and int() rejects it
        bad = ORG1_TEXT.replace("init { 1 }", "init { ² }")
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(bad)
        assert str(err.value) == "8:24: expected a token (found '²')"

    def test_nesting_caps(self):
        at_cap = nested_inputs(ORG1_TEXT, MAX_EXPR_DEPTH, MAX_COLOR_DEPTH)
        past = nested_inputs(ORG1_TEXT, MAX_EXPR_DEPTH + 1, MAX_COLOR_DEPTH + 1)
        for kind in ("expression", "colorset chain"):
            assert validate_organization(parse_model(at_cap[kind]).model).empty
        parse_model(at_cap["channel descriptor"])
        read_context(at_cap["context descriptor"].encode())
        expr_line = next(i for i, ln in enumerate(ORG1_TEXT.split("\n"), 1) if "o = inc(n)" in ln)
        # the innermost `n`, one level past the cap, is the offending token
        expr_col = ORG1_TEXT.split("\n")[expr_line - 1].index("inc(n)") + 1 + len("inc(") * (MAX_EXPR_DEPTH + 1)
        chain_line = ORG1_TEXT.count("\n") + MAX_COLOR_DEPTH + 1
        nested = f"an expression with at most {MAX_EXPR_DEPTH} nested calls and tuples"
        colors = f"a color set with at most {MAX_COLOR_DEPTH} nested products"
        with pytest.raises(ModelSyntaxError, match=f"^{expr_line}:{expr_col}: expected {nested}$"):
            parse_model(past["expression"])
        with pytest.raises(ModelSyntaxError, match=f"^{chain_line}:10: expected {colors}$"):
            parse_model(past["colorset chain"])
        with pytest.raises(ModelSyntaxError, match=f"expected {colors}$"):
            parse_model(past["channel descriptor"])
        with pytest.raises(FormatError, match=f"expected {colors}$"):
            read_context(past["context descriptor"].encode())

    def test_shared_product_chain_at_the_depth_cap(self):
        # D{k-1} = product(D{k-2},D{k-2}) ... nests k products; each color is walked once
        k = MAX_COLOR_DEPTH
        text = shared_product_chain(ORG1_TEXT, k)
        with deadline(20):
            org = parse_model(text).model
            assert validate_organization(org).empty
            deep = org.global_task.colorsets[f"D{k - 1}"]
            assert deep.depth == k
            assert list(org.global_task.colorsets) == ["Tok"] + [f"D{i}" for i in range(k)]
            # aP rebuilds agent1's task and closes its color table over the new procedure
            mam = decompose(org, {"A": "agent1", "B": "agent2"})
            keep = ProcedureDef("keep", (("x", deep),), (("y", deep),), (("y", Expr.var("x")),))
            evolved, _ = evolve(mam, AdaptationRequest((a_p("agent1", keep),)))
            task = evolved.agents["agent1"].task
            assert task.colorsets[f"D{k - 1}"] is deep and len(task.colorsets) == k + 1
            assert validate_model(evolved).empty
            assert synthesize(evolved).agent_ids == ("agent1", "agent2")

    def test_adapting_an_agent_with_a_place_of_a_shared_chain_color(self):
        # the place's color is compared by identity, not by its 2^k-long descriptor
        k = MAX_COLOR_DEPTH
        org = parse_model(shared_product_chain(ORG1_TEXT, k) + f"place deep : D{k - 1}\n").model
        mam = decompose(org, {"A": "agent1", "B": "agent2"})
        assert "deep" in mam.agents["agent1"].task.places
        request = parse_scenario(
            "colorset Tok = int\nat 2 adapt { rpP agent1 pass proc pass2(n:Tok) -> (o:Tok) { o = n } }\n"
        ).scenario.triggers[0].request
        with deadline(20):
            evolved, impact = evolve(mam, request)
            assert diff_models(mam, evolved) == ("agent agent1: procedure pass replaced by pass2",)
        assert impact.per_agent == {"agent1": "preserving", "agent2": "preserving"}

    def test_unicode_decimal_digits_are_ints(self):
        # '٣' (ARABIC-INDIC DIGIT THREE) is a decimal digit, read as 3
        doc = parse_model(ORG1_TEXT.replace("init { 1 }", "init { ٣ }"))
        assert doc.model == parse_model(ORG1_TEXT.replace("init { 1 }", "init { 3 }")).model


BUMP_MAS = """\
mas o
agent agent1
colorset Tok = {0}
place p : Tok
proc bump(n:Tok) -> (o:Tok) {{ o = inc(n) }}
agent agent2
colorset Tok = {1}
place q : Tok
proc bump(n:Tok)->(o:Tok){{o=inc(n)}}
"""


class TestProcedureMemo:
    """One parse reads each distinct procedure declaration once."""

    @staticmethod
    def bumps(text):
        agents = parse_model(text).model.agents
        return agents["agent1"].task.procedures["bump"], agents["agent2"].task.procedures["bump"]

    def test_a_repeated_declaration_under_the_same_colors_is_one_object(self):
        first, second = self.bumps(BUMP_MAS.format("int", "int"))
        assert first is second
        # another parse keeps no memo of this one
        assert self.bumps(BUMP_MAS.format("int", "int"))[0] is not first

    def test_under_another_color_of_the_same_name_it_is_another_object(self):
        first, second = self.bumps(BUMP_MAS.format("int", "text"))
        assert first is not second and first != second
        assert first.signature() != second.signature()
        assert [cs.kind for _, cs in first.inputs + second.inputs] == ["int", "text"]

    def test_a_brace_in_a_text_literal_does_not_end_the_declaration(self):
        text = BUMP_MAS.format("text", "text").replace("inc(n)", 'concat(n,"}")')
        first, second = self.bumps(text)
        assert first is second and modelio.render_expr(first.body[0][1]) == 'concat(n,"}")'
        other = text.replace('"}")', '"}x")', 1)
        assert [modelio.render_expr(p.body[0][1]) for p in self.bumps(other)] == ['concat(n,"}x")', 'concat(n,"}")']

    def test_a_repeated_name_in_one_agent_is_still_rejected_at_its_own_token(self):
        text = BUMP_MAS.format("int", "int").replace("agent agent2\ncolorset Tok = int\n", "")
        with pytest.raises(ModelSyntaxError, match="expected a fresh procedure name") as err:
            parse_model(text)
        assert (err.value.line, err.value.col) == (7, 6)

    def test_scenario_payloads_share_a_repeated_declaration(self):
        decl = "proc inc2(n:Tok) -> (o:Tok) { o = addK(n,2) }"
        doc = parse_scenario(f"colorset Tok = int\nat 1 adapt {{ rpP a1 inc1 {decl} }}\nat 2 adapt {{ aP a2 {decl} }}\n")
        first, second = (t.request.ops[0].procedure for t in doc.scenario.triggers)
        assert first is second

    def test_decompositions_round_trip_through_the_memo(self):
        rng = random.Random(1717)
        for i in range(25):
            org = gen_org(rng, f"pm{i}")
            for assignment in list(all_assignments(org.roles))[:3]:
                text = serialize_model(decompose(org, assignment))
                mam = parse_model(text).model
                assert serialize_model(mam) == text
        # the relay workload's shape: every agent declares the same procedure
        relay = "mas r\n" + "".join(
            f"agent a{k}\ncolorset Tok = int\nplace p{k} : Tok\nproc hop(n:Tok) -> (o:Tok) {{ o = inc(n) }}\n"
            for k in range(4)
        )
        mam = parse_model(relay).model
        assert len({id(a.task.procedures["hop"]) for a in mam.agents.values()}) == 1
        assert serialize_model(mam) == serialize_model(parse_model(serialize_model(mam)).model)


class TestSerializeModel:
    def test_byte_determinism(self, org1):
        assert serialize_model(org1) == serialize_model(org1)

    def test_round_trip(self, org1):
        text = serialize_model(org1)
        again = parse_model(text)
        assert again.model == org1
        assert serialize_model(again.model) == text

    def test_canonical_input_is_fixed_point(self):
        canonical = serialize_model(parse_model(ORG1_TEXT).model)
        assert serialize_model(parse_model(canonical).model) == canonical

    def test_mas_round_trip(self, mam1):
        text = serialize_model(mam1)
        again = parse_model(text).model
        assert again == mam1
        assert serialize_model(again) == text

    def test_fuzz_round_trip_generated_orgs(self):
        rng = random.Random(41)
        for i in range(30):
            org = gen_org(rng, f"rt{i}")
            text = serialize_model(org)
            assert parse_model(text).model == org
            mam = decompose(org, next(iter(all_assignments(org.roles))))
            mtext = serialize_model(mam)
            assert parse_model(mtext).model == mam

    def test_an_org_built_without_declared_colors_round_trips(self, org1):
        from roleflow import ColorSet, Net, Organization, Place

        # the net closes its table over the colors its places and procedures use
        pair = ColorSet("Pair", "product", components=(org1.global_task.places["mid"].colorset,) * 2)
        parts = org1.global_task.parts()
        parts.update(colorsets=[], places=parts["places"] + [Place("spare", pair)])
        org = Organization(org1.id, org1.objective, org1.roles.values(), org1.links, Net(**parts))
        assert sorted(org.global_task.colorsets) == ["Pair", "Tok"]
        assert parse_model(serialize_model(org)).model == org

    def test_canonical_net_text_is_equivalence_substrate(self, org1):
        # same structure built twice in different declaration orders
        text = canonical_net_text(org1.global_task)
        parts = org1.global_task.parts()
        parts["places"] = list(reversed(parts["places"]))
        parts["transitions"] = list(reversed(parts["transitions"]))
        from roleflow import Net

        assert canonical_net_text(Net(**parts)) == text


GUARDED_TEXT = """\
org guarded
objective "tokens carry their own go flag"
role R "the only role"
colorset Flag = enum{false,true}
place p : Flag init { true, false }
place q : Flag
proc f(b:Flag) -> (o:Flag) { o = b }
trans t role=R proc=f guard b
in p : b
out q : o
"""


class TestProcedureText:
    def test_a_kept_text_equals_a_fresh_render_and_copies_drop_it(self, mam1):
        doc = parse_model(serialize_model(mam1))
        text = serialize_model(doc)
        procs = [p for agent in doc.model.agents.values() for p in agent.task.procedures.values()]
        assert procs
        for proc in procs:
            kept = proc._text
            assert f"\n{kept}\n" in text
            assert kept == modelio._render_proc(dataclasses.replace(proc))
            for twin in (copy.copy(proc), copy.deepcopy(proc), pickle.loads(pickle.dumps(proc))):
                assert twin == proc
                assert getattr(twin, "_text", None) is None
        assert serialize_model(doc) == text


class TestGuardedModelText:
    def test_parse_validate_round_trip(self):
        doc = parse_model(GUARDED_TEXT)
        assert validate_organization(doc.model).empty
        text = serialize_model(doc.model)
        assert parse_model(text).model == doc.model
        t = doc.model.global_task.transitions["t"]
        assert t.guard is not None and t.guard.kind == "var"

    def test_qualified_enum_literal_in_body(self):
        text = GUARDED_TEXT.replace("{ o = b }", "{ o = Flag.true }")
        doc = parse_model(text)
        body = dict(doc.model.global_task.procedures["f"].body)
        assert body["o"].kind == "lit" and body["o"].value.payload == "true"
        assert serialize_model(parse_model(serialize_model(doc.model)).model) == serialize_model(doc.model)


class TestParseScenario:
    def test_adapt_trigger(self):
        text = (
            "colorset Tok = int\n"
            "at 2 adapt { rpP agent2 inc1 proc inc2(n:Tok) -> (o:Tok) { o = addK(n,2) } }\n"
        )
        doc = parse_scenario(text)
        assert len(doc.scenario.triggers) == 1
        trig = doc.scenario.triggers[0]
        assert trig.at_step == 2
        assert [op.kind for op in trig.request.ops] == ["rpP"]
        assert trig.request.ops[0].procedure.name == "inc2"

    def test_compact_payload_spacing(self):
        doc = parse_scenario(
            "colorset Tok = int\n"
            "at 2 adapt { rpP agent2 inc1 proc inc2(n:Tok)->(o:Tok){o=addK(n,2)} }"
        )
        op = doc.scenario.triggers[0].request.ops[0]
        assert (op.kind, op.agent_id, op.name) == ("rpP", "agent2", "inc1")

    def test_non_increasing_steps_rejected(self):
        text = "at 5 adapt { removeAgent a }\nat 2 adapt { removeAgent b }\n"
        with pytest.raises(ModelSyntaxError, match="non-increasing"):
            parse_scenario(text)

    def test_negative_trigger_step_rejected(self):
        with pytest.raises(ModelSyntaxError, match="non-negative trigger step") as info:
            parse_scenario("end quiescence\nat -1 adapt { removeAgent a }\n")
        assert (info.value.line, info.value.col) == (2, 4)
        assert parse_scenario("at 0 adapt { removeAgent a }\n").scenario.triggers[0].at_step == 0

    def test_empty_scenario(self):
        doc = parse_scenario("end quiescence\n")
        assert doc.scenario.triggers == ()
        assert doc.scenario.end_condition == ("quiescence",)

    def test_marked_end_and_budget(self):
        doc = parse_scenario("end marked agent2.out_\nbudget 7\n")
        assert doc.scenario.end_condition == ("marked", "agent2", "out_")
        assert doc.scenario.max_steps == 7

    def test_assignment_lines(self):
        doc = parse_scenario("assign A -> agent1\nassign B -> agent2\n")
        assert doc.assignment == {"A": "agent1", "B": "agent2"}

    def test_unknown_op_keyword(self):
        with pytest.raises(UnknownOp):
            parse_scenario("at 1 adapt { zapAgent a }\n")

    def test_exactly_sixteen_keywords(self):
        assert len(OP_KINDS) == 16
        fine = [k for k in OP_KINDS if k not in ("addAgent", "removeAgent", "modifyAgent")]
        assert len(fine) == 13

    def test_an_agent_color_shadowing_a_component_of_a_scenario_color_is_unresolved(self):
        text = (
            "colorset Tok = int\n"
            "colorset Pair = product(Tok,Tok)\n"
            "at 1 adapt { addAgent agent3 { assumes C colorset Tok = text place p : Pair } }\n"
        )
        with pytest.raises(ResolutionError) as err:
            parse_scenario(text)
        assert err.value.name == "Tok"

    def test_ops_text_against_model(self, mam1):
        op_list = parse_ops_text("rP agent2 inc1; modifyAgent agent1 { }", mam1)
        assert [op.kind for op in op_list] == ["rP", "modifyAgent"]


class TestContextCodec:
    def test_round_trip(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        ctx = save_context(system)
        data = write_context(ctx)
        assert read_context(data) == ctx
        assert write_context(read_context(data)) == data

    def test_truncated(self, mam1):
        system = synthesize(mam1)
        data = write_context(save_context(system))
        with pytest.raises(FormatError):
            read_context(data[:2])

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            read_context(b"CTX9\ncursor 0\nsteps 0\n")

    def test_unterminated_marking(self):
        data = b"CTX1\ncursor 0\nsteps 0\nagent a\nmarking-begin\nMRK1\n"
        with pytest.raises(FormatError):
            read_context(data)

    @pytest.mark.parametrize(
        "target,steps,line",
        [("parse_descriptor_text", 1, "channel "), ("parse_value_text", 1, "bus "), ("parse_value_text", 2, "mail ")],
        ids=["channel", "bus", "mail"],
    )
    def test_program_faults_are_not_read_as_bad_input(self, mam1, monkeypatch, target, steps, line):
        system = synthesize(mam1)
        for _ in range(steps):  # tA's message is in flight after one step, in agent2's mailbox after two
            go(system, Scenario())
        data = write_context(save_context(system))
        assert ("\n" + line).encode() in data and (b"\nbus " in data) == (steps == 1)

        def broken(*args):
            raise RuntimeError("fault in the reader")

        monkeypatch.setattr(modelio, target, broken)
        with pytest.raises(RuntimeError, match="fault in the reader"):
            read_context(data)

    @pytest.mark.parametrize("field", ["cursor", "steps"])
    @pytest.mark.parametrize("value", ["-7", "1_0", "+1", "01", "-0", " 1", "1 ", "\u0661", "1e1", ""])
    def test_fields_are_written_as_write_context_writes_them(self, field, value):
        data = f"CTX1\ncursor 0\nsteps 0\n".replace(f"{field} 0", f"{field} {value}")
        with pytest.raises(FormatError, match=f"bad {field} value"):
            read_context(data.encode())

    @pytest.mark.parametrize("line", ["bus", "mail"])
    @pytest.mark.parametrize("value", ["007", "-0", "٣"])
    def test_messages_are_written_as_write_context_writes_them(self, line, value):
        data = f"CTX1\ncursor 0\nsteps 0\nchannel c : Tok=int\nagent a\n{line} c {value}\n"
        with pytest.raises(FormatError, match=f"bad {line} value: .*expected a canonical integer"):
            read_context(data.encode())
        assert read_context(data.replace(value, "-3").encode()) is not None

    def test_each_distinct_channel_descriptor_is_parsed_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_descriptor_text(text)

        monkeypatch.setattr(modelio, "parse_descriptor_text", counting)
        lines = ["CTX1", "cursor 0", "steps 0"]
        lines += [f"channel c{i} : {'T=text' if i % 2 else 'Tok=int'}" for i in range(6)]
        lines += ["bus c4 7", 'bus c5 "x"']
        ctx = read_context(("\n".join(lines) + "\n").encode())
        assert sorted(calls) == ["T=text", "Tok=int"]
        assert [(ch, v.canonical()) for ch, v in ctx.bus] == [("c4", "7"), ("c5", '"x"')]
        # the table lasts one call: the next call parses `Tok=int` again, and a failure is not kept
        for _ in range(2):
            with pytest.raises(FormatError, match="bad channel descriptor"):
                read_context(b"CTX1\ncursor 0\nsteps 0\nchannel c : Tok=int\nchannel d : Tok=\n")
        assert calls[2:] == ["Tok=int", "Tok=", "Tok=int", "Tok="]

    def test_an_agent_appears_once(self, mam1):
        system = synthesize(mam1)
        go(system, Scenario())
        go(system, Scenario())  # the message now waits in agent2's mailbox
        text = write_context(save_context(system)).decode()
        section = text[text.index("agent agent2\n"):]
        assert "mail mid" in section
        with pytest.raises(FormatError, match="second agent section for 'agent2'"):
            read_context((text + section).encode())
        twice = text.replace("marking-end\n", "marking-end\nmarking-begin\nMRK1\nmarking-end\n", 1)
        with pytest.raises(FormatError, match="second marking for agent 'agent1'"):
            read_context(twice.encode())

    def test_equal_states_give_equal_bytes(self, mam1):
        s1, s2 = synthesize(mam1), synthesize(mam1)
        scenario = Scenario()
        go(s1, scenario), go(s2, scenario)
        assert write_context(save_context(s1)) == write_context(save_context(s2))


class TestTraceFormat:
    def test_tab_separated_lines(self):
        entries = (
            TraceEntry(0, "agent1", "fired", "tA n=1 sent mid 1"),
            TraceEntry(1, "agent2", "delivered", "mid 1"),
        )
        assert render_trace(entries) == "0\tagent1\tfired\ttA n=1 sent mid 1\n1\tagent2\tdelivered\tmid 1\n"


def _lex(tokenizer, text):
    try:
        return tokenizer(text)
    except ModelSyntaxError as exc:
        return (exc.line, exc.col, exc.expected)


class TestTokenizer:
    def test_tokens_are_named_tuples(self):
        tok = tokenize("org x")[1]
        assert (tok.kind, tok.text, tok.line, tok.col) == ("ident", "x", 1, 5)
        assert tok == ("ident", "x", 1, 5)

    def test_matches_naive_tokenizer_on_mutated_texts(self):
        rng = random.Random(505)
        texts = model_texts(rng, 8)
        inputs = list(LEXICAL_EDGES)
        for k in range(3000):
            inputs.append(mutate_text(rng, texts[k % len(texts)], rng.randint(1, 6)))
        outcomes = Counter()
        for text in inputs:
            got = _lex(tokenize, text)
            assert got == _lex(naive_tokenize, text), text
            outcomes["tokens" if isinstance(got, list) else got[2].split(" (")[0]] += 1
        # every outcome of the lexer was exercised
        assert set(outcomes) == {
            "tokens",
            "a token",
            "closing quote",
            "closing quote before end of line",
            "a valid escape",
        }, outcomes

    def test_token_stream_and_positions_match_the_naive_tokenizer(self):
        """Kinds, texts and every position (the end's too) on the parse
        corpus, the lexical edges and seeded random texts."""
        texts = [args[0].decode() if isinstance(args[0], bytes) else args[0] for _, args in parse_corpus()]
        texts += LEXICAL_EDGES
        rng = random.Random(2525)
        texts += [random_lexer_text(rng) for _ in range(3000)]
        outcomes = Counter()
        for text in texts:
            try:
                ts = TokenStream(text)
                got = [(k, t, *ts.where(i)) for i, (k, t) in enumerate(zip(ts.kinds, ts.texts))]
            except ModelSyntaxError as exc:
                got = (exc.line, exc.col, exc.expected)
            assert got == _lex(naive_tokenize, text), repr(text)
            outcomes["tokens" if isinstance(got, list) else got[2].split(" (")[0]] += 1
        assert outcomes["tokens"] > 2000 and len(outcomes) == 5, outcomes

    @pytest.mark.parametrize(
        "text",
        [
            "org x  \t\r\n  ",
            "org x # a comment without a newline",
            "org x\n \t \n# a comment after blanks",
            *("org x" + " \n\t" * 2000 + end for end in ("$", "-", '"', "\u00b2")),
            "",
            " \t\r\n" * 500,
        ],
        ids=["blanks", "comment", "blanks-comment", "bad", "lone-minus", "lone-quote", "non-ascii-digit",
             "empty", "only-blanks"],
    )
    def test_text_ends_match_the_naive_tokenizer(self, text):
        assert _lex(tokenize, text) == _lex(naive_tokenize, text)

    def test_megabyte_of_blanks_and_comments_lexes_in_linear_time(self):
        pad = "   \t\n# a comment line of the kind a generated file carries\n\n" * 9_000
        text = pad + "org" + pad
        assert len(text) > 1_000_000
        start = time.perf_counter()
        tokens = tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert [(t.kind, t.text, t.line, t.col) for t in tokens] == [
            ("ident", "org", 27_001, 1), ("eof", "", 54_001, 1)
        ]


# every fixed run of tokens the readers read in one step
_SHAPES = {name: v for name, v in vars(modelio).items() if isinstance(v, Shape)}
_SHAPES.update({f"op_{kind}": shape for kind, shape in modelio._OP_HEADS.items()})
# a token of each kind a name slot takes, and a token of another kind
_SAMPLE = {"ident": "x", "int": "5", "arrow": "->"}
_OTHER_KIND = {"ident": "5", "int": "x", "punct": "x", "arrow": "x"}


def _read_outcome(reader, text, shape):
    ts = TokenStream(text)
    ts.pos = 1  # after the leading `head`
    try:
        return reader(ts, shape), ts.pos
    except RoleflowError as exc:
        return type(exc).__name__, exc.line, exc.col, str(exc)


class TestShapes:
    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_read_fails_where_the_expect_chain_fails(self, name):
        """The run itself, each token swapped for one of another kind (a
        string of the same text among them) or another keyword, and the
        text cut off inside the run: `read` gives what one `expect` per
        token gives, texts or error."""
        shape = _SHAPES[name]
        tokens = [text if text is not None else _SAMPLE[kind] for kind, text, *_ in shape.slots]
        texts = [tokens, tokens + ["tail"]]
        for k, (kind, text, *_) in enumerate(shape.slots):
            for swap in (f'"{tokens[k]}"', _OTHER_KIND[kind]):
                texts.append(tokens[:k] + [swap] + tokens[k + 1:])
            if text is not None:
                texts.append(tokens[:k] + ["zz" if kind == "ident" else ";"] + tokens[k + 1:])
            texts.append(tokens[:k])
        for words in texts:
            text = "head\n  " + " ".join(words)
            want = _read_outcome(expect_read, text, shape)
            assert _read_outcome(TokenStream.read, text, shape) == want, text
            assert (want[0] == "ModelSyntaxError") != (words[: len(tokens)] == tokens)


class TestParseOutcomes:
    def test_every_diagnostic_matches_the_golden(self):
        """Each mutated input's outcome, class and message are pinned.

        Regenerate with
        `cd tests && PYTHONPATH=../src python -c "import helpers; print('\\n'.join(helpers.parse_outcome_lines()))" > golden/parse_outcomes.tsv`
        only when a diagnostic changes on purpose.
        """
        golden = (GOLDEN / "parse_outcomes.tsv").read_text(encoding="utf-8").splitlines()
        got = parse_outcome_lines()
        assert len(got) == len(golden)
        changed = [(want, line) for want, line in zip(golden, got) if want != line]
        assert not changed, changed[:5]


class TestMalformedInputFuzz:
    def test_parsers_raise_only_roleflow_errors(self):
        rng = random.Random(1212)
        models = model_texts(rng, 4)
        scenarios = [path.read_text() for path in sorted(MODELS.glob("*.scn"))]
        contexts, markings = codec_samples()
        parsers = [
            (parse_model, lambda: mutate_text(rng, rng.choice(models), rng.randint(1, 4))),
            (parse_scenario, lambda: mutate_text(rng, rng.choice(scenarios), rng.randint(1, 4))),
            (read_context, lambda: mutate_text(rng, rng.choice(contexts), rng.randint(1, 4)).encode()),
        ]
        # nesting past the caps; each of these once overflowed the stack
        nested = nested_inputs(ORG1_TEXT, 600, 1000)
        fixed = [(read_context, (nested.pop("context descriptor").encode(),))]
        fixed += [(parse_model, (text,)) for text in nested.values()]
        for parse, args in fixed:
            with pytest.raises(RoleflowError):
                parse(*args)
        for k in range(12000):
            if k % 4 < 3:
                parse, make = parsers[k % 4]
                args = (make(),)
            else:
                text, task = rng.choice(markings)
                parse, args = restore_marking, (mutate_text(rng, text, rng.randint(1, 4)).encode(), task)
            try:
                parse(*args)
            except RoleflowError:
                pass
            except Exception as exc:
                pytest.fail(f"{parse.__name__} raised {exc!r} on {args[0]!r}")
