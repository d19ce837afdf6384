"""Independent oracles and random model generators used across the suite.

The oracles here are written naively and separately from the library paths
they check: binding enumeration works over individual token instances,
firing effects are recomputed by explicit count accounting, and concurrent
runs are checked against an exhaustive interleaving search.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import signal
import warnings
from pathlib import Path

from roleflow import (
    ColorSet,
    CommLink,
    Expr,
    IncoherentOrganization,
    InputArc,
    Marking,
    Multiset,
    Net,
    Organization,
    OutputArc,
    PartialAssignment,
    Place,
    ProcedureDef,
    ReceivedMessage,
    ReceiveEvent,
    Role,
    SendEvent,
    SentMessage,
    Transition,
    Value,
    communication_structure,
    decompose,
    enabled_bindings,
    fire,
    go,
    parse_model,
    parse_ops_text,
    parse_scenario,
    read_context,
    restore_marking,
    run_to_quiescence,
    save_context,
    serialize_model,
    step,
    synthesize,
    type_check_net,
    validate_organization,
    write_context,
)
from roleflow.cpn import INT_MAX, INT_MIN, inherit_type_report
from roleflow.decomposition import AgentModel, Channel, MultiAgentModel, _AgentChecks
from roleflow.errors import SaturationWarning, TypeMismatch, UnboundVariable

MODELS = Path(__file__).resolve().parent.parent / "models"
TOK = ColorSet("Tok", "int")


def tok(n: int) -> Value:
    return Value(TOK, n)


# ---------------------------------------------------------------------------
# oracle: binding enumeration over token instances


def brute_force_bindings(net, marking, tid, mailbox=()):
    """Enumerate bindings by choosing concrete token instances, then dedupe."""
    t = net.transitions[tid]
    fixed = {}
    if isinstance(t.event, ReceiveEvent):
        msgs = [v for ch, v in mailbox if ch == t.event.channel]
        if not msgs:
            return []
        fixed[t.event.var] = msgs[0]

    arcs = list(net.input_arcs(tid))
    pools = []
    for arc in arcs:
        instances = [(arc.place, i, v) for i, v in enumerate(marking.get(arc.place).values())]
        pools.append(instances)

    found = []
    for combo in itertools.product(*pools):
        taken = set()
        clash = False
        for pid, i, _ in combo:
            if (pid, i) in taken:
                clash = True
                break
            taken.add((pid, i))
        if clash:
            continue
        binding = dict(fixed)
        for arc, (_, _, v) in zip(arcs, combo):
            binding[arc.label] = v
        if t.guard is not None:
            if naive_eval_expr(t.guard, binding).payload != "true":
                continue
        if binding not in found:
            found.append(binding)
    found.sort(key=lambda b: tuple(b[p].sort_key() for p in sorted(b)))
    return found


def accounting_fire(net, marking, tid, binding):
    """Expected post-firing marking from explicit per-place count bookkeeping."""
    t = net.transitions[tid]
    proc = net.procedures[t.procedure]
    counts = {pid: dict() for pid in net.places}
    for pid in net.places:
        for v, c in marking.get(pid).items():
            counts[pid][v] = c
    for arc in net.input_arcs(tid):
        v = binding[arc.label]
        counts[arc.place][v] -= 1
        assert counts[arc.place][v] >= 0, "negative intermediate count"
        if counts[arc.place][v] == 0:
            del counts[arc.place][v]
    body = dict(proc.body)
    results = {rname: naive_eval_expr(body[rname], binding, rcs) for rname, rcs in proc.outputs}
    for arc in net.output_arcs(tid):
        v = results[arc.label]
        counts[arc.place][v] = counts[arc.place].get(v, 0) + 1
    return Marking({pid: Multiset.from_counts(c) for pid, c in counts.items() if c})


def accounting_events(net, tid, binding):
    """Expected events of a firing: the received message, or the sent one
    evaluated by `naive_eval_expr` over the binding and the procedure's results."""
    t = net.transitions[tid]
    if isinstance(t.event, ReceiveEvent):
        return [ReceivedMessage(t.event.channel, binding[t.event.var])]
    if isinstance(t.event, SendEvent):
        proc = net.procedures[t.procedure]
        body = dict(proc.body)
        env = dict(binding)
        env.update({rname: naive_eval_expr(body[rname], binding, rcs) for rname, rcs in proc.outputs})
        return [SentMessage(t.event.channel, naive_eval_expr(t.event.message, env))]
    return []


# ---------------------------------------------------------------------------
# oracle: expression evaluation by an if-chain over the builtins, kept apart
# from the library's builtin table


def _naive_clamped(n: int) -> int:
    if n > INT_MAX:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MAX
    if n < INT_MIN:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MIN
    return n


def naive_eval_expr(expr: Expr, binding, expected: ColorSet | None = None) -> Value:
    """Evaluate an expression under a binding.

    Tuple construction needs an expected product color set from the caller;
    every other form carries or derives its own color.
    """
    if expr.kind == "var":
        if expr.name not in binding:
            raise UnboundVariable(f"variable '{expr.name}' is not bound")
        v = binding[expr.name]
        if expected is not None and v.colorset != expected:
            raise TypeMismatch(
                f"variable '{expr.name}' has color {v.colorset.name}, needed {expected.name}"
            )
        return v
    if expr.kind == "lit":
        if expected is not None and expr.value.colorset != expected:
            raise TypeMismatch("literal color does not match context")
        return expr.value
    if expr.kind == "tuple":
        if expected is None or expected.kind != "product":
            raise TypeMismatch("tuple expression needs a product context")
        if len(expr.args) != len(expected.components):
            raise TypeMismatch(f"tuple arity mismatch for {expected.name}")
        parts = tuple(
            naive_eval_expr(a, binding, c) for a, c in zip(expr.args, expected.components)
        )
        return Value(expected, parts)
    return _naive_eval_call(expr, binding, expected)


def _naive_eval_call(expr: Expr, binding, expected):
    name, args = expr.name, expr.args

    def arity(n):
        if len(args) != n:
            raise TypeMismatch(f"builtin {name} takes {n} argument(s)")

    if name in ("identity", "constOf"):
        arity(1)
        return naive_eval_expr(args[0], binding, expected)
    if name == "concat":
        arity(2)
        a = naive_eval_expr(args[0], binding, expected)
        b = naive_eval_expr(args[1], binding, a.colorset)
        if a.colorset.kind != "text":
            raise TypeMismatch("concat needs text operands")
        return Value(a.colorset, a.payload + b.payload)
    if name == "inc":
        arity(1)
        a = naive_eval_expr(args[0], binding, expected)
        if a.colorset.kind != "int":
            raise TypeMismatch("inc needs an int operand")
        return Value(a.colorset, _naive_clamped(a.payload + 1))
    if name == "addK":
        arity(2)
        a = naive_eval_expr(args[0], binding, expected)
        if a.colorset.kind != "int":
            raise TypeMismatch("addK needs an int operand")
        k = args[1]
        if k.kind != "lit" or k.value.colorset.kind != "int":
            raise TypeMismatch("addK constant must be an integer literal")
        return Value(a.colorset, _naive_clamped(a.payload + k.value.payload))
    if name in ("first", "second"):
        arity(1)
        a = naive_eval_expr(args[0], binding, None)
        if a.colorset.kind != "product":
            raise TypeMismatch(f"{name} needs a product operand")
        idx = 0 if name == "first" else 1
        out = a.payload[idx]
        if expected is not None and out.colorset != expected:
            raise TypeMismatch(f"{name} result color does not match context")
        return out
    if name == "pairOf":
        arity(2)
        if expected is None or expected.kind != "product" or len(expected.components) != 2:
            raise TypeMismatch("pairOf needs a two-component product context")
        parts = (
            naive_eval_expr(args[0], binding, expected.components[0]),
            naive_eval_expr(args[1], binding, expected.components[1]),
        )
        return Value(expected, parts)
    raise TypeMismatch(f"unknown builtin '{name}'")


# ---------------------------------------------------------------------------
# random organizations (single-input transitions, DAG flow, role-clean places)


def gen_org(rng: random.Random, ident: str = "gen") -> Organization:
    """A small organization that decomposes under every total assignment."""
    while True:
        org = _try_gen_org(rng, ident)
        if org is not None and validate_organization(org).empty:
            return org


def _try_gen_org(rng, ident):
    n_roles = rng.randint(1, 3)
    roles = [f"r{i+1}" for i in range(n_roles)]
    n_places = rng.randint(2, 4)
    reader_role = {f"p{i}": rng.choice(roles) for i in range(n_places)}
    place_ids = sorted(reader_role)

    n_trans = rng.randint(1, 5)
    writer_role: dict[str, str] = {}
    transitions, procedures, arcs = [], [], []
    for t_index in range(n_trans):
        in_idx = rng.randrange(n_places)
        in_place = f"p{in_idx}"
        role = reader_role[in_place]
        later = [f"p{j}" for j in range(in_idx + 1, n_places)]
        rng.shuffle(later)
        outs = []
        for cand in later:
            if len(outs) >= rng.randint(1, 2):
                break
            if writer_role.get(cand, role) != role:
                continue
            outs.append(cand)
        if not outs:
            return None
        for cand in outs:
            writer_role[cand] = role
        pname = f"f{t_index+1}"
        out_sig = tuple((f"y{j+1}", TOK) for j in range(len(outs)))
        body = []
        for rname, _ in out_sig:
            kind = rng.randrange(3)
            if kind == 0:
                body.append((rname, Expr.var("x")))
            elif kind == 1:
                body.append((rname, Expr.call("inc", Expr.var("x"))))
            else:
                body.append(
                    (rname, Expr.call("addK", Expr.var("x"), Expr.lit(tok(rng.randint(0, 3)))))
                )
        procedures.append(ProcedureDef(pname, (("x", TOK),), out_sig, tuple(body)))
        tid = f"t{t_index+1}"
        transitions.append(Transition(tid, role, pname))
        arcs.append(InputArc(in_place, tid, "x"))
        for (rname, _), cand in zip(out_sig, outs):
            arcs.append(OutputArc(tid, cand, rname))

    # per-place single writer/reader role, and at most one cross-role adjacency
    # per transition, so every assignment (roles merged or split) decomposes
    actual_writers: dict[str, set] = {p: set() for p in place_ids}
    actual_readers: dict[str, set] = {p: set() for p in place_ids}
    t_by_id = {t.id: t for t in transitions}
    for arc in arcs:
        role = t_by_id[arc.transition].role
        if isinstance(arc, OutputArc):
            actual_writers[arc.place].add(role)
        else:
            actual_readers[arc.place].add(role)
    cross = set()
    for p in place_ids:
        if len(actual_writers[p]) > 1 or len(actual_readers[p]) > 1:
            return None
        if actual_writers[p] and actual_readers[p] and actual_writers[p] != actual_readers[p]:
            cross.add(p)
    for t in transitions:
        adjacent = {a.place for a in arcs if a.transition == t.id}
        if len(adjacent & cross) > 1:
            return None

    places = []
    for i, pid in enumerate(place_ids):
        initial = Multiset()
        if i < n_places // 2 or n_places == 2 and i == 0:
            initial = Multiset([tok(rng.randint(0, 9)) for _ in range(rng.randint(0, 3))])
        places.append(Place(pid, TOK, initial))
    if all(p.initial.is_empty for p in places):
        places[0] = Place(places[0].id, TOK, Multiset([tok(rng.randint(0, 9))]))

    net = Net(
        ident,
        colorsets=[TOK],
        places=places,
        transitions=transitions,
        procedures=procedures,
        arcs=arcs,
    )
    org = Organization(ident, "generated", [Role(r) for r in roles], [], net)
    links = set(communication_structure(org))
    if rng.random() < 0.3 and n_roles >= 2:
        extra = CommLink(roles[0], roles[-1])
        if extra.source != extra.target:
            links.add(extra)
    return Organization(ident, "generated", [Role(r) for r in roles], links, net)


def all_assignments(roles):
    """Every total assignment onto canonically named agents (set partitions)."""
    roles = sorted(roles)

    def rec(i, used, current):
        if i == len(roles):
            yield dict(current)
            return
        for a in range(used + 1):
            current[roles[i]] = f"ag{a+1}"
            yield from rec(i + 1, max(used, a + 1), current)

    yield from rec(0, 0, {})


# ---------------------------------------------------------------------------
# bounded nets for the enabling-oracle family


def gen_bounded_net(rng: random.Random):
    """Nets of <=4 places, <=3 transitions, int tokens 0..9, <=5 tokens total."""
    n_places = rng.randint(1, 4)
    place_ids = [f"p{i}" for i in range(n_places)]
    n_trans = rng.randint(1, 3)
    transitions, procedures, arcs = [], [], []
    channels = ["ch0", "ch1"]
    uses_receive = False
    for idx in range(n_trans):
        tid = f"t{idx+1}"
        n_in = rng.randint(1, 2)
        n_out = rng.randint(0, 2)
        receive = rng.random() < 0.35
        uses_receive = uses_receive or receive
        in_names = [f"a{j}" for j in range(n_in)] + (["m"] if receive else [])
        out_names = [f"b{j}" for j in range(n_out)]
        body = tuple((o, Expr.call("inc", Expr.var(rng.choice(in_names)))) for o in out_names)
        procedures.append(
            ProcedureDef(
                f"f{idx+1}",
                tuple((n, TOK) for n in in_names),
                tuple((n, TOK) for n in out_names),
                body,
            )
        )
        event = ReceiveEvent(rng.choice(channels), "m") if receive else None
        transitions.append(Transition(tid, "R", f"f{idx+1}", event=event))
        for j in range(n_in):
            arcs.append(InputArc(rng.choice(place_ids), tid, f"a{j}"))
        for j in range(n_out):
            arcs.append(OutputArc(tid, rng.choice(place_ids), f"b{j}"))
    net = Net(
        "bounded",
        colorsets=[TOK],
        places=[Place(p, TOK) for p in place_ids],
        transitions=transitions,
        procedures=procedures,
        arcs=arcs,
    )
    counts = {}
    for _ in range(rng.randint(0, 5)):
        pid = rng.choice(place_ids)
        counts.setdefault(pid, []).append(tok(rng.randint(0, 9)))
    marking = Marking({pid: Multiset(vs) for pid, vs in counts.items()})
    mailbox = tuple(
        (rng.choice(channels), tok(rng.randint(0, 9))) for _ in range(rng.randint(0, 2))
    )
    return net, marking, mailbox


# ---------------------------------------------------------------------------
# oracle: exhaustive interleaving search for the concurrent runtime


def _freeze_state(markings, mailboxes, bus):
    return (
        tuple(sorted(markings.items(), key=lambda e: e[0])),
        tuple(sorted((a, tuple(mb)) for a, mb in mailboxes.items())),
        tuple(bus),
    )


def _initial_state(mam):
    markings = {aid: mam.agents[aid].task.initial_marking() for aid in mam.agents}
    mailboxes = {aid: [] for aid in mam.agents}
    for cid in sorted(mam.channels):
        ch = mam.channels[cid]
        for v in sorted(ch.initial, key=lambda v: v.sort_key()):
            mailboxes[ch.consumer].append((cid, v))
    return markings, mailboxes, []


def enumerate_final_states(mam, max_states=200_000):
    """All terminal (markings, mailboxes) reachable by interleaving agent steps.

    Each agent's move is its canonically first firing, found by brute force
    and applied by count accounting, so no library enabling or firing code
    takes part.
    """
    init = _initial_state(mam)
    seen = set()
    finals = set()
    stack = [init]
    while stack:
        markings, mailboxes, bus = stack.pop()
        key = _freeze_state(markings, mailboxes, bus)
        if key in seen:
            continue
        seen.add(key)
        assert len(seen) <= max_states, "interleaving state space too large"

        moves = []
        delivered_channels = set()
        for i, (ch, v) in enumerate(bus):
            if ch not in delivered_channels:
                delivered_channels.add(ch)
                moves.append(("deliver", i))
        for aid in sorted(mam.agents):
            choice = naive_first_firing(mam.agents[aid].task, markings[aid], mailboxes[aid])
            if choice is not None:
                moves.append(("fire", aid, choice))

        if not moves:
            finals.add(
                (
                    key[0],
                    tuple(
                        sorted(
                            (aid, ch, v.canonical())
                            for aid, mb in mailboxes.items()
                            for ch, v in mb
                        )
                    ),
                )
            )
            continue

        for move in moves:
            m2 = dict(markings)
            mb2 = {aid: list(mb) for aid, mb in mailboxes.items()}
            bus2 = list(bus)
            if move[0] == "deliver":
                ch, v = bus2.pop(move[1])
                mb2[mam.channels[ch].consumer].append((ch, v))
            else:
                aid, (tid, binding) = move[1], move[2]
                task = mam.agents[aid].task
                m2[aid] = accounting_fire(task, m2[aid], tid, binding)
                for ev in accounting_events(task, tid, binding):
                    if isinstance(ev, ReceivedMessage):
                        for i, (ch, _) in enumerate(mb2[aid]):
                            if ch == ev.channel:
                                del mb2[aid][i]
                                break
                    elif isinstance(ev, SentMessage):
                        bus2.append((ev.channel, ev.value))
            stack.append((m2, mb2, bus2))
    return finals


def freeze_report_state(report):
    """The comparable final state of a runtime report, matching the enumerator."""
    return (
        tuple(sorted(report.final_markings.items(), key=lambda e: e[0])),
        tuple(
            sorted(
                (aid, ch, v.canonical())
                for aid, mb in report.final_mailboxes.items()
                for ch, v in mb
            )
        ),
    )


# ---------------------------------------------------------------------------
# oracle: the scheduler's ready set, rescanned without any cache


def naive_first_firing(task, marking, mailbox):
    """The first (transition, binding) in canonical order, by brute force, or None."""
    for tid in sorted(task.transitions):
        bindings = brute_force_bindings(task, marking, tid, mailbox)
        if bindings:
            return tid, bindings[0]
    return None


def naive_first_firings(system):
    """Every agent's first firing, rescanned from the system's current state.

    Mailboxes are read through `save_context`, because reading
    `state.mailbox` would mark the agent dirty and so change the very ready
    set this oracle is compared with.
    """
    from roleflow import save_context

    mailboxes = dict(save_context(system).agent_mailboxes)
    return {
        aid: naive_first_firing(
            system.model.agents[aid].task, system.states[aid].marking, mailboxes[aid]
        )
        for aid in sorted(system.model.agents)
    }


def naive_ready_actions(system):
    """What `run_concurrent` may choose from: the earliest message per channel
    on the bus, and every agent that has a firing, in the scheduler's order."""
    actions = []
    seen_channels = set()
    for i, (ch, _) in enumerate(system.bus):
        if ch not in seen_channels:
            seen_channels.add(ch)
            actions.append(("deliver", ch, i))
    for aid, firing in naive_first_firings(system).items():
        if firing is not None:
            actions.append(("fire", aid, None))
    return sorted(actions, key=lambda a: (a[0], a[1]))


# ---------------------------------------------------------------------------
# oracle: adaptation without carry-over


def naive_save_context(system):
    """`save_context` with every agent's marking encoded at once."""
    from roleflow import save_marking
    from roleflow.runtime import CONTEXT_VERSION, Context

    ids = system.agent_ids
    return Context(
        CONTEXT_VERSION,
        tuple((aid, save_marking(system.task(aid), system.states[aid].marking)) for aid in ids),
        tuple((aid, tuple(system.states[aid]._mailbox)) for aid in ids),
        tuple(system.bus),
        system.cursor,
        system.step_count,
    )


def naive_resume_context(new_system, context, impact):
    """`resume_context` by the byte path for every agent: each preserving
    marking goes through `restore_marking`, and every agent is left to be
    checked again."""
    from roleflow import restore_marking
    from roleflow.runtime import ADAPT_CHANNEL

    markings = dict(context.agent_markings)
    mail = dict(context.agent_mailboxes)
    channels = new_system.model.channels
    for aid in new_system.agent_ids:
        state, task = new_system.states[aid], new_system.task(aid)
        if impact.kind(aid) != "preserving":
            state.marking, state.mailbox = task.initial_marking(), []
            continue
        state.marking = restore_marking(markings[aid], task)
        kept = []
        for ch, v in mail.get(aid, ()):
            if ch in channels:
                kept.append((ch, v))
            else:
                new_system.warnings.append(f"dropped mailbox message on deleted channel {ch} for {aid}")
        state.mailbox = kept
    new_system.bus = []
    for ch, v in context.bus:
        if ch in channels or ch == ADAPT_CHANNEL:
            new_system.bus.append((ch, v))
        else:
            new_system.warnings.append(f"dropped in-flight message on deleted channel {ch}")
    new_system.cursor = context.cursor % max(1, len(new_system.agent_ids))
    new_system.step_count = context.step_count
    return new_system


def naive_diff_models(old, new):
    """`diff_models` comparing every channel and agent, not only the changed ones."""
    from roleflow.adaptation import _capability_diff, _procedure_diff, _task_shape

    out = []
    for cid in sorted(set(old.channels) | set(new.channels)):
        a, b = old.channels.get(cid), new.channels.get(cid)
        if a is None:
            out.append(f"channel {cid} added")
        elif b is None:
            out.append(f"channel {cid} removed")
        elif a != b:
            out.append(f"channel {cid} replaced")
    for aid in sorted(set(old.agents) | set(new.agents)):
        a, b = old.agents.get(aid), new.agents.get(aid)
        if a is None:
            out.append(f"agent {aid} added")
        elif b is None:
            out.append(f"agent {aid} removed")
        else:
            if a.roles != b.roles:
                out.append(f"agent {aid}: roles changed")
            out.extend(_capability_diff(aid, "sensor", a.sensors, b.sensors))
            out.extend(_capability_diff(aid, "effector", a.effectors, b.effectors))
            out.extend(_procedure_diff(aid, a.task.procedures, b.task.procedures))
            if _task_shape(a.task) != _task_shape(b.task):
                out.append(f"agent {aid}: task replaced")
    return tuple(out)


def naive_adapt(system, request, trace, adaptations):
    """The adaptation step with nothing carried over, in the signature of
    `runtime._adapt`: eager context bytes, `evolve`, `synthesize`, and a
    byte-path resume that leaves every agent dirty. `system` is not changed."""
    from roleflow import evolve, synthesize
    from roleflow.runtime import TraceEntry

    context = naive_save_context(system)
    new_model, impact = evolve(system.model, request)
    diff = naive_diff_models(system.model, new_model)
    new_system = synthesize(new_model)
    new_system.warnings = list(system.warnings)
    new_system.trigger_cursor = system.trigger_cursor
    resumed = naive_resume_context(new_system, context, impact)
    adaptations.append(diff)
    trace.append(TraceEntry(resumed.step_count, "-", "adapted", "; ".join(diff) if diff else "no changes"))
    return resumed


# ---------------------------------------------------------------------------
# random adaptation operations for the closure fuzz


def _fresh_task(rng, agent_id, with_loop=False):
    if not with_loop:
        return Net(agent_id, colorsets=[TOK])
    pid = f"own_{agent_id}_{rng.randint(0, 99)}"
    pname = f"spin_{agent_id}"
    return Net(
        agent_id,
        colorsets=[TOK],
        places=[Place(pid, TOK, Multiset([tok(1)]))],
        transitions=[Transition(f"t_{agent_id}", f"role_{agent_id}", pname)],
        procedures=[
            ProcedureDef(pname, (("x", TOK),), (("y", TOK),), (("y", Expr.var("x")),))
        ],
        arcs=[InputArc(pid, f"t_{agent_id}", "x"), OutputArc(f"t_{agent_id}", pid, "y")],
    )


def gen_agent_payload(rng, agent_id):
    from roleflow import AgentModel

    task = _fresh_task(rng, agent_id, with_loop=rng.random() < 0.5)
    return AgentModel(
        id=agent_id,
        roles=frozenset({f"role_{agent_id}"}),
        sensors=frozenset(),
        effectors=frozenset(),
        task=task,
    )


def gen_random_op(rng: random.Random, mam):
    """A plausible mix of valid and invalid operations against the model."""
    from roleflow import Channel
    from roleflow import adaptation as A

    agents = sorted(mam.agents)
    channels = sorted(mam.channels)
    kind = rng.choice(A.OP_KINDS)

    def some_agent(real=0.8):
        if agents and rng.random() < real:
            return rng.choice(agents)
        return f"ghost{rng.randint(0, 2)}"

    def some_channel(real=0.7):
        if channels and rng.random() < real:
            return rng.choice(channels)
        return f"chx{rng.randint(0, 2)}"

    def some_proc(aid):
        agent = mam.agents.get(aid)
        names = sorted(agent.task.procedures) if agent else []
        if names and rng.random() < 0.8:
            return rng.choice(names)
        return f"nosuch{rng.randint(0, 2)}"

    def proc_payload(name, n_in=1, n_out=1):
        ins = tuple((f"x{i}", TOK) for i in range(n_in))
        outs = tuple((f"y{i}", TOK) for i in range(n_out))
        body = tuple((o, Expr.call("inc", Expr.var(ins[0][0]))) for o, _ in outs)
        return ProcedureDef(name, ins, outs, body)

    if kind == "addAgent":
        aid = some_agent(real=0.2) if rng.random() < 0.3 else f"fresh{rng.randint(0, 50)}"
        return A.add_agent(gen_agent_payload(rng, aid))
    if kind == "removeAgent":
        return A.remove_agent(some_agent())
    if kind == "modifyAgent":
        aid = some_agent()
        nested = [gen_random_op(rng, mam) for _ in range(rng.randint(0, 2))]
        nested = [op for op in nested if op.kind not in A.AGENT_OP_KINDS][:2]
        from dataclasses import replace as dc_replace

        nested = [dc_replace(op, agent_id=aid) if op.agent_id else op for op in nested]
        return A.modify_agent(aid, nested)
    if kind == "aCom":
        cid = some_channel(real=0.2) if rng.random() < 0.3 else f"newch{rng.randint(0, 50)}"
        return A.a_com(Channel(cid, TOK, some_agent(), some_agent()))
    if kind == "rCom":
        return A.r_com(some_channel())
    if kind == "rpCom":
        old = some_channel()
        return A.rp_com(old, Channel(old if rng.random() < 0.7 else f"ren{rng.randint(0,9)}", TOK, some_agent(), some_agent()))
    if kind in ("aSn", "rSn", "aEf", "rEf"):
        fn = {"aSn": A.a_sn, "rSn": A.r_sn, "aEf": A.a_ef, "rEf": A.r_ef}[kind]
        return fn(some_agent(), some_channel())
    if kind in ("rpSn", "rpEf"):
        fn = A.rp_sn if kind == "rpSn" else A.rp_ef
        return fn(some_agent(), some_channel(), some_channel())
    if kind == "aP":
        return A.a_p(some_agent(), proc_payload(f"f_new{rng.randint(0, 50)}", rng.randint(1, 2), rng.randint(1, 2)))
    if kind == "rP":
        aid = some_agent()
        return A.r_p(aid, some_proc(aid))
    if kind == "rpP":
        aid = some_agent()
        name = some_proc(aid)
        agent = mam.agents.get(aid)
        old = agent.task.procedures.get(name) if agent else None
        if old is not None and rng.random() < 0.6:
            new = ProcedureDef(
                f"{name}_v{rng.randint(2, 9)}",
                old.inputs,
                old.outputs,
                tuple((o, Expr.call("inc", Expr.var(old.inputs[0][0]))) for o, _ in old.outputs)
                if old.inputs
                else old.body,
            )
        else:
            new = proc_payload(f"swap{rng.randint(0, 9)}", rng.randint(1, 2), rng.randint(1, 2))
        return A.rp_p(aid, name, new)
    # rpT: sometimes a fresh private loop over an existing procedure (payloads
    # may not declare procedures; they reference the agent's knowledge)
    aid = some_agent()
    agent = mam.agents.get(aid)
    if agent is not None and agent.task.procedures and agent.roles and rng.random() < 0.6:
        proc = agent.task.procedures[sorted(agent.task.procedures)[0]]
        if proc.inputs and all(cs == TOK for _, cs in proc.inputs + proc.outputs):
            pid = f"sw_{aid}{rng.randint(0, 9)}"
            tid = f"st_{aid}{rng.randint(0, 9)}"
            arcs = [InputArc(pid, tid, n) for n, _ in proc.inputs]
            arcs += [OutputArc(tid, pid, n) for n, _ in proc.outputs]
            task = Net(
                aid,
                colorsets=[TOK],
                places=[Place(pid, TOK, Multiset([tok(0), tok(1)]))],
                transitions=[Transition(tid, sorted(agent.roles)[0], proc.name)],
                arcs=arcs,
            )
            return A.rp_t(aid, task)
    return A.rp_t(aid, Net(aid, colorsets=[TOK]))


# ---------------------------------------------------------------------------
# oracle: decomposition with a second walk over the arcs


def naive_decompose(org, assignment):
    """`decompose` as it was before it read the role adjacency validation
    keeps on the net: each place's writing and reading agents come from a
    walk over every arc, and every transition is checked for a second event
    before any agent is built. Only the undeclared-role check is not here."""
    report = validate_organization(org)
    if not report.empty:
        raise IncoherentOrganization("organization fails validation", report)
    missing = sorted(set(org.roles) - set(assignment))
    if missing:
        raise PartialAssignment(f"roles without an agent: {missing}")

    net = org.global_task
    agent_ids = sorted(set(assignment.values()))
    agent_of = {tid: assignment[t.role] for tid, t in net.transitions.items()}

    writers: dict[str, set[str]] = {pid: set() for pid in net.places}
    readers: dict[str, set[str]] = {pid: set() for pid in net.places}
    for arc in net.arcs:
        if isinstance(arc, OutputArc):
            writers[arc.place].add(agent_of[arc.transition])
        else:
            readers[arc.place].add(agent_of[arc.transition])

    places_of: dict[str, list[Place]] = {aid: [] for aid in agent_ids}
    channels: dict[str, Channel] = {}
    for pid in sorted(net.places):
        adjacent = writers[pid] | readers[pid]
        if len(adjacent) <= 1:
            places_of[next(iter(adjacent)) if adjacent else agent_ids[0]].append(net.places[pid])
            continue
        if len(writers[pid]) != 1:
            raise IncoherentOrganization(f"place {pid} is written by several agents; no single producer")
        if len(readers[pid]) != 1:
            raise IncoherentOrganization(f"place {pid} is read by several agents; no single consumer")
        place = net.places[pid]
        channels[pid] = Channel(
            id=pid,
            colorset=place.colorset,
            producer=next(iter(writers[pid])),
            consumer=next(iter(readers[pid])),
            initial=tuple(place.initial.values()),
        )

    tids_of: dict[str, list[str]] = {aid: [] for aid in agent_ids}
    for tid in sorted(net.transitions):
        touched = [a.place for a in net.input_arcs(tid) if a.place in channels]
        touched += [a.place for a in net.output_arcs(tid) if a.place in channels]
        if len(touched) > 1:
            raise IncoherentOrganization(
                f"transition {tid} would need {len(touched)} message events; only one is supported"
            )
        tids_of[agent_of[tid]].append(tid)

    roles_of: dict[str, set[str]] = {aid: set() for aid in agent_ids}
    for role, aid in assignment.items():
        roles_of[aid].add(role)

    colorsets = [(n, net.colorsets[n]) for n in sorted(net.colorsets)]
    variables = [(n, net.variables[n]) for n in sorted(net.variables)]
    agents = {}
    for aid in agent_ids:
        transitions, arcs = [], []
        sensors: set[str] = set()
        effectors: set[str] = set()
        proc_names: set[str] = set()
        for tid in tids_of[aid]:
            t = net.transitions[tid]
            proc_names.add(t.procedure)
            event = None
            for arc in net.input_arcs(tid):
                if arc.place in channels:
                    event = ReceiveEvent(arc.place, arc.label)
                    sensors.add(arc.place)
                else:
                    arcs.append(arc)
            for arc in net.output_arcs(tid):
                if arc.place in channels:
                    event = SendEvent(arc.place, Expr.var(arc.label))
                    effectors.add(arc.place)
                else:
                    arcs.append(arc)
            transitions.append(t if event is None else Transition(t.id, t.role, t.procedure, t.guard, event))
        procedures = [(p, net.procedures[p]) for p in sorted(proc_names)]
        task = Net(
            aid,
            colorsets=list(net.colorsets.values()),
            variables=list(net.variables.values()),
            places=places_of[aid],
            transitions=transitions,
            procedures=[proc for _, proc in procedures],
            arcs=arcs,
        )
        inherit_type_report(task, net)
        agents[aid] = AgentModel(
            id=aid,
            roles=frozenset(roles_of[aid]),
            sensors=frozenset(sensors),
            effectors=frozenset(effectors),
            task=task,
        )
        _AgentChecks(
            aid,
            channels=tuple((n, channels[n]) for n in sorted(sensors | effectors)),
            head=(),
            tail=(),
            places=[p.id for p in places_of[aid]],
            transitions=tids_of[aid],
            procedures=procedures,
            colorsets=colorsets,
            variables=variables,
        ).keep(agents[aid])
    return MultiAgentModel(org.id, dict(assignment), agents, channels)


# ---------------------------------------------------------------------------
# oracle: model validation with nothing remembered


def cold_net(net):
    """A copy of the net in which the net and each procedure are new objects, so
    nothing a check or a compile kept on the originals carries over."""
    from dataclasses import replace

    parts = net.parts()
    parts["procedures"] = [replace(proc) for proc in parts["procedures"]]
    return Net(**parts)


def cold_model(mam):
    """A copy of the model in which every Net, procedure, agent and the model itself are new objects."""
    from dataclasses import replace

    agents = {aid: replace(a, task=cold_net(a.task)) for aid, a in mam.agents.items()}
    return MultiAgentModel(mam.organization_ref, mam.assignment, agents, dict(mam.channels))


def naive_validate_model(mam):
    """The whole coherence check in one pass over a cold copy of the model.

    Written out separately from `validate_model`, so a reused or stale
    per-agent check there shows up as a different report here.
    """
    from roleflow import ReceiveEvent, SendEvent, type_check_net
    from roleflow.cpn import analyze_expr
    from roleflow.errors import Violation, report_of

    mam = cold_model(mam)
    out = []
    for cid in sorted(mam.channels):
        ch = mam.channels[cid]
        if ch.id != cid:
            out.append(Violation("channel", cid, "channel keyed under a different id"))
        if ch.producer == ch.consumer:
            out.append(Violation("channel", cid, "producer and consumer must differ"))
        for end in (ch.producer, ch.consumer):
            if end not in mam.agents:
                out.append(Violation("channel", cid, f"endpoint '{end}' is not an agent"))
        if any(v.colorset != ch.colorset for v in ch.initial):
            out.append(Violation("channel", cid, "initial message does not conform"))

    owners = {"place": {}, "transition": {}}
    tables = {"procedure": {}, "colorset": {}, "variable": {}}
    for aid in sorted(mam.agents):
        agent = mam.agents[aid]
        task = agent.task
        if agent.id != aid:
            out.append(Violation("agent", aid, "agent keyed under a different id"))
        out.extend(type_check_net(task).entries)
        for pid in sorted(task.places):
            if pid in owners["place"]:
                out.append(Violation("place", pid, f"also owned by agent {owners['place'][pid]}"))
            elif pid in mam.channels:
                out.append(Violation("place", pid, "private place shadows a channel"))
            else:
                owners["place"][pid] = aid
        for tid in sorted(task.transitions):
            if tid in owners["transition"]:
                out.append(Violation("transition", tid, f"also owned by agent {owners['transition'][tid]}"))
            else:
                owners["transition"][tid] = aid
        for code, defs in (
            ("procedure", task.procedures),
            ("colorset", task.colorsets),
            ("variable", task.variables),
        ):
            for name in sorted(defs):
                first = tables[code].setdefault(name, (aid, defs[name]))
                if first[1] != defs[name]:
                    out.append(Violation(code, name, f"conflicting definitions ({first[0]}, {aid})"))
        for what, ends, end in (("sensor", agent.sensors, "consumer"), ("effector", agent.effectors, "producer")):
            for ch in sorted(ends):
                if ch not in mam.channels:
                    out.append(Violation(what, aid, f"{what} on unknown channel '{ch}'"))
                elif getattr(mam.channels[ch], end) != aid:
                    verb = "consumed" if what == "sensor" else "produced"
                    out.append(Violation(what, aid, f"{what} on channel '{ch}' {verb} elsewhere"))
        for tid in sorted(task.transitions):
            t = task.transitions[tid]
            if t.role not in agent.roles:
                out.append(Violation("role", tid, f"role '{t.role}' not held by agent {aid}"))
            proc = task.procedures.get(t.procedure)
            ch = mam.channels.get(t.event.channel) if t.event is not None else None
            if isinstance(t.event, ReceiveEvent):
                if t.event.channel not in agent.sensors:
                    out.append(Violation("event", tid, f"receive on '{t.event.channel}' without a sensor"))
                got = dict(proc.inputs).get(t.event.var) if proc else None
                if ch and got is not None and got != ch.colorset:
                    out.append(Violation("event", tid, "received message color does not match parameter"))
            elif isinstance(t.event, SendEvent):
                if t.event.channel not in agent.effectors:
                    out.append(Violation("event", tid, f"send on '{t.event.channel}' without an effector"))
                if ch and proc:
                    env = dict(proc.inputs + proc.outputs)
                    for problem in analyze_expr(t.event.message, ch.colorset, env)[0]:
                        out.append(Violation("event", tid, f"send message: {problem}"))
    return report_of(out)


def naive_validate_op(mam, op):
    """`validate_op` by the oracle: apply the op to a cold copy, then check it all."""
    from roleflow import adaptation
    from roleflow.errors import InvalidModel, TypeMismatch, Violation, report_of

    try:
        candidate = adaptation._apply(cold_model(mam), op)
    except adaptation._Rejection as rej:
        return report_of(rej.violations)
    except (InvalidModel, TypeMismatch) as exc:
        return report_of([Violation(op.kind, op.agent_id or op.channel_id or "-", str(exc))])
    return naive_validate_model(candidate)


# ---------------------------------------------------------------------------
# random color sets and markings for the codec fuzz


def gen_colorset(rng: random.Random, name: str, depth: int = 0) -> ColorSet:
    kinds = ["int", "text", "enum"] + (["product"] if depth < 2 else [])
    kind = rng.choice(kinds)
    if kind == "enum":
        members = tuple(f"m{j}" for j in range(rng.randint(1, 3)))
        return ColorSet(name, "enum", members=members)
    if kind == "product":
        comps = tuple(
            gen_colorset(rng, f"{name}c{j}", depth + 1) for j in range(rng.randint(2, 3))
        )
        return ColorSet(name, "product", components=comps)
    return ColorSet(name, kind)


def naive_color_equal(a: ColorSet, b: ColorSet) -> bool:
    """Structural equality of two colors, field by field, recursively."""
    return (
        a.name == b.name
        and a.kind == b.kind
        and a.members == b.members
        and len(a.components) == len(b.components)
        and all(naive_color_equal(x, y) for x, y in zip(a.components, b.components))
    )


def gen_value(rng: random.Random, cs: ColorSet) -> Value:
    if cs.kind == "unit":
        return Value(cs, None)
    if cs.kind == "int":
        return Value(cs, rng.randint(-50, 50))
    if cs.kind == "text":
        alphabet = 'ab"\\\n\tz-'
        return Value(cs, "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
    if cs.kind == "enum":
        return Value(cs, rng.choice(cs.members))
    return Value(cs, tuple(gen_value(rng, c) for c in cs.components))


def gen_net_and_marking(rng: random.Random):
    n = rng.randint(1, 4)
    places = []
    for i in range(n):
        cs = gen_colorset(rng, f"C{i}")
        places.append(Place(f"p{i}", cs))
    net = Net("codec", colorsets=[p.colorset for p in places], places=places)
    marking = Marking(
        {
            p.id: Multiset([gen_value(rng, p.colorset) for _ in range(rng.randint(0, 4))])
            for p in places
            if rng.random() < 0.8
        }
    )
    return net, marking


# ---------------------------------------------------------------------------
# random expressions for the evaluator oracle

_NAIVE_BUILTINS = ("identity", "constOf", "concat", "inc", "addK", "first", "second", "pairOf")


def _edge_value(rng: random.Random, cs: ColorSet) -> Value:
    """A random value whose ints sit at or next to a 64-bit bound 40 % of the time."""
    if cs.kind == "int" and rng.random() < 0.4:
        return Value(cs, rng.choice([INT_MAX - rng.randint(0, 1), INT_MIN + rng.randint(0, 1)]))
    if cs.kind == "product":
        return Value(cs, tuple(_edge_value(rng, c) for c in cs.components))
    return gen_value(rng, cs)


def gen_typed_expr(
    rng: random.Random, cs: ColorSet, binding: dict, depth: int = 0, inferable: bool = False
) -> Expr:
    """A random expression of color `cs`; it binds the fresh variables it uses in `binding`.

    An `inferable` expression carries its own color, as a projection's operand must.
    """
    forms = ["var", "lit", "identity", "constOf"]
    if depth < 4:
        forms += ["first", "second"]
        if cs.kind == "text":
            forms.append("concat")
        if cs.kind == "int":
            forms += ["inc", "addK"]
        if cs.kind == "product" and not inferable:
            forms.append("tuple")
            if len(cs.components) == 2:
                forms.append("pairOf")
    form = rng.choice(forms)
    if form == "var":
        known = [name for name, v in binding.items() if v.colorset == cs]
        if known and rng.random() < 0.5:
            return Expr.var(rng.choice(known))
        name = f"v{len(binding)}"
        binding[name] = _edge_value(rng, cs)
        return Expr.var(name)
    if form == "lit":
        return Expr.lit(_edge_value(rng, cs))
    sub = lambda c, own=inferable: gen_typed_expr(rng, c, binding, depth + 1, own)
    if form in ("identity", "constOf", "inc"):
        return Expr.call(form, sub(cs))
    if form == "concat":
        return Expr.call(form, sub(cs), sub(cs, False))
    if form == "addK":
        k = rng.choice([rng.randint(-5, 5), 2**62, -(2**62)])
        return Expr.call(form, sub(cs), Expr.lit(Value(cs, k)))
    if form in ("first", "second"):
        other = gen_colorset(rng, f"W{depth}")
        parts = (cs, other) if form == "first" else (other, cs)
        return Expr.call(form, sub(ColorSet(f"P{depth}", "product", components=parts), True))
    args = [sub(c, False) for c in cs.components]
    return Expr.tup(*args) if form == "tuple" else Expr.call(form, *args)


def gen_untyped_expr(rng: random.Random, colors: list, depth: int = 0) -> Expr:
    """A random expression with no type discipline over variables v0..v3 and `colors`."""
    form = rng.choice(["var", "lit", "tuple", "call", "call"] if depth < 3 else ["var", "lit"])
    if form == "var":
        return Expr.var(f"v{rng.randint(0, 4)}")
    if form == "lit":
        return Expr.lit(_edge_value(rng, rng.choice(colors)))
    args = [gen_untyped_expr(rng, colors, depth + 1) for _ in range(rng.randint(0, 3))]
    if form == "tuple":
        return Expr.tup(*args)
    return Expr.call(rng.choice(_NAIVE_BUILTINS + ("dup",)), *args)


# ---------------------------------------------------------------------------
# deeply nested inputs for the parsers' nesting caps


def nested_inputs(org_text: str, expr_depth: int, color_depth: int) -> dict:
    """Inputs whose expression or color nests `expr_depth` or `color_depth` levels deep.

    `org_text` is an organization with the rule `o = inc(n)`; each value is a
    model text, except "context descriptor", which is CTX1 context text.
    """
    descriptor = "T=int"
    for i in range(color_depth):
        descriptor = f"P{i}=product({descriptor},T=int)"
    chain = "colorset C0 = product(Tok,Tok)\n" if color_depth else ""
    chain += "".join(f"colorset C{i} = product(C{i - 1},Tok)\n" for i in range(1, color_depth))
    return {
        "expression": org_text.replace("o = inc(n)", "o = " + "inc(" * expr_depth + "n" + ")" * expr_depth),
        "colorset chain": org_text + chain,
        "channel descriptor": f"mas org1\nchannel c : {descriptor} from a to b\n",
        "context descriptor": f"CTX1\ncursor 0\nsteps 0\nchannel c : {descriptor}\n",
    }


def shared_product_chain(org_text: str, k: int) -> str:
    """`org_text` plus `colorset D0 = product(Tok,Tok)` and k-1 lines
    `colorset Di = product(Di-1,Di-1)`: D{k-1} nests k products, and a walk
    that follows every path through it visits D0 2^(k-1) times."""
    lines = ["colorset D0 = product(Tok,Tok)"]
    lines += [f"colorset D{i} = product(D{i - 1},D{i - 1})" for i in range(1, k)]
    return org_text.replace("colorset Tok = int\n", "colorset Tok = int\n" + "\n".join(lines) + "\n")


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed,
    so that a runaway computation fails a test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# oracle: character-by-character tokenizer

_NAIVE_PUNCT = set("(){},;:=.")
_NAIVE_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAIVE_IDENT_CONT = _NAIVE_IDENT_START | set("0123456789!")
_NAIVE_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def naive_tokenize(text: str):
    """Tokenize by moving one character at a time; ints are str.isdecimal runs."""
    from roleflow.errors import ModelSyntaxError
    from roleflow.textscan import Token

    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("arrow", "->", start_line, start_col))
            advance(2)
            continue
        if ch == "-" or ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            lit = text[i:j]
            if lit == "-":
                raise ModelSyntaxError(start_line, start_col, "a token")
            tokens.append(Token("int", lit, start_line, start_col))
            advance(j - i)
            continue
        if ch == '"':
            out = []
            j = i + 1
            while True:
                if j >= n:
                    raise ModelSyntaxError(start_line, start_col, "closing quote")
                c = text[j]
                if c == '"':
                    j += 1
                    break
                if c == "\\":
                    if j + 1 >= n or text[j + 1] not in _NAIVE_UNESCAPES:
                        raise ModelSyntaxError(start_line, start_col, "a valid escape")
                    out.append(_NAIVE_UNESCAPES[text[j + 1]])
                    j += 2
                    continue
                if c == "\n":
                    raise ModelSyntaxError(start_line, start_col, "closing quote before end of line")
                out.append(c)
                j += 1
            tokens.append(Token("string", "".join(out), start_line, start_col))
            advance(j - i)
            continue
        if ch in _NAIVE_IDENT_START:
            j = i + 1
            while j < n and text[j] in _NAIVE_IDENT_CONT:
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch in _NAIVE_PUNCT:
            tokens.append(Token("punct", ch, start_line, start_col))
            advance(1)
            continue
        raise ModelSyntaxError(start_line, start_col, f"a token (found {ch!r})")
    tokens.append(Token("eof", "", line, col))
    return tokens


# pieces of random lexer input, joined with no separator so that neighbours
# fuse: comments (one holds a quote mark), '#' inside strings, CRLF, tabs,
# signs, arrows, integers and punctuation
LEXER_PIECES = [
    "org", "x!", "_a1", "Z", " ", "\t", "\r\n", "\n", "#", "# c", '# "q', '"a#b"', '"\\"#"', '"t\\t"',
    "-", "->", "-12", "7", "0", "(", ")", "{", "}", ",", ";", ":", "=", ".", "->-3",
]
# characters that start no token: form feed, vertical tab, NBSP, a
# non-decimal digit, and the quote and backslash of a broken string
LEXER_BAD_PIECES = ["\f", "\v", "\u00a0", "\u00b2", '"', "\\", '"\n"']


def random_lexer_text(rng: random.Random, pieces: int = 30) -> str:
    """Seeded pieces of lexer input; about one text in five holds a piece
    that starts no token, and one in four ends inside a comment."""
    parts = [rng.choice(LEXER_PIECES) for _ in range(rng.randint(0, pieces))]
    if rng.random() < 0.2:
        parts.insert(rng.randint(0, len(parts)), rng.choice(LEXER_BAD_PIECES))
    if rng.random() < 0.25:
        parts.append("# a comment the text ends in")
    return "".join(parts)


# ---------------------------------------------------------------------------
# oracle: a fixed run of tokens read one token at a time


def expect_read(ts, shape) -> list[str]:
    """What `TokenStream.read(shape)` gives, read with one `ts.expect` call per slot."""
    return [ts.expect(*slot) for slot in shape.slots]


# blanks, comment and quote marks, escapes, arrows, punctuation, a
# non-decimal digit (²), a decimal digit outside ASCII (٣) and a letter
# outside ASCII (é)
MUTATION_ALPHABET = ' \t\r\n#"\\->(){},;:=.!_aZ09nrt²٣é'


def mutate_text(rng: random.Random, text: str, edits: int = 3) -> str:
    """Insert, delete or substitute a few characters at random offsets."""
    chars = list(text)
    for _ in range(edits):
        at = rng.randint(0, len(chars))
        how = rng.randrange(3)
        if how == 0 or at == len(chars):
            chars.insert(at, rng.choice(MUTATION_ALPHABET))
        elif how == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


# ---------------------------------------------------------------------------
# parser inputs: well-formed texts, lexical edge cases, and mutations of both


def model_texts(rng: random.Random, count: int) -> list[str]:
    """The demo models and scenarios, then generated organizations and their models."""
    texts = [path.read_text() for path in sorted(MODELS.iterdir())]
    for i in range(count):
        org = gen_org(rng, f"lx{i}")
        texts.append(serialize_model(org))
        texts.append(serialize_model(decompose(org, next(iter(all_assignments(org.roles))))))
    return texts


LEXICAL_EDGES = [
    "",
    "# only a comment",
    "a\r\n\tb",
    "->",
    "-",
    "- >",
    "-5 --5",
    "x!y _1 9z",
    "²",
    "1²",
    "-²",
    "٣٣ -٣",
    "é",
    "\f",
    '"ok \\n \\t \\" \\\\ \\r"',
    '"unterminated',
    '"bad \\q escape"',
    '"backslash at the end \\',
    '"escaped quote at the end \\"',
    '"broken\nline"',
]

# adaptation requests against org1 decomposed as A -> agent1, B -> agent2;
# together they use every operation keyword
OPS_TEXTS = [
    "rpP agent2 inc1 proc inc2(n:Tok) -> (o:Tok) { o = addK(n,2) }",
    "rpT agent2 task {\n  place hold : Tok\n  trans tB role=B proc=inc1 recv mid n\n  out hold : o\n}",
    "aCom c2 : Tok=int from agent1 to agent2 init { 1, 2 }; rCom mid",
    "rpCom mid channel mid2 : P=product(Tok=int,T=text) from agent1 to agent2 init { (1,\"a\") }",
    "aSn agent2 mid; rSn agent2 mid; aEf agent1 mid; rEf agent1 mid",
    "rpSn agent2 mid mid2; rpEf agent1 mid mid2",
    "aP agent1 proc p(n:Tok) -> (o:Tok) { o = addK(inc(n),3) }; rP agent2 inc1",
    "addAgent agent3 { assumes B sensor mid place p : Tok init { 3 } proc p2(n:Tok) -> (o:Tok) { o = n }"
    " trans t role=B proc=p2 recv mid n out p : o }",
    "removeAgent agent3; modifyAgent agent1 { rP agent1 pass; aP agent1 proc q(n:Tok) -> (o:Tok) { o = inc(n) } }",
]


def codec_samples() -> tuple[list[str], list]:
    """CTX1 texts, and (MRK1 text, task net) pairs, from three checkpoints
    each of the org1 and devsociety runs."""
    contexts, markings = [], []
    for name, run_scn in (("org1", "org1_run"), ("devsociety", "devsociety")):
        org = parse_model((MODELS / f"{name}.org").read_text()).model
        sdoc = parse_scenario((MODELS / f"{run_scn}.scn").read_text())
        system = synthesize(decompose(org, sdoc.assignment))
        for _ in range(3):
            go(system, sdoc.scenario)
            ctx = save_context(system)
            contexts.append(write_context(ctx).decode())
            for aid, data in ctx.agent_markings:
                markings.append((data.decode(), system.task(aid)))
    return contexts, markings


def parse_corpus(per_parser: int = 500) -> list[tuple]:
    """(parser, args) pairs: `per_parser` seeded mutations for each of the
    five text parsers, then the lexical edges and the nesting caps."""
    rng = random.Random(1616)
    models = model_texts(rng, 4)
    scenarios = [path.read_text() for path in sorted(MODELS.glob("*.scn"))]
    contexts, markings = codec_samples()
    org1 = parse_model((MODELS / "org1.org").read_text()).model
    mam = decompose(org1, {"A": "agent1", "B": "agent2"})
    cases = []
    for _ in range(per_parser):
        cases.append((parse_model, (mutate_text(rng, rng.choice(models), rng.randint(1, 4)),)))
        cases.append((parse_scenario, (mutate_text(rng, rng.choice(scenarios), rng.randint(1, 4)),)))
        cases.append((parse_ops_text, (mutate_text(rng, rng.choice(OPS_TEXTS), rng.randint(1, 4)), mam)))
        cases.append((read_context, (mutate_text(rng, rng.choice(contexts), rng.randint(1, 4)).encode(),)))
        text, task = rng.choice(markings)
        cases.append((restore_marking, (mutate_text(rng, text, rng.randint(1, 4)).encode(), task)))
    cases += [(parse_model, (text,)) for text in LEXICAL_EDGES]
    nested = nested_inputs((MODELS / "org1.org").read_text(), 600, 1000)
    cases.append((read_context, (nested.pop("context descriptor").encode(),)))
    cases += [(parse_model, (text,)) for text in nested.values()]
    return cases


def parse_outcome_lines(per_parser: int = 500) -> list[str]:
    """One line per input of `parse_corpus`: its number, the parser, and `ok`
    or the exception's class and message."""
    lines = []
    for k, (parse, args) in enumerate(parse_corpus(per_parser)):
        try:
            parse(*args)
            outcome = "ok"
        except Exception as exc:
            outcome = f"{type(exc).__name__}\t{json.dumps(str(exc), ensure_ascii=False)}"
        lines.append(f"{k}\t{parse.__name__}\t{outcome}")
    return lines


# ---------------------------------------------------------------------------
# seeded structural mutations, and what the type check and the checked functions make of them

FLAG = ColorSet("Flag", "enum", members=("false", "true"))
# one message on each channel the hand-made, generated and mutated nets use
OUTCOME_MAILBOX = (("ch", tok(5)), ("ch0", tok(3)), ("ch1", tok(4)))


def mutate_net(rng: random.Random, net: Net, edits: int) -> Net:
    """`net` after `edits` seeded structural edits: an arc dropped or relabelled,
    the procedures of two transitions swapped, a guard from `gen_untyped_expr`,
    or a receive or send event added."""
    parts = net.parts()
    arcs = parts["arcs"]
    transitions = {t.id: t for t in parts["transitions"]}
    names = {a.label for a in arcs}
    for proc in parts["procedures"]:
        names.update(proc.input_names() + proc.output_names())
    labels = sorted(names) + ["zz"]
    for _ in range(edits):
        edit = rng.choice(("drop", "relabel", "swap", "guard", "receive", "send"))
        if edit in ("drop", "relabel"):
            if arcs:
                arc = arcs.pop(rng.randrange(len(arcs)))
                if edit == "relabel":
                    arcs.append(arc._replace(label=rng.choice(labels)))
            continue
        t = transitions[rng.choice(sorted(transitions))]
        if edit == "swap":
            other = transitions[rng.choice(sorted(transitions))]
            transitions[t.id] = t._replace(procedure=other.procedure)
            transitions[other.id] = transitions[other.id]._replace(procedure=t.procedure)
        elif edit == "guard":
            transitions[t.id] = t._replace(guard=gen_untyped_expr(rng, [TOK, FLAG]))
        elif edit == "receive":
            event = ReceiveEvent(rng.choice(("ch0", "ch1")), rng.choice(labels))
            transitions[t.id] = t._replace(event=event)
        else:
            message = Expr.var(rng.choice(labels)) if rng.random() < 0.7 else gen_untyped_expr(rng, [TOK, FLAG])
            transitions[t.id] = t._replace(event=SendEvent("ch0", message))
    parts["transitions"] = list(transitions.values())
    return Net(**parts)


def _outcome(call):
    try:
        call()
        return "ok"
    except Exception as exc:
        return f"{type(exc).__name__} {json.dumps(str(exc), ensure_ascii=False)}"


def type_check_outcome_lines(named_nets) -> list[str]:
    """One line per net: its number, its name, its rendered type report, then
    the outcome (`ok`, or the exception's class and message) of
    `enabled_bindings` and `fire` on each transition, of `step` and of
    `run_to_quiescence`. `fire` gets the first enabled binding, else none.

    The nets are `named_nets` ((name, net) pairs, run from their initial
    marking), then 150 seeded mutations each of a `gen_bounded_net`
    net, of a `gen_org` organization's net, and of the task of one of its
    agents that has transitions.
    """
    rng = random.Random(1818)
    cases = [(name, net, net.initial_marking(), OUTCOME_MAILBOX) for name, net in named_nets]
    for i in range(150):
        net, marking, mailbox = gen_bounded_net(rng)
        cases.append((f"bounded{i}", mutate_net(rng, net, rng.randint(1, 3)), marking, mailbox))
        org = gen_org(rng, f"org{i}")
        # a mutation keeps the places, and with them the initial marking
        net = org.global_task
        cases.append((f"org{i}", mutate_net(rng, net, rng.randint(1, 3)), net.initial_marking(), OUTCOME_MAILBOX))
        mam = decompose(org, list(all_assignments(org.roles))[-1])
        net = rng.choice([agent.task for agent in mam.agents.values() if agent.task.transitions])
        cases.append((f"agent{i}", mutate_net(rng, net, rng.randint(1, 3)), net.initial_marking(), OUTCOME_MAILBOX))
    lines = []
    for k, (name, net, marking, mailbox) in enumerate(cases):
        report = json.dumps(type_check_net(net).render(), ensure_ascii=False)
        outcomes = []
        with warnings.catch_warnings():  # a clamped result reads the same with or without -W error
            warnings.simplefilter("error", SaturationWarning)
            for tid in net.transition_ids:
                found = []
                outcomes.append(_outcome(lambda: found.extend(enabled_bindings(net, marking, tid, mailbox))))
                outcomes.append(_outcome(lambda: fire(net, marking, tid, found[0] if found else {})))
            outcomes.append(_outcome(lambda: step(net, marking, mailbox)))
            outcomes.append(_outcome(lambda: run_to_quiescence(net, marking, mailbox, 20)))
        lines.append("\t".join([str(k), name, report, *outcomes]))
    return lines
