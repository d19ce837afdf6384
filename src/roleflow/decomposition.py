"""Splitting a global task into per-agent tasks and joining them back.

Role attribution turns each cross-agent place into an asynchronous FIFO
channel: the writing transition gains a send event, the reading transition
gains a receive event, and both drop the shared arc. The inverse rebuilds
one net by re-materializing every channel as a shared place, which is what
the structural equivalence check rides on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, NamedTuple

from .cpn import (
    ColorSet,
    Expr,
    InputArc,
    Marking,
    Multiset,
    Net,
    OutputArc,
    Place,
    ProcedureDef,
    ReceiveEvent,
    SendEvent,
    Transition,
    Value,
    analyze_expr,
    inherit_type_report,
    type_check_net,
    typed_record,
)
from .errors import (
    CoherenceError,
    IncoherentOrganization,
    InconsistentChannels,
    InvalidModel,
    PartialAssignment,
    ValidationReport,
    Violation,
    report_of,
)
from .organization import Organization, place_role_adjacency, validate_organization

RoleAssignment = Mapping[str, str]


@typed_record
class Channel(NamedTuple):
    """A derived communication means; id matches the global place it replaced."""

    id: str
    colorset: ColorSet
    producer: str
    consumer: str
    initial: tuple[Value, ...] = ()


@dataclass(frozen=True)
class AgentModel:
    """One agent: roles held, channel capabilities, and an event-annotated task net.

    The agent's procedure knowledge is the task net's procedure table.
    """

    id: str
    roles: frozenset[str]
    sensors: frozenset[str]
    effectors: frozenset[str]
    task: Net

    @property
    def procedures(self) -> dict[str, ProcedureDef]:
        return self.task.procedures


@dataclass
class MultiAgentModel:
    organization_ref: str
    assignment: dict[str, str]
    agents: dict[str, AgentModel]
    channels: dict[str, Channel]

    def __init__(self, organization_ref, assignment, agents, channels):
        self.organization_ref = organization_ref
        self.assignment = dict(assignment)
        self.agents = (
            {a.id: a for a in agents} if not isinstance(agents, dict) else dict(agents)
        )
        self.channels = (
            {c.id: c for c in channels} if not isinstance(channels, dict) else dict(channels)
        )

    def agent_ids(self) -> list[str]:
        return sorted(self.agents)

    def __eq__(self, other):
        if not isinstance(other, MultiAgentModel):
            return NotImplemented
        return (
            self.organization_ref == other.organization_ref
            and self.assignment == other.assignment
            and self.agents == other.agents
            and self.channels == other.channels
        )


def decompose(org: Organization, assignment: RoleAssignment) -> MultiAgentModel:
    """Derive a multi-agent model from an organization under a total role assignment.

    The assignment gives each declared role an agent and names no other role,
    or `PartialAssignment` is raised. Each place's writing and reading agents
    come from the role adjacency `validate_organization` keeps on the net.

    Each agent comes with the organization's verdict: its task gets the
    global net's clean type report and the agent its `_AgentChecks`, with
    no entries, so validating the model checks no agent again. It holds
    because an agent's places, procedures, color sets, variables, guards
    and kept arcs are the global net's own objects, and what is new follows
    from the global check and the grouping below. A receive variable is
    the label of an arc in the procedure's signature, and the place color
    matches the parameter color; the other arcs feed the other inputs once.
    A send message is `Expr.var` of a result whose color is the channel's,
    and the other arcs route the other results once. Each role, sensor and
    effector belongs to the agent that `assignment` and the single writer
    and reader of each channel give it.
    """
    report = validate_organization(org)
    if not report.empty:
        raise IncoherentOrganization("organization fails validation", report)
    missing = sorted(set(org.roles) - set(assignment))
    if missing:
        raise PartialAssignment(f"roles without an agent: {missing}")
    undeclared = sorted(set(assignment) - set(org.roles))
    if undeclared:
        raise PartialAssignment(f"roles the organization does not declare: {undeclared}")

    net = org.global_task
    agent_ids = sorted(set(assignment.values()))
    agent_of_role = assignment.__getitem__
    # validation built the role adjacency, so the arcs are not walked for it again
    adjacency = place_role_adjacency(net)

    # each agent's places, transitions and roles, gathered in one pass each
    places_of: dict[str, list[Place]] = {aid: [] for aid in agent_ids}
    channels: dict[str, Channel] = {}
    for pid in sorted(net.places):
        writer_roles, reader_roles = adjacency[pid]
        writers = set(map(agent_of_role, writer_roles))
        readers = set(map(agent_of_role, reader_roles))
        adjacent = writers | readers
        if len(adjacent) <= 1:
            # isolated places go to the first agent so nothing is dropped
            places_of[next(iter(adjacent)) if adjacent else agent_ids[0]].append(net.places[pid])
            continue
        if len(writers) != 1:
            raise IncoherentOrganization(
                f"place {pid} is written by several agents; no single producer"
            )
        if len(readers) != 1:
            raise IncoherentOrganization(
                f"place {pid} is read by several agents; no single consumer"
            )
        place = net.places[pid]
        channels[pid] = Channel(
            pid, place.colorset, next(iter(writers)), next(iter(readers)), tuple(place.initial.values())
        )

    tids_of: dict[str, list[str]] = {aid: [] for aid in agent_ids}
    for tid in net.transition_ids:
        tids_of[assignment[net.transitions[tid].role]].append(tid)

    roles_of: dict[str, set[str]] = {aid: set() for aid in agent_ids}
    for role, aid in assignment.items():
        roles_of[aid].add(role)

    colorsets = [(n, net.colorsets[n]) for n in sorted(net.colorsets)]
    variables = [(n, net.variables[n]) for n in sorted(net.variables)]
    # every agent's task declares the organization's colors and variables
    net_colorsets, net_variables = list(net.colorsets.values()), list(net.variables.values())
    crowded = []  # transitions on more than one channel
    agents: dict[str, AgentModel] = {}
    for aid in agent_ids:
        transitions = []
        arcs = []
        sensors: set[str] = set()
        effectors: set[str] = set()
        proc_names: set[str] = set()
        for tid in tids_of[aid]:
            t = net.transitions[tid]
            proc_names.add(t.procedure)
            event = None
            for arc in net.input_arcs(tid):
                if arc.place in channels:
                    if event is not None:
                        crowded.append(tid)
                    event = ReceiveEvent(arc.place, arc.label)
                    sensors.add(arc.place)
                else:
                    arcs.append(arc)
            for arc in net.output_arcs(tid):
                if arc.place in channels:
                    if event is not None:
                        crowded.append(tid)
                    event = SendEvent(arc.place, Expr.var(arc.label))
                    effectors.add(arc.place)
                else:
                    arcs.append(arc)
            # a global transition carries no event: one on no channel is kept as it is
            transitions.append(t if event is None else Transition(t.id, t.role, t.procedure, t.guard, event))
        procedures = [(p, net.procedures[p]) for p in sorted(proc_names)]
        task = Net(
            aid,
            colorsets=net_colorsets,
            variables=net_variables,
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
    if crowded:
        tid = min(crowded)
        touched = [a for a in net.input_arcs(tid) + net.output_arcs(tid) if a.place in channels]
        raise IncoherentOrganization(
            f"transition {tid} would need {len(touched)} message events; only one is supported"
        )
    return MultiAgentModel(org.id, dict(assignment), agents, channels)


def recompose(mam: MultiAgentModel) -> Net:
    """Union of the agent tasks with every channel re-materialized as a shared place."""
    colorsets: dict[str, object] = {}
    variables: dict[str, object] = {}
    places: dict[str, Place] = {}
    transitions: dict[str, Transition] = {}
    procedures: dict[str, ProcedureDef] = {}
    arcs: list = []

    def merge(table: dict, key: str, value, what: str):
        if key in table:
            if table[key] != value:
                raise InconsistentChannels(f"conflicting {what} '{key}' across agents")
        else:
            table[key] = value

    for aid in mam.agent_ids():
        task = mam.agents[aid].task
        for cs in task.colorsets.values():
            merge(colorsets, cs.name, cs, "color set")
        for var in task.variables.values():
            merge(variables, var.name, var, "variable")
        for place in task.places.values():
            if place.id in places:
                raise InconsistentChannels(f"place '{place.id}' owned by two agents")
            places[place.id] = place
        for proc in task.procedures.values():
            merge(procedures, proc.name, proc, "procedure")
        for t in task.transitions.values():
            if t.id in transitions:
                raise InconsistentChannels(f"transition '{t.id}' owned by two agents")
        arcs.extend(task.arcs)

        for t in sorted(task.transitions.values(), key=lambda t: t.id):
            event = t.event
            if isinstance(event, SendEvent):
                if event.channel not in mam.channels:
                    raise InconsistentChannels(
                        f"transition {t.id} sends on undeclared channel '{event.channel}'"
                    )
                if event.message.kind != "var":
                    raise InconsistentChannels(
                        f"send of {t.id} cannot be re-materialized as an arc"
                    )
                arcs.append(OutputArc(t.id, event.channel, event.message.name))
            elif isinstance(event, ReceiveEvent):
                if event.channel not in mam.channels:
                    raise InconsistentChannels(
                        f"transition {t.id} receives on undeclared channel '{event.channel}'"
                    )
                arcs.append(InputArc(event.channel, t.id, event.var))
            transitions[t.id] = Transition(t.id, t.role, t.procedure, guard=t.guard, event=None)

    for cid in sorted(mam.channels):
        ch = mam.channels[cid]
        if cid in places:
            raise InconsistentChannels(f"channel '{cid}' collides with a private place")
        merge(colorsets, ch.colorset.name, ch.colorset, "color set")
        places[cid] = Place(cid, ch.colorset, Multiset(ch.initial))

    return Net(
        mam.organization_ref,
        colorsets=list(colorsets.values()),
        variables=list(variables.values()),
        places=list(places.values()),
        transitions=list(transitions.values()),
        procedures=list(procedures.values()),
        arcs=arcs,
    )


def check_equivalence(global_task: Net, recomposed: Net) -> bool:
    """Structural identity after normalizing the derived net id."""
    from .modelio import canonical_net_text

    return canonical_net_text(global_task) == canonical_net_text(recomposed)


def project_marking(
    global_marking: Marking, mam: MultiAgentModel
) -> tuple[dict[str, Marking], dict[str, tuple[Value, ...]]]:
    """Route a global marking to per-agent markings and per-channel mailbox contents."""
    place_agent: dict[str, str] = {}
    for aid in mam.agent_ids():
        for pid in mam.agents[aid].task.places:
            place_agent[pid] = aid

    per_agent: dict[str, dict[str, Multiset]] = {aid: {} for aid in mam.agent_ids()}
    per_channel: dict[str, tuple[Value, ...]] = {cid: () for cid in sorted(mam.channels)}
    for pid in global_marking.place_ids():
        tokens = global_marking.get(pid)
        if pid in mam.channels:
            per_channel[pid] = tuple(tokens.values())
        elif pid in place_agent:
            per_agent[place_agent[pid]][pid] = tokens
        else:
            raise InvalidModel(f"marking names place '{pid}' unknown to the model")
    return ({aid: Marking(ms) for aid, ms in per_agent.items()}, per_channel)


def marking_compatible(old_task: Net, new_task: Net) -> bool:
    """Whether any marking of the old task can be restored into the new task."""
    for pid, place in old_task.places.items():
        other = new_task.places.get(pid)
        if other is None or other.colorset is not place.colorset:
            return False
    return True


def changed_keys(old: Mapping, new: Mapping) -> list:
    """The sorted keys whose value is not the same object in both mappings.

    Absent counts as a value of its own. When both mappings hold the same
    keys in the same order (a request that only replaced values), the values
    are paired by position and compared at C level. Looking every key up
    instead costs relay-adapt about 4 % of its `run_s`.
    """
    if len(old) == len(new) and list(old) == list(new):
        return sorted(compress(old, map(operator.is_not, old.values(), new.values())))
    return sorted(k for k in old.keys() | new.keys() if old.get(k, _ABSENT) is not new.get(k, _ABSENT))


_ABSENT = object()


def _channel_checks(mam: MultiAgentModel) -> list[Violation]:
    out: list[Violation] = []
    for cid in sorted(mam.channels):
        ch = mam.channels[cid]
        if ch.id != cid:
            out.append(Violation("channel", cid, "channel keyed under a different id"))
        if ch.producer == ch.consumer:
            out.append(Violation("channel", cid, "producer and consumer must differ"))
        for end in (ch.producer, ch.consumer):
            if end not in mam.agents:
                out.append(Violation("channel", cid, f"endpoint '{end}' is not an agent"))
        for v in ch.initial:
            if v.colorset != ch.colorset:
                out.append(Violation("channel", cid, "initial message does not conform"))
                break
    return out


class _AgentChecks:
    """What `validate_model` needs of one agent that no other agent affects.

    `head` is the task's type check; `tail` holds the sensor, effector, role
    and event checks. `places` to `variables` are the sorted keys the
    cross-agent tables are built from. It all depends only on the agent
    object, the key it is filed under, and the Channel object (or absence)
    behind each channel name the agent uses, listed in `channels`.
    `run` computes them; `decompose` builds the ones its agents carry.
    """

    __slots__ = ("aid", "channels", "head", "tail", "places", "transitions",
                 "procedures", "colorsets", "variables")

    def __init__(self, aid, channels, head, tail, places, transitions, procedures, colorsets, variables):
        self.aid = aid
        self.channels = channels
        self.head = head
        self.tail = tail
        self.places = places
        self.transitions = transitions
        self.procedures = procedures
        self.colorsets = colorsets
        self.variables = variables

    @classmethod
    def run(cls, aid: str, agent: AgentModel, channels: Mapping[str, Channel]) -> "_AgentChecks":
        """Every check of the agent, with the key lists read off its task."""
        task = agent.task
        names = set(agent.sensors | agent.effectors)
        names.update(t.event.channel for t in task.transitions.values() if t.event is not None)
        return cls(
            aid,
            tuple((n, channels.get(n)) for n in sorted(names)),
            type_check_net(task).entries,
            tuple(_local_checks(aid, agent, channels)),
            sorted(task.places),
            sorted(task.transitions),
            [(n, task.procedures[n]) for n in sorted(task.procedures)],
            [(n, task.colorsets[n]) for n in sorted(task.colorsets)],
            [(n, task.variables[n]) for n in sorted(task.variables)],
        )

    def keep(self, agent: AgentModel) -> "_AgentChecks":
        """These checks, kept on the agent object for `of` to reuse."""
        object.__setattr__(agent, "_checks", self)
        return self

    @staticmethod
    def of(aid: str, agent: AgentModel, channels: Mapping[str, Channel]) -> "_AgentChecks":
        """The agent's checks, reused from the agent object while they still hold."""
        checks = getattr(agent, "_checks", None)
        if (
            checks is None
            or checks.aid != aid
            or any(channels.get(n) is not ch for n, ch in checks.channels)
        ):
            checks = _AgentChecks.run(aid, agent, channels).keep(agent)
        return checks


def _local_checks(aid: str, agent: AgentModel, channels: Mapping[str, Channel]):
    task = agent.task
    for ch in sorted(agent.sensors):
        if ch not in channels:
            yield Violation("sensor", aid, f"sensor on unknown channel '{ch}'")
        elif channels[ch].consumer != aid:
            yield Violation("sensor", aid, f"sensor on channel '{ch}' consumed elsewhere")
    for ch in sorted(agent.effectors):
        if ch not in channels:
            yield Violation("effector", aid, f"effector on unknown channel '{ch}'")
        elif channels[ch].producer != aid:
            yield Violation("effector", aid, f"effector on channel '{ch}' produced elsewhere")

    for tid in sorted(task.transitions):
        t = task.transitions[tid]
        if t.role not in agent.roles:
            yield Violation("role", tid, f"role '{t.role}' not held by agent {aid}")
        proc = task.procedures.get(t.procedure)
        if isinstance(t.event, ReceiveEvent):
            ch = channels.get(t.event.channel)
            if t.event.channel not in agent.sensors:
                yield Violation("event", tid, f"receive on '{t.event.channel}' without a sensor")
            if ch and proc:
                params = dict(proc.inputs)
                got = params.get(t.event.var)
                if got is not None and got != ch.colorset:
                    yield Violation("event", tid, "received message color does not match parameter")
        elif isinstance(t.event, SendEvent):
            ch = channels.get(t.event.channel)
            if t.event.channel not in agent.effectors:
                yield Violation("event", tid, f"send on '{t.event.channel}' without an effector")
            if ch and proc:
                env = dict(proc.inputs)
                env.update(dict(proc.outputs))
                for p in analyze_expr(t.event.message, ch.colorset, env)[0]:
                    yield Violation("event", tid, f"send message: {p}")


class _Tables(NamedTuple):
    """The cross-agent tables of a model that validated clean. Only `_enter`
    and `_leave` write them: `_full_pass` enters every agent into empty
    tables, and `_replace_agents` swaps the replaced agents' entries in
    copies of the tables they change, sharing the others with the clean
    model it starts from; that ends with the tables the full pass builds.
    A model's tables never change once it keeps them.

    `places` and `transitions` map each id to the agent that owns it;
    `procedures`, `colorsets` and `variables` map each name to (a
    definition, the number of agents defining it). Every agent's definition
    of a name equals the one kept, so no entry depends on entry order.
    """

    places: dict
    transitions: dict
    procedures: dict
    colorsets: dict
    variables: dict


class _Validated:
    """What `validate_model` remembers of the model it checked: the agent and
    channel objects by key, in dict order, the report, and, for a clean
    report, the cross-agent tables.

    Two snapshots have the same channels when their keys and objects compare
    equal. Tuple comparison tries identity first, so unchanged objects cost
    no `__eq__` call; an equal but distinct object validates the same way.
    """

    __slots__ = ("agent_ids", "agents", "channel_ids", "channels", "report", "tables")

    def __init__(self, mam: MultiAgentModel):
        self.agent_ids = tuple(mam.agents)
        self.agents = tuple(mam.agents.values())
        self.channel_ids = tuple(mam.channels)
        self.channels = tuple(mam.channels.values())
        self.report: ValidationReport = None
        self.tables: _Tables = None

    def same_channels(self, other: "_Validated") -> bool:
        return self.channel_ids == other.channel_ids and self.channels == other.channels


def validate_model(mam: MultiAgentModel, base: MultiAgentModel = None) -> ValidationReport:
    """Full coherence check of a multi-agent model.

    The entries come in a fixed order: the channel checks, then per agent in
    id order its type check, its clashes with earlier agents (owners,
    procedures, color sets, variables) and its own capability and event
    checks. The cost follows what changed:

    - Each agent's own checks are kept on its AgentModel (see `_AgentChecks`).
    - The model remembers the agent and channel objects it was validated
      with. A model that validated clean also keeps its cross-agent tables
      (see `_Tables`). When this model, or `base` (the model it was derived
      from), was last validated clean with the same channel objects and the
      same agent ids, and this model differs from it only in replaced
      agents, only those agents are checked: each leaves the tables and
      enters them again through the rules the full pass applies, and the
      clean report is returned. So an unchanged clean model is not checked
      again, and an edit in place replaces an object and so is checked
      again. Any entry that check finds, any agent filed under another id,
      and any change to the channels or the agent ids runs the full pass
      instead, so the report keeps its order; a model with violations runs
      it every time. No model keeps a reference to `base`.
    """
    seen = _Validated(mam)
    for prior in (getattr(mam, "_validated", None), getattr(base, "_validated", None)):
        if prior is not None and prior.tables is not None:
            seen.tables = _replace_agents(mam, seen, prior)
            if seen.tables is not None:
                seen.report = prior.report  # clean, like this model
                break
    if seen.tables is None:
        seen.report, seen.tables = _full_pass(mam)
    mam._validated = seen
    return seen.report


def _full_pass(mam: MultiAgentModel) -> tuple[ValidationReport, "_Tables"]:
    """Every check in report order; the tables come along when the report is clean."""
    out = _channel_checks(mam)
    tables = _Tables({}, {}, {}, {}, {})
    first: dict[tuple[str, str], str] = {}
    for aid in mam.agent_ids():
        agent = mam.agents[aid]
        if agent.id != aid:
            out.append(Violation("agent", aid, "agent keyed under a different id"))
        checks = _AgentChecks.of(aid, agent, mam.channels)
        out.extend(checks.head)
        _enter(tables, checks, aid, mam.channels, out, first)
        out.extend(checks.tail)
    report = report_of(out)
    return report, tables if report.empty else None


def _replace_agents(mam: MultiAgentModel, seen: _Validated, prior: _Validated):
    """The tables of `mam` from those of a clean `prior` it differs from only in
    replaced agents, or None when the full pass must decide.

    Each replaced agent leaves the tables with its old checks and enters
    them with its new ones. A key list equal to the old one would leave and
    enter the same entries, so it is skipped; a table is copied from the
    prior's before its first change and shared otherwise, so an `rpP`
    copies only `procedures`. The old checks are on the old agent:
    `decompose` and `_AgentChecks.of` keep them on every agent a clean memo
    holds, and the key lists depend only on the task.
    """
    if seen.agent_ids != prior.agent_ids or not seen.same_channels(prior):
        return None
    # indices, not zipped triples: the scan runs on every validation of a
    # model with unchanged ids, and zipping made it twice as slow
    changed = list(compress(range(len(seen.agents)), map(operator.is_not, prior.agents, seen.agents)))
    if not changed:
        return prior.tables
    tables = list(prior.tables)  # each the prior's until its first change
    clashes: list[Violation] = []
    for i in changed:
        aid, new = seen.agent_ids[i], seen.agents[i]
        checks = _AgentChecks.of(aid, new, mam.channels)
        if new.id != aid or checks.head or checks.tail:
            return None
        gone, come = _KEY_LISTS(prior.agents[i]._checks), _KEY_LISTS(checks)
        moved = list(map(operator.ne, gone, come))
        for k in compress(range(len(moved)), moved):
            if tables[k] is prior.tables[k]:
                tables[k] = dict(tables[k])
        # `_leave` and `_enter` read the key lists by name, as on the checks;
        # an equal list is passed empty
        gone, come = (
            _Tables(*[keys if m else () for keys, m in zip(lists, moved)]) for lists in (gone, come)
        )
        current = _Tables(*tables)
        _leave(current, gone)
        _enter(current, come, aid, mam.channels, clashes, {})
        if clashes:
            return None
    return _Tables(*tables)


# an agent's key lists, in the order of the `_Tables` they enter
_KEY_LISTS = operator.attrgetter(*_Tables._fields)


def _enter(tables: _Tables, checks: _AgentChecks, aid: str, channels, out: list, first: dict) -> None:
    """Put one agent's keys into `tables`, appending each clash to `out` in
    report order: places, transitions, procedures, color sets, variables.

    `first` maps (code, name) to the agent that first entered the name, for
    the text of a conflict. The full pass keeps it across agents; an update,
    which stops at a clash without reporting it, passes an empty one.
    """
    for pid in checks.places:
        if pid in tables.places:
            out.append(Violation("place", pid, f"also owned by agent {tables.places[pid]}"))
        elif pid in channels:
            out.append(Violation("place", pid, "private place shadows a channel"))
        else:
            tables.places[pid] = aid
    for tid in checks.transitions:
        if tid in tables.transitions:
            out.append(Violation("transition", tid, f"also owned by agent {tables.transitions[tid]}"))
        else:
            tables.transitions[tid] = aid
    for code, table, entries in (("procedure", tables.procedures, checks.procedures),
                                 ("colorset", tables.colorsets, checks.colorsets),
                                 ("variable", tables.variables, checks.variables)):
        for name, definition in entries:
            kept = table.get(name)
            if kept is None:
                table[name] = (definition, 1)
                first[code, name] = aid
                continue
            if kept[0] is not definition and kept[0] != definition:
                out.append(Violation(code, name, f"conflicting definitions ({first.get((code, name))}, {aid})"))
            table[name] = (kept[0], kept[1] + 1)


def _leave(tables: _Tables, checks: _AgentChecks) -> None:
    """Take one agent's keys out of clean tables, where it owns its ids and counts once per name."""
    for table, ids in ((tables.places, checks.places), (tables.transitions, checks.transitions)):
        for key in ids:
            del table[key]
    for table, entries in ((tables.procedures, checks.procedures),
                           (tables.colorsets, checks.colorsets),
                           (tables.variables, checks.variables)):
        for name, _ in entries:
            definition, count = table[name]
            if count == 1:
                del table[name]
            else:
                table[name] = (definition, count - 1)


def synthesize(mam: MultiAgentModel, *, _stateless: bool = False):
    """Build a runnable system: fresh markings, channel-preloaded mailboxes.

    `_stateless` is private to `runtime`: its `_adapt` and `resume_run` take
    a validated system without agent state, for `resume_context` to fill.
    """
    report = validate_model(mam)
    if not report.empty:
        raise CoherenceError("model fails validation", report)
    from . import runtime

    return runtime.RunnableSystem(mam, []) if _stateless else runtime.RunnableSystem.fresh(mam)
