"""Coherent evolution of multi-agent models.

Sixteen operation kinds: agent add/remove/modify, channel add/remove/replace,
and per-agent sensor, effector, procedure, and task surgery. validate_op
speculatively applies the operation and validates the whole candidate model,
so an accepted operation can never yield an incoherent model. apply_op keeps
that candidate rather than applying the operation a second time. The check
costs what the operation changed: agents, tasks and channels it left alone
are the same objects in the candidate, `validate_model` reuses their checks
(see `decomposition._AgentChecks`), and when the operation only replaced
agents it updates the cross-agent tables of the model it was applied to for
those agents alone. Requests are atomic: the first invalid operation rejects
the whole request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .cpn import Net, ProcedureDef
from .decomposition import (
    AgentModel,
    Channel,
    MultiAgentModel,
    changed_keys,
    marking_compatible,
    validate_model,
)
from .errors import (
    CoherenceError,
    InvalidModel,
    TypeMismatch,
    ValidationReport,
    Violation,
    report_of,
)

AGENT_OP_KINDS = ("addAgent", "removeAgent", "modifyAgent")
FINE_OP_KINDS = (
    "aCom", "rCom", "rpCom",
    "aSn", "rSn", "rpSn",
    "aEf", "rEf", "rpEf",
    "aP", "rP", "rpP",
    "rpT",
)
OP_KINDS = AGENT_OP_KINDS + FINE_OP_KINDS


@dataclass(frozen=True)
class AdaptationOp:
    """One evolution operation; the populated payload fields depend on kind."""

    kind: str
    agent_id: str = ""
    channel_id: str = ""
    channel: Optional[Channel] = None
    name: str = ""          # sensor/effector channel id, or procedure name
    new_name: str = ""      # replacement sensor/effector channel id
    procedure: Optional[ProcedureDef] = None
    task: Optional[Net] = None
    agent: Optional[AgentModel] = None
    nested: tuple["AdaptationOp", ...] = ()

    def describe(self) -> str:
        bits = [self.kind]
        for attr in ("agent_id", "channel_id", "name", "new_name"):
            v = getattr(self, attr)
            if v:
                bits.append(v)
        return " ".join(bits)


def add_agent(agent: AgentModel) -> AdaptationOp:
    return AdaptationOp("addAgent", agent=agent)


def remove_agent(agent_id: str) -> AdaptationOp:
    return AdaptationOp("removeAgent", agent_id=agent_id)


def modify_agent(agent_id: str, ops) -> AdaptationOp:
    return AdaptationOp("modifyAgent", agent_id=agent_id, nested=tuple(ops))


def a_com(channel: Channel) -> AdaptationOp:
    return AdaptationOp("aCom", channel_id=channel.id, channel=channel)


def r_com(channel_id: str) -> AdaptationOp:
    return AdaptationOp("rCom", channel_id=channel_id)


def rp_com(channel_id: str, channel: Channel) -> AdaptationOp:
    return AdaptationOp("rpCom", channel_id=channel_id, channel=channel)


def a_sn(agent_id: str, channel_id: str) -> AdaptationOp:
    return AdaptationOp("aSn", agent_id=agent_id, name=channel_id)


def r_sn(agent_id: str, channel_id: str) -> AdaptationOp:
    return AdaptationOp("rSn", agent_id=agent_id, name=channel_id)


def rp_sn(agent_id: str, old: str, new: str) -> AdaptationOp:
    return AdaptationOp("rpSn", agent_id=agent_id, name=old, new_name=new)


def a_ef(agent_id: str, channel_id: str) -> AdaptationOp:
    return AdaptationOp("aEf", agent_id=agent_id, name=channel_id)


def r_ef(agent_id: str, channel_id: str) -> AdaptationOp:
    return AdaptationOp("rEf", agent_id=agent_id, name=channel_id)


def rp_ef(agent_id: str, old: str, new: str) -> AdaptationOp:
    return AdaptationOp("rpEf", agent_id=agent_id, name=old, new_name=new)


def a_p(agent_id: str, procedure: ProcedureDef) -> AdaptationOp:
    return AdaptationOp("aP", agent_id=agent_id, procedure=procedure)


def r_p(agent_id: str, name: str) -> AdaptationOp:
    return AdaptationOp("rP", agent_id=agent_id, name=name)


def rp_p(agent_id: str, name: str, procedure: ProcedureDef) -> AdaptationOp:
    return AdaptationOp("rpP", agent_id=agent_id, name=name, procedure=procedure)


def rp_t(agent_id: str, task: Net) -> AdaptationOp:
    return AdaptationOp("rpT", agent_id=agent_id, task=task)


@dataclass(frozen=True)
class AdaptationRequest:
    ops: tuple[AdaptationOp, ...]
    reason: str = ""


@dataclass(frozen=True)
class PlanImpact:
    """Per agent after evolution: 'preserving' keeps its marking, 'modifying' restarts."""

    per_agent: dict

    def kind(self, agent_id: str) -> str:
        return self.per_agent[agent_id]


class _Rejection(Exception):
    def __init__(self, violations):
        self.violations = violations


def _rebuild_task(task: Net, *, procedures=None, transitions=None) -> Net:
    parts = task.parts()
    if procedures is not None:
        parts["procedures"] = procedures
    if transitions is not None:
        parts["transitions"] = transitions
    return Net(**parts)


def _with_agent(mam: MultiAgentModel, agent: AgentModel) -> MultiAgentModel:
    model = MultiAgentModel(mam.organization_ref, mam.assignment, mam.agents, mam.channels)
    model.agents[agent.id] = agent  # the model's own copy
    return model


def _apply(mam: MultiAgentModel, op: AdaptationOp) -> MultiAgentModel:
    """Apply without model-level validation; intrinsic problems raise _Rejection."""
    kind = op.kind

    def viol(subject, message):
        raise _Rejection([Violation(kind, subject, message)])

    def need_agent(aid) -> AgentModel:
        agent = mam.agents.get(aid)
        if agent is None:
            viol(aid, "unknown agent")
        return agent

    if kind == "addAgent":
        if op.agent is None:
            viol("-", "addAgent needs an agent payload")
        if op.agent.id in mam.agents:
            viol(op.agent.id, "agent id already in use")
        return _with_agent(mam, op.agent)

    if kind == "removeAgent":
        need_agent(op.agent_id)
        users = sorted(
            cid
            for cid, ch in mam.channels.items()
            if op.agent_id in (ch.producer, ch.consumer)
        )
        if users:
            viol(op.agent_id, f"channels {users} still name the agent")
        agents = {aid: a for aid, a in mam.agents.items() if aid != op.agent_id}
        assignment = {r: a for r, a in mam.assignment.items() if a != op.agent_id}
        return MultiAgentModel(mam.organization_ref, assignment, agents, mam.channels)

    if kind == "modifyAgent":
        need_agent(op.agent_id)
        current = mam
        agent_scoped = set(FINE_OP_KINDS) - {"aCom", "rCom", "rpCom"}
        for sub in op.nested:
            if sub.kind not in agent_scoped:
                viol(op.agent_id, f"nested op {sub.kind} is not agent-scoped")
            if sub.agent_id and sub.agent_id != op.agent_id:
                viol(op.agent_id, f"nested op targets a different agent ({sub.agent_id})")
            current = _apply(current, replace(sub, agent_id=op.agent_id))
        return current

    if kind == "aCom":
        if op.channel is None:
            viol(op.channel_id, "aCom needs a channel payload")
        if op.channel.id in mam.channels:
            viol(op.channel.id, "channel id already in use")
        channels = dict(mam.channels)
        channels[op.channel.id] = op.channel
        return MultiAgentModel(mam.organization_ref, mam.assignment, mam.agents, channels)

    if kind == "rCom":
        if op.channel_id not in mam.channels:
            viol(op.channel_id, "unknown channel")
        users = sorted(
            aid
            for aid, a in mam.agents.items()
            if op.channel_id in a.sensors or op.channel_id in a.effectors
        )
        if users:
            viol(op.channel_id, f"channel in use by {'/'.join(users)}")
        channels = {cid: c for cid, c in mam.channels.items() if cid != op.channel_id}
        return MultiAgentModel(mam.organization_ref, mam.assignment, mam.agents, channels)

    if kind == "rpCom":
        if op.channel_id not in mam.channels:
            viol(op.channel_id, "unknown channel")
        if op.channel is None:
            viol(op.channel_id, "rpCom needs a channel payload")
        channels = {cid: c for cid, c in mam.channels.items() if cid != op.channel_id}
        if op.channel.id in channels:
            viol(op.channel.id, "replacement channel id already in use")
        channels[op.channel.id] = op.channel
        agents = mam.agents
        if op.channel.id != op.channel_id:
            # re-point capability lists at the new id; tasks are validated later
            agents = dict(mam.agents)
            for aid, a in mam.agents.items():
                if op.channel_id not in a.sensors and op.channel_id not in a.effectors:
                    continue
                sensors = frozenset(
                    op.channel.id if s == op.channel_id else s for s in a.sensors
                )
                effectors = frozenset(
                    op.channel.id if e == op.channel_id else e for e in a.effectors
                )
                agents[aid] = replace(a, sensors=sensors, effectors=effectors)
        return MultiAgentModel(mam.organization_ref, mam.assignment, agents, channels)

    if kind in ("aSn", "rSn", "rpSn", "aEf", "rEf", "rpEf"):
        agent = need_agent(op.agent_id)
        attr = "sensors" if kind.endswith("Sn") else "effectors"
        current = getattr(agent, attr)
        if kind.startswith("a"):
            if op.name in current:
                viol(op.agent_id, f"{attr[:-1]} '{op.name}' already present")
            updated = current | {op.name}
        elif kind.startswith("rp"):
            if op.name not in current:
                viol(op.agent_id, f"no {attr[:-1]} '{op.name}' to replace")
            updated = (current - {op.name}) | {op.new_name}
        else:
            if op.name not in current:
                viol(op.agent_id, f"no {attr[:-1]} '{op.name}' to remove")
            used = [
                tid
                for tid, t in agent.task.transitions.items()
                if t.event is not None and t.event.channel == op.name
            ]
            if used:
                viol(op.agent_id, f"channel '{op.name}' in use by {'/'.join(sorted(used))}")
            updated = current - {op.name}
        return _with_agent(mam, replace(agent, **{attr: frozenset(updated)}))

    if kind == "aP":
        agent = need_agent(op.agent_id)
        if op.procedure is None:
            viol(op.agent_id, "aP needs a procedure payload")
        if op.procedure.name in agent.task.procedures:
            viol(op.agent_id, f"procedure '{op.procedure.name}' already known")
        procs = list(agent.task.procedures.values()) + [op.procedure]
        return _with_agent(mam, replace(agent, task=_rebuild_task(agent.task, procedures=procs)))

    if kind == "rP":
        agent = need_agent(op.agent_id)
        if op.name not in agent.task.procedures:
            viol(op.agent_id, f"unknown procedure '{op.name}'")
        used = sorted(
            tid for tid, t in agent.task.transitions.items() if t.procedure == op.name
        )
        if used:
            viol(op.agent_id, f"procedure in use by {'/'.join(used)}")
        procs = [p for n, p in agent.task.procedures.items() if n != op.name]
        return _with_agent(mam, replace(agent, task=_rebuild_task(agent.task, procedures=procs)))

    if kind == "rpP":
        agent = need_agent(op.agent_id)
        if op.procedure is None:
            viol(op.agent_id, "rpP needs a procedure payload")
        old = agent.task.procedures.get(op.name)
        if old is None:
            viol(op.agent_id, f"unknown procedure '{op.name}'")
        users = sorted(
            tid for tid, t in agent.task.transitions.items() if t.procedure == op.name
        )
        if users and old.signature() != op.procedure.signature():
            viol(
                op.agent_id,
                f"procedure '{op.name}' is referenced by {'/'.join(users)}; replacement must keep the signature",
            )
        procs = [p for n, p in agent.task.procedures.items() if n != op.name]
        if op.procedure.name in [p.name for p in procs]:
            viol(op.agent_id, f"replacement name '{op.procedure.name}' already known")
        procs.append(op.procedure)
        transitions = [
            t._replace(procedure=op.procedure.name) if t.procedure == op.name else t
            for t in agent.task.transitions.values()
        ]
        task = _rebuild_task(agent.task, procedures=procs, transitions=transitions)
        return _with_agent(mam, replace(agent, task=task))

    if kind == "rpT":
        agent = need_agent(op.agent_id)
        if op.task is None:
            viol(op.agent_id, "rpT needs a task payload")
        if op.task.procedures:
            viol(op.agent_id, "task payload may not declare procedures; knowledge is kept")
        parts = op.task.parts()
        parts["id"] = agent.id
        parts["procedures"] = list(agent.task.procedures.values())
        return _with_agent(mam, replace(agent, task=Net(**parts)))

    raise _Rejection([Violation("op", kind, f"unknown operation kind '{kind}'")])


def _speculate(
    mam: MultiAgentModel, op: AdaptationOp
) -> tuple[Optional[MultiAgentModel], ValidationReport]:
    """Apply the op to a new model and validate it: (candidate, report).

    The candidate is None when the op is rejected before a model exists.
    """
    try:
        candidate = _apply(mam, op)
    except _Rejection as rej:
        return None, report_of(rej.violations)
    except (InvalidModel, TypeMismatch) as exc:
        subject = op.agent_id or op.channel_id or "-"
        return None, report_of([Violation(op.kind, subject, str(exc))])
    return candidate, validate_model(candidate, mam)


def validate_op(mam: MultiAgentModel, op: AdaptationOp) -> ValidationReport:
    """Empty iff applying the op yields a model satisfying every invariant."""
    return _speculate(mam, op)[1]


def apply_op(mam: MultiAgentModel, op: AdaptationOp) -> MultiAgentModel:
    candidate, report = _speculate(mam, op)
    if not report.empty:
        raise CoherenceError(f"operation {op.describe()} rejected", report)
    return candidate


def evolve(mam: MultiAgentModel, request: AdaptationRequest) -> tuple[MultiAgentModel, PlanImpact]:
    """Apply a request atomically and classify each surviving agent's plan impact."""
    if not request.ops:
        raise CoherenceError("adaptation request is empty", report_of([]))
    current = mam
    for op in request.ops:
        current = apply_op(current, op)

    # an agent object the request left alone keeps its task, so it preserves
    impact = dict.fromkeys(current.agents, "preserving")
    for aid in changed_keys(mam.agents, current.agents):
        old, new = mam.agents.get(aid), current.agents.get(aid)
        if new is not None and (old is None or not marking_compatible(old.task, new.task)):
            impact[aid] = "modifying"
    return current, PlanImpact(impact)


def _task_shape(net: Net) -> tuple:
    """Task structure with procedure linkage blanked; knowledge diffs are reported apart."""
    return (
        sorted(
            ((p.id, p.colorset, tuple(p.initial.items())) for p in net.places.values()),
            key=lambda e: e[0],
        ),
        sorted(
            ((t.id, t.role, t.guard, t.event) for t in net.transitions.values()),
            key=lambda e: e[0],
        ),
        sorted(net.arcs, key=repr),
        sorted(net.colorsets),
        sorted(net.variables),
    )


def diff_models(old: MultiAgentModel, new: MultiAgentModel) -> tuple[str, ...]:
    """Structural diff at operation granularity, deterministic order.

    Channel and agent objects that are the same in both models are
    unchanged, so only the others are compared.
    """
    out: list[str] = []

    for cid in changed_keys(old.channels, new.channels):
        a, b = old.channels.get(cid), new.channels.get(cid)
        if a is None:
            out.append(f"channel {cid} added")
        elif b is None:
            out.append(f"channel {cid} removed")
        elif a != b:
            out.append(f"channel {cid} replaced")

    for aid in changed_keys(old.agents, new.agents):
        a, b = old.agents.get(aid), new.agents.get(aid)
        if a is None:
            out.append(f"agent {aid} added")
            continue
        if b is None:
            out.append(f"agent {aid} removed")
            continue
        if a.roles != b.roles:
            out.append(f"agent {aid}: roles changed")
        out.extend(_capability_diff(aid, "sensor", a.sensors, b.sensors))
        out.extend(_capability_diff(aid, "effector", a.effectors, b.effectors))
        out.extend(_procedure_diff(aid, a.task.procedures, b.task.procedures))
        if _task_shape(a.task) != _task_shape(b.task):
            out.append(f"agent {aid}: task replaced")
    return tuple(out)


def _capability_diff(aid, what, old: frozenset, new: frozenset):
    removed, added = sorted(old - new), sorted(new - old)
    if len(removed) == 1 and len(added) == 1:
        return [f"agent {aid}: {what} {removed[0]} replaced by {added[0]}"]
    return [f"agent {aid}: {what} {c} removed" for c in removed] + [
        f"agent {aid}: {what} {c} added" for c in added
    ]


def _procedure_diff(aid, old: dict, new: dict):
    entries = []
    removed = sorted(n for n in old if n not in new)
    added = sorted(n for n in new if n not in old)
    for name in sorted(set(old) & set(new)):
        if old[name] != new[name]:
            entries.append(f"agent {aid}: procedure {name} replaced")
    if len(removed) == 1 and len(added) == 1:
        entries.append(f"agent {aid}: procedure {removed[0]} replaced by {added[0]}")
        return entries
    entries += [f"agent {aid}: procedure {n} removed" for n in removed]
    entries += [f"agent {aid}: procedure {n} added" for n in added]
    return entries
