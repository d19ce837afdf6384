"""Execution of a synthesized multi-agent system under an adaptive loop.

One scheduler engine, `_run`, with two choosers of the next action. Both
take a due adaptation trigger first. `go` (`adaptive_loop`) then delivers
the oldest message, else fires the next agent round-robin; the seeded
chooser (`run_concurrent`) draws one of the pending channels, whose oldest
message it delivers, or one of the ready agents, which it fires. Every such
choice, and every quiescence check, first resolves all dirty agents in one
place, `RunnableSystem._resolve_all`.
The engine alone checks the end condition, takes checkpoints, writes the
trace and adapts, so both modes mean the same thing. When an adaptation is
needed the loop snapshots the full context (markings, mailboxes, in-flight
messages, cursor), evolves the model, rebuilds the system, and restores the
context so plan-preserving agents keep their accomplished work while
plan-modifying agents restart fresh. Agents the adaptation left alone are
carried over as they were (see `_adapt`).

Messages sent on the reserved channel "adapt!" are intercepted: their text
payload is parsed as adaptation operations, letting a model request its own
evolution.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, repeat
from operator import attrgetter, indexOf, is_, is_not, itemgetter, methodcaller, ne
from collections.abc import Mapping
from typing import Callable, NamedTuple, Optional, Union

from .adaptation import AdaptationRequest, PlanImpact, diff_models, evolve
from .cpn import (
    Marking,
    ReceivedMessage,
    ReceiveEvent,
    SentMessage,
    Value,
    color_mismatch,
    # Not called here any more. It stays bound because the benchmark's tracer
    # wraps it in every roleflow module that holds it, and
    # perfbench/test_perfbench.py checks that this module does.
    enabled_bindings,  # noqa: F401
    transition_plans,
    typed_record,
)
from .decomposition import MultiAgentModel, synthesize
from .errors import (
    CoherenceError,
    ContextCorrupt,
    ImpactMismatch,
    IncompatiblePlace,
    RoleflowError,
    TypeMismatch,
)
from .marking_codec import restore_marking, save_marking

ADAPT_CHANNEL = "adapt!"

CONTEXT_VERSION = "CTX1"


class AgentState:
    """One agent's marking and its mailbox, a FIFO of (channel id, Value).

    Receive takes the earliest message per channel. A system keeps its
    agents' markings and mailboxes as columns by agent index (see
    `RunnableSystem`); `system.states[aid]` is a view of one index, made on
    first access and kept, that reads and writes those columns and tells
    the system's ready set of each write. Adaptation never moves a state:
    the new system has columns of its own and shares with the old one only
    immutable `Marking`s and mailbox tuples (see `resume_context`), so the
    system adapted away keeps its states as they were. A state built
    directly, copied or pickled is detached: it holds its own marking and
    mailbox and tells no ready set.

    Write contract: edits through `states[aid].marking` and
    `states[aid].mailbox` are seen. Assigning either attribute, or reading
    `mailbox` (the caller may then edit the list), makes the system check
    the agent again. A mailbox list held across scheduler calls and edited
    later is not seen. Code that only looks at a mailbox reads `_mailbox`,
    so it marks nothing.
    """

    __slots__ = ("_markings", "_mailboxes", "_ready_set", "_index")

    def __init__(self, marking: Marking, mailbox: list, _at: Optional[tuple] = None):
        """A detached state of `marking` and `mailbox`, or, with `_at` (private
        to `_States`: a system's markings, mailboxes, ready set and an agent
        index), the view of that agent."""
        if _at is None:
            _at = ([marking], [mailbox], None, 0)
        self._markings, self._mailboxes, self._ready_set, self._index = _at

    @property
    def _mailbox(self) -> list:
        return _own_mailbox(self._mailboxes, self._index)

    def _touch(self) -> None:
        if self._ready_set is not None:
            self._ready_set.touch(self._index)

    @property
    def marking(self) -> Marking:
        return self._markings[self._index]

    @marking.setter
    def marking(self, marking: Marking):
        self._markings[self._index] = marking
        self._touch()

    @property
    def mailbox(self) -> list:
        self._touch()
        return self._mailbox

    @mailbox.setter
    def mailbox(self, mailbox: list):
        self._mailboxes[self._index] = mailbox
        self._touch()

    def __eq__(self, other):
        if not isinstance(other, AgentState):
            return NotImplemented
        return self.marking == other.marking and self._mailbox == other._mailbox

    __hash__ = None

    def __reduce__(self):
        # a copy or pickle is detached: no ready set, and a mailbox of its own
        return (AgentState, (self.marking, list(self._mailbox)))

    def __repr__(self):
        return f"AgentState(marking={self.marking!r}, mailbox={self._mailbox!r})"


def _own_mailbox(mailboxes: list, index: int) -> list:
    """The mailbox list at `index`, first made from the tuple there if it holds one.

    A mailbox column holds lists the system owns and, until their first
    write, tuples it may share with a context or another system.
    """
    mailbox = mailboxes[index]
    if mailbox.__class__ is not list:
        mailbox = mailboxes[index] = list(mailbox)
    return mailbox


class _States(Mapping):
    """`RunnableSystem.states`: agent id to its `AgentState`, made on first
    access and kept, so an agent nobody asks for costs no object.

    It holds the system's columns, not the system, so a system dropped after
    an adaptation is freed at once instead of by the cycle collector.
    """

    __slots__ = ("_positions", "_markings", "_mailboxes", "_ready_set", "_made")

    def __init__(self, positions: dict, markings: list, mailboxes: list, ready_set: _ReadySet):
        self._positions, self._markings, self._mailboxes = positions, markings, mailboxes
        self._ready_set = ready_set
        self._made: dict[str, AgentState] = {}

    def __getitem__(self, agent_id: str) -> AgentState:
        state = self._made.get(agent_id)
        if state is None:
            index = self._positions[agent_id]
            state = AgentState(None, None, (self._markings, self._mailboxes, self._ready_set, index))
            self._made[agent_id] = state
        return state

    def __contains__(self, agent_id) -> bool:
        return agent_id in self._positions

    def __iter__(self):
        return iter(self._positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __repr__(self):
        return repr(dict(self.items()))


# An agent whose state changed since its first firing was last computed.
# False, so that like None it is not true: only a first firing is.
_DIRTY = False

# The task `resume_context` sees for an agent the context lacks.
_ABSENT = object()


class _ReadySet:
    """Which agents of one system can fire, by index into its sorted agent ids.

    It is built from one entry per agent: a first firing, a (transition,
    binding) tuple and the only true entry; None for an agent that cannot
    fire; or `_DIRTY`. `firing` is the system's column of entries, `ready`
    the sorted indices of clean agents that can fire, and `dirty` the
    worklist of dirty agents in touch order, emptied only by the system's
    `_resolve_all`. `ready` and `dirty` are worked out from the entries
    unless the caller has them, as a context saved from a ready set does.
    """

    __slots__ = ("firing", "ready", "dirty")

    def __init__(self, firing: list, ready=None, dirty=None):
        self.firing = firing  # index -> first firing, None, or _DIRTY
        if ready is None:
            indices = range(len(firing))
            ready, dirty = compress(indices, firing), compress(indices, map(is_, firing, repeat(_DIRTY)))
        self.ready, self.dirty = list(ready), list(dirty)

    def touch(self, index: int) -> None:
        """Mark an agent dirty: its state changed, so its first firing may have."""
        firing = self.firing[index]
        if firing is _DIRTY:
            return
        if firing is not None:
            del self.ready[bisect_left(self.ready, index)]
        self.firing[index] = _DIRTY
        self.dirty.append(index)


_TASK = attrgetter("task")
_CHANNEL = itemgetter(0)  # the channel id of a bus entry


class RunnableSystem:
    """Current state of a running multi-agent system, aware of its own model.

    The agents' state is kept as columns indexed like the sorted agent ids:
    one `Marking` per agent, one mailbox per agent (a list, or a tuple
    shared with the context it was resumed from until its first write; see
    `_own_mailbox`), and the ready set's entries. The scheduler reads and
    writes the columns by index; `states` gives an `AgentState` view of an
    agent only to code that asks for one.

    The ready set holds each agent's first firing, computed again only
    after the agent's marking or mailbox changes. Delivery and firing change
    one agent each, so a scheduler step rechecks only that agent, and only
    in `_resolve_all`, which every scheduling decision calls first. The
    model is fixed for the system's life; adaptation builds a new system.
    """

    def __init__(self, model: MultiAgentModel, bus, cursor=0, step_count=0):
        """A system over `model` without agent state: `_install` gives it,
        as `fresh` and `resume_context` do. Build a runnable one with
        `synthesize` or `fresh`."""
        self.model = model
        agents = model.agents
        self.agent_ids: tuple[str, ...] = tuple(sorted(agents))
        self._positions: dict[str, int] = dict(zip(self.agent_ids, range(len(self.agent_ids))))  # id -> index
        # the tasks by agent index, fixed like the model
        self._tasks = tuple(map(_TASK, map(agents.__getitem__, self.agent_ids)))
        self.bus: list = bus  # FIFO of (channel id, Value) not yet delivered
        self.cursor = cursor
        self.step_count = step_count
        self.trigger_cursor = 0
        self.warnings: list[str] = []

    def _install(self, markings: list, mailboxes: list, ready_set: _ReadySet) -> None:
        """Give the system its columns, one entry per agent index: `markings`,
        `mailboxes` (lists, or tuples to be copied on first write), and the
        ready set whose entries hold for them. Views `states` gave before
        are of the old columns."""
        self._markings, self._mailboxes, self._ready_set = markings, mailboxes, ready_set
        self.states: Mapping[str, AgentState] = _States(self._positions, markings, mailboxes, ready_set)

    @classmethod
    def fresh(cls, model: MultiAgentModel) -> "RunnableSystem":
        """Every agent at its task's initial marking, with its channels' initial messages."""
        system = cls(model, [])
        ids, channels = system.agent_ids, model.channels
        mailboxes = [()] * len(ids)
        for cid in sorted(cid for cid, ch in channels.items() if ch.initial):
            ch = channels[cid]
            initial = sorted(ch.initial, key=lambda v: v.sort_key())
            _own_mailbox(mailboxes, system._positions[ch.consumer]).extend((cid, v) for v in initial)
        markings = list(map(methodcaller("initial_marking"), system._tasks))
        system._install(markings, mailboxes, _ReadySet([_DIRTY] * len(ids)))
        return system

    def task(self, agent_id: str):
        return self.model.agents[agent_id].task

    def _resolve(self, index: int) -> None:
        """File a dirty agent by its first firing: its entry, and `ready` if it can fire."""
        marking, mailbox = self._markings[index], self._mailboxes[index]
        found = None
        for tid, plan in transition_plans(self._tasks[index]).items():
            binding = plan.first_binding(marking, mailbox)
            if binding is not None:
                found = (tid, binding)
                break
        ready_set = self._ready_set
        ready_set.firing[index] = found
        if found is not None:
            insort(ready_set.ready, index)

    def _resolve_all(self) -> None:
        """The one resolve point: file every dirty agent, so `ready` holds every
        agent that can fire. An agent leaves the worklist only once filed, so
        one whose resolution raised stays dirty and is tried again."""
        dirty = self._ready_set.dirty
        while dirty:
            self._resolve(dirty[-1])
            dirty.pop()

    def first_firing(self, agent_id: str) -> Optional[tuple[str, dict]]:
        """The agent's first enabled (transition, binding) in canonical order, or None.

        It depends only on the agent's task, marking and mailbox, so
        `_resolve_all` computes it again only after the agent's state
        changed. Edits through `states[aid].marking` and
        `states[aid].mailbox` are seen; a mailbox list held across scheduler
        calls and edited later is not (see `AgentState`).
        """
        self._resolve_all()
        return self._ready_set.firing[self._positions[agent_id]]

    def quiescent(self) -> bool:
        """No deliverable message and no enabled firing anywhere."""
        self._resolve_all()
        return not self.bus and not self._ready_set.ready


# The records built on every step are named tuples, as `cpn.SentMessage` is:
# no `object.__setattr__` per field, and equal only to records of their type.


@typed_record
class Progressed(NamedTuple):
    agent: str
    transition: str
    binding: tuple  # (name, Value) pairs sorted by name
    events: tuple


@typed_record
class Delivered(NamedTuple):
    agent: str
    channel: str
    value: Value


@dataclass(frozen=True)
class QuiescentPass:
    pass


@dataclass(frozen=True)
class AdaptationNeeded:
    request: AdaptationRequest


StepOutcome = Union[Progressed, Delivered, QuiescentPass, AdaptationNeeded]


@dataclass(frozen=True)
class Trigger:
    at_step: int
    request: AdaptationRequest


@dataclass(frozen=True)
class Scenario:
    triggers: tuple[Trigger, ...] = ()
    max_steps: int = 10_000
    end_condition: tuple = ("quiescence",)  # or ("marked", agent id, place id)

    def __post_init__(self):
        steps = [t.at_step for t in self.triggers]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("trigger steps must be strictly increasing")


@typed_record
class TraceEntry(NamedTuple):
    step: int
    agent: str
    kind: str  # fired | delivered | adapted | quiescent
    detail: str

    def render(self) -> str:
        return f"{self.step}\t{self.agent}\t{self.kind}\t{self.detail}"


@dataclass(frozen=True)
class FinalReport:
    end_reason: str  # quiescence | place-marked | budget | stalled | checkpoint
    steps: int
    final_markings: dict
    final_mailboxes: dict
    trace: tuple[TraceEntry, ...]
    adaptations: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...]


def _fired_detail(transition: str, binding: tuple, events) -> str:
    """The trace detail of a firing; `binding` holds (name, Value) pairs sorted by name."""
    bound = ",".join(f"{k}={v.canonical()}" for k, v in binding)
    text = f"{transition} {bound}" if bound else transition
    for ev in events:
        if isinstance(ev, SentMessage):
            text += f" sent {ev.channel} {ev.value.canonical()}"
        elif isinstance(ev, ReceivedMessage):
            text += f" recv {ev.channel} {ev.value.canonical()}"
    return text


def _agent_fire(system: RunnableSystem, index: int) -> Progressed:
    """Fire agent `index`'s first firing, as `_resolve_all` filed it for a ready agent."""
    tid, binding = system._ready_set.firing[index]
    markings = system._markings
    # the binding is the plan's own, found for this very marking and mailbox
    plan = transition_plans(system._tasks[index])[tid]
    markings[index], events = plan.fire(markings[index], binding)
    system._ready_set.touch(index)
    for ev in events:
        if isinstance(ev, ReceivedMessage):
            mailbox = _own_mailbox(system._mailboxes, index)
            del mailbox[indexOf(map(_CHANNEL, mailbox), ev.channel)]
        elif isinstance(ev, SentMessage):
            system.bus.append((ev.channel, ev.value))
    system.step_count += 1
    return Progressed(system.agent_ids[index], tid, tuple(sorted(binding.items())), tuple(events))


def _intercepted_request(system: RunnableSystem, value: Value) -> AdaptationRequest:
    from .modelio import parse_ops_text

    if value.colorset.kind != "text":
        raise CoherenceError(f"message on {ADAPT_CHANNEL} must carry text")
    try:
        ops = parse_ops_text(value.payload, system.model)
    except RoleflowError as exc:
        raise CoherenceError(f"cannot parse adaptation request: {exc}") from exc
    return AdaptationRequest(tuple(ops), reason="model-requested")


def _deliver(system: RunnableSystem, index: int) -> StepOutcome:
    """Deliver the bus message at `index`, or turn an adapt! message into a request."""
    channel, value = system.bus.pop(index)
    if channel == ADAPT_CHANNEL:
        return AdaptationNeeded(_intercepted_request(system, value))
    consumer = system.model.channels[channel].consumer
    at = system._positions[consumer]
    _own_mailbox(system._mailboxes, at).append((channel, value))
    system._ready_set.touch(at)
    system.step_count += 1
    return Delivered(consumer, channel, value)


def _due_trigger(system: RunnableSystem, scenario: Scenario) -> Optional[Trigger]:
    """The scenario trigger due at the current step, if any; it is not consumed."""
    if system.trigger_cursor < len(scenario.triggers):
        trig = scenario.triggers[system.trigger_cursor]
        if trig.at_step == system.step_count:
            return trig
    return None


def go(system: RunnableSystem, scenario: Scenario) -> StepOutcome:
    """One atomic scheduler action: trigger, else delivery, else one round-robin firing."""
    trig = _due_trigger(system, scenario)
    if trig is not None:
        system.trigger_cursor += 1
        return AdaptationNeeded(trig.request)
    if system.bus:
        return _deliver(system, 0)
    system._resolve_all()
    ready = system._ready_set.ready
    if not ready:
        return QuiescentPass()
    pos = bisect_left(ready, system.cursor % len(system.agent_ids))
    index = ready[pos] if pos < len(ready) else ready[0]
    outcome = _agent_fire(system, index)
    system.cursor = (index + 1) % len(system.agent_ids)
    return outcome


def _seeded_step(rng: random.Random, system: RunnableSystem, scenario: Scenario) -> StepOutcome:
    """Like `go`, but the delivery or firing is one seeded draw.

    The choices are the pending channels in id order, each of which delivers
    its oldest bus message, then the agents that can fire, in id order, once
    `_resolve_all` has resolved every dirty agent, as in `go`. `rng.choice`
    over the range of their count draws as it would over a list of them,
    and no such list is built.
    """
    trig = _due_trigger(system, scenario)
    if trig is not None:
        system.trigger_cursor += 1
        return AdaptationNeeded(trig.request)
    system._resolve_all()
    bus, ready = system.bus, system._ready_set.ready
    channels = sorted(set(map(_CHANNEL, bus))) if bus else ()
    n = len(channels)
    if not n and not ready:
        return QuiescentPass()
    k = rng.choice(range(n + len(ready)))
    if k < n:
        return _deliver(system, indexOf(map(_CHANNEL, bus), channels[k]))
    return _agent_fire(system, ready[k - n])


def system_ended(system: RunnableSystem, scenario: Scenario) -> bool:
    return _end_reason(system, scenario) is not None


def _end_reason(system: RunnableSystem, scenario: Scenario) -> Optional[str]:
    if system.step_count >= scenario.max_steps:
        return "budget"
    cond = scenario.end_condition
    if cond[0] == "quiescence":
        if system.quiescent() and _due_trigger(system, scenario) is None:
            return "quiescence"
    elif cond[0] == "marked":
        _, aid, pid = cond
        index = system._positions.get(aid)
        if index is not None and not system._markings[index].get(pid).is_empty:
            return "place-marked"
    return None


class _Live(NamedTuple):
    """A context's agents as one column per item, in agent id order.

    `save_context` keeps these of a live system besides the public fields;
    `Context._columns` gives them for any context.
    """

    agent_ids: tuple
    tasks: tuple  # None for a context read from bytes
    markings: tuple  # Marking objects, immutable, or MRK1 bytes
    mails: tuple  # each mailbox as a tuple of (channel id, Value)
    entries: tuple  # ready-set entries: a first firing, None, or _DIRTY
    # the ready set's `ready` and `dirty` lists for `entries`, or None to work them out
    ready: Optional[tuple] = None
    dirty: Optional[tuple] = None


class Context:
    """Snapshot of everything a resumed system needs: state plus control flow.

    `agent_markings` is ((agent id, marking bytes), ...) and `agent_mailboxes`
    is ((agent id, ((channel, Value), ...)), ...), both sorted by agent;
    `bus` holds the messages in flight, oldest first. Equality, hashing and
    `write_context` see only these and `version`, `cursor` and `step_count`.

    A context taken by `save_context` also keeps, per agent, the task, the
    live `Marking` (immutable) and the agent's ready-set entry, so that
    `resume_context` can carry each agent over without encoding it. Its
    marking bytes are encoded on first use of `agent_markings`, and they are
    the bytes an eager encoding would have given; `agent_mailboxes` is
    likewise paired with the ids on first use. A context read from bytes
    has no live part; `_columns` views it in the same columns.
    """

    __slots__ = ("version", "_agent_markings", "_agent_mailboxes", "bus", "cursor", "step_count", "_live")

    def __init__(
        self, version, agent_markings, agent_mailboxes, bus, cursor, step_count, *, live=None
    ):
        # immutable, like the frozen dataclass it replaces; only the lazy bytes are filled in later
        for name, value in zip(
            self.__slots__, (version, agent_markings, agent_mailboxes, bus, cursor, step_count, live)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Context is immutable: cannot set {name}")

    @property
    def agent_markings(self) -> tuple:
        if self._agent_markings is None:
            live = self._live
            markings = tuple(
                (aid, save_marking(task, marking))
                for aid, task, marking in zip(live.agent_ids, live.tasks, live.markings)
            )
            object.__setattr__(self, "_agent_markings", markings)
        return self._agent_markings

    @property
    def agent_mailboxes(self) -> tuple:
        if self._agent_mailboxes is None:
            live = self._live
            object.__setattr__(self, "_agent_mailboxes", tuple(zip(live.agent_ids, live.mails)))
        return self._agent_mailboxes

    def _columns(self) -> _Live:
        """The agents as columns: the live part, or for a context read from
        bytes, the ids of `agent_markings` with no task, the MRK1 bytes in
        place of each `Marking`, the mailboxes as tuples and every entry
        `_DIRTY`."""
        if self._live is not None:
            return self._live
        ids = tuple(map(itemgetter(0), self._agent_markings))
        mails = tuple(map(tuple, map(dict(self.agent_mailboxes).get, ids, repeat(()))))
        n = len(ids)
        return _Live(ids, (None,) * n, tuple(map(itemgetter(1), self._agent_markings)), mails, (_DIRTY,) * n)

    def _fields(self) -> tuple:
        return (self.version, self.agent_markings, self.agent_mailboxes, self.bus, self.cursor, self.step_count)

    def __eq__(self, other):
        if not isinstance(other, Context):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        # copies and pickles carry the public fields only, never the live part
        return (Context, self._fields())

    def __repr__(self):
        names = ("version", "agent_markings", "agent_mailboxes", "bus", "cursor", "step_count")
        return "Context(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields())) + ")"


def save_context(system: RunnableSystem) -> Context:
    """The system's state and control flow; nothing is encoded until asked for.

    Each field is one copy of a system column made at C level, whatever the
    agent count; a mailbox the system still shares as a tuple is not copied.
    """
    return Context(
        CONTEXT_VERSION,
        None,
        None,
        tuple(system.bus),
        system.cursor,
        system.step_count,
        live=_Live(
            system.agent_ids,
            system._tasks,
            tuple(system._markings),
            tuple(map(tuple, system._mailboxes)),
            tuple(system._ready_set.firing),
            tuple(system._ready_set.ready),
            tuple(system._ready_set.dirty),
        ),
    )


def resume_context(
    new_system: RunnableSystem, context: Context, impact: PlanImpact
) -> RunnableSystem:
    """Restore saved state into a synthesized system, honoring plan impact.

    The system gets new columns (see `RunnableSystem._install`), built
    from the context's columns; state it had from `synthesize` is
    replaced. Per agent of the new system:

    - A plan-modifying agent restarts fresh: its task's initial marking and
      an empty mailbox.
    - A plan-preserving agent keeps its marking and its mailbox, less the
      messages on channels the new model no longer has (each dropped with a
      warning). From a `save_context` context it gets the saved `Marking`
      object, whose marked places the new task must have in the same color
      object; it also keeps its ready-set entry if its task is the object
      the context saw and no message was dropped, and starts dirty if not.
    - From a context read from bytes, `restore_marking` decodes each
      marking into the new task, and every agent starts dirty.

    Every context is carried over by column (see `Context._columns`),
    aligned to the new system's agents by id. Only an agent with another
    task object than the context saw (every agent of a context read from
    bytes, and an added agent), a non-preserving impact, or mail on a
    deleted channel is looked at one by one. Any other agent costs only its
    share of the column copies made at C level, and no object: it shares
    its `Marking` and its saved mailbox tuple, which the new system copies
    into a list of its own on the first write (see `_own_mailbox`). When
    the ids were not realigned, the ready set starts from the context's
    saved index lists, and only the agents looked at one by one are marked
    dirty in it.

    Messages in flight on deleted channels are dropped with a warning too.

    A context read from bytes types each message by the file's own
    `channel` lines, so every message it keeps must have the color the new
    model gives its channel; a message that does not raises `TypeMismatch`.
    A context from `save_context` holds only messages the runtime sent, and
    skips the check.
    """
    if context.version != CONTEXT_VERSION:
        raise ContextCorrupt(f"unsupported context version '{context.version}'")
    ids, tasks, saved = new_system.agent_ids, new_system._tasks, context._columns()
    n = len(ids)
    channels, kind_of = new_system.model.channels, impact.per_agent.get
    # Unchanged ids need no alignment, and mapping them anyway made a
    # relay-adapt run about 7 % slower. Otherwise each column gets a pad at
    # position -1, so an agent the context lacks gets an _ABSENT task, no
    # marking or mail, and a dirty entry.
    if saved.agent_ids != ids:
        position = dict(zip(saved.agent_ids, range(len(saved.agent_ids))))
        at = list(map(position.get, ids, repeat(-1)))
        pads = (_ABSENT, None, (), _DIRTY)
        columns = (tuple(map((*column, pad).__getitem__, at)) for column, pad in zip(saved[1:5], pads))
        saved = _Live(ids, *columns)
    old_tasks, mails = saved.tasks, saved.mails
    markings, mailboxes = list(saved.markings), list(mails)
    ready_set = _ReadySet(list(saved.entries), saved.ready, saved.dirty)
    redo = set(compress(range(n), map(is_not, old_tasks, tasks)))
    redo.update(compress(range(n), map(ne, map(kind_of, ids), repeat("preserving"))))
    if not channels.keys() >= set(map(itemgetter(0), chain.from_iterable(mails))):
        redo.update(compress(range(n), mails))
    warnings = new_system.warnings

    for index in sorted(redo):
        aid, task = ids[index], tasks[index]
        kind = kind_of(aid)
        if kind is None:
            raise ImpactMismatch(f"no impact classification for agent {aid}")
        if kind != "preserving":
            markings[index], mailboxes[index] = task.initial_marking(), ()
            ready_set.touch(index)
            continue
        old_task, marking, keep_entry = old_tasks[index], markings[index], True
        if old_task is _ABSENT:
            raise ImpactMismatch(f"agent {aid} is preserving but absent from the context")
        try:
            if old_task is None:  # a context read from bytes
                marking = restore_marking(marking, task)
            elif old_task is not task:
                keep_entry = False
                for pid in marking.place_ids():
                    old_place, place = old_task.places.get(pid), task.places.get(pid)
                    if old_place is None or place is None or place.colorset is not old_place.colorset:
                        raise IncompatiblePlace(pid)
        except IncompatiblePlace as exc:
            raise ImpactMismatch(
                f"agent {aid} classified preserving but marking restore failed: {exc}"
            ) from exc
        markings[index] = marking
        mail = mails[index]
        if mail:
            kept = tuple(m for m in mail if m[0] in channels)
            if old_task is None:
                for ch, v in kept:
                    _check_message_color(new_system.model, ch, v)
            if len(kept) != len(mail):
                keep_entry = False
                warnings.extend(
                    f"dropped mailbox message on deleted channel {ch} for {aid}"
                    for ch, _ in mail
                    if ch not in channels
                )
            mailboxes[index] = kept
        if not keep_entry:
            ready_set.touch(index)
    new_system._install(markings, mailboxes, ready_set)

    new_system.bus = []
    for ch, v in context.bus:
        if ch in channels or ch == ADAPT_CHANNEL:
            if context._live is None and ch in channels:
                _check_message_color(new_system.model, ch, v)
            new_system.bus.append((ch, v))
        else:
            warnings.append(f"dropped in-flight message on deleted channel {ch}")
    new_system.cursor = context.cursor % max(1, n)
    new_system.step_count = context.step_count
    return new_system


def _check_message_color(model: MultiAgentModel, ch: str, value: Value) -> None:
    """Raise `TypeMismatch` if a message kept from a context read from bytes
    lacks the color `model` gives its channel `ch`."""
    channel = model.channels[ch]
    got, need = value.colorset, channel.colorset
    if got is need:
        return
    task = model.agents[channel.consumer].task
    for tid in task.transition_ids:
        event = task.transitions[tid].event
        if isinstance(event, ReceiveEvent) and event.channel == ch:
            # worded as the receiving transition's own check
            raise TypeMismatch(f"{color_mismatch(tid, event.var, got, need)}, on channel {ch}")
    raise TypeMismatch(f"channel {ch}: a message has color {got.descriptor()}, needed {need.descriptor()}")


def resume_run(context: Context, model: MultiAgentModel, scenario: Scenario) -> RunnableSystem:
    """A system for `model` resumed from a checkpoint, ready to run `scenario` on.

    Every agent is plan-preserving, and the scenario's triggers before the
    checkpoint's step count count as done.
    """
    system = synthesize(model, _stateless=True)
    impact = PlanImpact(dict.fromkeys(system.agent_ids, "preserving"))
    system = resume_context(system, context, impact)
    system.trigger_cursor = sum(1 for t in scenario.triggers if t.at_step < context.step_count)
    return system


def _finish(system, reason, trace, adaptations, final_entry=True):
    if final_entry:
        trace.append(TraceEntry(system.step_count, "-", "quiescent", reason))
    return FinalReport(
        end_reason=reason,
        steps=system.step_count,
        final_markings=dict(zip(system.agent_ids, system._markings)),
        final_mailboxes=dict(zip(system.agent_ids, map(tuple, system._mailboxes))),
        trace=tuple(trace),
        adaptations=tuple(adaptations),
        warnings=tuple(system.warnings),
    )


def adaptive_loop(
    system: RunnableSystem,
    scenario: Scenario,
    *,
    checkpoint_at: Optional[int] = None,
    checkpoint_sink: Optional[Callable[[Context, MultiAgentModel], None]] = None,
) -> FinalReport:
    """Run until the scenario ends, evolving the system whenever adaptation is needed.

    With checkpoint_at set, the run stops the first time the step counter
    reaches that value, hands (context, current model) to checkpoint_sink,
    and reports end reason "checkpoint" without a closing trace entry so a
    resumed run's trace concatenates seamlessly.
    """
    return _run(system, scenario, go, checkpoint_at, checkpoint_sink)


def _run(system, scenario, step, checkpoint_at=None, checkpoint_sink=None) -> FinalReport:
    """The scheduler engine. `step(system, scenario)` takes one action, `go` or
    `_seeded_step`; the end check, checkpoint, trace and adaptation are shared."""
    trace: list[TraceEntry] = []
    adaptations: list[tuple[str, ...]] = []
    try:
        while True:
            reason = _end_reason(system, scenario)
            if reason is not None:
                return _finish(system, reason, trace, adaptations)
            if checkpoint_at is not None and system.step_count >= checkpoint_at:
                context = save_context(system)
                if checkpoint_sink is not None:
                    checkpoint_sink(context, system.model)
                return _finish(system, "checkpoint", trace, adaptations, final_entry=False)
            outcome = step(system, scenario)
            if isinstance(outcome, Progressed):
                trace.append(
                    TraceEntry(
                        system.step_count - 1,
                        outcome.agent,
                        "fired",
                        _fired_detail(outcome.transition, outcome.binding, outcome.events),
                    )
                )
            elif isinstance(outcome, Delivered):
                trace.append(
                    TraceEntry(
                        system.step_count - 1,
                        outcome.agent,
                        "delivered",
                        f"{outcome.channel} {outcome.value.canonical()}",
                    )
                )
            elif isinstance(outcome, QuiescentPass):
                return _finish(system, "stalled", trace, adaptations)
            else:
                system = _adapt(system, outcome.request, trace, adaptations)
    except CoherenceError as exc:
        exc.partial_trace = tuple(trace)
        raise


def _adapt(system, request, trace, adaptations) -> RunnableSystem:
    """The adaptation step: save, evolve, synthesize, resume. Order is load-bearing.

    Python-level work is done only for the agents the request replaced; an
    agent it left alone costs no object, only its share of column copies
    made at C level (`map`, `zip`, `compress`, `list.copy`):

    - `save_context` copies the system's columns of markings, mailboxes and
      ready-set entries and the ready set's index lists, and encodes
      nothing.
    - `evolve` and `diff_models` pair the old and new agents by position
      when the agent ids did not change (see `changed_keys`), and look only
      at the agents whose object differs.
    - `evolve` and `synthesize` validate the new model by checking only the
      agents the request replaced against the cross-agent tables of the old
      one; a changed channel, an added or removed agent, or any violation
      runs the full pass (see `validate_model`).
    - `synthesize` builds the new system without agent state.
    - `resume_context` builds the new columns from the saved ones, aligned
      to the new agents by id. A plan-preserving agent whose task object is
      unchanged keeps its `Marking` and mailbox tuple by identity and its
      ready-set entry, so it stays clean in the new ready set, which starts
      from the saved index lists. No marking goes through bytes, and a
      plan-modifying agent, an added one among them, still restarts fresh.
      No `AgentState` is made: `states` makes one only for an agent some
      caller asks for.

    A message on a deleted channel makes `resume_context` look at every
    agent with mail.

    The system adapted away is left as it was: its columns, states, ready
    set, bus and warnings are its own; the two systems share only immutable
    markings and mailbox tuples. A rejected request raises before anything
    is built, so the running system is untouched.
    """
    context = save_context(system)
    new_model, impact = evolve(system.model, request)
    diff = diff_models(system.model, new_model)
    new_system = synthesize(new_model, _stateless=True)
    new_system.warnings = list(system.warnings)
    new_system.trigger_cursor = system.trigger_cursor
    resumed = resume_context(new_system, context, impact)
    adaptations.append(diff)
    trace.append(
        TraceEntry(resumed.step_count, "-", "adapted", "; ".join(diff) if diff else "no changes")
    )
    return resumed


def run_concurrent(system: RunnableSystem, scenario: Scenario, seed: int) -> FinalReport:
    """Seeded interleaving of independently progressing agents.

    Every agent is its own sequential interpreter; each step is one draw of
    `random.Random(seed)` over the pending channels and the ready agents (see
    `_seeded_step`), so the final state is that of some interleaving of
    single steps. A channel delivers its oldest message first, so
    per-channel message order is preserved.
    Adaptation triggers act as a global barrier exactly as in the
    deterministic loop. The same seed gives the same trace.
    """
    return _run(system, scenario, partial(_seeded_step, random.Random(seed)))
