"""Execution of a synthesized multi-agent system under an adaptive loop.

One scheduler action per call: pending adaptation triggers first, then
message delivery, then one round-robin agent firing. When an adaptation is
needed the loop snapshots the full context (markings, mailboxes, in-flight
messages, cursor), evolves the model, rebuilds the system, and restores the
context so plan-preserving agents keep their accomplished work while
plan-modifying agents restart fresh.

Messages sent on the reserved channel "adapt!" are intercepted: their text
payload is parsed as adaptation operations, letting a model request its own
evolution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .adaptation import AdaptationRequest, PlanImpact, diff_models, evolve
from .cpn import (
    Marking,
    ReceivedMessage,
    SentMessage,
    Value,
    # Not called here any more. It stays bound because the benchmark's tracer
    # wraps it in every roleflow module that holds it, and
    # perfbench/test_perfbench.py checks that this module does.
    enabled_bindings,  # noqa: F401
    fire,
    first_binding,
)
from .decomposition import MultiAgentModel, synthesize
from .errors import (
    CoherenceError,
    ContextCorrupt,
    ImpactMismatch,
    IncompatiblePlace,
    RoleflowError,
)
from .marking_codec import restore_marking, save_marking

ADAPT_CHANNEL = "adapt!"

CONTEXT_VERSION = "CTX1"


@dataclass
class AgentState:
    marking: Marking
    mailbox: list  # FIFO of (channel id, Value); receive takes the earliest per channel


class RunnableSystem:
    """Current state of a running multi-agent system, aware of its own model."""

    def __init__(self, model: MultiAgentModel, states, bus, cursor=0, step_count=0):
        self.model = model
        self.agent_ids: tuple[str, ...] = tuple(sorted(model.agents))
        self.states: dict[str, AgentState] = states
        self.bus: list = bus  # FIFO of (channel id, Value) not yet delivered
        self.cursor = cursor
        self.step_count = step_count
        self.trigger_cursor = 0
        self.warnings: list[str] = []
        # agent id -> (task, marking, mailbox snapshot, first firing) it was computed for
        self._first_firings: dict[str, tuple] = {}

    @classmethod
    def fresh(cls, model: MultiAgentModel) -> "RunnableSystem":
        states = {}
        for aid in sorted(model.agents):
            states[aid] = AgentState(model.agents[aid].task.initial_marking(), [])
        for cid in sorted(model.channels):
            ch = model.channels[cid]
            for v in sorted(ch.initial, key=lambda v: v.sort_key()):
                states[ch.consumer].mailbox.append((cid, v))
        return cls(model, states, bus=[])

    def task(self, agent_id: str):
        return self.model.agents[agent_id].task

    def first_firing(self, agent_id: str) -> Optional[tuple[str, dict]]:
        """The agent's first enabled (transition, binding) in canonical order, or None.

        It depends only on the agent's task, marking and mailbox, so it is
        kept until one of them changes. Tasks and markings are immutable and
        replaced on every change, so identity tells a new one; the mailbox is
        compared by value. Code that assigns `state.marking` or edits
        `state.mailbox` directly therefore needs to invalidate nothing.
        """
        state = self.states[agent_id]
        task = self.model.agents[agent_id].task
        cached = self._first_firings.get(agent_id)
        if (
            cached is not None
            and cached[0] is task
            and cached[1] is state.marking
            and cached[2] == state.mailbox
        ):
            return cached[3]
        mailbox = list(state.mailbox)
        found = None
        for tid in sorted(task.transitions):
            binding = first_binding(task, state.marking, tid, mailbox)
            if binding is not None:
                found = (tid, binding)
                break
        self._first_firings[agent_id] = (task, state.marking, mailbox, found)
        return found

    def quiescent(self) -> bool:
        """No deliverable message and no enabled firing anywhere."""
        if self.bus:
            return False
        for aid in self.agent_ids:
            if self.first_firing(aid) is not None:
                return False
        return True


@dataclass(frozen=True)
class Progressed:
    agent: str
    transition: str
    binding: tuple
    events: tuple


@dataclass(frozen=True)
class Delivered:
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


@dataclass(frozen=True)
class TraceEntry:
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


def _fired_detail(transition: str, binding: dict, events) -> str:
    bound = ",".join(f"{k}={binding[k].canonical()}" for k in sorted(binding))
    text = f"{transition} {bound}" if bound else transition
    for ev in events:
        if isinstance(ev, SentMessage):
            text += f" sent {ev.channel} {ev.value.canonical()}"
        elif isinstance(ev, ReceivedMessage):
            text += f" recv {ev.channel} {ev.value.canonical()}"
    return text


def _agent_fire(system: RunnableSystem, aid: str) -> Optional[Progressed]:
    """Fire the agent's first enabled (transition, binding) in canonical order."""
    choice = system.first_firing(aid)
    if choice is None:
        return None
    tid, binding = choice
    state = system.states[aid]
    new_marking, events = fire(system.task(aid), state.marking, tid, binding)
    state.marking = new_marking
    for ev in events:
        if isinstance(ev, ReceivedMessage):
            for i, (ch, _) in enumerate(state.mailbox):
                if ch == ev.channel:
                    del state.mailbox[i]
                    break
        elif isinstance(ev, SentMessage):
            system.bus.append((ev.channel, ev.value))
    return Progressed(aid, tid, tuple(sorted(binding.items())), tuple(events))


def _intercepted_request(system: RunnableSystem, value: Value) -> AdaptationRequest:
    from .modelio import parse_ops_text

    if value.colorset.kind != "text":
        raise CoherenceError(f"message on {ADAPT_CHANNEL} must carry text")
    try:
        ops = parse_ops_text(value.payload, system.model)
    except RoleflowError as exc:
        raise CoherenceError(f"cannot parse adaptation request: {exc}") from exc
    return AdaptationRequest(tuple(ops), reason="model-requested")


def go(system: RunnableSystem, scenario: Scenario) -> StepOutcome:
    """One atomic scheduler action: trigger, else delivery, else one firing."""
    if system.trigger_cursor < len(scenario.triggers):
        trig = scenario.triggers[system.trigger_cursor]
        if trig.at_step == system.step_count:
            system.trigger_cursor += 1
            return AdaptationNeeded(trig.request)

    if system.bus:
        channel, value = system.bus.pop(0)
        if channel == ADAPT_CHANNEL:
            return AdaptationNeeded(_intercepted_request(system, value))
        consumer = system.model.channels[channel].consumer
        system.states[consumer].mailbox.append((channel, value))
        system.step_count += 1
        return Delivered(consumer, channel, value)

    n = len(system.agent_ids)
    for k in range(n):
        idx = (system.cursor + k) % n
        outcome = _agent_fire(system, system.agent_ids[idx])
        if outcome is not None:
            system.cursor = (idx + 1) % n
            system.step_count += 1
            return outcome
    return QuiescentPass()


def system_ended(system: RunnableSystem, scenario: Scenario) -> bool:
    return _end_reason(system, scenario) is not None


def _end_reason(system: RunnableSystem, scenario: Scenario) -> Optional[str]:
    if system.step_count >= scenario.max_steps:
        return "budget"
    cond = scenario.end_condition
    if cond[0] == "quiescence":
        if system.quiescent() and not _trigger_pending_now(system, scenario):
            return "quiescence"
    elif cond[0] == "marked":
        _, aid, pid = cond
        state = system.states.get(aid)
        if state is not None and not state.marking.get(pid).is_empty:
            return "place-marked"
    return None


def _trigger_pending_now(system: RunnableSystem, scenario: Scenario) -> bool:
    if system.trigger_cursor >= len(scenario.triggers):
        return False
    return scenario.triggers[system.trigger_cursor].at_step == system.step_count


@dataclass(frozen=True)
class Context:
    """Snapshot of everything a resumed system needs: state plus control flow."""

    version: str
    agent_markings: tuple  # ((agent id, marking bytes), ...) sorted by agent
    agent_mailboxes: tuple  # ((agent id, ((channel, Value), ...)), ...) sorted by agent
    bus: tuple  # ((channel, Value), ...) in flight, oldest first
    cursor: int
    step_count: int


def save_context(system: RunnableSystem) -> Context:
    markings = []
    mailboxes = []
    for aid in system.agent_ids:
        state = system.states[aid]
        markings.append((aid, save_marking(system.task(aid), state.marking)))
        mailboxes.append((aid, tuple(state.mailbox)))
    return Context(
        version=CONTEXT_VERSION,
        agent_markings=tuple(markings),
        agent_mailboxes=tuple(mailboxes),
        bus=tuple(system.bus),
        cursor=system.cursor,
        step_count=system.step_count,
    )


def resume_context(
    new_system: RunnableSystem, context: Context, impact: PlanImpact
) -> RunnableSystem:
    """Restore saved state into a freshly synthesized system, honoring plan impact."""
    if context.version != CONTEXT_VERSION:
        raise ContextCorrupt(f"unsupported context version '{context.version}'")
    saved_markings = dict(context.agent_markings)
    saved_mail = dict(context.agent_mailboxes)
    channels = new_system.model.channels

    for aid in new_system.agent_ids:
        try:
            kind = impact.kind(aid)
        except KeyError as exc:
            raise ImpactMismatch(f"no impact classification for agent {aid}") from exc
        state = new_system.states[aid]
        if kind == "preserving":
            if aid not in saved_markings:
                raise ImpactMismatch(f"agent {aid} is preserving but absent from the context")
            try:
                state.marking = restore_marking(saved_markings[aid], new_system.task(aid))
            except IncompatiblePlace as exc:
                raise ImpactMismatch(
                    f"agent {aid} classified preserving but marking restore failed: {exc}"
                ) from exc
            kept = []
            for ch, v in saved_mail.get(aid, ()):
                if ch in channels:
                    kept.append((ch, v))
                else:
                    new_system.warnings.append(
                        f"dropped mailbox message on deleted channel {ch} for {aid}"
                    )
            state.mailbox = kept
        else:
            state.marking = new_system.task(aid).initial_marking()
            state.mailbox = []

    new_system.bus = []
    for ch, v in context.bus:
        if ch in channels or ch == ADAPT_CHANNEL:
            new_system.bus.append((ch, v))
        else:
            new_system.warnings.append(f"dropped in-flight message on deleted channel {ch}")
    new_system.cursor = context.cursor % max(1, len(new_system.agent_ids))
    new_system.step_count = context.step_count
    return new_system


def _finish(system, reason, trace, adaptations, final_entry=True):
    if final_entry:
        trace.append(TraceEntry(system.step_count, "-", "quiescent", reason))
    return FinalReport(
        end_reason=reason,
        steps=system.step_count,
        final_markings={aid: system.states[aid].marking for aid in system.agent_ids},
        final_mailboxes={aid: tuple(system.states[aid].mailbox) for aid in system.agent_ids},
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
            outcome = go(system, scenario)
            if isinstance(outcome, Progressed):
                trace.append(
                    TraceEntry(
                        system.step_count - 1,
                        outcome.agent,
                        "fired",
                        _fired_detail(outcome.transition, dict(outcome.binding), outcome.events),
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
    """The adaptation step: save, evolve, synthesize, resume. Order is load-bearing."""
    context = save_context(system)
    new_model, impact = evolve(system.model, request)
    diff = diff_models(system.model, new_model)
    new_system = synthesize(new_model)
    new_system.warnings = system.warnings
    new_system.trigger_cursor = system.trigger_cursor
    resumed = resume_context(new_system, context, impact)
    adaptations.append(diff)
    trace.append(
        TraceEntry(resumed.step_count, "-", "adapted", "; ".join(diff) if diff else "no changes")
    )
    return resumed


def _ready_actions(system: RunnableSystem) -> list[tuple]:
    """Independent actions available now: per-channel deliveries and per-agent firings."""
    actions = []
    seen_channels = set()
    for i, (ch, _) in enumerate(system.bus):
        if ch not in seen_channels:
            seen_channels.add(ch)
            actions.append(("deliver", ch, i))
    for aid in system.agent_ids:
        if system.first_firing(aid) is not None:
            actions.append(("fire", aid, None))
    return sorted(actions, key=lambda a: (a[0], a[1]))


def run_concurrent(system: RunnableSystem, scenario: Scenario, seed: int) -> FinalReport:
    """Seeded interleaving of independently progressing agents.

    Every agent is its own sequential interpreter; the scheduler picks any
    ready agent or channel delivery, so the final state is that of some
    interleaving of single steps. Per-channel message order is preserved.
    Adaptation triggers act as a global barrier exactly as in the
    deterministic loop.
    """
    rng = random.Random(seed)
    trace: list[TraceEntry] = []
    adaptations: list[tuple[str, ...]] = []
    try:
        while True:
            reason = _end_reason(system, scenario)
            if reason is not None:
                return _finish(system, reason, trace, adaptations)
            if system.trigger_cursor < len(scenario.triggers):
                trig = scenario.triggers[system.trigger_cursor]
                if trig.at_step == system.step_count:
                    system.trigger_cursor += 1
                    system = _adapt(system, trig.request, trace, adaptations)
                    continue
            actions = _ready_actions(system)
            if not actions:
                return _finish(system, "stalled", trace, adaptations)
            action = rng.choice(actions)
            if action[0] == "deliver":
                _, channel, index = action
                channel, value = system.bus.pop(index)
                if channel == ADAPT_CHANNEL:
                    request = _intercepted_request(system, value)
                    system = _adapt(system, request, trace, adaptations)
                    continue
                consumer = system.model.channels[channel].consumer
                system.states[consumer].mailbox.append((channel, value))
                system.step_count += 1
                trace.append(
                    TraceEntry(
                        system.step_count - 1,
                        consumer,
                        "delivered",
                        f"{channel} {value.canonical()}",
                    )
                )
            else:
                outcome = _agent_fire(system, action[1])
                system.step_count += 1
                trace.append(
                    TraceEntry(
                        system.step_count - 1,
                        outcome.agent,
                        "fired",
                        _fired_detail(outcome.transition, dict(outcome.binding), outcome.events),
                    )
                )
    except CoherenceError as exc:
        exc.partial_trace = tuple(trace)
        raise
