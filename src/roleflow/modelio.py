"""Text formats for models, scenarios, contexts, traces, and reports.

One lexical convention everywhere ('#' comments, quoted text, identifiers),
line-per-declaration canonical output, and strict round-tripping: parsing
canonical output reproduces the parsed object, and serializing twice is
byte-identical. Canonical net text is also the substrate for structural
equivalence checks, so ordering rules here are load-bearing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Union

from . import adaptation as ops
from .adaptation import AdaptationOp, AdaptationRequest, OP_KINDS
from .cpn import (
    BUILTINS,
    ColorSet,
    Expr,
    InputArc,
    Multiset,
    Net,
    OutputArc,
    Place,
    ProcedureDef,
    ReceiveEvent,
    SendEvent,
    Transition,
    Value,
    Variable,
    own_color,
    quote_text,
)
from .decomposition import AgentModel, Channel, MultiAgentModel
from .errors import (
    ColorClash,
    FormatError,
    ResolutionError,
    RoleflowError,
    TypeMismatch,
    UnknownOp,
    VersionMismatch,
)
from .organization import CommLink, Organization, Role
from .runtime import CONTEXT_VERSION, Context, FinalReport, Scenario, Trigger
from .textscan import (
    MAX_COLOR_DEPTH, Positions, Shape, TokenStream, canonical_int, parse_color_body,
    parse_descriptor, parse_descriptor_text, parse_value, parse_value_text,
)

# how deeply calls and tuples may nest in one expression; each level costs
# a few stack frames in parsing, checking, evaluation and comparison
MAX_EXPR_DEPTH = 64


@dataclass(eq=False)
class ModelDocument:
    model: Union[Organization, MultiAgentModel]
    declared: dict  # (kind, id) -> index of the declaring name's token
    where: Positions = field(repr=False)  # token index -> (line, col)
    # a `.mas` model's agent sections' own `declared` tables, in text order
    sections: tuple = field(default=(), repr=False)

    @cached_property
    def locations(self) -> dict:
        """(kind, id) -> (line, col) of the declaring name, for diagnostics;
        worked out on first read. Where several agent sections declare one
        name, the first declaration is given."""
        declared = dict(self.declared)
        for section in self.sections:
            for key, at in section.items():
                declared.setdefault(key, at)
        return {key: self.where(at) for key, at in declared.items()}


# --------------------------------------------------------------------------
# expressions


def render_expr(expr: Expr) -> str:
    if expr.kind == "var":
        return expr.name
    if expr.kind == "lit":
        if expr.value.colorset.kind == "enum":
            return f"{expr.value.colorset.name}.{expr.value.payload}"
        return expr.value.canonical()
    if expr.kind == "tuple":
        return "(" + ",".join(render_expr(a) for a in expr.args) + ")"
    return f"{expr.name}(" + ",".join(render_expr(a) for a in expr.args) + ")"


def parse_expr(
    ts: TokenStream,
    env: Mapping[str, ColorSet],
    colorsets: Mapping[str, ColorSet],
    expected: Optional[ColorSet],
    depth: int = 0,
) -> Expr:
    at = _within_depth(ts, depth)
    kind = ts.kinds[at]
    if kind == "int":
        text = ts.next()
        if expected is None or expected.kind != "int":
            raise ts.error("an integer in an int-colored context", at)
        return Expr.lit(Value(expected, int(text)))
    if kind == "string":
        text = ts.next()
        if expected is None or expected.kind != "text":
            raise ts.error("text in a text-colored context", at)
        return Expr.lit(Value(expected, text))
    if ts.at("punct", "("):
        ts.next()
        if ts.accept("punct", ")"):
            if expected is None or expected.kind != "unit":
                raise ts.error("'()' in a unit-colored context", at)
            return Expr.lit(Value(expected, None))
        if expected is None or expected.kind != "product":
            raise ts.error("a tuple in a product-colored context", at)
        args = []
        for i, comp in enumerate(expected.components):
            if i:
                ts.expect("punct", ",")
            args.append(parse_expr(ts, env, colorsets, comp, depth + 1))
        ts.expect("punct", ")")
        return Expr.tup(*args)
    name = ts.expect("ident", what="an expression")
    if ts.at("punct", "("):
        return _parse_call(ts, at, env, colorsets, expected, depth)
    if ts.at("punct", "."):
        return _enum_literal(ts, at, colorsets)
    if name in env:
        return Expr.var(name)
    if expected is not None and expected.kind == "enum" and name in expected.members:
        return Expr.lit(Value(expected, name))
    raise ResolutionError(name, *ts.where(at))


def _within_depth(ts, depth: int) -> int:
    """The next token's index, unless it starts an expression nested past the cap."""
    if depth > MAX_EXPR_DEPTH:
        raise ts.error(f"an expression with at most {MAX_EXPR_DEPTH} nested calls and tuples")
    return ts.pos


def _parse_call(ts, name_at, env, colorsets, expected, depth) -> Expr:
    """A builtin call shaped by its table entry; the parser knows no operand's color."""
    name = ts.texts[name_at]
    builtin = BUILTINS.get(name)
    if builtin is None:
        raise ts.error("a builtin function name", name_at)
    ts.expect("punct", "(")
    args = []
    for i, context in enumerate(builtin.contexts):
        if i:
            ts.expect("punct", ",")
        if context is own_color:
            args.append(parse_expr_inferred(ts, env, colorsets, depth + 1))
            continue
        try:
            ctx = expected if context is None else context(name, expected, (None,) * i)
        except TypeMismatch:  # only a pair's components can lack a context
            raise ts.error(f"{name} in a pair-colored context", name_at) from None
        args.append(parse_expr(ts, env, colorsets, ctx, depth + 1))
    constants = []
    for _ in range(len(args), builtin.arity):
        ts.expect("punct", ",")
        constants.append(ts.expect("int", what="an integer constant"))
    ts.expect("punct", ")")
    if constants and (expected is None or expected.kind != "int"):
        raise ts.error(f"{name} in an int-colored context", name_at)
    return Expr.call(name, *args, *(Expr.lit(Value(expected, int(k))) for k in constants))


def parse_expr_inferred(ts, env, colorsets, depth: int = 0) -> Expr:
    """Parse where the color must come from the expression itself (vars, projections)."""
    at = _within_depth(ts, depth)
    if ts.kinds[at] != "ident":
        raise ts.error("an expression with inferable color", at)
    name = ts.next()
    if ts.at("punct", "("):
        builtin = BUILTINS.get(name)
        # a one-operand builtin takes its color from that operand
        if builtin is None or builtin.arity != 1:
            raise ts.error("an expression with inferable color", at)
        ts.next()
        arg = parse_expr_inferred(ts, env, colorsets, depth + 1)
        ts.expect("punct", ")")
        return Expr.call(name, arg)
    if ts.at("punct", "."):
        return _enum_literal(ts, at, colorsets)
    if name in env:
        return Expr.var(name)
    raise ResolutionError(name, *ts.where(at))


def _enum_literal(ts, name_at, colorsets) -> Expr:
    """`Enum.member`, read from the '.' after the enum's name at token `name_at`."""
    name = ts.texts[name_at]
    ts.expect("punct", ".")
    member = ts.expect("ident", what="an enum member")
    cs = colorsets.get(name)
    if cs is None:
        raise ResolutionError(name, *ts.where(name_at))
    if cs.kind != "enum" or member not in cs.members:
        raise ts.error(f"a member of enum {name}", name_at)
    return Expr.lit(Value(cs, member))


# --------------------------------------------------------------------------
# keyword lines
#
# Every line of a model, an agent section or a scenario starts with a
# keyword, and one table per reader maps the keyword to the `_stmt_<keyword>`
# method that reads the rest. A statement method gets the stream after its
# keyword and the keyword's token index; declarations record the index of
# the declared name's token. A fixed run of tokens in a line is read as one
# `Shape`; a check that names a token before the end of its run is made
# before the run is read, so an error comes from the same token as when
# each token was read on its own.


def _keywords(*keywords: str):
    """Class decorator: the class's line table, each keyword -> its `_stmt_<keyword>` method."""

    def table(cls):
        cls._statements = {kw: getattr(cls, f"_stmt_{kw}") for kw in keywords}
        return cls

    return table


class _Lines:
    """A reader of keyword lines."""

    _statements: dict = {}

    def read_lines(self, ts: TokenStream, what: str | None = None) -> None:
        """The lines at the cursor, each handed by its keyword to the method
        the class's table names for it. The end of the text ends them, and so
        does a line that starts with no keyword of ours, or with `what` that
        line is an error naming what it should have been."""
        table, kinds, texts = self._statements, ts.kinds, ts.texts
        while True:
            at = ts.pos
            stmt = table.get(texts[at]) if kinds[at] == "ident" else None
            if stmt is None:
                if what is None or kinds[at] == "eof":
                    return
                raise ts.error(what)
            ts.pos = at + 1
            stmt(self, ts, at)


def _stmt_assign(self, ts, kw):
    role_at = ts.pos
    if ts.kinds[role_at] == "ident" and ts.texts[role_at] in self.assignment:
        raise ts.error("a fresh role id", role_at)
    role, _, agent = ts.read(_ASSIGN)
    self.assignment[role] = agent


_ASSIGN = Shape(("ident", None, "a role id"), ("arrow", None), ("ident", None, "an agent id"))
_COLORSET_HEAD = Shape(("ident", None, "a color set name"), ("punct", "="))
_VAR = Shape(("ident", None, "a variable name"), ("punct", ":"), ("ident", None, "a color set name"))
_PLACE = Shape(("ident", None, "a place name"), ("punct", ":"), ("ident", None, "a color set name"))
_PARAM = Shape(("ident", None, "a parameter name"), ("punct", ":"), ("ident", None, "a color set name"))
_TRANS_HEAD = Shape(
    ("ident", None, "a transition name"),
    ("ident", "role", "'role'"),
    ("punct", "="),
    ("ident", None, "a role name"),
    ("ident", "proc", "'proc'"),
    ("punct", "="),
    ("ident", None, "a procedure name"),
)
_RECV = Shape(("ident", None, "a channel name"), ("ident", None, "a bound variable name"))
_SEND = Shape(("ident", None, "a channel name"), ("punct", "="))
_IN = Shape(("ident", None, "a place name"), ("punct", ":"), ("ident", None, "a parameter name"))
_OUT = Shape(("ident", None, "a place name"), ("punct", ":"), ("ident", None, "a result name"))
_NET_KEYWORDS = ("colorset", "var", "place", "proc", "trans", "in", "out")
_NO_TOKENS = Multiset()  # immutable, so every unmarked place can hold this one


@_keywords(*_NET_KEYWORDS)
class NetBuilder(_Lines):
    """Reads net statements into one net.

    `procedures` is a memo of procedure declarations, which a parse hands to
    every builder it makes (a builder has its own by default): a declaration
    whose tokens and colors match an earlier one yields that `ProcedureDef`
    object, so the copies share one compile (`cpn.compiled_procedure`).
    """

    def __init__(
        self,
        seed_colorsets: Mapping[str, ColorSet] | None = None,
        allow_procs=True,
        allow_events=False,
        procedures: dict | None = None,
    ):
        self.seed_colorsets = dict(seed_colorsets or {})
        self.colorsets: dict[str, ColorSet] = {}
        self.variables: dict[str, Variable] = {}
        self.places: dict[str, Place] = {}
        self.procedures: dict[str, ProcedureDef] = {}
        self.transitions: dict[str, Transition] = {}
        self.arcs: list = []
        self.current: Optional[str] = None
        self.allow_procs = allow_procs
        self.allow_events = allow_events
        self.declared: dict = {}  # (kind, name) -> token index of the name
        self.memo = {} if procedures is None else procedures

    def read_colorset(self, ts) -> ColorSet:
        """A color set name, resolved."""
        at = ts.pos
        return self._colorset(ts, ts.expect("ident", what="a color set name"), at)

    def _colorset(self, ts, name: str, at: int) -> ColorSet:
        """The color set `name` at token `at` names."""
        cs = self.colorsets.get(name) or self.seed_colorsets.get(name)
        if cs is None:
            raise ResolutionError(name, *ts.where(at))
        return cs

    def colorset_env(self) -> dict[str, ColorSet]:
        env = dict(self.seed_colorsets)
        env.update(self.colorsets)
        return env

    def _declare(self, kind: str, ts, at: int, table: dict, item):
        name = ts.texts[at]
        if name in table:
            raise ts.error(f"a fresh {kind} name", at)
        table[name] = item
        self.declared[(kind, name)] = at

    def _stmt_colorset(self, ts, kw):
        at = ts.pos
        name, _ = ts.read(_COLORSET_HEAD)
        cs = parse_color_body(ts, name, self.read_colorset)
        if cs.depth > MAX_COLOR_DEPTH:
            raise ts.error(f"a color set with at most {MAX_COLOR_DEPTH} nested products", at)
        self._declare("colorset", ts, at, self.colorsets, cs)

    def _stmt_var(self, ts, kw):
        at = ts.pos
        name, _, cs_name = ts.read(_VAR)
        cs = self._colorset(ts, cs_name, at + 2)
        self._declare("variable", ts, at, self.variables, Variable(name, cs))

    def _stmt_place(self, ts, kw):
        at = ts.pos
        name, _, cs_name = ts.read(_PLACE)
        cs = self._colorset(ts, cs_name, at + 2)
        initial = _NO_TOKENS
        if ts.at("ident", "init"):
            ts.next()
            initial = Multiset(_value_list(ts, cs))
        self._declare("place", ts, at, self.places, Place(name, cs, initial))

    def _params(self, ts) -> tuple:
        ts.expect("punct", "(")
        out = []
        if not ts.at("punct", ")"):
            while True:
                at = ts.pos
                pname, _, cs_name = ts.read(_PARAM)
                out.append((pname, self._colorset(ts, cs_name, at + 2)))
                if not ts.accept("punct", ","):
                    break
        ts.expect("punct", ")")
        return tuple(out)

    def _stmt_proc(self, ts, kw):
        if not self.allow_procs:
            raise ts.error("no procedure declarations in this block", kw)
        at = ts.pos
        ts.expect("ident", what="a procedure name")
        proc = self.parse_procedure_tail(ts, at)
        self._declare("procedure", ts, at, self.procedures, proc)

    def parse_procedure_tail(self, ts, name_at: int) -> ProcedureDef:
        """The procedure declared from its name at token `name_at` to its '}'.

        The memo key is the declaration's token kinds and texts and the
        builder's color environment, the only other thing the parse reads;
        interned colors compare by identity. Neither a parameter list nor an
        expression holds a '}', so a declaration that parses ends at the
        first '}' punctuation after its name.
        """
        kinds, texts = ts.kinds, ts.texts
        try:
            end = texts.index("}", name_at) + 1
            while kinds[end - 1] != "punct":
                end = texts.index("}", end) + 1
        except ValueError:  # no '}': the parse raises
            return self._parse_procedure_tail(ts, name_at)
        key = (
            tuple(kinds[name_at:end]),
            tuple(texts[name_at:end]),
            tuple(self.colorsets.items()),
            tuple(self.seed_colorsets.items()),
        )
        proc = self.memo.get(key)
        if proc is None:
            proc = self.memo[key] = self._parse_procedure_tail(ts, name_at)
        else:
            ts.pos = end
        return proc

    def _parse_procedure_tail(self, ts, name_at: int) -> ProcedureDef:
        inputs = self._params(ts)
        ts.expect("arrow")
        outputs = self._params(ts)
        env = dict(inputs)
        if len(env) != len(inputs):
            raise ts.error("distinct parameter names", name_at)
        ts.expect("punct", "{")
        rules: dict[str, Expr] = {}
        out_colors = dict(outputs)
        colorsets = self.colorset_env()
        while not ts.at("punct", "}"):
            rule_at = ts.pos
            rname = ts.expect("ident", what="an output name")
            if rname not in out_colors:
                raise ts.error("a declared output name", rule_at)
            if rname in rules:
                raise ts.error("a single rule per output", rule_at)
            ts.expect("punct", "=")
            rules[rname] = parse_expr(ts, env, colorsets, out_colors[rname])
            if not ts.accept("punct", ";"):
                break
        close_at = ts.pos
        ts.expect("punct", "}")
        missing = [r for r, _ in outputs if r not in rules]
        if missing:
            raise ts.error(f"a rule for output '{missing[0]}'", close_at)
        body = tuple((r, rules[r]) for r, _ in outputs)
        return ProcedureDef(ts.texts[name_at], inputs, outputs, body)

    def _expr_env(self, proc: Optional[ProcedureDef], with_outputs=False) -> dict:
        env = {v.name: v.colorset for v in self.variables.values()}
        if proc is not None:
            env.update(dict(proc.inputs))
            if with_outputs:
                env.update(dict(proc.outputs))
        return env

    def _stmt_trans(self, ts, kw):
        at = ts.pos
        name, _, _, role, _, _, proc_name = ts.read(_TRANS_HEAD)
        proc = self.procedures.get(proc_name)
        if proc is None and self.allow_procs:
            # task blocks reference knowledge injected later; here it must exist
            raise ResolutionError(proc_name, *ts.where(at + 6))
        guard = None
        event = None
        if ts.at("ident", "guard"):
            ts.next()
            guard = parse_expr(ts, self._expr_env(proc), self.colorset_env(), None)
        event_at = ts.pos
        direction = ts.texts[event_at] if ts.kinds[event_at] == "ident" else None
        if direction == "recv" or direction == "send":
            if not self.allow_events:
                raise ts.error("no events in this net", event_at)
            ts.pos = event_at + 1
            if direction == "recv":
                event = ReceiveEvent(*ts.read(_RECV))
            else:
                channel, _ = ts.read(_SEND)
                message = parse_expr(
                    ts, self._expr_env(proc, with_outputs=True), self.colorset_env(), None
                )
                event = SendEvent(channel, message)
        self._declare("transition", ts, at, self.transitions, Transition(name, role, proc_name, guard, event))
        self.current = name

    def _arc(self, ts, kw, shape: Shape) -> tuple[str, str, str]:
        """The current transition, and the place and label of the arc the
        rest of the line declares; an undeclared place is named before the
        rest is read."""
        tid = self.current
        if tid is None:
            raise ts.error("a preceding trans declaration", kw)
        at = ts.pos
        if ts.kinds[at] == "ident" and ts.texts[at] not in self.places:
            raise ResolutionError(ts.texts[at], *ts.where(at))
        place, _, label = ts.read(shape)
        return tid, place, label

    def _stmt_in(self, ts, kw):
        tid, place, label = self._arc(ts, kw, _IN)
        self.arcs.append(InputArc(place, tid, label))

    def _stmt_out(self, ts, kw):
        tid, place, label = self._arc(ts, kw, _OUT)
        self.arcs.append(OutputArc(tid, place, label))

    def build(self, net_id: str) -> Net:
        try:
            return Net(
                net_id,
                colorsets=list(self.colorsets.values()),
                variables=list(self.variables.values()),
                places=list(self.places.values()),
                transitions=list(self.transitions.values()),
                procedures=list(self.procedures.values()),
                arcs=self.arcs,
            )
        except ColorClash as exc:  # a color declared here shares its name with a seed color it meets
            raise ResolutionError(exc.name) from None


@_keywords(*_NET_KEYWORDS, "objective", "role", "comm")
class _OrgBuilder(NetBuilder):
    """An organization's lines: its objective, roles and links, and its net's."""

    def __init__(self):
        super().__init__()
        self.objective = ""
        self.roles: dict[str, Role] = {}
        self.links: list[CommLink] = []

    def _stmt_objective(self, ts, kw):
        self.objective = ts.expect("string", what="a quoted objective")

    def _stmt_role(self, ts, kw):
        name_at = ts.pos
        name = ts.expect("ident", what="a role id")
        desc = ts.accept("string")
        if name in self.roles:
            raise ts.error("a fresh role id", name_at)
        self.roles[name] = Role(name, desc or "")
        self.declared[("role", name)] = name_at

    def _stmt_comm(self, ts, kw):
        src_at = ts.pos
        src, _, dst = ts.read(_COMM)
        for end, end_at in ((src, src_at), (dst, src_at + 2)):
            if end not in self.roles:
                raise ResolutionError(end, *ts.where(end_at))
        self.links.append(CommLink(src, dst))


_COMM = Shape(("ident", None, "a role id"), ("arrow", None), ("ident", None, "a role id"))
_IDENT = Shape(("ident", None, "an identifier"))


@_keywords("assumes", "sensor", "effector", *_NET_KEYWORDS)
class _AgentBuilder(NetBuilder):
    """An agent section's lines: its roles, sensors and effectors, and its task net's."""

    def __init__(self, seed_colorsets=None, procedures=None):
        super().__init__(seed_colorsets, allow_events=True, procedures=procedures)
        self.roles: set[str] = set()
        self.sensors: set[str] = set()
        self.effectors: set[str] = set()

    def _stmt_assumes(self, ts, kw):
        self.roles.add(ts.read(_IDENT)[0])

    def _stmt_sensor(self, ts, kw):
        self.sensors.add(ts.read(_IDENT)[0])

    def _stmt_effector(self, ts, kw):
        self.effectors.add(ts.read(_IDENT)[0])

    def read_section(self, ts, agent_id: str) -> AgentModel:
        """The agent declared by the lines at the cursor, up to the first
        line that starts with no keyword of an agent section."""
        self.read_lines(ts)
        return AgentModel(
            id=agent_id,
            roles=frozenset(self.roles),
            sensors=frozenset(self.sensors),
            effectors=frozenset(self.effectors),
            task=self.build(agent_id),
        )


# --------------------------------------------------------------------------
# canonical serialization


def _topo_colorsets(colorsets: Mapping[str, ColorSet]) -> list[ColorSet]:
    done: dict[str, ColorSet] = {}
    order: list[ColorSet] = []

    def visit(cs: ColorSet):
        if cs.name in done:
            return
        for comp in cs.components:
            visit(comp)
        done[cs.name] = cs
        order.append(cs)

    for name in sorted(colorsets):
        visit(colorsets[name])
    return order


def _render_colorset_decl(cs: ColorSet) -> str:
    if cs.kind == "enum":
        rhs = "enum{" + ",".join(cs.members) + "}"
    elif cs.kind == "product":
        rhs = "product(" + ",".join(c.name for c in cs.components) + ")"
    else:
        rhs = cs.kind
    return f"colorset {cs.name} = {rhs}"


def _render_multiset(ms: Multiset) -> str:
    return "{ " + ", ".join(v.canonical() for v in ms.values()) + " }"


def _render_proc(proc: ProcedureDef) -> str:
    """The procedure's line, rendered on first use and kept on the frozen
    instance, the way `cpn.compiled_procedure` keeps its compile."""
    # getattr, not `proc.__dict__`, for the reason `cpn.type_check_net` gives
    text = getattr(proc, "_text", None)
    if text is None:
        ins = ",".join(f"{n}:{cs.name}" for n, cs in proc.inputs)
        outs = ",".join(f"{n}:{cs.name}" for n, cs in proc.outputs)
        body = "; ".join(f"{r} = {render_expr(e)}" for r, e in proc.body)
        text = f"proc {proc.name}({ins}) -> ({outs}) {{ {body} }}"
        object.__setattr__(proc, "_text", text)
    return text


def serialize_net_fragment(net: Net) -> list[str]:
    lines: list[str] = []
    for cs in _topo_colorsets(net.colorsets):
        lines.append(_render_colorset_decl(cs))
    for name in sorted(net.variables):
        v = net.variables[name]
        lines.append(f"var {v.name} : {v.colorset.name}")
    for pid in sorted(net.places):
        p = net.places[pid]
        line = f"place {p.id} : {p.colorset.name}"
        if not p.initial.is_empty:
            line += " init " + _render_multiset(p.initial)
        lines.append(line)
    for name in sorted(net.procedures):
        lines.append(_render_proc(net.procedures[name]))
    for tid in sorted(net.transitions):
        t = net.transitions[tid]
        line = f"trans {t.id} role={t.role} proc={t.procedure}"
        if t.guard is not None:
            line += f" guard {render_expr(t.guard)}"
        if isinstance(t.event, ReceiveEvent):
            line += f" recv {t.event.channel} {t.event.var}"
        elif isinstance(t.event, SendEvent):
            line += f" send {t.event.channel} = {render_expr(t.event.message)}"
        lines.append(line)
        for arc in net.input_arcs(tid):
            lines.append(f"in {arc.place} : {arc.label}")
        for arc in net.output_arcs(tid):
            lines.append(f"out {arc.place} : {arc.label}")
    return lines


def canonical_net_text(net: Net) -> str:
    """Canonical rendering with the net id normalized away; equality substrate."""
    return "\n".join(serialize_net_fragment(net)) + "\n"


def serialize_model(model: Union[Organization, MultiAgentModel, ModelDocument]) -> str:
    if isinstance(model, ModelDocument):
        model = model.model
    if isinstance(model, Organization):
        return _serialize_org(model)
    return _serialize_mas(model)


def _serialize_org(org: Organization) -> str:
    lines = [f"org {org.id}", f"objective {quote_text(org.objective)}"]
    for rid in sorted(org.roles):
        lines.append(f"role {rid} {quote_text(org.roles[rid].description)}")
    for link in sorted(org.links, key=lambda l: (l.source, l.target)):
        lines.append(f"comm {link.source} -> {link.target}")
    lines.extend(serialize_net_fragment(org.global_task))
    return "\n".join(lines) + "\n"


def channel_line(ch: Channel) -> str:
    """A channel's line in a `.mas` model and in a `channels.manifest`."""
    line = f"channel {ch.id} : {ch.colorset.descriptor()} from {ch.producer} to {ch.consumer}"
    if ch.initial:
        line += " init { " + ", ".join(v.canonical() for v in ch.initial) + " }"
    return line


def _serialize_mas(mam: MultiAgentModel) -> str:
    lines = [f"mas {mam.organization_ref}"]
    for role in sorted(mam.assignment):
        lines.append(f"assign {role} -> {mam.assignment[role]}")
    lines.extend(channel_line(mam.channels[cid]) for cid in sorted(mam.channels))
    for aid in sorted(mam.agents):
        agent = mam.agents[aid]
        lines.append(f"agent {agent.id}")
        for role in sorted(agent.roles):
            lines.append(f"assumes {role}")
        for ch in sorted(agent.sensors):
            lines.append(f"sensor {ch}")
        for ch in sorted(agent.effectors):
            lines.append(f"effector {ch}")
        lines.extend(serialize_net_fragment(agent.task))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# model parsing


def parse_model(text: str) -> ModelDocument:
    ts = TokenStream(text)
    if ts.at("ident", "org"):
        return _parse_org(ts)
    if ts.at("ident", "mas"):
        return _parse_mas(ts)
    raise ts.error("'org' or 'mas'")


def _parse_org(ts: TokenStream) -> ModelDocument:
    ts.expect("ident", "org")
    org_id = ts.expect("ident", what="an organization id")
    builder = _OrgBuilder()
    builder.read_lines(ts, "an organization declaration")
    net = builder.build(org_id)
    org = Organization(org_id, builder.objective, builder.roles, builder.links, net)
    return ModelDocument(org, builder.declared, ts.where)


_CHANNEL_HEAD = Shape(("ident", None, "a channel id"), ("punct", ":"))
_CHANNEL_ENDS = Shape(
    ("ident", "from", "'from'"),
    ("ident", None, "an agent id"),
    ("ident", "to", "'to'"),
    ("ident", None, "an agent id"),
)


def _parse_channel_tail(ts, name: str) -> Channel:
    """The rest of a channel's declaration after its `name :`."""
    cs = parse_descriptor(ts)
    _, producer, _, consumer = ts.read(_CHANNEL_ENDS)
    initial: tuple[Value, ...] = ()
    if ts.at("ident", "init"):
        ts.next()
        initial = tuple(_value_list(ts, cs))
    return Channel(name, cs, producer, consumer, initial)


def _value_list(ts, cs: ColorSet) -> list[Value]:
    """`{ v, ... }`: canonical values of one color, in the order written."""
    ts.expect("punct", "{")
    values = []
    if not ts.at("punct", "}"):
        values.append(parse_value(ts, cs))
        while ts.accept("punct", ","):
            values.append(parse_value(ts, cs))
    ts.expect("punct", "}")
    return values


@_keywords("assign", "channel", "agent")
class _MasReader(_Lines):
    """A `.mas` model's lines outside its agent sections."""

    def __init__(self):
        self.assignment: dict[str, str] = {}
        self.channels: dict[str, Channel] = {}
        self.agents: dict[str, AgentModel] = {}
        self.declared: dict = {}
        self.sections: list[dict] = []  # each agent section's `declared`
        self.procedures: dict = {}  # every agent section's procedure memo

    _stmt_assign = _stmt_assign

    def _stmt_channel(self, ts, kw):
        name_at = ts.pos
        if ts.kinds[name_at] == "ident" and ts.texts[name_at] in self.channels:
            raise ts.error("a fresh channel id", name_at)
        name, _ = ts.read(_CHANNEL_HEAD)
        self.channels[name] = _parse_channel_tail(ts, name)
        self.declared[("channel", name)] = name_at

    def _stmt_agent(self, ts, kw):
        name_at = ts.pos
        name = ts.expect("ident", what="an agent id")
        if name in self.agents:
            raise ts.error("a fresh agent id", name_at)
        section = _AgentBuilder(procedures=self.procedures)
        self.agents[name] = section.read_section(ts, name)
        self.sections.append(section.declared)
        self.declared[("agent", name)] = name_at


def _parse_mas(ts: TokenStream) -> ModelDocument:
    ts.expect("ident", "mas")
    ref = ts.expect("ident", what="an organization reference")
    reader = _MasReader()
    reader.read_lines(ts, "a model declaration")
    mam = MultiAgentModel(ref, reader.assignment, reader.agents, reader.channels)
    return ModelDocument(mam, reader.declared, ts.where, tuple(reader.sections))


# --------------------------------------------------------------------------
# scenarios and adaptation operation payloads


@dataclass
class ScenarioDocument:
    assignment: dict
    scenario: Scenario
    colorsets: dict


_MARKED = Shape(("ident", None, "an agent id"), ("punct", "."), ("ident", None, "a place id"))
_TRIGGER = Shape(("int", None, "a step number"), ("ident", "adapt", "'adapt'"), ("punct", "{"))


@_keywords("assign", "budget", "end", "colorset", "at")
class _ScenarioReader(NetBuilder):
    """A scenario's lines; its color sets are read as a net's are."""

    def __init__(self):
        super().__init__()
        self.assignment: dict[str, str] = {}
        self.triggers: list[Trigger] = []
        self.max_steps = 10_000
        self.end_condition: tuple = ("quiescence",)

    _stmt_assign = _stmt_assign

    def _stmt_budget(self, ts, kw):
        budget_at = ts.pos
        self.max_steps = int(ts.expect("int", what="a step budget"))
        if self.max_steps < 1:
            raise ts.error("a positive budget", budget_at)

    def _stmt_end(self, ts, kw):
        kind_at = ts.pos
        kind = ts.expect("ident", what="'quiescence' or 'marked'")
        if kind == "quiescence":
            self.end_condition = ("quiescence",)
        elif kind == "marked":
            agent, _, place = ts.read(_MARKED)
            self.end_condition = ("marked", agent, place)
        else:
            raise ts.error("'quiescence' or 'marked'", kind_at)

    def _stmt_at(self, ts, kw):
        step_at = ts.pos
        if ts.kinds[step_at] == "int":  # the step is checked before the rest of its line is read
            at_step = int(ts.texts[step_at])
            if at_step < 0:
                raise ts.error("a non-negative trigger step", step_at)
            if self.triggers and at_step <= self.triggers[-1].at_step:
                raise ts.error("an increasing trigger step (non-increasing step)", step_at)
        ts.read(_TRIGGER)
        # the builder's procedure memo serves every operation payload
        op_list = _parse_ops(ts, self.colorset_env(), self.memo)
        ts.expect("punct", "}")
        self.triggers.append(
            Trigger(at_step, AdaptationRequest(tuple(op_list), reason=f"trigger at {at_step}"))
        )


def parse_scenario(text: str) -> ScenarioDocument:
    ts = TokenStream(text)
    reader = _ScenarioReader()
    reader.read_lines(ts, "a scenario declaration")
    scenario = Scenario(tuple(reader.triggers), reader.max_steps, reader.end_condition)
    return ScenarioDocument(reader.assignment, scenario, reader.colorset_env())


def _parse_ops(ts: TokenStream, colorsets: Mapping[str, ColorSet], procedures: dict) -> list[AdaptationOp]:
    out = []
    while not ts.at("punct", "}") and not ts.at("eof"):
        out.append(_parse_one_op(ts, colorsets, procedures))
        ts.accept("punct", ";")
    return out


def parse_ops_text(text: str, model: MultiAgentModel) -> list[AdaptationOp]:
    """Parse adaptation operations against a live model's color environment."""
    colorsets: dict[str, ColorSet] = {}
    for aid in sorted(model.agents):
        for name, cs in model.agents[aid].task.colorsets.items():
            colorsets.setdefault(name, cs)
    for cid in sorted(model.channels):
        colorsets.setdefault(model.channels[cid].colorset.name, model.channels[cid].colorset)
    ts = TokenStream(text)
    op_list = _parse_ops(ts, colorsets, {})
    ts.expect("eof", what="end of the request")
    return op_list


_AGENT_ID = ("ident", None, "an agent id")
_CHANNEL_ID = ("ident", None, "a channel id")
_PROC_NAME = ("ident", None, "a procedure name")
# each operation's head: the fixed run of tokens after its keyword
_OP_HEADS = {
    "aCom": _CHANNEL_HEAD,
    "rCom": Shape(_CHANNEL_ID),
    "rpCom": Shape(_CHANNEL_ID, ("ident", "channel", "'channel'"), _CHANNEL_ID, ("punct", ":")),
    **dict.fromkeys(("aSn", "rSn", "aEf", "rEf"), Shape(_AGENT_ID, _CHANNEL_ID)),
    **dict.fromkeys(("rpSn", "rpEf"), Shape(_AGENT_ID, _CHANNEL_ID, _CHANNEL_ID)),
    "aP": Shape(_AGENT_ID, ("ident", "proc", "'proc'"), _PROC_NAME),
    "rpP": Shape(_AGENT_ID, _PROC_NAME, ("ident", "proc", "'proc'"), _PROC_NAME),
    "rP": Shape(_AGENT_ID, _PROC_NAME),
    "rpT": Shape(_AGENT_ID, ("ident", "task", "'task'"), ("punct", "{")),
    "addAgent": Shape(_AGENT_ID, ("punct", "{")),
    "removeAgent": Shape(_AGENT_ID),
    "modifyAgent": Shape(_AGENT_ID, ("punct", "{")),
}
# the operations whose head is all there is to them, made from its names
_NAMED_OPS = {
    "rCom": ops.r_com,
    "aSn": ops.a_sn,
    "rSn": ops.r_sn,
    "aEf": ops.a_ef,
    "rEf": ops.r_ef,
    "rpSn": ops.rp_sn,
    "rpEf": ops.rp_ef,
    "rP": ops.r_p,
    "removeAgent": ops.remove_agent,
}


def _parse_one_op(ts: TokenStream, colorsets, procedures: dict) -> AdaptationOp:
    at = ts.pos
    if ts.kinds[at] != "ident":
        raise ts.error("an operation keyword")
    kind = ts.texts[at]
    if kind not in OP_KINDS:
        line, col = ts.where(at)
        raise UnknownOp(f"unknown operation keyword '{kind}' ({line}:{col})")
    ts.next()
    head = ts.read(_OP_HEADS[kind])
    if kind in _NAMED_OPS:
        return _NAMED_OPS[kind](*head)
    if kind == "aCom":
        return ops.a_com(_parse_channel_tail(ts, head[0]))
    if kind == "rpCom":
        return ops.rp_com(head[0], _parse_channel_tail(ts, head[2]))
    if kind == "aP" or kind == "rpP":
        helper = NetBuilder(colorsets, procedures=procedures)
        proc = helper.parse_procedure_tail(ts, ts.pos - 1)
        return ops.a_p(head[0], proc) if kind == "aP" else ops.rp_p(head[0], head[1], proc)
    if kind == "rpT":
        builder = NetBuilder(colorsets, allow_procs=False, allow_events=True)
        builder.read_lines(ts)
        ts.expect("punct", "}")
        return ops.rp_t(head[0], builder.build(head[0]))
    if kind == "addAgent":
        agent = _AgentBuilder(colorsets, procedures).read_section(ts, head[0])
        ts.expect("punct", "}")
        return ops.add_agent(agent)
    # modifyAgent
    nested = _parse_ops(ts, colorsets, procedures)
    ts.expect("punct", "}")
    return ops.modify_agent(head[0], nested)


# --------------------------------------------------------------------------
# context codec


def write_context(context: Context) -> bytes:
    lines = [CONTEXT_VERSION, f"cursor {context.cursor}", f"steps {context.step_count}"]
    channel_colors: dict[str, ColorSet] = {}
    for _, mailbox in context.agent_mailboxes:
        for ch, v in mailbox:
            channel_colors.setdefault(ch, v.colorset)
    for ch, v in context.bus:
        channel_colors.setdefault(ch, v.colorset)
    for ch in sorted(channel_colors):
        lines.append(f"channel {ch} : {channel_colors[ch].descriptor()}")
    mailboxes = dict(context.agent_mailboxes)
    for aid, marking_bytes in context.agent_markings:
        lines.append(f"agent {aid}")
        lines.append("marking-begin")
        text = marking_bytes.decode("utf-8")
        lines.extend(ln for ln in text.split("\n") if ln)
        lines.append("marking-end")
        for ch, v in mailboxes.get(aid, ()):
            lines.append(f"mail {ch} {v.canonical()}")
    for ch, v in context.bus:
        lines.append(f"bus {ch} {v.canonical()}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_context(data: bytes) -> Context:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"context bytes are not UTF-8: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise FormatError("empty context data")
    if lines[0] != CONTEXT_VERSION:
        if lines[0].startswith("CTX"):
            raise VersionMismatch(f"unsupported context version '{lines[0]}'")
        raise FormatError("missing context header")

    cursor: Optional[int] = None
    steps: Optional[int] = None
    channel_colors: dict[str, ColorSet] = {}
    parsed: dict[str, ColorSet] = {}  # descriptor text -> its (interned) color
    markings: list = []
    mailboxes: list = []
    bus: list = []
    agent_ids: set[str] = set()
    current_agent: Optional[str] = None
    in_marking = False
    marking_lines: list[str] = []

    def parse_msg(rest: str, what: str):
        ch, _, value_text = rest.partition(" ")
        cs = channel_colors.get(ch)
        if cs is None:
            raise FormatError(f"{what} on channel '{ch}' without a declared color")
        try:
            return ch, parse_value_text(value_text, cs)
        except RoleflowError as exc:
            raise FormatError(f"bad {what} value: {exc}") from exc

    for ln in lines[1:]:
        if in_marking:
            if ln == "marking-end":
                in_marking = False
                markings.append(
                    (current_agent, ("\n".join(marking_lines) + "\n").encode("utf-8"))
                )
            else:
                marking_lines.append(ln)
            continue
        head, _, rest = ln.partition(" ")
        if head == "cursor":
            cursor = _int_field(rest, "cursor")
        elif head == "steps":
            steps = _int_field(rest, "steps")
        elif head == "channel":
            ch, _, descriptor = rest.partition(" : ")
            descriptor = descriptor.strip()
            cs = parsed.get(descriptor)
            if cs is None:
                try:
                    cs = parsed[descriptor] = parse_descriptor_text(descriptor)
                except RoleflowError as exc:
                    raise FormatError(f"bad channel descriptor: {exc}") from exc
            channel_colors[ch.strip()] = cs
        elif head == "agent":
            current_agent = rest.strip()
            if not current_agent:
                raise FormatError("agent line without an id")
            if current_agent in agent_ids:
                raise FormatError(f"second agent section for '{current_agent}'")
            agent_ids.add(current_agent)
            mailboxes.append((current_agent, []))
        elif head == "marking-begin":
            if current_agent is None:
                raise FormatError("marking outside an agent section")
            if markings and markings[-1][0] == current_agent:
                raise FormatError(f"second marking for agent '{current_agent}'")
            marking_lines = []
            in_marking = True
        elif head == "mail":
            if current_agent is None or not mailboxes:
                raise FormatError("mail line outside an agent section")
            mailboxes[-1][1].append(parse_msg(rest, "mail"))
        elif head == "bus":
            bus.append(parse_msg(rest, "bus"))
        else:
            raise FormatError(f"unexpected context line: {ln!r}")
    if in_marking:
        raise FormatError("unterminated marking section")
    if cursor is None or steps is None:
        raise FormatError("context missing cursor or steps")
    return Context(
        version=CONTEXT_VERSION,
        agent_markings=tuple(markings),
        agent_mailboxes=tuple((aid, tuple(mb)) for aid, mb in mailboxes),
        bus=tuple(bus),
        cursor=cursor,
        step_count=steps,
    )


def _int_field(text: str, what: str) -> int:
    """A non-negative integer written the way `write_context` writes it."""
    n = canonical_int(text)
    if n is None or n < 0:
        raise FormatError(f"bad {what} value {text!r}")
    return n


# --------------------------------------------------------------------------
# traces and reports


def render_trace(entries) -> str:
    return "".join(e.render() + "\n" for e in entries)


def render_report(report: FinalReport) -> str:
    lines = [
        f"end {report.end_reason}",
        f"steps {report.steps}",
        f"adaptations {len(report.adaptations)}",
    ]
    for aid in sorted(report.final_markings):
        lines.append(f"agent {aid}")
        marking = report.final_markings[aid]
        for pid in marking.place_ids():
            lines.append(f"place {pid} " + _render_multiset(marking.get(pid)))
        for ch, v in report.final_mailboxes.get(aid, ()):
            lines.append(f"mail {ch} {v.canonical()}")
    for w in report.warnings:
        lines.append(f"warning {w}")
    return "\n".join(lines) + "\n"
