"""Colored nets with message-synchronized transitions.

Tokens are typed values, transitions invoke stateless procedures whose
parameters label the surrounding arcs, and a transition may additionally
carry one message event (send or receive) that ties its firing to a
communication channel. Everything is deterministic: token ordering,
binding enumeration, and the firing policy are all canonical so that two
runs over equal inputs produce equal traces.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    ColorClash,
    InvalidModel,
    NotEnabled,
    ProcedureFailure,
    SaturationWarning,
    TypeMismatch,
    UnboundVariable,
    UnknownTransition,
    ValidationReport,
    Violation,
    report_of,
)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

COLOR_KINDS = ("unit", "int", "text", "enum", "product")

_TEXT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def quote_text(s: str) -> str:
    return '"' + "".join(map(_TEXT_ESCAPES.get, s, s)) + '"'


def typed_record(cls):
    """Give a named-tuple record a frozen dataclass's equality: equal only to a record of its
    own type with equal items, never to a plain tuple or to a record of another type (`object`'s
    `__ne__` inverts `__eq__`). The hash stays the tuple's. The records that keep no cache are
    such named tuples, built without an `object.__setattr__` per field; `_replace` derives one."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _record_eq, object.__ne__, tuple.__hash__
    return cls


def _record_eq(self, other):
    return type(other) is type(self) and tuple.__eq__(self, other)


# every live color by (name, kind, members, components); weak, so the table
# keeps no color alive
_COLORS: "weakref.WeakValueDictionary[tuple, ColorSet]" = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False, init=False)
class ColorSet:
    """A token type: unit, int, text, an enumeration, or a product of color sets.

    Interned: building a color with the structure of a live one returns that
    object, so `==` is `is`, and pickles and copies return the live color.
    """

    name: str
    kind: str
    members: tuple[str, ...] = ()
    components: tuple["ColorSet", ...] = ()

    def __new__(cls, name, kind, members=(), components=()):
        key = (name, kind, members, components)
        cs = _COLORS.get(key)
        if cs is None:
            cs = object.__new__(cls)
            for attr, value in zip(("name", "kind", "members", "components"), key):
                object.__setattr__(cs, attr, value)
            cs.__post_init__()
            object.__setattr__(cs, "_hash", hash(key))
            _COLORS[key] = cs
        return cs

    def __post_init__(self):
        if self.kind not in COLOR_KINDS:
            raise TypeMismatch(f"unknown color kind '{self.kind}'")
        if self.kind == "enum":
            if not self.members:
                raise TypeMismatch(f"enum '{self.name}' needs at least one member")
            if len(set(self.members)) != len(self.members):
                raise TypeMismatch(f"enum '{self.name}' has duplicate members")
            if any(not m for m in self.members):
                raise TypeMismatch(f"enum '{self.name}' has an empty member name")
        elif self.members:
            raise TypeMismatch(f"color '{self.name}' is not an enum but lists members")
        if self.kind == "product":
            if len(self.components) < 2:
                raise TypeMismatch(f"product '{self.name}' needs at least two components")
        elif self.components:
            raise TypeMismatch(f"color '{self.name}' is not a product but lists components")
        # how many products nest in this color; the parsers cap it
        object.__setattr__(self, "depth", 1 + max(c.depth for c in self.components) if self.components else 0)

    def descriptor(self) -> str:
        """Canonical self-contained rendering. Equal descriptors mean identical colors."""
        if self.kind == "enum":
            body = "enum{" + ",".join(self.members) + "}"
        elif self.kind == "product":
            body = "product(" + ",".join(c.descriptor() for c in self.components) + ")"
        else:
            body = self.kind
        return f"{self.name}={body}"

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (ColorSet, (self.name, self.kind, self.members, self.components))


@dataclass(frozen=True)
class Value:
    """A typed token. Payload shape is pinned by the color set kind."""

    colorset: ColorSet
    payload: Union[None, int, str, tuple["Value", ...]]

    def __post_init__(self):
        kind = self.colorset.kind
        p = self.payload
        if kind == "unit":
            if p is not None:
                raise TypeMismatch("unit value carries a payload")
        elif kind == "int":
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeMismatch(f"int value with payload {p!r}")
            if not (INT_MIN <= p <= INT_MAX):
                raise TypeMismatch(f"int value {p} outside the 64-bit bound")
        elif kind == "text":
            if not isinstance(p, str):
                raise TypeMismatch(f"text value with payload {p!r}")
        elif kind == "enum":
            if p not in self.colorset.members:
                raise TypeMismatch(f"'{p}' is not a member of enum {self.colorset.name}")
        elif kind == "product":
            if not isinstance(p, tuple) or len(p) != len(self.colorset.components):
                raise TypeMismatch(f"product {self.colorset.name} arity mismatch")
            for comp, v in zip(self.colorset.components, p):
                if not isinstance(v, Value) or v.colorset != comp:
                    raise TypeMismatch(f"component of product {self.colorset.name} has wrong color")

    # Values are frozen, so the sort key and hash computed on first use never
    # go stale. They are read with getattr, not `self.__dict__`: reading an
    # instance's __dict__ makes CPython keep its attributes in a real dict,
    # which slows every later attribute load on it.

    def canonical(self) -> str:
        return self.sort_key()[0]

    def sort_key(self):
        key = getattr(self, "_sort_key", None)
        if key is None:
            key = (self._render(), self.colorset.name)
            object.__setattr__(self, "_sort_key", key)
        return key

    def _render(self) -> str:
        kind = self.colorset.kind
        if kind == "unit":
            return "()"
        if kind == "int":
            return str(self.payload)
        if kind == "text":
            return quote_text(self.payload)
        if kind == "enum":
            return self.payload
        return "(" + ",".join(v.canonical() for v in self.payload) + ")"

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.colorset, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        # string hashes differ between processes: never pickle the cached hash
        return {"colorset": self.colorset, "payload": self.payload}

    def __repr__(self):
        return f"Value({self.colorset.name}:{self.canonical()})"


def value_of(colorset: ColorSet, raw) -> Value:
    """Build a Value from plain Python data, recursing into product components."""
    if colorset.kind == "product" and isinstance(raw, tuple):
        parts = tuple(v if isinstance(v, Value) else value_of(c, v) for c, v in zip(colorset.components, raw))
        return Value(colorset, parts)
    return Value(colorset, raw)


class Multiset:
    """An immutable bag of same-colored values.

    The distinct values in canonical order are sorted once, with their sort
    keys beside them, and then handed from each multiset to the ones `plus`
    and `minus` derive from it. A derived multiset copies the count table
    and, once sorted, the two lists at C level; it does Python-level work
    only for the values it adds or removes, so one occurrence costs what it
    moves, not what its places hold.
    """

    __slots__ = ("_counts", "_distinct", "_keys")

    def __init__(self, values: Iterable[Value] = ()):
        counts: dict[Value, int] = {}
        color = None
        for v in values:
            if color is None:
                color = v.colorset
            elif v.colorset != color:
                raise TypeMismatch("multiset mixes color sets")
            counts[v] = counts.get(v, 0) + 1
        self._counts = counts
        self._distinct: Optional[list[Value]] = None
        self._keys: Optional[list] = None

    @classmethod
    def from_counts(cls, counts: Mapping[Value, int]) -> "Multiset":
        if any(n <= 0 for n in counts.values()):
            raise TypeMismatch("multiset counts must be positive")
        color = None
        for v in counts:
            if color is None:
                color = v.colorset
            elif v.colorset != color:
                raise TypeMismatch("multiset mixes color sets")
        return cls._of(dict(counts), None, None)

    @classmethod
    def _of(cls, counts: dict[Value, int], distinct: Optional[list[Value]], keys: Optional[list]) -> "Multiset":
        ms = cls.__new__(cls)
        ms._counts, ms._distinct, ms._keys = counts, distinct, keys
        return ms

    def items(self) -> list[tuple[Value, int]]:
        counts = self._counts
        return [(v, counts[v]) for v in self.distinct()]

    def values(self) -> list[Value]:
        return [v for v, n in self.items() for _ in range(n)]

    def distinct(self) -> list[Value]:
        """The distinct values in canonical order. Shared: callers must not mutate it."""
        if self._distinct is None:
            self._distinct = sorted(self._counts, key=Value.sort_key)
            self._keys = [v.sort_key() for v in self._distinct]
        return self._distinct

    def count(self, v: Value) -> int:
        return self._counts.get(v, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def is_empty(self) -> bool:
        return not self._counts

    def plus(self, values: Iterable[Value]) -> "Multiset":
        # `copy` keeps the stored hashes; `dict(...)` re-inserts every entry
        # once the table has deleted slots
        counts = self._counts.copy()
        color = next(iter(counts)).colorset if counts else None
        fresh = []
        for v in values:
            if color is None:
                color = v.colorset
            elif v.colorset is not color:
                raise TypeMismatch("multiset mixes color sets")
            n = counts.get(v, 0)
            if n == 0:
                fresh.append(v)
            counts[v] = n + 1
        distinct, keys = self._distinct, self._keys
        if distinct is not None and fresh:
            distinct, keys = distinct.copy(), keys.copy()
            for v in fresh:
                key = v.sort_key()
                i = bisect.bisect_right(keys, key)
                keys.insert(i, key)
                distinct.insert(i, v)
        return Multiset._of(counts, distinct, keys)

    def minus(self, values: Iterable[Value]) -> "Multiset":
        counts = self._counts.copy()
        gone = []
        for v in values:
            n = counts.get(v, 0)
            if n <= 0:
                raise ValueError(f"token {v.canonical()} not present")
            if n == 1:
                del counts[v]
                gone.append(v)
            else:
                counts[v] = n - 1
        distinct, keys = self._distinct, self._keys
        if distinct is not None and gone:
            distinct, keys = distinct.copy(), keys.copy()
            for v in gone:
                i = distinct.index(v, bisect.bisect_left(keys, v.sort_key()))
                del distinct[i], keys[i]
        return Multiset._of(counts, distinct, keys)

    def contains(self, values: Iterable[Value]) -> bool:
        need: dict[Value, int] = {}
        for v in values:
            need[v] = need.get(v, 0) + 1
        return all(self._counts.get(v, 0) >= n for v, n in need.items())

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __len__(self):
        return self.total()

    def __repr__(self):
        inner = ", ".join(v.canonical() for v in self.values())
        return "{" + inner + "}"


_EMPTY_MS = Multiset()


@typed_record
class Place(NamedTuple):
    id: str
    colorset: ColorSet
    initial: Multiset = _EMPTY_MS  # multisets are immutable: unmarked places share one


@typed_record
class Variable(NamedTuple):
    name: str
    colorset: ColorSet


@typed_record
class Expr(NamedTuple):
    """A pure expression over named parameters, literals, tuples, and builtins."""

    kind: str  # "var" | "lit" | "tuple" | "call"
    name: str = ""
    value: Optional[Value] = None
    args: tuple["Expr", ...] = ()

    @staticmethod
    def var(name: str) -> "Expr":
        return Expr("var", name)

    @staticmethod
    def lit(value: Value) -> "Expr":
        return Expr("lit", "", value)

    @staticmethod
    def tup(*args: "Expr") -> "Expr":
        return Expr("tuple", "", None, args)

    @staticmethod
    def call(name: str, *args: "Expr") -> "Expr":
        return Expr("call", name, None, args)


def expr_free_vars(expr: Expr) -> frozenset[str]:
    if expr.kind == "var":
        return frozenset([expr.name])
    return frozenset().union(*map(expr_free_vars, expr.args))


def _clamped(n: int) -> int:
    if n > INT_MAX:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MAX
    if n < INT_MIN:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MIN
    return n


class Builtin(NamedTuple):
    """One expression builtin, walked over colors by `_analyze`, whose closures are the only evaluator.

    `contexts` has one entry per typed operand: `None` gives the operand the
    call's expected color; a function of the builtin's name, the expected color
    and the earlier operands' colors gives another, or raises `TypeMismatch`
    when none can exist. Operands past them, up to `arity`, are constants.
    `rule(name, expected, colors, args)` returns the builtin's own problems and
    its color (an operand of unknown color has None); `evaluate(color, values,
    args)` builds the result of a well-typed call.
    """

    arity: int
    contexts: tuple
    rule: Callable
    evaluate: Callable


def own_color(name, expected, colors):
    """No context: the operand must carry its own color."""
    return None


def _first_color(name, expected, colors):
    return colors[0] or expected


def _pair_part(name, expected, colors):
    if expected is None or expected.kind != "product" or len(expected.components) != 2:
        raise TypeMismatch(f"{name} needs a two-component product context")
    return expected.components[len(colors)]


def _operand_color(name, expected, colors, args):
    return (), colors[0]


def _context_color(name, expected, colors, args):
    return (), expected


def _text(name, expected, colors, args):
    cs = colors[0]
    return ((f"{name} needs text operands",) if cs is not None and cs.kind != "text" else ()), cs or expected


def _int(name, expected, colors, args):
    cs = colors[0]
    problems = (f"{name} needs an int operand",) if cs is not None and cs.kind != "int" else ()
    for k in args[len(colors):]:
        if k.kind != "lit" or k.value.colorset.kind != "int":
            problems += (f"{name} constant must be an integer literal",)
    return problems, cs


def _projection(idx: int):
    """The rule and the evaluator of a builtin that yields component `idx` of a product."""

    def rule(name, expected, colors, args):
        cs = colors[0]
        if cs is None:
            return (f"cannot infer the operand color of {name}",), None
        if cs.kind != "product":
            return (f"{name} needs a product operand",), None
        out = cs.components[idx]
        if expected is not None and out is not expected:
            return (f"{name} yields {out.name} where {expected.name} needed",), out
        return (), out

    return rule, lambda cs, vs, args: vs[0].payload[idx]


BUILTINS: dict[str, Builtin] = {
    "identity": Builtin(1, (None,), _operand_color, lambda cs, vs, args: vs[0]),
    "constOf": Builtin(1, (None,), _operand_color, lambda cs, vs, args: vs[0]),
    "concat": Builtin(
        2, (None, _first_color), _text, lambda cs, vs, args: Value(cs, vs[0].payload + vs[1].payload)
    ),
    "inc": Builtin(1, (None,), _int, lambda cs, vs, args: Value(cs, _clamped(vs[0].payload + 1))),
    "addK": Builtin(
        2, (None,), _int, lambda cs, vs, args: Value(cs, _clamped(vs[0].payload + args[1].value.payload))
    ),
    "first": Builtin(1, (own_color,), *_projection(0)),
    "second": Builtin(1, (own_color,), *_projection(1)),
    "pairOf": Builtin(2, (_pair_part, _pair_part), _context_color, lambda cs, vs, args: Value(cs, tuple(vs))),
}


def _call_problem(name: str, builtin: Builtin | None) -> str:
    return f"unknown builtin '{name}'" if builtin is None else f"builtin {name} takes {builtin.arity} argument(s)"


def eval_expr(expr: Expr, binding: Mapping[str, Value], expected: ColorSet | None = None) -> Value:
    """Evaluate an expression under a binding, through the closure a transition plan would run.

    The expression is compiled over the binding's colors; its first problem
    is raised instead, as `UnboundVariable` for an unbound name and as
    `TypeMismatch` otherwise. A tuple needs an expected product color.
    """
    problems, _, run = _analyze(expr, expected, {name: v.colorset for name, v in binding.items()}, True)
    if problems:
        raise _expr_error(problems[0])
    return run(binding)


def analyze_expr(
    expr: Expr, expected: ColorSet | None, env: Mapping[str, ColorSet]
) -> tuple[list[str], ColorSet | None]:
    """Static check of an expression: returns (problems, inferred color set)."""
    problems, color, _ = _analyze(expr, expected, env, False)
    return problems, color


def compile_expr(expr: Expr, expected: ColorSet | None, env: Mapping[str, ColorSet]) -> Callable:
    """A closure that evaluates a well-typed expression under a binding.

    The closure trusts the static colors: it checks no type and no binding
    cover, so it must only see bindings that give each name of `env` a value
    of its color. An expression `analyze_expr` finds a problem in raises
    `TypeMismatch` here instead. This is the one evaluator: `eval_expr` and
    every transition plan run such closures, which call the `BUILTINS`
    evaluators, so clamping and its `SaturationWarning` are the same in each.
    """
    problems, _, run = _analyze(expr, expected, env, True)
    if problems:
        raise TypeMismatch(problems[0])
    return run


def _expr_error(problem: str) -> Exception:
    """An expression problem as raised: `UnboundVariable` for an unbound name, else `TypeMismatch`."""
    return (UnboundVariable if problem.startswith("unbound variable ") else TypeMismatch)(problem)


def _analyze(expr: Expr, expected: ColorSet | None, env: Mapping[str, ColorSet], build: bool):
    """(problems, inferred color, closure); the closure is built only when asked and well-typed."""
    if expr.kind == "var":
        name = expr.name
        if name not in env:
            return ([f"unbound variable '{name}'"], None, None)
        cs = env[name]
        if expected is not None and cs is not expected:
            return ([f"variable '{name}' has color {cs.name}, needed {expected.name}"], cs, None)
        return ([], cs, operator.itemgetter(name) if build else None)
    if expr.kind == "lit":
        value = expr.value
        cs = value.colorset
        if expected is not None and cs is not expected:
            return ([f"literal of color {cs.name} where {expected.name} needed"], cs, None)
        return ([], cs, (lambda binding: value) if build else None)
    if expr.kind == "tuple":
        if expected is None:
            return (["tuple expression needs a known product context"], None, None)
        if expected.kind != "product" or len(expected.components) != len(expr.args):
            return ([f"tuple does not fit product {expected.name}"], None, None)
        probs, parts = [], []
        for a, c in zip(expr.args, expected.components):
            found, _, part = _analyze(a, c, env, build)
            probs += found
            parts.append(part)
        if not build or probs:
            return (probs, expected, None)
        return ([], expected, lambda binding: Value(expected, tuple([f(binding) for f in parts])))
    name, args = expr.name, expr.args
    builtin = BUILTINS.get(name)
    if builtin is None or len(args) != builtin.arity:
        return ([_call_problem(name, builtin)], None, None)
    found, colors, operands = [], [], []
    for context in builtin.contexts:
        try:
            ctx = expected if context is None else context(name, expected, colors)
        except TypeMismatch as exc:
            return ([*itertools.chain.from_iterable(found), str(exc)], None, None)
        probs, cs, operand = _analyze(args[len(colors)], ctx, env, build)
        found.append(probs)
        colors.append(cs)
        operands.append(operand)
    own, color = builtin.rule(name, expected, colors, args)
    # the builtin's own problems follow its first operand's and precede the rest
    problems = [*found[0], *own, *itertools.chain.from_iterable(found[1:])]
    if not build or problems:
        return (problems, color, None)
    evaluate = builtin.evaluate
    return ([], color, lambda binding: evaluate(color, [f(binding) for f in operands], args))


@dataclass(frozen=True)
class ProcedureDef:
    """A stateless typed function; inputs and outputs label the arcs around a transition.

    Frozen, so its compile (`compiled_procedure`) and text (`modelio`) are kept
    on the instance and shared by every net that holds it; copies drop them.
    """

    name: str
    inputs: tuple[tuple[str, ColorSet], ...]
    outputs: tuple[tuple[str, ColorSet], ...]
    body: tuple[tuple[str, Expr], ...]

    def signature(self):
        return (self.inputs, self.outputs)

    def input_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.outputs)

    def __getstate__(self):
        # only the fields: the compile holds closures, and neither it nor the text is state
        return {"name": self.name, "inputs": self.inputs, "outputs": self.outputs, "body": self.body}


class CompiledProcedure(NamedTuple):
    """One typed pass over a procedure's body.

    `violations` are the procedure's type-check entries. `outputs` are the
    (name, closure) pairs a plan runs, in output order, or None when an
    output does not compile; `failure` is then the `ProcedureFailure` text.
    `clean_shapes` grows with the transition shapes that pass their check
    with this procedure (`_transition_check`).
    """

    violations: tuple[Violation, ...]
    outputs: Optional[tuple[tuple[str, Callable], ...]]
    failure: Optional[str]
    clean_shapes: set


def compiled_procedure(proc: ProcedureDef) -> CompiledProcedure:
    """The procedure's compile, made on first use and kept on the instance."""
    # getattr, not `proc.__dict__`, for the reason `type_check_net` gives
    compiled = getattr(proc, "_compiled", None)
    if compiled is None:
        compiled = _compile_procedure(proc)
        object.__setattr__(proc, "_compiled", compiled)
    return compiled


def _compile_procedure(proc: ProcedureDef) -> CompiledProcedure:
    out: list[Violation] = []
    env = dict(proc.inputs)
    if len(env) != len(proc.inputs):
        out.append(Violation("procedure", proc.name, "duplicate input parameter names"))
    body = dict(proc.body)
    # only a body that defines each output once is checked further
    checked = set(body) == set(proc.output_names()) and len(proc.body) == len(proc.outputs)
    if not checked:
        out.append(Violation("procedure", proc.name, "body must define each output exactly once"))
    outputs, failure = [], None
    for rname, rcs in proc.outputs:
        if rname not in body:
            failure = failure or f"procedure {proc.name}, output {rname}: {rname!r}"
            break
        problems, _, run = _analyze(body[rname], rcs, env, True)
        if checked:
            bad_vars = expr_free_vars(body[rname]) - set(env)
            if bad_vars:
                out.append(
                    Violation("procedure", proc.name, f"output {rname} uses non-parameter names {sorted(bad_vars)}")
                )
            out += [Violation("procedure", proc.name, f"output {rname}: {p}") for p in problems]
        if problems and failure is None:
            failure = f"procedure {proc.name}, output {rname}: {problems[0]}"
        outputs.append((rname, run))
    return CompiledProcedure(tuple(out), None if failure else tuple(outputs), failure, set())


@typed_record
class SendEvent(NamedTuple):
    channel: str
    message: Expr


@typed_record
class ReceiveEvent(NamedTuple):
    channel: str
    var: str


Event = Union[SendEvent, ReceiveEvent, None]


@typed_record
class SentMessage(NamedTuple):
    channel: str
    value: Value


@typed_record
class ReceivedMessage(NamedTuple):
    channel: str
    value: Value


@typed_record
class Transition(NamedTuple):
    id: str
    role: str
    procedure: str
    guard: Optional[Expr] = None
    event: Event = None


@typed_record
class InputArc(NamedTuple):
    place: str
    transition: str
    label: str  # names a procedure input parameter


@typed_record
class OutputArc(NamedTuple):
    transition: str
    place: str
    label: str  # names a procedure output result


Arc = Union[InputArc, OutputArc]
_LABEL = operator.attrgetter("label")


class Net:
    """An immutable net: color sets, places, procedures, role-tagged transitions, arcs.

    The color table is closed: it holds every declared color and every color
    a place, variable or procedure signature references, with their
    components. Two different colors under one name raise `ColorClash`.
    `transition_ids` holds the transition ids in sorted order, the order the
    runtime tries them in.
    """

    def __init__(
        self,
        id: str,
        *,
        colorsets: Iterable[ColorSet] = (),
        variables: Iterable[Variable] = (),
        places: Iterable[Place] = (),
        transitions: Iterable[Transition] = (),
        procedures: Iterable[ProcedureDef] = (),
        arcs: Iterable[Arc] = (),
    ):
        self.id = id
        # each table is keyed from one list, so any iterable is read once
        variables, places, transitions, procedures = map(list, (variables, places, transitions, procedures))
        self.variables = _keyed({v.name: v for v in variables}, variables, "variable")
        self.places = _keyed({p.id: p for p in places}, places, "place")
        self.transitions = _keyed({t.id: t for t in transitions}, transitions, "transition")
        self.procedures = _keyed({p.name: p for p in procedures}, procedures, "procedure")
        self.colorsets = _color_table(id, colorsets, self.variables, self.places, self.procedures)
        self.arcs = tuple(arcs)
        self._inputs, self._outputs = _arcs_by_transition(self.arcs)
        self.transition_ids: tuple[str, ...] = tuple(sorted(self.transitions))
        # immutable, so every caller shares it; built from the marked places as `with_updates` builds one
        self._initial = initial = object.__new__(Marking)
        initial._places = {pid: p.initial for pid, p in self.places.items() if p.initial._counts}

    def input_arcs(self, tid: str) -> tuple[InputArc, ...]:
        return self._inputs.get(tid, ())

    def output_arcs(self, tid: str) -> tuple[OutputArc, ...]:
        return self._outputs.get(tid, ())

    def initial_marking(self) -> "Marking":
        return self._initial

    def parts(self) -> dict:
        return dict(
            id=self.id,
            colorsets=list(self.colorsets.values()),
            variables=list(self.variables.values()),
            places=list(self.places.values()),
            transitions=list(self.transitions.values()),
            procedures=list(self.procedures.values()),
            arcs=list(self.arcs),
        )

    def __getstate__(self):
        # transition plans hold closures; an unpickled net builds its own
        state = dict(self.__dict__)
        state.pop("_plans", None)
        return state

    def __eq__(self, other):
        if not isinstance(other, Net):
            return NotImplemented
        return (
            self.id == other.id
            and self.colorsets == other.colorsets
            and self.variables == other.variables
            and self.places == other.places
            and self.transitions == other.transitions
            and self.procedures == other.procedures
            and sorted(self.arcs, key=repr) == sorted(other.arcs, key=repr)
        )

    def __repr__(self):
        return f"Net({self.id!r}, {len(self.places)}p/{len(self.transitions)}t)"


def _keyed(mapping, items: list, what):
    if len(mapping) != len(items):
        raise InvalidModel(f"duplicate {what} id in net")
    return mapping


def _arcs_by_transition(arcs: tuple) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Each transition's input arcs and output arcs in stable label order; a lone arc needs no sort."""
    inputs, outputs, crowded = {}, {}, []  # crowded: (table, transition id) of each side whose arcs went into a list
    for arc in arcs:
        table = inputs if type(arc) is InputArc else outputs
        tid = arc.transition
        group = table.get(tid)
        if group is None:
            table[tid] = (arc,)
        elif type(group) is tuple:
            table[tid] = [*group, arc]
            crowded.append((table, tid))
        else:
            group.append(arc)
    for table, tid in crowded:
        table[tid] = tuple(sorted(table[tid], key=_LABEL))
    return inputs, outputs


def _color_table(net_id, declared, variables, places, procedures) -> dict[str, ColorSet]:
    """The net's colors by name: the declared ones and all they reference, components included."""
    table: dict[str, ColorSet] = {}
    todo = [*declared]
    for v in variables.values():
        todo.append(v.colorset)
    for p in places.values():
        todo.append(p.colorset)
    for proc in procedures.values():
        for _, cs in proc.inputs:
            todo.append(cs)
        for _, cs in proc.outputs:
            todo.append(cs)
    for cs in todo:  # the loop reaches the components it appends
        seen = table.get(cs.name)
        if seen is cs:  # admitted already, components included: a shared chain is walked once
            continue
        if seen is not None:
            raise ColorClash(cs.name, net_id)
        table[cs.name] = cs
        todo += cs.components
    return table


class Marking:
    """Token state of a net: place id to multiset. Absent places are empty."""

    __slots__ = ("_places",)

    def __init__(self, places: Mapping[str, Multiset] | None = None):
        self._places = {pid: ms for pid, ms in (places or {}).items() if not ms.is_empty}

    def get(self, place_id: str) -> Multiset:
        return self._places.get(place_id, _EMPTY_MS)

    def place_ids(self) -> list[str]:
        return sorted(self._places)

    def with_updates(self, changes: Mapping[str, Multiset]) -> "Marking":
        """`Marking({**self._places, **changes})`, with one copy of the place table."""
        marking = object.__new__(Marking)
        marking._places = places = self._places.copy()
        for pid, ms in changes.items():
            if ms._counts:
                places[pid] = ms
            else:
                places.pop(pid, None)
        return marking

    def __eq__(self, other):
        return isinstance(other, Marking) and self._places == other._places

    def __hash__(self):
        return hash(tuple((pid, self._places[pid]) for pid in sorted(self._places)))

    def __repr__(self):
        inner = ", ".join(f"{pid}:{self._places[pid]!r}" for pid in sorted(self._places))
        return "Marking(" + inner + ")"


Binding = Mapping[str, Value]
Mailbox = Sequence[tuple[str, Value]]


def type_check_net(net: Net) -> ValidationReport:
    """Structural validation; every violated rule becomes one report entry.

    A Net is immutable, so its report is computed on first use and kept on
    the instance, the way `Value` keeps its hash. A Net built anew (for
    example by `Net(**net.parts())`) starts without one. A transition is
    not checked again when its procedure kept its shape (the role's
    presence, arc labels and place colors, event and guard) as clean; an
    unclean verdict is never kept, since its texts name ids the shape omits.
    """
    # getattr, not `net.__dict__`: reading an instance's __dict__ makes CPython
    # keep its attributes in a real dict, which slows every later attribute load
    report = getattr(net, "_type_report", None)
    if report is None:
        report = _type_check(net)
        net._type_report = report
    return report


def inherit_type_report(net: Net, source: Net) -> None:
    """Record `source`'s clean report as the report of `net`, a net built
    from `source`'s objects, so `type_check_net(net)` does not run the check.

    The caller answers for the derivation: every rule the check applies to
    `net` must follow from `source` passing it. A `source` whose report is
    not empty raises `InvalidModel`, since its entries are not `net`'s.
    """
    report = type_check_net(source)
    if not report.empty:
        raise InvalidModel(f"net {source.id} fails its type check; {net.id} cannot inherit its report")
    net._type_report = report


def _type_check(net: Net) -> ValidationReport:
    out: list[Violation] = []

    for place in net.places.values():
        for v in place.initial.values():
            if v.colorset != place.colorset:
                text = f"initial token {v.canonical()} does not conform to {place.colorset.name}"
                out.append(Violation("initial-marking", place.id, text))
                break

    for proc in net.procedures.values():
        out += compiled_procedure(proc).violations

    for arc in net.arcs:
        tid = arc.transition
        if tid not in net.transitions:
            out.append(Violation("arc", tid, "arc references unknown transition"))
        if arc.place not in net.places:
            out.append(Violation("arc", arc.place, "arc references unknown place"))

    for tid in net.transition_ids:
        out += _transition_check(net, net.transitions[tid])[0]
    return report_of(out)


def _transition_check(net: Net, t: Transition) -> tuple[list[Violation], Optional[Exception]]:
    """One transition's report entries, in report order, and the error the
    checked functions raise for it, or None: the first of an unknown procedure,
    a feed fault, a route fault, a bad guard, a procedure output and a send
    message that do not compile. Each is also reported, so plans check nothing.

    Besides the procedure, the check reads only the transition's shape: whether
    it has a role, each arc's label and its place's color (None for a missing
    place), the receive variable or send message, and the guard. The compile
    keeps the clean shapes, which are not checked again; ids and channels only
    enter the texts of entries and errors, so an unclean verdict is never kept."""
    out = [] if t.role else [Violation("role", t.id, "transition without role")]
    proc = net.procedures.get(t.procedure)
    if proc is None:
        out.append(Violation("transition", t.id, f"unknown procedure '{t.procedure}'"))
        return out, InvalidModel(f"transition {t.id} references unknown procedure '{t.procedure}'")
    places, event, ins = net.places, t.event, net.input_arcs(t.id)
    received = event.var if isinstance(event, ReceiveEvent) else None
    sent = event.message if isinstance(event, SendEvent) else None
    shape = (bool(t.role), received, sent, t.guard, len(ins)) + tuple(
        (a.label, getattr(places.get(a.place), "colorset", None)) for a in ins + net.output_arcs(t.id)
    )
    compiled = compiled_procedure(proc)
    if shape in compiled.clean_shapes:
        return [], None
    errors: list[Exception] = []  # in precedence order; the first is raised
    env, results = dict(proc.inputs), dict(proc.outputs)

    in_labels = [a.label for a in ins]
    if len(set(in_labels)) != len(in_labels):
        out.append(Violation("arc-label", t.id, "duplicate input arc labels"))
    for a in ins:
        if a.label not in env:
            out.append(Violation("arc-label", t.id, f"arc label '{a.label}' not in signature"))
        elif a.place in places and places[a.place].colorset != env[a.label]:
            out.append(Violation("arc-color", t.id, f"place {a.place} does not match parameter '{a.label}'"))
    if received is not None:
        if received not in env:
            out.append(Violation("event", t.id, f"receive variable '{received}' not in signature"))
        elif received in in_labels:
            out.append(Violation("event", t.id, f"receive variable '{received}' also fed by an arc"))
    fed = in_labels + ([] if received is None else [received])
    missing = sorted(set(env) - set(fed))
    if missing:
        out.append(Violation("missing-arc", t.id, f"inputs {missing} not covered by arcs"))
    if sorted(fed) != sorted(env):
        errors.append(InvalidModel(f"transition {t.id}: arcs and receive variable must feed each input once"))

    out_labels = [a.label for a in net.output_arcs(t.id)]
    if len(set(out_labels)) != len(out_labels):
        out.append(Violation("arc-label", t.id, "duplicate output arc labels"))
    for a in net.output_arcs(t.id):
        if a.label not in results:
            out.append(Violation("arc-label", t.id, f"arc label '{a.label}' not in signature"))
        elif a.place in places and places[a.place].colorset != results[a.label]:
            out.append(Violation("arc-color", t.id, f"place {a.place} does not match result '{a.label}'"))
    if not set(out_labels) <= set(results):
        errors.append(InvalidModel(f"transition {t.id}: an output arc routes no procedure result"))

    guard_out = []  # reported last, checked before the procedure
    if t.guard is not None:
        bad = expr_free_vars(t.guard) - set(env)
        if bad:
            guard_out.append(Violation("guard", t.id, f"guard uses non-parameter names {sorted(bad)}"))
        probs, gcs = analyze_expr(t.guard, None, env)
        guard_out += [Violation("guard", t.id, f"guard: {p}") for p in probs]
        if probs:
            errors.append(_expr_error(probs[0]))
        elif gcs.kind != "enum" or "true" not in gcs.members:
            guard_out.append(Violation("guard", t.id, "guard must evaluate to an enum containing member 'true'"))
            if gcs.kind != "enum":
                errors.append(TypeMismatch(f"guard of {t.id} has color {gcs.name}, not an enum"))
    if compiled.failure is not None:
        errors.append(ProcedureFailure(compiled.failure))

    uncovered = set(results) - set(out_labels)
    if sent is not None:
        probs = analyze_expr(sent, None, {**env, **results})[0]
        bad = expr_free_vars(sent) - set(env) - set(results)
        if bad:
            out.append(Violation("event", t.id, f"send message uses unknown names {sorted(bad)}"))
        else:
            out += [Violation("event", t.id, f"send message: {p}") for p in probs]
        if probs:
            errors.append(_expr_error(probs[0]))
        # keep sends invertible: the payload is exactly one unrouted result
        if sent.kind == "var" and sent.name in results:
            if sent.name in out_labels:
                out.append(Violation("event", t.id, f"sent result '{sent.name}' is also routed by an arc"))
            if uncovered - {sent.name}:
                out.append(Violation("missing-arc", t.id, f"results {sorted(uncovered - {sent.name})} not covered"))
        else:
            out.append(Violation("event", t.id, "send message must name an unrouted output result"))
    elif uncovered:
        out.append(Violation("missing-arc", t.id, f"results {sorted(uncovered)} not covered by arcs"))
    out += guard_out
    if not out and not errors:
        compiled.clean_shapes.add(shape)
    return out, errors[0] if errors else None


def iter_bindings(
    net: Net, marking: Marking, transition_id: str, mailbox: Mailbox = ()
) -> Iterator[dict[str, Value]]:
    """The bindings under which the transition may fire, lazily, in canonical order.

    A binding assigns one token per input arc (jointly available in the
    marking), plus the earliest mailbox message on the receive channel when
    the transition carries a receive event.

    Canonical order compares bindings by their values' sort keys, taken in
    parameter-name order. Input arcs are sorted by label and each pool lists
    its place's distinct values in sort-key order, so the product of the
    pools already runs in canonical order and nothing is sorted. This holds
    for nets whose input arc labels are distinct, which `type_check_net`
    requires.

    The transition must pass its check; the bindings then pass the `passes` of
    its plan (see `_checked_plan`): each value has its input's color, then the guard holds.
    """
    plan = _checked_plan(net, transition_id)
    fixed = _received(plan.receive, mailbox)
    if fixed is None:
        return
    yield from _bindings(fixed, plan.inputs, marking, plan.passes)


def _received(receive: Optional[tuple[str, str]], mailbox: Mailbox) -> Optional[dict[str, Value]]:
    """The binding a receive's (channel, variable) fixes (the earliest message on its channel),
    or None when no such message waits; an empty binding for a transition that receives nothing."""
    if receive is None:
        return {}
    channel, var = receive
    for ch, v in mailbox:
        if ch == channel:
            return {var: v}
    return None


def _arc_pairs(arcs) -> tuple[tuple[str, str], ...]:
    return tuple([(arc.label, arc.place) for arc in arcs])


def _bindings(fixed: dict, inputs, marking: Marking, passes) -> Iterator[dict[str, Value]]:
    """`fixed` extended by one token per (label, place) input, in canonical order.

    Only extensions whose tokens the marking holds together and that
    `passes` accepts are yielded. Where each input takes a
    place of its own, every combination of present tokens is held together.
    """
    pools: list[list[Value]] = []
    for _, pid in inputs:
        pool = marking.get(pid).distinct()
        if not pool:
            return
        pools.append(pool)
    labels = [label for label, _ in inputs]
    places = [pid for _, pid in inputs]
    shared = len(set(places)) != len(places)
    for combo in itertools.product(*pools):
        if shared and _short_place(marking, zip(places, combo)) is not None:
            continue
        binding = dict(fixed)
        binding.update(zip(labels, combo))
        if passes(binding):
            yield binding


def _short_place(marking: Marking, taken) -> Optional[str]:
    """The first place that lacks the tokens `taken` ((place, value) pairs) takes, or None."""
    by_place: dict[str, list[Value]] = {}
    for pid, v in taken:
        by_place.setdefault(pid, []).append(v)
    for pid, vs in by_place.items():
        if not marking.get(pid).contains(vs):
            return pid
    return None


def first_binding(
    net: Net, marking: Marking, transition_id: str, mailbox: Mailbox = ()
) -> Optional[dict[str, Value]]:
    """The canonically first binding under which the transition may fire, or None."""
    return next(iter_bindings(net, marking, transition_id, mailbox), None)


def enabled_bindings(
    net: Net, marking: Marking, transition_id: str, mailbox: Mailbox = ()
) -> list[dict[str, Value]]:
    """All bindings under which the transition may fire, in canonical order."""
    return list(iter_bindings(net, marking, transition_id, mailbox))


def fire(
    net: Net, marking: Marking, transition_id: str, binding: Binding
) -> tuple[Marking, list[Union[SentMessage, ReceivedMessage]]]:
    """Fire one transition under a binding, returning the new marking and events.

    The transition must pass its check (see `_checked_plan`), the binding must cover the
    procedure's inputs, the marking must hold its tokens, and the plan's `passes` must accept
    it: each value has its input's color, then the guard holds. Only then does the plan fire it.

    The caller owns mailbox bookkeeping: a receive binding must have been
    built from the earliest matching message, and the caller removes it.
    """
    plan = _checked_plan(net, transition_id)
    proc = net.procedures[net.transitions[transition_id].procedure]
    if set(binding) != set(proc.input_names()):
        raise NotEnabled(f"binding does not cover the inputs of {transition_id}")
    short = _short_place(marking, [(pid, binding[label]) for label, pid in plan.inputs])
    if short is not None:
        raise NotEnabled(f"tokens for {transition_id} not present in {short}")
    if not plan.passes(binding):
        raise NotEnabled(f"guard of {transition_id} rejects the binding")
    return plan.fire(marking, binding)


def _checked_plan(net: Net, transition_id: str) -> TransitionPlan:
    """The checked functions' plan: the kept one on a clean net, else built once the transition passes."""
    t = net.transitions.get(transition_id)
    if t is None:
        raise UnknownTransition(transition_id)
    if type_check_net(net).empty:
        return transition_plans(net)[transition_id]
    error = _transition_check(net, t)[1]
    if error is not None:
        raise error
    return TransitionPlan(net, transition_id)


class TransitionPlan:
    """How one transition finds its bindings and fires: the one firing rule.

    The runtime, and the checked functions on a clean net, use the plans `transition_plans`
    keeps; elsewhere a checked function builds one per call. Building one checks nothing: it
    assembles the arcs, guard and sent message compiled by `compile_expr`, and the procedure's compile.

    `fire` checks neither the binding's cover nor its tokens. What no check
    of the net can prove is the color of a value it is handed (a mailbox
    message, a marking assigned from outside), so `passes` checks each
    binding value against its input's color, and raises `TypeMismatch`,
    before the guard or any closure sees it.
    """

    __slots__ = ("inputs", "heads", "channel", "receive", "passes", "outputs", "out_arcs", "send")

    def __init__(self, net: Net, transition_id: str):
        t = net.transitions[transition_id]
        proc = net.procedures[t.procedure]
        env = dict(proc.inputs)
        # (label, place) pairs in label order, and whether the first binding
        # is the head of each pool: no two inputs share a place, and no guard
        self.inputs = _arc_pairs(net.input_arcs(t.id))
        self.heads = len({pid for _, pid in self.inputs}) == len(self.inputs) and t.guard is None
        # the event's fields, read once here rather than on every firing
        self.channel = None if t.event is None else t.event.channel
        self.receive = (self.channel, t.event.var) if isinstance(t.event, ReceiveEvent) else None
        self.out_arcs = _arc_pairs(net.output_arcs(t.id))
        guard = None if t.guard is None else compile_expr(t.guard, None, env)
        colors = tuple(env.items())

        def passes(binding: dict) -> bool:
            # the `passes` of `_bindings`: each value has its input's color, then the guard holds
            for name, cs in colors:
                got = binding[name].colorset
                if got is not cs:
                    raise TypeMismatch(color_mismatch(t.id, name, got, cs))
            return guard is None or guard(binding).payload == "true"

        self.passes = passes
        self.outputs = compiled_procedure(proc).outputs
        sent = t.event.message if isinstance(t.event, SendEvent) else None
        self.send = None if sent is None else compile_expr(sent, None, {**env, **dict(proc.outputs)})

    def first_binding(self, marking: Marking, mailbox: Mailbox) -> Optional[dict[str, Value]]:
        """The transition's canonically first binding, as `first_binding` finds it, or None."""
        binding = _received(self.receive, mailbox)
        if binding is None:
            return None
        if not self.heads:
            return next(_bindings(binding, self.inputs, marking, self.passes), None)
        # each input takes a place of its own and only the color check filters:
        # the first binding is the head of every pool (measured: pipeline
        # `run_s` is 20 % lower than through `_bindings`)
        places = marking._places
        for label, pid in self.inputs:
            ms = places.get(pid)
            if ms is None:
                return None
            binding[label] = ms.distinct()[0]
        return binding if self.passes(binding) else None

    def fire(self, marking: Marking, binding: Binding) -> tuple[Marking, list]:
        """The occurrence under an admitted binding: the new marking and the events.

        Each input's token leaves its place, each routed result enters its
        place, and a receive or send event is reported. Nothing is checked:
        the binding's tokens must be present.
        """
        results = {name: run(binding) for name, run in self.outputs}
        places = marking._places
        changes: dict[str, Multiset] = {}
        for label, pid in self.inputs:
            changes[pid] = changes.get(pid, places.get(pid, _EMPTY_MS)).minus((binding[label],))
        for label, pid in self.out_arcs:
            changes[pid] = changes.get(pid, places.get(pid, _EMPTY_MS)).plus((results[label],))
        new_marking = marking.with_updates(changes)
        if self.receive is not None:
            channel, var = self.receive
            return new_marking, [ReceivedMessage(channel, binding[var])]
        if self.send is not None:
            return new_marking, [SentMessage(self.channel, self.send({**binding, **results}))]
        return new_marking, []


def color_mismatch(tid: str, var: str, got: ColorSet, need: ColorSet) -> str:
    """How a value of the wrong color bound to a transition's variable is reported."""
    return f"transition {tid}: variable '{var}' has color {got.descriptor()}, needed {need.descriptor()}"


def transition_plans(net: Net) -> dict[str, TransitionPlan]:
    """The net's transition plans by id, in sorted id order.

    They are built on first use and kept on the net, the way
    `type_check_net` keeps its report, so a net carried across an adaptation
    keeps them. Only a net whose report is empty gets plans; any other net
    raises `InvalidModel`.
    """
    plans = getattr(net, "_plans", None)
    if plans is None:
        report = type_check_net(net)
        if not report.empty:
            raise InvalidModel(f"net {net.id} fails its type check: {report.entries[0].render()}")
        plans = {tid: TransitionPlan(net, tid) for tid in net.transition_ids}
        net._plans = plans
    return plans


@dataclass(frozen=True)
class StepFired:
    transition: str
    binding: dict
    marking: Marking
    events: tuple


@dataclass(frozen=True)
class StepQuiescent:
    pass


StepResult = Union[StepFired, StepQuiescent]


def step(net: Net, marking: Marking, mailbox: Mailbox = ()) -> StepResult:
    """Fire the first enabled (transition, binding) in canonical order, if any."""
    for tid in net.transition_ids:
        binding = first_binding(net, marking, tid, mailbox)
        if binding is not None:
            new_marking, events = fire(net, marking, tid, binding)
            return StepFired(tid, binding, new_marking, tuple(events))
    return StepQuiescent()


@dataclass(frozen=True)
class Firing:
    transition: str
    binding: tuple[tuple[str, Value], ...]
    events: tuple

    def render(self) -> str:
        bound = ",".join(f"{k}={v.canonical()}" for k, v in self.binding)
        return f"{self.transition} {bound}" if bound else self.transition


@dataclass(frozen=True)
class RunResult:
    marking: Marking
    firings: tuple[Firing, ...]
    exhausted: bool  # step budget ran out before quiescence


def run_to_quiescence(
    net: Net, marking: Marking, mailbox: Mailbox = (), max_steps: int = 1000
) -> RunResult:
    """Iterate deterministic steps until quiescence or the step budget ends."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    inbox = list(mailbox)
    firings: list[Firing] = []
    current = marking
    for _ in range(max_steps):
        result = step(net, current, inbox)
        if isinstance(result, StepQuiescent):
            return RunResult(current, tuple(firings), False)
        current = result.marking
        for ev in result.events:
            if isinstance(ev, ReceivedMessage):
                for i, (ch, v) in enumerate(inbox):
                    if ch == ev.channel:
                        del inbox[i]
                        break
        firings.append(Firing(result.transition, tuple(sorted(result.binding.items())), result.events))
    if isinstance(step(net, current, inbox), StepQuiescent):
        return RunResult(current, tuple(firings), False)
    return RunResult(current, tuple(firings), True)
