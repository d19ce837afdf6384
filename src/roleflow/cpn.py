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
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import (
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

BUILTINS = ("identity", "constOf", "concat", "inc", "addK", "first", "second", "pairOf")

_TEXT_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def quote_text(s: str) -> str:
    out = []
    for ch in s:
        out.append(_TEXT_ESCAPES.get(ch, ch))
    return '"' + "".join(out) + '"'


@dataclass(frozen=True)
class ColorSet:
    """A token type: unit, int, text, an enumeration, or a product of color sets."""

    name: str
    kind: str
    members: tuple[str, ...] = ()
    components: tuple["ColorSet", ...] = ()

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

    def descriptor(self) -> str:
        """Canonical self-contained rendering. Equal descriptors mean identical colors."""
        if self.kind == "enum":
            body = "enum{" + ",".join(self.members) + "}"
        elif self.kind == "product":
            body = "product(" + ",".join(c.descriptor() for c in self.components) + ")"
        else:
            body = self.kind
        return f"{self.name}={body}"


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
                raise TypeMismatch(
                    f"'{p}' is not a member of enum {self.colorset.name}"
                )
        elif kind == "product":
            if not isinstance(p, tuple) or len(p) != len(self.colorset.components):
                raise TypeMismatch(f"product {self.colorset.name} arity mismatch")
            for comp, v in zip(self.colorset.components, p):
                if not isinstance(v, Value) or v.colorset != comp:
                    raise TypeMismatch(
                        f"component of product {self.colorset.name} has wrong color"
                    )

    # Values are frozen, so the sort key and hash computed on first use never
    # go stale. They live in the instance dict, next to the fields.

    def canonical(self) -> str:
        return self.sort_key()[0]

    def sort_key(self):
        key = self.__dict__.get("_sort_key")
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
        h = self.__dict__.get("_hash")
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
        parts = tuple(
            v if isinstance(v, Value) else value_of(c, v)
            for c, v in zip(colorset.components, raw)
        )
        return Value(colorset, parts)
    return Value(colorset, raw)


class Multiset:
    """An immutable bag of same-colored values.

    The distinct values in canonical order are sorted once and then handed
    from each multiset to the ones `plus` and `minus` derive from it.
    """

    __slots__ = ("_counts", "_distinct")

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

    @classmethod
    def from_counts(cls, counts: Mapping[Value, int]) -> "Multiset":
        for v, n in counts.items():
            if n <= 0:
                raise TypeMismatch("multiset counts must be positive")
        color = None
        for v in counts:
            if color is None:
                color = v.colorset
            elif v.colorset != color:
                raise TypeMismatch("multiset mixes color sets")
        return cls._of(dict(counts), None)

    @classmethod
    def _of(cls, counts: dict[Value, int], distinct: Optional[list[Value]]) -> "Multiset":
        ms = cls.__new__(cls)
        ms._counts = counts
        ms._distinct = distinct
        return ms

    def items(self) -> list[tuple[Value, int]]:
        counts = self._counts
        return [(v, counts[v]) for v in self.distinct()]

    def values(self) -> list[Value]:
        out = []
        for v, n in self.items():
            out.extend([v] * n)
        return out

    def distinct(self) -> list[Value]:
        """The distinct values in canonical order. Shared: callers must not mutate it."""
        if self._distinct is None:
            self._distinct = sorted(self._counts, key=Value.sort_key)
        return self._distinct

    def count(self, v: Value) -> int:
        return self._counts.get(v, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def is_empty(self) -> bool:
        return not self._counts

    def plus(self, values: Iterable[Value]) -> "Multiset":
        counts = dict(self._counts)
        color = next(iter(counts)).colorset if counts else None
        fresh = []
        for v in values:
            if color is None:
                color = v.colorset
            elif v.colorset is not color and v.colorset != color:
                raise TypeMismatch("multiset mixes color sets")
            n = counts.get(v, 0)
            if n == 0:
                fresh.append(v)
            counts[v] = n + 1
        distinct = self._distinct
        if distinct is not None and fresh:
            distinct = list(distinct)
            for v in fresh:
                bisect.insort(distinct, v, key=Value.sort_key)
        return Multiset._of(counts, distinct)

    def minus(self, values: Iterable[Value]) -> "Multiset":
        counts = dict(self._counts)
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
        distinct = self._distinct
        if distinct is not None and gone:
            distinct = list(distinct)
            for v in gone:
                start = bisect.bisect_left(distinct, v.sort_key(), key=Value.sort_key)
                del distinct[distinct.index(v, start)]
        return Multiset._of(counts, distinct)

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


@dataclass(frozen=True)
class Place:
    id: str
    colorset: ColorSet
    initial: Multiset = field(default_factory=Multiset)


@dataclass(frozen=True)
class Variable:
    name: str
    colorset: ColorSet


@dataclass(frozen=True)
class Expr:
    """A pure expression over named parameters, literals, tuples, and builtins."""

    kind: str  # "var" | "lit" | "tuple" | "call"
    name: str = ""
    value: Optional[Value] = None
    args: tuple["Expr", ...] = ()

    @staticmethod
    def var(name: str) -> "Expr":
        return Expr("var", name=name)

    @staticmethod
    def lit(value: Value) -> "Expr":
        return Expr("lit", value=value)

    @staticmethod
    def tup(*args: "Expr") -> "Expr":
        return Expr("tuple", args=tuple(args))

    @staticmethod
    def call(name: str, *args: "Expr") -> "Expr":
        return Expr("call", name=name, args=tuple(args))


def expr_free_vars(expr: Expr) -> frozenset[str]:
    if expr.kind == "var":
        return frozenset([expr.name])
    out: frozenset[str] = frozenset()
    for a in expr.args:
        out |= expr_free_vars(a)
    return out


def _clamped(n: int) -> int:
    if n > INT_MAX:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MAX
    if n < INT_MIN:
        warnings.warn("integer result clamped at the 64-bit bound", SaturationWarning)
        return INT_MIN
    return n


def eval_expr(expr: Expr, binding: Mapping[str, Value], expected: ColorSet | None = None) -> Value:
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
            eval_expr(a, binding, c) for a, c in zip(expr.args, expected.components)
        )
        return Value(expected, parts)
    return _eval_call(expr, binding, expected)


def _eval_call(expr: Expr, binding, expected):
    name, args = expr.name, expr.args

    def arity(n):
        if len(args) != n:
            raise TypeMismatch(f"builtin {name} takes {n} argument(s)")

    if name in ("identity", "constOf"):
        arity(1)
        return eval_expr(args[0], binding, expected)
    if name == "concat":
        arity(2)
        a = eval_expr(args[0], binding, expected)
        b = eval_expr(args[1], binding, a.colorset)
        if a.colorset.kind != "text":
            raise TypeMismatch("concat needs text operands")
        return Value(a.colorset, a.payload + b.payload)
    if name == "inc":
        arity(1)
        a = eval_expr(args[0], binding, expected)
        if a.colorset.kind != "int":
            raise TypeMismatch("inc needs an int operand")
        return Value(a.colorset, _clamped(a.payload + 1))
    if name == "addK":
        arity(2)
        a = eval_expr(args[0], binding, expected)
        if a.colorset.kind != "int":
            raise TypeMismatch("addK needs an int operand")
        k = args[1]
        if k.kind != "lit" or k.value.colorset.kind != "int":
            raise TypeMismatch("addK constant must be an integer literal")
        return Value(a.colorset, _clamped(a.payload + k.value.payload))
    if name in ("first", "second"):
        arity(1)
        a = eval_expr(args[0], binding, None)
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
            eval_expr(args[0], binding, expected.components[0]),
            eval_expr(args[1], binding, expected.components[1]),
        )
        return Value(expected, parts)
    raise TypeMismatch(f"unknown builtin '{name}'")


def analyze_expr(
    expr: Expr, expected: ColorSet | None, env: Mapping[str, ColorSet]
) -> tuple[list[str], ColorSet | None]:
    """Static check of an expression: returns (problems, inferred color set)."""
    if expr.kind == "var":
        if expr.name not in env:
            return ([f"unbound variable '{expr.name}'"], None)
        cs = env[expr.name]
        if expected is not None and cs != expected:
            return ([f"variable '{expr.name}' has color {cs.name}, needed {expected.name}"], cs)
        return ([], cs)
    if expr.kind == "lit":
        cs = expr.value.colorset
        if expected is not None and cs != expected:
            return ([f"literal of color {cs.name} where {expected.name} needed"], cs)
        return ([], cs)
    if expr.kind == "tuple":
        if expected is None:
            return (["tuple expression needs a known product context"], None)
        if expected.kind != "product" or len(expected.components) != len(expr.args):
            return ([f"tuple does not fit product {expected.name}"], None)
        probs = []
        for a, c in zip(expr.args, expected.components):
            probs += analyze_expr(a, c, env)[0]
        return (probs, expected)
    return _analyze_call(expr, expected, env)


def _analyze_call(expr, expected, env):
    name, args = expr.name, expr.args
    if name not in BUILTINS:
        return ([f"unknown builtin '{name}'"], None)

    def want(n):
        return [f"builtin {name} takes {n} argument(s)"] if len(args) != n else []

    if name in ("identity", "constOf"):
        probs = want(1)
        if probs:
            return (probs, None)
        return analyze_expr(args[0], expected, env)
    if name == "concat":
        probs = want(2)
        if probs:
            return (probs, None)
        p0, cs0 = analyze_expr(args[0], expected, env)
        probs += p0
        if cs0 is not None and cs0.kind != "text":
            probs.append("concat needs text operands")
        p1, _ = analyze_expr(args[1], cs0 or expected, env)
        return (probs + p1, cs0 or expected)
    if name in ("inc", "addK"):
        probs = want(2 if name == "addK" else 1)
        if probs:
            return (probs, None)
        p0, cs0 = analyze_expr(args[0], expected, env)
        probs += p0
        if cs0 is not None and cs0.kind != "int":
            probs.append(f"{name} needs an int operand")
        if name == "addK":
            k = args[1]
            if k.kind != "lit" or k.value.colorset.kind != "int":
                probs.append("addK constant must be an integer literal")
        return (probs, cs0)
    if name in ("first", "second"):
        probs = want(1)
        if probs:
            return (probs, None)
        p0, cs0 = analyze_expr(args[0], None, env)
        probs += p0
        if cs0 is None:
            probs.append(f"cannot infer the operand color of {name}")
            return (probs, None)
        if cs0.kind != "product":
            probs.append(f"{name} needs a product operand")
            return (probs, None)
        idx = 0 if name == "first" else 1
        out = cs0.components[idx]
        if expected is not None and out != expected:
            probs.append(f"{name} yields {out.name} where {expected.name} needed")
        return (probs, out)
    # pairOf
    probs = want(2)
    if probs:
        return (probs, None)
    if expected is None or expected.kind != "product" or len(expected.components) != 2:
        return (["pairOf needs a two-component product context"], None)
    for a, c in zip(args, expected.components):
        probs += analyze_expr(a, c, env)[0]
    return (probs, expected)


@dataclass(frozen=True)
class ProcedureDef:
    """A stateless typed function; inputs and outputs label the arcs around a transition."""

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


def invoke_procedure(proc: ProcedureDef, binding: Mapping[str, Value]) -> dict[str, Value]:
    body = dict(proc.body)
    results: dict[str, Value] = {}
    for rname, rcs in proc.outputs:
        try:
            results[rname] = eval_expr(body[rname], binding, rcs)
        except (UnboundVariable, TypeMismatch, KeyError) as exc:
            raise ProcedureFailure(f"procedure {proc.name}, output {rname}: {exc}") from exc
    return results


@dataclass(frozen=True)
class SendEvent:
    channel: str
    message: Expr


@dataclass(frozen=True)
class ReceiveEvent:
    channel: str
    var: str


Event = Union[SendEvent, ReceiveEvent, None]


@dataclass(frozen=True)
class SentMessage:
    channel: str
    value: Value


@dataclass(frozen=True)
class ReceivedMessage:
    channel: str
    value: Value


@dataclass(frozen=True)
class Transition:
    id: str
    role: str
    procedure: str
    guard: Optional[Expr] = None
    event: Event = None


@dataclass(frozen=True)
class InputArc:
    place: str
    transition: str
    label: str  # names a procedure input parameter


@dataclass(frozen=True)
class OutputArc:
    transition: str
    place: str
    label: str  # names a procedure output result


Arc = Union[InputArc, OutputArc]


class Net:
    """An immutable net: color sets, places, procedures, role-tagged transitions, arcs."""

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
        self.colorsets = _keyed({c.name: c for c in colorsets}, colorsets, "colorset")
        self.variables = _keyed({v.name: v for v in variables}, variables, "variable")
        self.places = _keyed({p.id: p for p in places}, places, "place")
        self.transitions = _keyed({t.id: t for t in transitions}, transitions, "transition")
        self.procedures = _keyed({p.name: p for p in procedures}, procedures, "procedure")
        self.arcs = tuple(arcs)
        self._inputs: dict[str, tuple[InputArc, ...]] = {}
        self._outputs: dict[str, tuple[OutputArc, ...]] = {}
        for arc in self.arcs:
            if isinstance(arc, InputArc):
                self._inputs.setdefault(arc.transition, ())
                self._inputs[arc.transition] += (arc,)
            else:
                self._outputs.setdefault(arc.transition, ())
                self._outputs[arc.transition] += (arc,)
        self._inputs = {t: tuple(sorted(v, key=lambda a: a.label)) for t, v in self._inputs.items()}
        self._outputs = {t: tuple(sorted(v, key=lambda a: a.label)) for t, v in self._outputs.items()}

    def input_arcs(self, tid: str) -> tuple[InputArc, ...]:
        return self._inputs.get(tid, ())

    def output_arcs(self, tid: str) -> tuple[OutputArc, ...]:
        return self._outputs.get(tid, ())

    @property
    def roles(self) -> tuple[str, ...]:
        return tuple(sorted({t.role for t in self.transitions.values() if t.role}))

    def initial_marking(self) -> "Marking":
        return Marking({p.id: p.initial for p in self.places.values()})

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


def _keyed(mapping, items, what):
    items = list(items)
    if len(mapping) != len(items):
        raise InvalidModel(f"duplicate {what} id in net")
    return mapping


class Marking:
    """Token state of a net: place id to multiset. Absent places are empty."""

    __slots__ = ("_places",)

    def __init__(self, places: Mapping[str, Multiset] | None = None):
        self._places = {
            pid: ms for pid, ms in (places or {}).items() if not ms.is_empty
        }

    def get(self, place_id: str) -> Multiset:
        return self._places.get(place_id, _EMPTY_MS)

    def place_ids(self) -> list[str]:
        return sorted(self._places)

    def with_updates(self, changes: Mapping[str, Multiset]) -> "Marking":
        merged = dict(self._places)
        merged.update(changes)
        return Marking(merged)

    def __eq__(self, other):
        return isinstance(other, Marking) and self._places == other._places

    def __hash__(self):
        return hash(tuple((pid, self._places[pid]) for pid in sorted(self._places)))

    def __repr__(self):
        inner = ", ".join(f"{pid}:{self._places[pid]!r}" for pid in sorted(self._places))
        return "Marking(" + inner + ")"


_EMPTY_MS = Multiset()

Binding = Mapping[str, Value]
Mailbox = Sequence[tuple[str, Value]]


def type_check_net(net: Net) -> ValidationReport:
    """Structural validation; every violated rule becomes one report entry."""
    out: list[Violation] = []

    for place in net.places.values():
        for v in place.initial.values():
            if v.colorset != place.colorset:
                out.append(
                    Violation(
                        "initial-marking",
                        place.id,
                        f"initial token {v.canonical()} does not conform to {place.colorset.name}",
                    )
                )
                break

    for proc in net.procedures.values():
        env = {n: cs for n, cs in proc.inputs}
        if len(env) != len(proc.inputs):
            out.append(Violation("procedure", proc.name, "duplicate input parameter names"))
        body = dict(proc.body)
        if set(body) != set(proc.output_names()) or len(proc.body) != len(proc.outputs):
            out.append(Violation("procedure", proc.name, "body must define each output exactly once"))
            continue
        for rname, rcs in proc.outputs:
            bad_vars = expr_free_vars(body[rname]) - set(env)
            if bad_vars:
                out.append(
                    Violation(
                        "procedure",
                        proc.name,
                        f"output {rname} uses non-parameter names {sorted(bad_vars)}",
                    )
                )
            for p in analyze_expr(body[rname], rcs, env)[0]:
                out.append(Violation("procedure", proc.name, f"output {rname}: {p}"))

    for arc in net.arcs:
        tid = arc.transition
        if tid not in net.transitions:
            out.append(Violation("arc", tid, "arc references unknown transition"))
        if arc.place not in net.places:
            out.append(Violation("arc", arc.place, "arc references unknown place"))

    for t in sorted(net.transitions.values(), key=lambda t: t.id):
        if not t.role:
            out.append(Violation("role", t.id, "transition without role"))
        proc = net.procedures.get(t.procedure)
        if proc is None:
            out.append(Violation("transition", t.id, f"unknown procedure '{t.procedure}'"))
            continue
        in_names = set(proc.input_names())
        out_names = set(proc.output_names())
        env = {n: cs for n, cs in proc.inputs}

        in_labels = [a.label for a in net.input_arcs(t.id)]
        if len(set(in_labels)) != len(in_labels):
            out.append(Violation("arc-label", t.id, "duplicate input arc labels"))
        covered_in = set(in_labels)
        for a in net.input_arcs(t.id):
            if a.label not in in_names:
                out.append(Violation("arc-label", t.id, f"arc label '{a.label}' not in signature"))
            elif a.place in net.places and net.places[a.place].colorset != env[a.label]:
                out.append(
                    Violation("arc-color", t.id, f"place {a.place} does not match parameter '{a.label}'")
                )
        if isinstance(t.event, ReceiveEvent):
            if t.event.var not in in_names:
                out.append(Violation("event", t.id, f"receive variable '{t.event.var}' not in signature"))
            elif t.event.var in covered_in:
                out.append(Violation("event", t.id, f"receive variable '{t.event.var}' also fed by an arc"))
            covered_in |= {t.event.var}
        if covered_in != in_names:
            missing = sorted(in_names - covered_in)
            if missing:
                out.append(Violation("missing-arc", t.id, f"inputs {missing} not covered by arcs"))

        out_labels = [a.label for a in net.output_arcs(t.id)]
        if len(set(out_labels)) != len(out_labels):
            out.append(Violation("arc-label", t.id, "duplicate output arc labels"))
        for a in net.output_arcs(t.id):
            if a.label not in out_names:
                out.append(Violation("arc-label", t.id, f"arc label '{a.label}' not in signature"))
            else:
                rcs = dict(proc.outputs)[a.label]
                if a.place in net.places and net.places[a.place].colorset != rcs:
                    out.append(
                        Violation("arc-color", t.id, f"place {a.place} does not match result '{a.label}'")
                    )
        uncovered = out_names - set(out_labels)
        if isinstance(t.event, SendEvent):
            msg = t.event.message
            msg_env = dict(env)
            msg_env.update({n: cs for n, cs in proc.outputs})
            bad = expr_free_vars(msg) - set(msg_env)
            if bad:
                out.append(Violation("event", t.id, f"send message uses unknown names {sorted(bad)}"))
            else:
                for p in analyze_expr(msg, None, msg_env)[0]:
                    out.append(Violation("event", t.id, f"send message: {p}"))
            # keep sends invertible: the payload is exactly one unrouted result
            if msg.kind == "var" and msg.name in out_names:
                if msg.name in set(out_labels):
                    out.append(Violation("event", t.id, f"sent result '{msg.name}' is also routed by an arc"))
                if uncovered - {msg.name}:
                    out.append(
                        Violation("missing-arc", t.id, f"results {sorted(uncovered - {msg.name})} not covered")
                    )
            else:
                out.append(Violation("event", t.id, "send message must name an unrouted output result"))
        elif uncovered:
            out.append(Violation("missing-arc", t.id, f"results {sorted(uncovered)} not covered by arcs"))

        if t.guard is not None:
            bad = expr_free_vars(t.guard) - in_names
            if bad:
                out.append(Violation("guard", t.id, f"guard uses non-parameter names {sorted(bad)}"))
            probs, gcs = analyze_expr(t.guard, None, env)
            for p in probs:
                out.append(Violation("guard", t.id, f"guard: {p}"))
            if not probs and (gcs is None or gcs.kind != "enum" or "true" not in gcs.members):
                out.append(Violation("guard", t.id, "guard must evaluate to an enum containing member 'true'"))

    return report_of(out)


def _receive_value(transition: Transition, mailbox: Mailbox) -> Optional[Value]:
    assert isinstance(transition.event, ReceiveEvent)
    for ch, v in mailbox:
        if ch == transition.event.channel:
            return v
    return None


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
    """
    t = net.transitions.get(transition_id)
    if t is None:
        raise UnknownTransition(transition_id)
    proc = net.procedures.get(t.procedure)
    if proc is None:
        raise InvalidModel(f"transition {t.id} references unknown procedure '{t.procedure}'")

    fixed: dict[str, Value] = {}
    if isinstance(t.event, ReceiveEvent):
        msg = _receive_value(t, mailbox)
        if msg is None:
            return
        fixed[t.event.var] = msg

    arcs = net.input_arcs(transition_id)
    pools: list[list[Value]] = []
    for arc in arcs:
        pool = marking.get(arc.place).distinct()
        if not pool:
            return
        pools.append(pool)

    for combo in itertools.product(*pools):
        binding = dict(fixed)
        by_place: dict[str, list[Value]] = {}
        for arc, v in zip(arcs, combo):
            binding[arc.label] = v
            by_place.setdefault(arc.place, []).append(v)
        if not all(marking.get(pid).contains(vs) for pid, vs in by_place.items()):
            continue
        if t.guard is not None and not _guard_passes(t.guard, binding):
            continue
        yield binding


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


def _guard_passes(guard: Expr, binding: Binding) -> bool:
    v = eval_expr(guard, binding, None)
    if v.colorset.kind != "enum":
        raise TypeMismatch("guard evaluated to a non-enum value")
    return v.payload == "true"


def fire(
    net: Net, marking: Marking, transition_id: str, binding: Binding
) -> tuple[Marking, list[Union[SentMessage, ReceivedMessage]]]:
    """Fire one transition under a binding, returning the new marking and events.

    The caller owns mailbox bookkeeping: a receive binding must have been
    built from the earliest matching message, and the caller removes it.
    """
    t = net.transitions.get(transition_id)
    if t is None:
        raise UnknownTransition(transition_id)
    proc = net.procedures.get(t.procedure)
    if proc is None:
        raise InvalidModel(f"transition {t.id} references unknown procedure '{t.procedure}'")
    if set(binding) != set(proc.input_names()):
        raise NotEnabled(f"binding does not cover the inputs of {t.id}")

    arcs = net.input_arcs(transition_id)
    by_place: dict[str, list[Value]] = {}
    for arc in arcs:
        by_place.setdefault(arc.place, []).append(binding[arc.label])
    for pid, vs in by_place.items():
        if not marking.get(pid).contains(vs):
            raise NotEnabled(f"tokens for {t.id} not present in {pid}")
    if t.guard is not None and not _guard_passes(t.guard, binding):
        raise NotEnabled(f"guard of {t.id} rejects the binding")

    results = invoke_procedure(proc, binding)

    changes: dict[str, Multiset] = {}
    for pid, vs in by_place.items():
        changes[pid] = marking.get(pid).minus(vs)
    for arc in net.output_arcs(transition_id):
        base = changes.get(arc.place, marking.get(arc.place))
        changes[arc.place] = base.plus([results[arc.label]])
    new_marking = marking.with_updates(changes)

    events: list[Union[SentMessage, ReceivedMessage]] = []
    if isinstance(t.event, ReceiveEvent):
        events.append(ReceivedMessage(t.event.channel, binding[t.event.var]))
    elif isinstance(t.event, SendEvent):
        env = dict(binding)
        env.update(results)
        events.append(SentMessage(t.event.channel, eval_expr(t.event.message, env, None)))
    return new_marking, events


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


def step(net: Net, marking: Marking, mailbox: Mailbox = (), policy: str = "deterministic") -> StepResult:
    """Fire the first enabled (transition, binding) in canonical order, if any."""
    if policy != "deterministic":
        raise ValueError(f"unsupported policy '{policy}'")
    for tid in sorted(net.transitions):
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
        firings.append(
            Firing(result.transition, tuple(sorted(result.binding.items())), result.events)
        )
    if isinstance(step(net, current, inbox), StepQuiescent):
        return RunResult(current, tuple(firings), False)
    return RunResult(current, tuple(firings), True)
