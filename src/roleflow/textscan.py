"""Tokenizer plus parsers for canonical value and color-set descriptor text.

Shared by the marking codec and the model/scenario readers so every
persisted artifact uses one lexical convention: '#' comments, quoted text
with backslash escapes, and identifiers that may carry a trailing '!'.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, NamedTuple

from .cpn import ColorSet, Value, value_of
from .errors import ModelSyntaxError

# how many products may nest in one color set (`ColorSet.depth`); each level
# costs a few stack frames wherever colors are parsed or rendered
MAX_COLOR_DEPTH = 32

# One match per token: a greedy run of blanks, then the token, the one group.
# The run is a single character class, which the engine repeats in C; the
# group's catch-all is any other character and its last alternative is `\Z`,
# so the group always matches and the run is never backtracked into. (Python
# 3.10 has neither possessive quantifiers nor atomic groups to say so.) A
# comment is a token of its own, dropped after the pass in a text that holds
# '#'; no other token starts with '#'. The end of the text gives one or two ''
# hits, after the last token and after a run that ends the text.
# `\d` is the Unicode category Nd, exactly what `int()` accepts.
_LEXEME = re.compile(
    r"""
    [ \t\r\n]*
    (
        [A-Za-z_][A-Za-z0-9_!]*
        |[(){},;:=.]
        |->
        |-?\d+
        |"[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*"
        |\#[^\n]*
        |[^ \t\r\n]
        |\Z
    )
    """,
    re.VERBOSE,
)
# a token's kind by its first character; '"', '-' and every other character
# fall to `_kind_of`
_KIND_OF_FIRST = dict.fromkeys(string.ascii_letters + "_", "ident")
_KIND_OF_FIRST.update(dict.fromkeys("(){},;:=.", "punct"))
_KIND_OF_FIRST.update(dict.fromkeys(string.digits, "int"))
_first_char = itemgetter(0)
# the valid start of a string body; the character that ends it names the error
_STRING_PREFIX = re.compile(r'(?:[^"\\\n]|\\["\\nrt])*')
_ESCAPE = re.compile(r"\\(.)")
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


class Token(NamedTuple):
    kind: str  # "ident" | "int" | "string" | "punct" | "arrow" | "eof"
    text: str
    line: int
    col: int


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _UNESCAPES[m.group(1)], body)


def _kind_of(lexeme: str) -> str:
    """The kind of a lexeme whose first character is not in `_KIND_OF_FIRST`;
    "bad" for a character that starts no token."""
    ch = lexeme[0]
    if ch == '"':
        return "string" if len(lexeme) > 1 else "bad"
    if ch == "-":
        if lexeme == "->":
            return "arrow"
        return "int" if len(lexeme) > 1 else "bad"
    return "int" if ch.isdecimal() else "bad"


def _lex_error(where: Positions, index: int) -> ModelSyntaxError:
    """The error for token `index`, a character that starts no token."""
    text, i = where.text, where.offset(index)
    line, col = where(index)
    ch = text[i]
    if ch == "-":
        return ModelSyntaxError(line, col, "a token")
    if ch != '"':
        return ModelSyntaxError(line, col, f"a token (found {ch!r})")
    end = _STRING_PREFIX.match(text, i + 1).end()
    if end == len(text):
        return ModelSyntaxError(line, col, "closing quote")
    if text[end] == "\n":
        return ModelSyntaxError(line, col, "closing quote before end of line")
    return ModelSyntaxError(line, col, "a valid escape")


class Positions:
    """(line, col) of each token of one text, by token index; the end of the
    text is the index after the last token. The table is built in one pass
    the first time a position is asked for."""

    __slots__ = ("text", "_starts", "_line_starts")

    def __init__(self, text: str):
        self.text = text
        self._starts: list[int] | None = None

    def offset(self, index: int) -> int:
        if self._starts is None:
            text = self.text
            # the '' hits at the end start at len(text), the end's index
            starts = [m.start(1) for m in _LEXEME.finditer(text)]
            if "#" in text:
                starts = [i for i in starts if text[i : i + 1] != "#"]
            self._starts = starts
            self._line_starts = [0] + [m.end() for m in re.finditer("\n", text)]
        return self._starts[index]

    def __call__(self, index: int) -> tuple[int, int]:
        start = self.offset(index)
        line = bisect_right(self._line_starts, start)
        return line, start - self._line_starts[line - 1] + 1


class Shape:
    """A fixed run of tokens, such as a statement's head, that
    `TokenStream.read` reads in one step. Each slot holds the arguments of
    one `TokenStream.expect` call: a kind, the text a keyword or punctuation
    mark must have (or None), and the words an error names it by."""

    __slots__ = ("slots", "size", "kinds", "fixed", "texts")

    def __init__(self, *slots: tuple):
        self.slots = slots
        self.size = len(slots)
        self.kinds = [slot[0] for slot in slots]
        # the fixed texts' offsets pick them out of a run's texts at C level;
        # with no fixed text the pick is the empty slice of every run
        offsets = [k for k, slot in enumerate(slots) if slot[1] is not None]
        self.fixed = itemgetter(*offsets) if offsets else itemgetter(slice(0))
        self.texts = self.fixed([slot[1] for slot in slots])


class TokenStream:
    """A cursor over one text's tokens, held as two parallel lists, `kinds`
    and `texts`, that end with the "eof" token, which the cursor never
    passes. A token is named by its index; `where(i)` gives its (line, col).

    The whole text is lexed here, so a lexical error anywhere is raised
    before any parsing."""

    __slots__ = ("kinds", "texts", "pos", "where")

    def __init__(self, text: str):
        texts = _LEXEME.findall(text)
        if "#" in text:
            texts = [t for t in texts if t[:1] != "#"]
        del texts[-1]  # the end's '' hits
        if texts and not texts[-1]:
            del texts[-1]
        kinds = list(map(_KIND_OF_FIRST.get, map(_first_char, texts)))
        self.where = Positions(text)
        i = -1
        for _ in range(kinds.count(None)):
            i = kinds.index(None, i + 1)
            kind = kinds[i] = _kind_of(texts[i])
            if kind == "string":
                texts[i] = _unescape(texts[i][1:-1])
            elif kind == "bad":
                raise _lex_error(self.where, i)
        kinds.append("eof")
        texts.append("")
        self.kinds = kinds
        self.texts = texts
        self.pos = 0

    def next(self) -> str:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return self.texts[i]

    def at(self, kind: str, text: str | None = None) -> bool:
        i = self.pos
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def accept(self, kind: str, text: str | None = None) -> str | None:
        i = self.pos
        got = self.texts[i]
        if self.kinds[i] != kind or (text is not None and got != text):
            return None
        if kind != "eof":
            self.pos = i + 1
        return got

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> str:
        i = self.pos
        got = self.texts[i]
        if self.kinds[i] != kind or (text is not None and got != text):
            wanted = what or (text if text is not None else kind)
            raise self.error(f"{wanted} (found {got or self.kinds[i]!r})")
        if kind != "eof":
            self.pos = i + 1
        return got

    def read(self, shape: Shape) -> list[str]:
        """The texts of the run of tokens at the cursor that `shape` matches,
        checked with one comparison of its kinds and one of its fixed texts;
        the cursor moves past it. Where a token differs, the error is the one
        `expect` raises at the first token that differs."""
        i = self.pos
        j = i + shape.size
        texts = self.texts[i:j]
        if self.kinds[i:j] != shape.kinds or shape.fixed(texts) != shape.texts:
            for slot in shape.slots:
                self.expect(*slot)
        self.pos = j
        return texts

    def error(self, expected: str, at: int | None = None) -> ModelSyntaxError:
        """The syntax error at token `at`, the current token by default."""
        return ModelSyntaxError(*self.where(self.pos if at is None else at), expected)


def tokenize(text: str) -> list[Token]:
    """Every token of `text`, with its position, ending with "eof"."""
    ts = TokenStream(text)
    return [Token(kind, tok, *ts.where(i)) for i, (kind, tok) in enumerate(zip(ts.kinds, ts.texts))]


def canonical_int(text: str) -> int | None:
    """The integer `text` spells if it is written the way `str()` writes
    integers: no sign but '-', no leading zero, no '_', ASCII digits only."""
    try:
        n = int(text)
    except ValueError:
        return None
    return n if str(n) == text else None


def parse_value(ts: TokenStream, colorset: ColorSet, canonical: bool = False) -> Value:
    """Parse one value of the given color set. Model text may write an
    integer any way `int()` reads it; with `canonical`, only the way
    `Value.canonical()` writes it, as the persisted formats do."""
    kind = colorset.kind
    if kind == "unit":
        ts.expect("punct", "(")
        ts.expect("punct", ")")
        return Value(colorset, None)
    if kind == "int":
        at = ts.pos
        text = ts.expect("int", what="an integer")
        n = canonical_int(text) if canonical else int(text)
        if n is None:
            raise ts.error(f"a canonical integer (found {text!r})", at)
        return Value(colorset, n)
    if kind == "text":
        return Value(colorset, ts.expect("string", what="a quoted text value"))
    if kind == "enum":
        at = ts.pos
        member = ts.expect("ident", what=f"a member of enum {colorset.name}")
        if member not in colorset.members:
            raise ts.error(f"a member of enum {colorset.name}", at)
        return Value(colorset, member)
    # product
    ts.expect("punct", "(")
    parts = []
    for idx, comp in enumerate(colorset.components):
        if idx:
            ts.expect("punct", ",")
        parts.append(parse_value(ts, comp, canonical))
    ts.expect("punct", ")")
    return value_of(colorset, tuple(parts))


def parse_value_text(text: str, colorset: ColorSet) -> Value:
    """One value of a persisted format (`MRK1` tokens, `CTX1` messages),
    written canonically."""
    ts = TokenStream(text)
    v = parse_value(ts, colorset, canonical=True)
    ts.expect("eof", what="end of value")
    return v


def parse_color_body(ts: TokenStream, name: str, component: Callable[[TokenStream], ColorSet]) -> ColorSet:
    """Parse the structure after `name =`: unit, int, text, enum{...} or
    product(...), whose components `component` reads."""
    head = ts.expect("ident", what="a color kind")
    if head in ("unit", "int", "text"):
        return ColorSet(name, head)
    if head == "enum":
        ts.expect("punct", "{")
        members = [ts.expect("ident", what="an enum member")]
        while ts.accept("punct", ","):
            members.append(ts.expect("ident", what="an enum member"))
        ts.expect("punct", "}")
        return ColorSet(name, "enum", members=tuple(members))
    if head == "product":
        ts.expect("punct", "(")
        comps = [component(ts)]
        while ts.accept("punct", ","):
            comps.append(component(ts))
        ts.expect("punct", ")")
        return ColorSet(name, "product", components=tuple(comps))
    raise ts.error("one of unit/int/text/enum/product")


def parse_descriptor(ts: TokenStream, depth: int = 0) -> ColorSet:
    """Parse a self-contained descriptor: name=structure, recursively."""
    if depth > MAX_COLOR_DEPTH:
        raise ts.error(f"a color set with at most {MAX_COLOR_DEPTH} nested products")
    name = ts.expect("ident", what="a color set name")
    ts.expect("punct", "=")
    return parse_color_body(ts, name, lambda ts: parse_descriptor(ts, depth + 1))


def parse_descriptor_text(text: str) -> ColorSet:
    ts = TokenStream(text)
    cs = parse_descriptor(ts)
    ts.expect("eof", what="end of descriptor")
    return cs
