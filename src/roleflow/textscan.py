"""Tokenizer plus parsers for canonical value and color-set descriptor text.

Shared by the marking codec and the model/scenario readers so every
persisted artifact uses one lexical convention: '#' comments, quoted text
with backslash escapes, and identifiers that may carry a trailing '!'.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .cpn import ColorSet, Value, value_of
from .errors import ModelSyntaxError

# how many products may nest in one color set (`ColorSet.depth`); each level
# costs a few stack frames wherever colors are parsed or rendered
MAX_COLOR_DEPTH = 32

# One alternative per lexical class; a match is one token, one newline, or
# one run of blanks or a comment. Blanks and comments are alternatives of
# their own rather than a prefix of the token match: a prefix would let
# backtracking hand a blank or a comment's last character to `bad`.
# `\d` is the Unicode category Nd, exactly what `int()` accepts.
_LEXEME = re.compile(
    r"""
    (?P<blank>[ \t\r]+|\#[^\n]*)
    |(?P<newline>\n)
    |(?P<ident>[A-Za-z_][A-Za-z0-9_!]*)
    |(?P<punct>[(){},;:=.])
    |(?P<arrow>->)
    |(?P<int>-?\d+)
    |(?P<string>"[^"\\\n]*(?:\\["\\nrt][^"\\\n]*)*")
    |(?P<bad>.)
    """,
    re.VERBOSE,
)
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


def _lex_error(text: str, i: int, line: int, col: int) -> ModelSyntaxError:
    """The error for a character at offset i that starts no token."""
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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # `_make` builds the tuple directly; `Token(...)` goes through a Python-level __new__
    make = Token._make
    line, line_start = 1, 0
    for m in _LEXEME.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        start = m.start()
        if kind == "string":
            append(make((kind, _unescape(text[start + 1 : m.end() - 1]), line, start - line_start + 1)))
        elif kind == "bad":
            raise _lex_error(text, start, line, start - line_start + 1)
        else:
            append(make((kind, m.group(), line, start - line_start + 1)))
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """A cursor over a token list that ends with the "eof" token, which it never passes."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, ahead: int = 0) -> Token:
        if ahead:
            return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        if kind != "eof":
            self._pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            wanted = what or (text if text is not None else kind)
            raise ModelSyntaxError(tok.line, tok.col, f"{wanted} (found {tok.text or tok.kind!r})")
        if kind != "eof":
            self._pos += 1
        return tok

    def fail(self, expected: str):
        tok = self._tokens[self._pos]
        raise ModelSyntaxError(tok.line, tok.col, expected)


def stream(text: str) -> TokenStream:
    return TokenStream(tokenize(text))


def parse_value(ts: TokenStream, colorset: ColorSet) -> Value:
    """Parse one canonical value of the given color set."""
    kind = colorset.kind
    tok = ts.peek()
    if kind == "unit":
        ts.expect("punct", "(")
        ts.expect("punct", ")")
        return Value(colorset, None)
    if kind == "int":
        t = ts.expect("int", what="an integer")
        return Value(colorset, int(t.text))
    if kind == "text":
        t = ts.expect("string", what="a quoted text value")
        return Value(colorset, t.text)
    if kind == "enum":
        t = ts.expect("ident", what=f"a member of enum {colorset.name}")
        if t.text not in colorset.members:
            raise ModelSyntaxError(t.line, t.col, f"a member of enum {colorset.name}")
        return Value(colorset, t.text)
    # product
    ts.expect("punct", "(")
    parts = []
    for idx, comp in enumerate(colorset.components):
        if idx:
            ts.expect("punct", ",")
        parts.append(parse_value(ts, comp))
    ts.expect("punct", ")")
    return value_of(colorset, tuple(parts))


def parse_value_text(text: str, colorset: ColorSet) -> Value:
    ts = stream(text)
    v = parse_value(ts, colorset)
    ts.expect("eof", what="end of value")
    return v


def parse_color_body(ts: TokenStream, name: str, component: Callable[[TokenStream], ColorSet]) -> ColorSet:
    """Parse the structure after `name =`: unit, int, text, enum{...} or
    product(...), whose components `component` reads."""
    head = ts.expect("ident", what="a color kind").text
    if head in ("unit", "int", "text"):
        return ColorSet(name, head)
    if head == "enum":
        ts.expect("punct", "{")
        members = [ts.expect("ident", what="an enum member").text]
        while ts.accept("punct", ","):
            members.append(ts.expect("ident", what="an enum member").text)
        ts.expect("punct", "}")
        return ColorSet(name, "enum", members=tuple(members))
    if head == "product":
        ts.expect("punct", "(")
        comps = [component(ts)]
        while ts.accept("punct", ","):
            comps.append(component(ts))
        ts.expect("punct", ")")
        return ColorSet(name, "product", components=tuple(comps))
    ts.fail("one of unit/int/text/enum/product")


def parse_descriptor(ts: TokenStream, depth: int = 0) -> ColorSet:
    """Parse a self-contained descriptor: name=structure, recursively."""
    if depth > MAX_COLOR_DEPTH:
        ts.fail(f"a color set with at most {MAX_COLOR_DEPTH} nested products")
    name = ts.expect("ident", what="a color set name").text
    ts.expect("punct", "=")
    return parse_color_body(ts, name, lambda ts: parse_descriptor(ts, depth + 1))


def parse_descriptor_text(text: str) -> ColorSet:
    ts = stream(text)
    cs = parse_descriptor(ts)
    ts.expect("eof", what="end of descriptor")
    return cs
