"""Canonical byte codec for markings.

The format is versioned, line-based UTF-8: a header, then one section per
non-empty place (sorted by id) carrying the place's full color descriptor
and its tokens in canonical order. Equal (net, marking) pairs always
produce byte-identical output, and a marking restores into any net whose
identically-named places carry identical color sets: a place's descriptor
is parsed, in time linear in its line, and matched to the place's color by
identity. The reader takes what the writer writes: one token line per value,
in canonical order.
"""

from __future__ import annotations

from .cpn import Marking, Multiset, Net
from .errors import FormatError, IncompatiblePlace, InvalidModel, RoleflowError, VersionMismatch
from .textscan import canonical_int, parse_descriptor_text, parse_value_text

MARKING_HEADER = "MRK1"


def save_marking(net: Net, marking: Marking) -> bytes:
    lines = [MARKING_HEADER]
    for pid in marking.place_ids():
        place = net.places.get(pid)
        if place is None:
            raise InvalidModel(f"marking names unknown place '{pid}'")
        lines.append(f"place {pid} : {place.colorset.descriptor()}")
        for value, count in marking.get(pid).items():
            lines.append(f"token {count} {value.canonical()}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def restore_marking(data: bytes, net: Net) -> Marking:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"marking bytes are not UTF-8: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise FormatError("empty marking data")
    if lines[0] != MARKING_HEADER:
        if lines[0].startswith("MRK"):
            raise VersionMismatch(f"unsupported marking version '{lines[0]}'")
        raise FormatError("missing marking header")

    places: dict[str, dict] = {}  # place id -> value -> count
    current: str | None = None
    last = None  # the sort key of the current place's last value
    for ln in lines[1:]:
        head, _, rest = ln.partition(" ")
        if head == "place":
            pid, _, descriptor = rest.partition(" : ")
            pid = pid.strip()
            if not pid or not descriptor:
                raise FormatError(f"malformed place line: {ln!r}")
            try:
                color = parse_descriptor_text(descriptor)
            except RoleflowError as exc:
                raise FormatError(f"bad place descriptor in {ln!r}: {exc}") from exc
            # interned: the parsed color is the place's color object, or another color
            place = net.places.get(pid)
            if place is None or place.colorset is not color:
                raise IncompatiblePlace(pid)
            if pid in places:
                raise FormatError(f"duplicate place section '{pid}'")
            places[pid] = {}
            current = pid
            last = None
        elif head == "token":
            if current is None:
                raise FormatError("token line outside a place section")
            count_text, _, value_text = rest.partition(" ")
            try:
                count = int(count_text)
            except ValueError as exc:
                raise FormatError(f"bad token count in {ln!r}") from exc
            if count < 1:
                raise FormatError(f"non-positive token count in {ln!r}")
            # `int` also reads `+2`, `02`, `1_0` and non-ASCII digits; `save_marking` writes none
            if canonical_int(count_text) is None:
                raise FormatError(f"bad token count in {ln!r}")
            try:
                value = parse_value_text(value_text, net.places[current].colorset)
            except RoleflowError as exc:
                raise FormatError(f"bad token value in {ln!r}: {exc}") from exc
            # one line per value, in the canonical order `save_marking` writes them
            key = value.sort_key()
            if last is not None and key <= last:
                raise FormatError(f"token value out of canonical order in {ln!r}")
            places[current][value] = count
            last = key
        else:
            raise FormatError(f"unexpected line: {ln!r}")
    return Marking({pid: Multiset.from_counts(counts) for pid, counts in places.items()})
