import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roleflow import (
    ColorSet,
    FormatError,
    IncompatiblePlace,
    Marking,
    ModelSyntaxError,
    Multiset,
    Net,
    Place,
    Value,
    VersionMismatch,
    restore_marking,
    save_marking,
)
from roleflow.textscan import parse_descriptor_text, parse_value_text

from conftest import TOK, tok
from helpers import deadline, gen_net_and_marking, gen_value


def test_round_trip(net1):
    m = Marking({"p": Multiset([tok(1)])})
    assert restore_marking(save_marking(net1, m), net1) == m


def test_byte_determinism(net1):
    m = Marking({"p": Multiset([tok(1)]), "q": Multiset([tok(4), tok(2)])})
    assert save_marking(net1, m) == save_marking(net1, m)


def test_counts_are_injective(net1):
    one = save_marking(net1, Marking({"p": Multiset([tok(1)])}))
    two = save_marking(net1, Marking({"p": Multiset([tok(1), tok(1)])}))
    assert one != two


def test_empty_marking(net1):
    data = save_marking(net1, Marking())
    assert data == b"MRK1\n"
    assert restore_marking(data, net1) == Marking()


def test_explicit_empty_multiset_equals_absent(net1):
    assert save_marking(net1, Marking({"p": Multiset()})) == save_marking(net1, Marking())


def test_restore_into_extended_net(net1):
    data = save_marking(net1, Marking({"p": Multiset([tok(1)])}))
    parts = net1.parts()
    parts["places"] = parts["places"] + [Place("r", TOK)]
    bigger = Net(**parts)
    restored = restore_marking(data, bigger)
    assert restored == Marking({"p": Multiset([tok(1)])})
    assert restored.get("r").is_empty


def test_restore_into_net_missing_place(net1):
    data = save_marking(net1, Marking({"p": Multiset([tok(1)])}))
    parts = net1.parts()
    parts["places"] = [pl for pl in parts["places"] if pl.id != "p"]
    parts["arcs"] = []
    smaller = Net(**parts)
    with pytest.raises(IncompatiblePlace) as err:
        restore_marking(data, smaller)
    assert err.value.place_id == "p"


def test_restore_into_recolored_place(net1):
    data = save_marking(net1, Marking({"p": Multiset([tok(1)])}))
    txt = ColorSet("Txt", "text")
    recolored = Net(
        "other", colorsets=[txt], places=[Place("p", txt), Place("q", txt)]
    )
    with pytest.raises(IncompatiblePlace):
        restore_marking(data, recolored)


def test_truncated_bytes(net1):
    data = save_marking(net1, Marking({"p": Multiset([tok(1)])}))
    with pytest.raises(FormatError):
        restore_marking(data[:3], net1)


def test_version_mismatch(net1):
    with pytest.raises(VersionMismatch):
        restore_marking(b"MRK9\n", net1)


def test_garbage_line(net1):
    with pytest.raises(FormatError):
        restore_marking(b"MRK1\nwhat is this\n", net1)


@pytest.mark.parametrize("count", ["1_0", "+2", "٢", "02", "\t2"])
def test_a_count_written_unlike_save_marking_is_rejected(net1, count):
    data = save_marking(net1, Marking({"p": Multiset([tok(1), tok(1)])}))
    assert b"\ntoken 2 1\n" in data
    with pytest.raises(FormatError, match="^bad token count in"):
        restore_marking(data.replace(b"token 2 ", f"token {count} ".encode()), net1)


@pytest.mark.parametrize(
    "count, message",
    [("x", "bad token count"), ("", "bad token count"), ("0", "non-positive token count"),
     ("-3", "non-positive token count"), ("-0", "non-positive token count"), ("00", "non-positive token count")],
)
def test_a_count_rejected_by_int_keeps_its_message(net1, count, message):
    data = f"MRK1\nplace p : Tok=int\ntoken {count} 1\n".encode()
    with pytest.raises(FormatError, match=f"^{message} in"):
        restore_marking(data, net1)


def test_many_values_and_a_large_count_restore_line_by_line(net1):
    """Each token line gives its value's count once, so neither a place of
    many distinct values nor a count of a million costs more than its line."""
    m = Marking({"p": Multiset.from_counts({tok(i): 1 + i % 3 for i in range(6400)})})
    data = save_marking(net1, m)
    restored = restore_marking(data, net1)
    assert restored == m and save_marking(net1, restored) == data
    restored = restore_marking(b"MRK1\nplace p : Tok=int\ntoken 1000000 7\n", net1)
    assert restored.get("p").items() == [(tok(7), 10**6)]


@pytest.mark.parametrize(
    "tokens",
    ["token 999999 7\ntoken 1 7", "token 1 8\ntoken 1 7", "token 1 9\ntoken 1 10", "token 1 1\ntoken 2 2\ntoken 1 2"],
    ids=["repeated", "descending", "numeric-order", "repeated-later"],
)
def test_token_lines_out_of_canonical_order_are_rejected(net1, tokens):
    """One line per value, in the order `save_marking` writes: a repeated
    value or a value before its predecessor is a `FormatError` naming the line."""
    last = tokens.rsplit("\n", 1)[1]
    with pytest.raises(FormatError, match=f"^token value out of canonical order in '{last}'$"):
        restore_marking(f"MRK1\nplace p : Tok=int\n{tokens}\n".encode(), net1)


def test_canonical_order_is_the_order_of_the_values_text(net1):
    """`10` sorts before `9`, so `save_marking` writes it first and the reader takes it."""
    m = Marking({"p": Multiset([tok(9), tok(10)])})
    data = save_marking(net1, m)
    assert data.endswith(b"token 1 10\ntoken 1 9\n")
    assert restore_marking(data, net1) == m


@pytest.mark.parametrize("value", ["007", "-0", "00", "٣", "-١"])
def test_a_value_written_unlike_save_marking_is_rejected(net1, value):
    data = save_marking(net1, Marking({"p": Multiset([tok(7)])}))
    assert b"\ntoken 1 7\n" in data
    with pytest.raises(FormatError, match="^bad token value in .*expected a canonical integer"):
        restore_marking(data.replace(b"token 1 7", f"token 1 {value}".encode()), net1)


def test_a_product_component_written_unlike_save_marking_is_rejected():
    pair = ColorSet("Pair", "product", components=(TOK, TOK))
    assert parse_value_text("(1,-2)", pair).canonical() == "(1,-2)"
    with pytest.raises(ModelSyntaxError, match="canonical integer"):
        parse_value_text("(1,02)", pair)


def test_fuzz_round_trip_and_determinism():
    rng = random.Random(11)
    for _ in range(300):
        net, marking = gen_net_and_marking(rng)
        data = save_marking(net, marking)
        assert data == save_marking(net, marking)
        assert restore_marking(data, net) == marking


def test_descriptor_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        net, _ = gen_net_and_marking(rng)
        for place in net.places.values():
            d = place.colorset.descriptor()
            assert parse_descriptor_text(d) == place.colorset


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_value_canonical_text_round_trip(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    from helpers import gen_colorset

    cs = gen_colorset(rng, "C")
    v = gen_value(rng, cs)
    assert parse_value_text(v.canonical(), cs) == v


def test_program_faults_are_not_read_as_bad_tokens(net1, monkeypatch):
    from roleflow import marking_codec

    data = save_marking(net1, Marking({"p": Multiset([tok(1)])}))

    def broken(*args):
        raise RuntimeError("fault in the reader")

    monkeypatch.setattr(marking_codec, "parse_value_text", broken)
    with pytest.raises(RuntimeError, match="fault in the reader"):
        restore_marking(data, net1)


def chain(k, second=None):
    """The colors D0 .. D{k-1}: Di = product(Di-1, Di-1), or product(Di-1, second) when given."""
    colors = [TOK]
    for i in range(k):
        colors.append(ColorSet(f"D{i}", "product", components=(colors[-1], second or colors[-1])))
    return colors[1:]


class TestDeepPlace:
    # D31 nests 32 products and its descriptor is 2^32 leaves long: nothing may render it
    DEEP = Net("deep", places=[Place("deep", chain(32)[-1])])

    @pytest.mark.parametrize("descriptor", ["Tok=int", "D31=product(D30=int,D30=int)"])
    def test_a_short_wrong_descriptor_is_incompatible_at_once(self, descriptor):
        with deadline(1):
            with pytest.raises(IncompatiblePlace):
                restore_marking(f"MRK1\nplace deep : {descriptor}\n".encode(), self.DEEP)

    @pytest.mark.parametrize("descriptor", ["D31=product(", "D31=list(Tok=int)", "Tok=int extra"])
    def test_a_malformed_descriptor_is_a_format_error(self, descriptor):
        with deadline(1):
            with pytest.raises(FormatError):
                restore_marking(f"MRK1\nplace deep : {descriptor}\n".encode(), self.DEEP)

    def test_the_true_descriptor_restores(self):
        # 32 products deep too, but each shares only Tok, so its descriptor is short enough to write
        colors = chain(32, second=TOK)
        net = Net("deep", places=[Place("deep", colors[-1])])
        value = tok(1)
        for cs in colors:
            value = Value(cs, (value, tok(2)))
        marking = Marking({"deep": Multiset([value, value])})
        data = save_marking(net, marking)
        assert data.startswith(b"MRK1\nplace deep : " + colors[-1].descriptor().encode() + b"\n")
        with deadline(1):
            assert restore_marking(data, net) == marking
