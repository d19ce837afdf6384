from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("repo", derandomize=True)
settings.load_profile("repo")

from roleflow import (
    CommLink,
    Expr,
    InputArc,
    Multiset,
    Net,
    Organization,
    OutputArc,
    Place,
    ProcedureDef,
    Role,
    Transition,
    decompose,
)

from helpers import TOK, tok

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def build_net1() -> Net:
    """One transition incrementing an int token from p to q."""
    return Net(
        "net1",
        colorsets=[TOK],
        places=[Place("p", TOK, Multiset([tok(1)])), Place("q", TOK)],
        transitions=[Transition("t", "R", "inc1")],
        procedures=[
            ProcedureDef("inc1", (("n", TOK),), (("out", TOK),), (("out", Expr.call("inc", Expr.var("n"))),))
        ],
        arcs=[InputArc("p", "t", "n"), OutputArc("t", "q", "out")],
    )


def build_org1() -> Organization:
    net = Net(
        "org1",
        colorsets=[TOK],
        places=[
            Place("in_", TOK, Multiset([tok(1)])),
            Place("mid", TOK),
            Place("out_", TOK),
        ],
        transitions=[Transition("tA", "A", "pass"), Transition("tB", "B", "inc1")],
        procedures=[
            ProcedureDef("pass", (("n", TOK),), (("o", TOK),), (("o", Expr.var("n")),)),
            ProcedureDef("inc1", (("n", TOK),), (("o", TOK),), (("o", Expr.call("inc", Expr.var("n"))),)),
        ],
        arcs=[
            InputArc("in_", "tA", "n"),
            OutputArc("tA", "mid", "o"),
            InputArc("mid", "tB", "n"),
            OutputArc("tB", "out_", "o"),
        ],
    )
    return Organization(
        "org1",
        "increment a token across two roles",
        [Role("A", "produces the token"), Role("B", "increments the token")],
        [CommLink("A", "B")],
        net,
    )


@pytest.fixture
def net1() -> Net:
    return build_net1()


@pytest.fixture
def org1() -> Organization:
    return build_org1()


@pytest.fixture
def mam1(org1):
    return decompose(org1, {"A": "agent1", "B": "agent2"})
