import random
import re
import warnings

import pytest

from roleflow import (
    ColorSet,
    Expr,
    RoleflowError,
    SaturationWarning,
    TypeMismatch,
    UnboundVariable,
    Value,
    eval_expr,
)
from roleflow.cpn import INT_MAX, INT_MIN, analyze_expr, compile_expr

from conftest import TOK, tok
from helpers import gen_colorset, gen_typed_expr, gen_untyped_expr, naive_eval_expr

TXT = ColorSet("Txt", "text")
FLAG = ColorSet("Flag", "enum", members=("false", "true"))
PAIR = ColorSet("Pair", "product", components=(TOK, TXT))
SWAP = ColorSet("Swap", "product", components=(TXT, TOK))
TRIPLE = ColorSet("Triple", "product", components=(TOK, TOK, TOK))


def test_var_identity():
    assert eval_expr(Expr.var("n"), {"n": tok(1)}) == tok(1)


def test_inc():
    assert eval_expr(Expr.call("inc", Expr.var("n")), {"n": tok(1)}) == tok(2)


def test_concat_literals():
    e = Expr.call("concat", Expr.lit(Value(TXT, "r1")), Expr.lit(Value(TXT, "-spec")))
    assert eval_expr(e, {}) == Value(TXT, "r1-spec")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(Expr.var("missing"), {"n": tok(1)})
    # nested: the first problem, an unbound name, is raised as such
    with pytest.raises(UnboundVariable, match="^unbound variable 'x'$"):
        eval_expr(Expr.call("concat", Expr.var("x"), Expr.var("s")), {"s": Value(TXT, "a")})


def test_type_mismatch_signals_unvalidated_net():
    with pytest.raises(TypeMismatch):
        eval_expr(Expr.call("inc", Expr.lit(Value(TXT, "x"))), {})


def test_addk():
    e = Expr.call("addK", Expr.var("n"), Expr.lit(tok(2)))
    assert eval_expr(e, {"n": tok(1)}) == tok(3)


def test_addk_saturates_with_warning():
    e = Expr.call("addK", Expr.var("n"), Expr.lit(tok(5)))
    with pytest.warns(SaturationWarning):
        assert eval_expr(e, {"n": tok(INT_MAX - 1)}) == tok(INT_MAX)
    e2 = Expr.call("addK", Expr.var("n"), Expr.lit(tok(-5)))
    with pytest.warns(SaturationWarning):
        assert eval_expr(e2, {"n": tok(INT_MIN + 1)}) == tok(INT_MIN)


def test_projections_and_pairing():
    pair = Value(PAIR, (tok(7), Value(TXT, "x")))
    assert eval_expr(Expr.call("first", Expr.var("p")), {"p": pair}) == tok(7)
    assert eval_expr(Expr.call("second", Expr.var("p")), {"p": pair}) == Value(TXT, "x")
    rebuilt = eval_expr(
        Expr.call("pairOf", Expr.var("a"), Expr.var("b")),
        {"a": tok(7), "b": Value(TXT, "x")},
        expected=PAIR,
    )
    assert rebuilt == pair


def test_tuple_needs_product_context():
    with pytest.raises(TypeMismatch):
        eval_expr(Expr.tup(Expr.var("a"), Expr.var("b")), {"a": tok(1), "b": tok(2)})


def test_const_of_passthrough():
    assert eval_expr(Expr.call("constOf", Expr.lit(Value(FLAG, "true"))), {}) == Value(FLAG, "true")


def test_determinism():
    e = Expr.call("concat", Expr.var("a"), Expr.lit(Value(TXT, "-z")))
    b = {"a": Value(TXT, "q")}
    assert eval_expr(e, b) == eval_expr(e, b)


# Every builtin under each way of being ill-typed, with the exact problems and
# color that `analyze_expr` reports; these strings reach users through
# validation reports. Rows: (id, expression, expected color, problems, color).
ENV = {"n": TOK, "s": TXT, "p": PAIR, "f": FLAG}
c, tup = Expr.call, Expr.tup
n, s, p, x = Expr.var("n"), Expr.var("s"), Expr.var("p"), Expr.var("x")
one, ab, true = Expr.lit(tok(1)), Expr.lit(Value(TXT, "ab")), Expr.lit(Value(FLAG, "true"))
ANALYSIS_CASES = [
    ("identity-ok", c("identity", n), TOK, [], TOK),
    ("identity-arity", c("identity"), TOK, ["builtin identity takes 1 argument(s)"], None),
    ("identity-arity-2", c("identity", n, n), None, ["builtin identity takes 1 argument(s)"], None),
    ("identity-unbound", c("identity", x), None, ["unbound variable 'x'"], None),
    ("identity-context", c("identity", s), TOK, ["variable 's' has color Txt, needed Tok"], TXT),
    ("identity-tuple-no-context", c("identity", tup(n, s)), None, ["tuple expression needs a known product context"], None),
    ("constOf-ok", c("constOf", true), None, [], FLAG),
    ("constOf-arity", c("constOf", one, one), TOK, ["builtin constOf takes 1 argument(s)"], None),
    ("constOf-unbound", c("constOf", x), TXT, ["unbound variable 'x'"], None),
    ("constOf-context", c("constOf", true), TXT, ["literal of color Flag where Txt needed"], FLAG),
    ("concat-ok", c("concat", s, ab), TXT, [], TXT),
    ("concat-arity", c("concat", s), TXT, ["builtin concat takes 2 argument(s)"], None),
    ("concat-kind", c("concat", n, n), None, ["concat needs text operands"], TOK),
    ("concat-kind-in-context", c("concat", n, one), TOK, ["concat needs text operands"], TOK),
    ("concat-unbound-first", c("concat", x, s), None, ["unbound variable 'x'"], None),
    ("concat-unbound-both", c("concat", x, x), None, ["unbound variable 'x'", "unbound variable 'x'"], None),
    ("concat-unbound-in-context", c("concat", x, s), TXT, ["unbound variable 'x'"], TXT),
    ("concat-context", c("concat", s, s), FLAG, ["variable 's' has color Txt, needed Flag"], TXT),
    ("concat-second-mismatch", c("concat", s, n), None, ["variable 'n' has color Tok, needed Txt"], TXT),
    ("concat-kind-then-unbound", c("concat", n, x), None, ["concat needs text operands", "unbound variable 'x'"], TOK),
    ("inc-ok", c("inc", n), TOK, [], TOK),
    ("inc-arity", c("inc"), None, ["builtin inc takes 1 argument(s)"], None),
    ("inc-kind", c("inc", s), None, ["inc needs an int operand"], TXT),
    ("inc-unbound", c("inc", x), TOK, ["unbound variable 'x'"], None),
    ("inc-context", c("inc", n), TXT, ["variable 'n' has color Tok, needed Txt"], TOK),
    ("inc-kind-and-context", c("inc", s), TOK, ["variable 's' has color Txt, needed Tok", "inc needs an int operand"], TXT),
    ("addK-ok", c("addK", n, one), TOK, [], TOK),
    ("addK-arity", c("addK", n), TOK, ["builtin addK takes 2 argument(s)"], None),
    ("addK-kind", c("addK", s, one), None, ["addK needs an int operand"], TXT),
    ("addK-unbound", c("addK", x, one), None, ["unbound variable 'x'"], None),
    ("addK-context", c("addK", n, one), TXT, ["variable 'n' has color Tok, needed Txt"], TOK),
    ("addK-var-constant", c("addK", n, n), TOK, ["addK constant must be an integer literal"], TOK),
    ("addK-text-constant", c("addK", n, ab), None, ["addK constant must be an integer literal"], TOK),
    ("addK-kind-and-constant", c("addK", s, x), None, ["addK needs an int operand", "addK constant must be an integer literal"], TXT),
    ("first-ok", c("first", p), TOK, [], TOK),
    ("first-arity", c("first", p, p), None, ["builtin first takes 1 argument(s)"], None),
    ("first-kind", c("first", n), None, ["first needs a product operand"], None),
    ("first-unbound", c("first", x), TOK, ["unbound variable 'x'", "cannot infer the operand color of first"], None),
    ("first-tuple-operand", c("first", tup(n, s)), None, ["tuple expression needs a known product context", "cannot infer the operand color of first"], None),
    ("first-context", c("first", p), TXT, ["first yields Tok where Txt needed"], TOK),
    ("first-no-context", c("first", p), None, [], TOK),
    ("second-ok", c("second", p), TXT, [], TXT),
    ("second-arity", c("second"), TXT, ["builtin second takes 1 argument(s)"], None),
    ("second-kind", c("second", s), TXT, ["second needs a product operand"], None),
    ("second-unbound", c("second", x), None, ["unbound variable 'x'", "cannot infer the operand color of second"], None),
    ("second-context", c("second", p), TOK, ["second yields Txt where Tok needed"], TXT),
    ("second-nested", c("second", c("identity", p)), TXT, [], TXT),
    ("pairOf-ok", c("pairOf", n, s), PAIR, [], PAIR),
    ("pairOf-arity", c("pairOf", n), PAIR, ["builtin pairOf takes 2 argument(s)"], None),
    ("pairOf-kind", c("pairOf", s, n), PAIR, ["variable 's' has color Txt, needed Tok", "variable 'n' has color Tok, needed Txt"], PAIR),
    ("pairOf-unbound", c("pairOf", x, s), PAIR, ["unbound variable 'x'"], PAIR),
    ("pairOf-context", c("pairOf", n, s), SWAP, ["variable 'n' has color Tok, needed Txt", "variable 's' has color Txt, needed Tok"], SWAP),
    ("pairOf-no-context", c("pairOf", n, s), None, ["pairOf needs a two-component product context"], None),
    ("pairOf-scalar-context", c("pairOf", n, s), TOK, ["pairOf needs a two-component product context"], None),
    ("pairOf-triple-context", c("pairOf", n, n), TRIPLE, ["pairOf needs a two-component product context"], None),
    ("pairOf-no-context-unbound", c("pairOf", x, tup(n, s)), None, ["pairOf needs a two-component product context"], None),
    ("unknown", c("dup", n), TOK, ["unknown builtin 'dup'"], None),
    ("unknown-no-args", c("dup"), None, ["unknown builtin 'dup'"], None),
    ("nested-ok", c("concat", c("second", p), c("identity", ab)), TXT, [], TXT),
    ("nested-problems", c("inc", c("first", c("pairOf", x, n))), TOK, ["pairOf needs a two-component product context", "cannot infer the operand color of first"], None),
]


@pytest.mark.parametrize(
    "expr,expected,problems,color",
    [row[1:] for row in ANALYSIS_CASES],
    ids=[row[0] for row in ANALYSIS_CASES],
)
def test_analysis_problems_and_color_are_pinned(expr, expected, problems, color):
    assert analyze_expr(expr, expected, ENV) == (problems, color)


def _outcome(evaluate, expr, binding, expected):
    """(value or error, number of SaturationWarnings) of one evaluation."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = evaluate(expr, binding, expected)
        except RoleflowError as exc:
            result = exc
    return result, sum(issubclass(w.category, SaturationWarning) for w in caught)


def test_well_typed_expressions_match_the_naive_evaluator():
    rng = random.Random(808)
    clamped = 0
    for k in range(3000):
        cs = TOK if k % 3 == 0 else gen_colorset(rng, "C")
        binding: dict = {}
        expr = gen_typed_expr(rng, cs, binding)
        env = {name: v.colorset for name, v in binding.items()}
        assert analyze_expr(expr, cs, env) == ([], cs), expr
        got, got_warned = _outcome(eval_expr, expr, binding, cs)
        want, want_warned = _outcome(naive_eval_expr, expr, binding, cs)
        assert isinstance(want, Value), (expr, want)
        assert (got, got_warned) == (want, want_warned), expr
        # the compiled closure: same value, same SaturationWarning count
        compiled = compile_expr(expr, cs, env)
        assert _outcome(lambda e, b, x: compiled(b), expr, binding, cs) == (want, want_warned), expr
        clamped += bool(want_warned)
    # the generator reaches the 64-bit bound often enough to compare clamping
    assert clamped > 50, clamped


def test_ill_typed_expressions_raise_in_both_evaluators():
    rng = random.Random(909)
    colors = [TOK, TXT, FLAG, PAIR, SWAP, TRIPLE]
    # v4 stays unbound
    binding = {"v0": tok(0), "v1": Value(TXT, "t"), "v2": Value(FLAG, "true")}
    binding["v3"] = Value(PAIR, (tok(3), Value(TXT, "u")))
    env = {name: v.colorset for name, v in binding.items()}
    env_with_unbound = {**env, "v4": TOK}  # compiles a use of v4 as well
    rejected = same_words = 0
    for k in range(4000):
        expr = gen_untyped_expr(rng, colors)
        expected = rng.choice(colors + [None, None])
        problems, color = analyze_expr(expr, expected, env)
        got, got_warned = _outcome(eval_expr, expr, binding, expected)
        want, want_warned = _outcome(naive_eval_expr, expr, binding, expected)
        if problems:
            rejected += 1
            assert isinstance(got, RoleflowError) and isinstance(want, RoleflowError), (expr, problems)
            # a top-level variable, literal or ill-fitting tuple is one problem in one wording
            if expr.kind in ("var", "lit") or (expr.kind == "tuple" and color is None):
                assert str(got) == problems[0], expr
                same_words += 1
        else:
            assert isinstance(want, Value), (expr, want)
            assert (got, got_warned) == (want, want_warned), expr
        compile_problems = analyze_expr(expr, expected, env_with_unbound)[0]
        if compile_problems:
            with pytest.raises(TypeMismatch, match=f"^{re.escape(compile_problems[0])}$"):
                compile_expr(expr, expected, env_with_unbound)
        else:
            compiled = compile_expr(expr, expected, env_with_unbound)
            if not problems:
                assert _outcome(lambda e, b, x: compiled(b), expr, binding, expected) == (want, want_warned)
    assert 1000 < rejected < 4000, rejected
    assert same_words > 300, same_words
