"""Tests for the lexer, parser, and elaborator."""

import random
import sys
from pathlib import Path

import pytest

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    ErrorKind,
    Fix,
    GlobalEnv,
    Ind,
    Lam,
    PROP,
    ParseError,
    Prod,
    SortT,
    TypeCheckError,
    Var,
    alpha_eq,
    app,
    arrow,
    declare,
    elaborate,
    infer,
    parse_file,
    parse_term,
    prelude_path,
    print_term,
)
from rcic.frontend import (
    DCheck,
    DDef,
    DInductive,
    DParamCheck,
    RawMatch,
    tokenize,
)
from rcic.syntax import set_sort, type_sort

from conftest import load_declarations, term_in
from gen import random_typed

NAT = Ind("Nat")
GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Lexing


def test_tokenize_basics():
    kinds = [(t.kind, t.value) for t in tokenize("fun (x : Nat) => x")]
    assert kinds == [
        ("keyword", "fun"), ("symbol", "("), ("ident", "x"), ("symbol", ":"),
        ("ident", "Nat"), ("symbol", ")"), ("symbol", "=>"), ("ident", "x"),
        ("eof", None),
    ]
    toks = tokenize("Set0 3 x (")
    assert [(t.kind, t.value, *toks.position(i), t.describe())
            for i, t in enumerate(toks)] == [
        ("sort", set_sort(0), 1, 1, "'Set0'"), ("number", 3, 1, 6, "'3'"),
        ("ident", "x", 1, 8, "'x'"), ("symbol", "(", 1, 10, "'('"),
        ("eof", None, 1, 11, "end of input"),
    ]


def test_tokenize_sorts():
    toks = tokenize("Prop Set0 Set12 Type1 Type3")
    assert [t.kind for t in toks[:-1]] == ["sort"] * 5
    assert toks[0].value == PROP
    assert toks[1].value == set_sort(0)
    assert toks[2].value == set_sort(12)
    assert toks[3].value == type_sort(1)
    # A sort is a whole word: a name that only starts like one is a name.
    toks = tokenize("Set1x Prop1 Type2a Set007")
    assert [t.kind for t in toks[:-1]] == ["ident"] * 3 + ["sort"]
    assert [t.value for t in toks[:3]] == ["Set1x", "Prop1", "Type2a"]
    assert toks[3].value == set_sort(7)


def test_tokenize_bad_sorts():
    with pytest.raises(ParseError, match="Type levels start at 1"):
        tokenize("Type0")
    with pytest.raises(ParseError):
        tokenize("Set")
    with pytest.raises(ParseError):
        tokenize("Type")


def test_tokenize_reserved_suffixes():
    with pytest.raises(ParseError, match="reserved"):
        tokenize("x'")
    with pytest.raises(ParseError, match="reserved"):
        tokenize("foo_R")
    # The suffixes are accepted when reading generated output.
    toks = tokenize("x' foo_R", allow_reserved=True)
    assert [t.value for t in toks[:-1]] == ["x'", "foo_R"]
    # A sort with a reserved suffix is a reserved name, not a sort.
    for word in ("Set0'", "Prop'"):
        with pytest.raises(ParseError,
                           match=f"^1:1: names ending in ' are reserved: {word}$"):
            tokenize(word)
        toks = tokenize(word, allow_reserved=True)
        assert (toks[0].kind, toks[0].value) == ("ident", word)


def test_tokenize_comments_nest():
    toks = tokenize("one (* a (* nested *) comment *) two")
    assert [t.value for t in toks[:-1]] == ["one", "two"]
    with pytest.raises(ParseError, match="comment"):
        tokenize("(* never closed")
    # `(*)` opens a comment and does not close it; it is reported where it
    # starts.
    with pytest.raises(ParseError, match="^2:3: unterminated comment$"):
        tokenize("zero\n  (*) succ")
    with pytest.raises(ParseError,
                       match=r"^1:6: unexpected character '\*'$"):
        tokenize("zero *) succ")


def test_tokenize_positions_and_junk():
    # Columns count characters: a tab is one, and a \r ends no line.
    for text, where in (("zero\n  succ", (2, 3)),
                        ("(* a\n b *) succ", (2, 7)),
                        ("(* a\n (* b\n *) c *) succ", (3, 10)),
                        ("zero\r\nsucc", (2, 1)),
                        ("zero\r\n\tsucc", (2, 2))):
        toks = tokenize(text)
        assert (toks[-2].value, *toks.position(len(toks) - 2)) == (
            "succ", *where)
    # End of input is where the text ends, after any comment and whitespace.
    for text, where in (("x (* a\n b *)  ", (2, 8)), ("x\n\n", (3, 1))):
        toks = tokenize(text)
        assert (toks[-1].kind, *toks.position(len(toks) - 1)) == (
            "eof", *where)
    # Identifiers and numbers are ASCII; any other character is an error.
    for text, where in (("a ? b", "1:3"),
                        ("x\n  \t?", "2:4"),
                        ("def é : Nat := zero.", "1:5"),
                        ("def x : Nat := ².", "1:16")):
        with pytest.raises(ParseError, match="unexpected character") as err:
            tokenize(text)
        assert str(err.value).startswith(f"{where}: ")


def _profiled_calls(fn, *args):
    """The number of Python and builtin calls made while `fn(*args)` runs,
    as `sys.setprofile` sees them."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_tokenize_does_no_python_work_per_token():
    # Doubling the tokens of every line (the same words on the same lines)
    # leaves the number of calls unchanged: the work is per line and per
    # distinct word, not per token.
    lines = [f"def g{i} : Nat -> Nat := fun (x{i} : Nat) => plus x{i} "
             f"(succ (g{i // 2} zero))." for i in range(200)]
    text = "\n".join(lines)
    doubled = "\n".join(f"{line} {line}" for line in lines)
    assert len(tokenize(doubled)) == 2 * len(tokenize(text)) - 1
    assert _profiled_calls(tokenize, doubled) == _profiled_calls(tokenize,
                                                                 text)


def _naive_tokens(text):
    """(text, line, col) of each token of `text` and of its end, found one
    character at a time: the oracle for tokenize's positions."""
    found = []
    i, line, col = 0, 1, 1

    def skip(n):
        nonlocal i, line, col
        for c in text[i:i + n]:
            line, col = (line + 1, 1) if c == "\n" else (line, col + 1)
        i += n

    while i < len(text):
        c = text[i]
        if c in " \t\r\n":
            skip(1)
        elif text.startswith("(*", i):
            depth, j = 1, i + 2
            while depth:
                if text.startswith("(*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*)", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            skip(j - i)
        else:
            j = i + 1
            if c.isascii() and (c.isalpha() or c == "_"):
                while j < len(text) and text[j].isascii() and (
                        text[j].isalnum() or text[j] in "_'"):
                    j += 1
            elif c.isdigit():
                while j < len(text) and text[j].isdigit():
                    j += 1
            elif text[i:i + 2] in (":=", "->", "=>"):
                j = i + 2
            else:
                assert c in "(){}:,.|", c
            found.append((text[i:j], line, col))
            skip(j - i)
    found.append(("", line, col))
    return found


def _oracle_inputs(env):
    yield "x (* a\n (* b *)\n c *) y\r\n\tz (*\n*)w:=(v)", False
    yield prelude_path().read_text(), False
    for path in sorted(GOLDEN.glob("*_translate.txt")):
        yield path.read_text(), True
    rng = random.Random(20261020)
    yield "\n".join(print_term(random_typed(rng, depth=4)[0], env)
                     for _ in range(100)), False
    yield _bulk_with_comments(random.Random(20261021), env), False


def _bulk_with_comments(rng, env):
    """Generated definitions laid out like the bulk-check benchmark's, with
    comments between words: some inside a line, some across lines, some
    nested and some with no space around them."""
    text = "\n\n".join(f"def g{i} : {print_term(ty, env)} :=\n  "
                        f"{print_term(term, env)}."
                        for i, (term, ty) in enumerate(
                            random_typed(rng, depth=4) for _ in range(200)))
    out = []
    for word in text.split(" "):
        out.append(word)
        roll = rng.random()
        if roll < 0.05:
            out.append("(* note *)")
        elif roll < 0.08:
            out.append("(* a\n  (* b *)\n   c *)")
        elif roll < 0.1:
            out[-1] += "(*x*)"
    return " ".join(out)


def test_token_positions_match_a_naive_lexer(prelude_env):
    for text, allow_reserved in _oracle_inputs(prelude_env):
        tokens = tokenize(text, allow_reserved)
        naive = _naive_tokens(text)
        assert len(tokens) == len(naive)
        lines = text.split("\n")
        for i, (tok, (word, line, col)) in enumerate(zip(tokens, naive)):
            assert tokens.position(i) == (line, col), (tok, word)
            if tok.kind != "eof":
                assert lines[line - 1][col - 1:].startswith(
                    str(tok.value)), tok


# ---------------------------------------------------------------------------
# Term parsing


def test_parse_arrow_right_associative():
    t = parse_term("Nat -> Bool -> Nat")
    assert t == Prod("_", Var("Nat"), Prod("_", Var("Bool"), Var("Nat")))


def test_parse_long_chains_in_a_loop():
    # Arrow chains and the bodies of binder forms are read in a loop, so
    # their length is not bounded by the interpreter's recursion limit.  The
    # result is walked, not compared: comparing recurses.
    n = 5000
    t = parse_term("Nat -> " * n + "Nat")
    for _ in range(n):
        assert type(t) is Prod and (t.binder, t.domain) == ("_", Var("Nat"))
        t = t.codomain
    assert t == Var("Nat")
    t = parse_term("forall (x : Nat), fun (y : x) => Set0 -> " * n + "y")
    for _ in range(n):
        assert (type(t), t.binder, t.domain) == (Prod, "x", Var("Nat"))
        t = t.codomain
        assert (type(t), t.binder, t.annotation) == (Lam, "y", Var("x"))
        t = t.body
        assert (type(t), t.binder, t.domain) == (Prod, "_", SortT(set_sort(0)))
        t = t.codomain
    assert t == Var("y")


def test_parse_application_left_associative():
    t = parse_term("f a b")
    assert t == App(App(Var("f"), Var("a")), Var("b"))
    assert parse_term("f (a b)") == App(Var("f"), App(Var("a"), Var("b")))


def test_parse_binder_groups():
    t = parse_term("fun (x y : Nat) (z : Bool) => x")
    assert t == Lam("x", Var("Nat"),
                    Lam("y", Var("Nat"), Lam("z", Var("Bool"), Var("x"))))
    t = parse_term("forall (A : Set0), A -> A")
    assert t == Prod("A", SortT(set_sort(0)),
                     Prod("_", Var("A"), Var("A")))


def test_parse_arrow_binds_tighter_than_binders():
    t = parse_term("forall (A : Set0), A -> forall (B : Set0), B")
    assert isinstance(t, Prod)
    assert isinstance(t.codomain, Prod)
    assert isinstance(t.codomain.codomain, Prod)


def test_parse_fix_raw():
    t = parse_term("fix f {struct 1} : Nat -> Nat := fun (n : Nat) => n")
    assert t == Fix("f", Prod("_", Var("Nat"), Var("Nat")),
                    Lam("n", Var("Nat"), Var("n")), 1)


def test_parse_fix_binder_sugar():
    sugar = parse_term("fix f (n m : Nat) {struct n} : Nat := m")
    raw = parse_term("fix f {struct 0} : forall (n m : Nat), Nat := "
                     "fun (n m : Nat) => m")
    assert alpha_eq(sugar, raw)
    assert sugar.decreasing == 0
    by_index = parse_term("fix f (n m : Nat) {struct 1} : Nat := m")
    assert by_index.decreasing == 1
    with pytest.raises(ParseError, match="binder name"):
        parse_term("fix f (n : Nat) {struct q} : Nat := n")
    with pytest.raises(ParseError):
        parse_term("fix f {struct n} : Nat -> Nat := fun (n : Nat) => n")


def test_parse_match():
    t = parse_term("match n as x in Nat return Bool "
                   "with | zero => true | succ k => false end")
    assert isinstance(t, RawMatch)
    assert t.scrutinee == Var("n")
    assert t.as_name == "x"
    assert t.ind == "Nat"
    assert t.atoms == ()
    assert t.branches[0] == ("zero", (), Var("true"))
    assert t.branches[1] == ("succ", ("k",), Var("false"))


def test_parse_match_with_atoms():
    t = parse_term("match l as x in List Nat return Nat "
                   "with | nil => zero | cons h t => zero end")
    assert isinstance(t, RawMatch)
    assert t.atoms == (Var("Nat"),)
    # A parameter atom may be a sort or a parenthesised term.
    for atom, expected in (("Set0", SortT(set_sort(0))), ("(Nat)", Var("Nat")),
                           ("(List Nat)", App(Var("List"), Var("Nat")))):
        t = parse_term(f"match l as x in List {atom} return Nat "
                       "with | nil => zero | cons h t => zero end")
        assert t.atoms == (expected,)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_term("fun (x : Nat) =>")
    assert "1:17" in str(err.value)
    with pytest.raises(ParseError, match="expected"):
        parse_term("forall x : Nat, x")
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError, match="2:"):
        parse_term("fun (x : Nat) =>\n  match x")
    with pytest.raises(ParseError,
                       match="^2:1: expected a term, found end of input$"):
        parse_term("fun (x : Nat) =>   \n")


def test_parse_underscore_is_no_term():
    # `_` binds nothing, so no term can refer to it.
    for text, where in (("fun (_ : Nat) => _", "1:18"),
                        ("plus _ zero", "1:6"),
                        ("forall (_ : Set0), _", "1:20")):
        with pytest.raises(ParseError,
                           match=f"^{where}: expected a term, found '_'$"):
            parse_term(text)
    # It still binds, and still stands for a match's index binder.
    assert parse_term("fun (_ : Nat) => zero") == Lam("_", Var("Nat"),
                                                      Var("zero"))
    t = parse_term("match v as w in Vec Nat _ return Nat "
                   "with | vnil => zero end")
    assert t.atoms == (Var("Nat"), Var("_"))


def test_parse_underscore_is_no_global_name():
    # A global named `_` could not be referred to, so no declaration names
    # one: not a definition, an inductive, a constructor or a paramcheck.
    for text, where in (("def _ : Nat := zero.", "1:5"),
                        ("inductive _ : Set0 := u : Nat.", "1:11"),
                        ("inductive U : Set0 := _ : U.", "1:23"),
                        ("inductive U : Set0 := | u : U | _ : U.", "1:33"),
                        ("paramcheck _.", "1:12")):
        with pytest.raises(ParseError,
                           match=f"^{where}: expected a name, found '_'$"):
            parse_file(text)
    # Binders, `as` names and branch fields may still be `_`.
    decl = parse_file("def f : Nat -> Nat := fun (_ : Nat) => match zero "
                      "as _ in Nat return Nat with | zero => zero "
                      "| succ _ => zero end.").decls[0]
    assert decl.body.binder == "_"
    assert decl.body.body.as_name == "_"
    assert decl.body.body.branches[1][1] == ("_",)


def test_parse_term_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_term("zero zero.")


# ---------------------------------------------------------------------------
# File parsing


def test_parse_file_declarations():
    src = """
        inductive Pair (A B : Set0) : Set0 := pair : A -> B -> Pair A B.
        def swap : Nat := zero.
        check zero.
        paramcheck swap.
    """
    decls = parse_file(src).decls
    assert [type(d) for d in decls] == [DInductive, DDef, DCheck, DParamCheck]
    ind = decls[0]
    assert ind.name == "Pair"
    assert ind.params == 2
    # The arity carries the parameter binders.
    assert ind.arity == Prod("A", SortT(set_sort(0)),
                             Prod("B", SortT(set_sort(0)), SortT(set_sort(0))))
    cname, cty = ind.constructors[0]
    assert cname == "pair"
    assert isinstance(cty, Prod) and cty.binder == "A"
    assert decls[3].name == "swap"


def test_parse_file_empty_inductive():
    decls = parse_file("inductive Void : Set0 := .").decls
    assert decls[0].constructors == ()


def test_parse_file_positions():
    with pytest.raises(ParseError) as err:
        parse_file("def x : Nat := zero.\ndefx : Nat := zero.")
    assert "2:" in str(err.value)
    with pytest.raises(ParseError):
        parse_file("def missing_dot : Nat := zero")


# ---------------------------------------------------------------------------
# Diagnostics


# One malformed input per error site of the lexer and the parser, with the
# exact `line:col: message` it reports.  "term" inputs go to parse_term,
# "file" inputs to parse_file.  The whole input is lexed before parsing, so
# a lexer error wins over an earlier syntax error.
PARSE_ERRORS = [
    # A failed expect, one per text the parser expects.
    ("term", 'forall (x : Nat) x',
     "1:18: expected ',', found 'x'"),
    ("term", 'fun (x : Nat), x',
     "1:14: expected '=>', found ','"),
    ("term", 'fix f (n : Nat) struct n} : Nat := n',
     "1:17: expected '{', found 'struct'"),
    ("term", 'fix f (n : Nat) {n} : Nat := n',
     "1:18: expected 'struct', found 'n'"),
    ("term", 'fix f (n : Nat) {struct n : Nat := n',
     "1:27: expected '}', found ':'"),
    ("term", 'fix f (n : Nat) {struct n} Nat := n',
     "1:28: expected ':', found 'Nat'"),
    ("term", 'fix f (n : Nat) {struct n} : Nat => n',
     "1:34: expected ':=', found '=>'"),
    ("term", '(zero',
     "1:6: expected ')', found end of input"),
    ("term", 'fun (x y) => x',
     "1:9: expected ':', found ')'"),
    ("term", 'match n in Nat return Nat with end',
     "1:9: expected 'as', found 'in'"),
    ("term", 'match n as m Nat return Nat with end',
     "1:14: expected 'in', found 'Nat'"),
    ("term", 'match n as m in Nat with end',
     "1:21: expected 'return', found 'with'"),
    ("term", 'match n as m in Nat return Nat | zero => zero end',
     "1:32: expected 'with', found '|'"),
    ("term", 'match n as m in Nat return Nat with | zero zero end',
     "1:49: expected '=>', found 'end'"),
    ("term", 'match n as m in Nat return Nat with | zero => zero',
     "1:51: expected 'end', found end of input"),
    ("file", 'def x : Nat := zero',
     "1:20: expected '.', found end of input"),
    ("file", 'def x Nat := zero.',
     "1:7: expected ':', found 'Nat'"),
    ("file", 'def x : Nat = zero.',
     "1:13: unexpected character '='"),
    ("file", 'inductive U : Set0 := u : U u : U.',
     "1:31: expected '.', found ':'"),
    ("file", 'paramcheck plus plus.',
     "1:17: expected '.', found 'plus'"),
    # A failed expect, one per kind of token found.
    ("term", 'fun (x : Nat)\n  =>\n  x x )',
     "3:7: unexpected ')' after the term"),
    ("file", 'def x : Nat := zero\ndef',
     "2:1: expected '.', found 'def'"),
    ("file", 'def x : Nat := zero 3 :',
     "1:21: expected '.', found '3'"),
    ("term", 'forall (x : Nat) 12',
     "1:18: expected ',', found '12'"),
    ("term", 'forall (x : Nat) Prop',
     "1:18: expected ',', found 'Prop'"),
    ("term", 'forall (x : Nat) Set3',
     "1:18: expected ',', found 'Set3'"),
    ("term", 'forall (x : Nat) Type2',
     "1:18: expected ',', found 'Type2'"),
    ("term", 'forall (x : Nat)',
     "1:17: expected ',', found end of input"),
    # expect_ident.
    ("term", 'fun (3 : Nat) => x',
     "1:6: expected a name, found '3'"),
    ("term", 'fix (n : Nat) {struct n} : Nat := n',
     "1:5: expected a name, found '('"),
    ("term", 'match n as fun in Nat return Nat with end',
     "1:12: expected a name, found 'fun'"),
    ("term", 'match n as m in 3 return Nat with end',
     "1:17: expected a name, found '3'"),
    ("term", 'match n as m in Nat return Nat with | Prop => zero end',
     "1:39: expected a name, found 'Prop'"),
    ("file", 'def : Nat := zero.',
     "1:5: expected a name, found ':'"),
    ("file", 'inductive U : Set0 := | . ',
     "1:25: expected a name, found '.'"),
    ("file", 'paramcheck.',
     "1:11: expected a name, found '.'"),
    # global_name's `_`.
    ("file", 'def _ : Nat := zero.',
     "1:5: expected a name, found '_'"),
    ("file", 'inductive _ : Set0 := u : Nat.',
     "1:11: expected a name, found '_'"),
    ("file", 'inductive U : Set0 := _ : U.',
     "1:23: expected a name, found '_'"),
    ("file", 'inductive U : Set0 :=\n| u : U\n| _ : U.',
     "3:3: expected a name, found '_'"),
    ("file", 'paramcheck _.',
     "1:12: expected a name, found '_'"),
    # fix ... {struct ...}.
    ("term", 'fix f (n : Nat) {struct q} : Nat := n',
     "1:25: expected an argument index or binder name, found 'q'"),
    ("term", 'fix f (n : Nat) {struct :} : Nat := n',
     "1:25: expected an argument index or binder name, found ':'"),
    ("term", 'fix f (n : Nat) {struct Set0} : Nat := n',
     "1:25: expected an argument index or binder name, found 'Set0'"),
    ("term", 'fix f (n : Nat) {struct}',
     "1:24: expected an argument index or binder name, found '}'"),
    # Expected a term.
    ("term", '',
     '1:1: expected a term, found end of input'),
    ("term", '  \n\n   ',
     '3:4: expected a term, found end of input'),
    ("term", 'fun (x : Nat) => )',
     "1:18: expected a term, found ')'"),
    ("term", 'plus _ zero',
     "1:6: expected a term, found '_'"),
    ("term", 'f (g ,)',
     "1:6: expected ')', found ','"),
    ("term", 'forall (x : Nat), =>',
     "1:19: expected a term, found '=>'"),
    ("term", '3',
     "1:1: expected a term, found '3'"),
    ("file", 'def x : Nat := .',
     "1:16: expected a term, found '.'"),
    ("file", 'check with.',
     "1:7: expected a term, found 'with'"),
    # Expected a binder.
    ("term", 'forall x : Nat, x',
     "1:8: expected a binder like (x : T), found 'x'"),
    ("term", 'fun => x',
     "1:5: expected a binder like (x : T), found '=>'"),
    ("term", 'fun\n  x => x',
     "2:3: expected a binder like (x : T), found 'x'"),
    ("term", 'forall , x',
     "1:8: expected a binder like (x : T), found ','"),
    # Expected a declaration.
    ("file", 'zero.',
     "1:1: expected a declaration, found 'zero'"),
    ("file", 'def x : Nat := zero.\n  . ',
     "2:3: expected a declaration, found '.'"),
    ("file", '(* c *) Set0',
     "1:9: expected a declaration, found 'Set0'"),
    ("file", 'def x : Nat := zero. 7',
     "1:22: expected a declaration, found '7'"),
    ("file", 'fun',
     "1:1: expected a declaration, found 'fun'"),
    # Trailing input after parse_term's term.
    ("term", 'zero zero.',
     "1:10: unexpected '.' after the term"),
    ("term", 'f x )',
     "1:5: unexpected ')' after the term"),
    ("term", 'zero\n  :=',
     "2:3: unexpected ':=' after the term"),
    ("term", 'zero 4',
     "1:6: unexpected '4' after the term"),
    ("term", 'x end',
     "1:3: unexpected 'end' after the term"),
    # Lexer errors: comments, characters, sorts and reserved names.
    ("term", '(* never closed',
     '1:1: unterminated comment'),
    ("term", 'zero\n  (*) succ',
     '2:3: unterminated comment'),
    ("term", 'a (* (* *) b',
     '1:3: unterminated comment'),
    ("term", 'zero *) succ',
     "1:6: unexpected character '*'"),
    ("term", 'a ? b',
     "1:3: unexpected character '?'"),
    ("term", 'x\n  \t?',
     "2:4: unexpected character '?'"),
    ("file", 'def é : Nat := zero.',
     "1:5: unexpected character 'é'"),
    ("file", 'def x : Nat :=\r\n ².',
     "2:2: unexpected character '²'"),
    ("term", 'Set',
     '1:1: Set needs an explicit level, like Set1'),
    ("term", 'f\n Type',
     '2:2: Type needs an explicit level, like Type1'),
    ("term", 'Type0',
     '1:1: Type levels start at 1'),
    ("term", 'x Type00',
     '1:3: Type levels start at 1'),
    ("term", "x'",
     "1:1: names ending in ' are reserved: x'"),
    ("term", 'zero\n  foo_R',
     '2:3: names ending in _R are reserved: foo_R'),
    ("term", "Set0'",
     "1:1: names ending in ' are reserved: Set0'"),
    ("term", "fun'",
     "1:1: names ending in ' are reserved: fun'"),
    ("term", 'Set_R',
     '1:1: names ending in _R are reserved: Set_R'),
    ("term", 'a [ b',
     "1:3: unexpected character '['"),
    # Of several lexer errors, the first in the text, whatever its kind:
    # each distinct word is classified once, but in no particular order.
    ("file", 'def x : Nat := ? (* never closed',
     "1:16: unexpected character '?'"),
    ("file", 'a\n  b ² (* open\n *)(*',
     "2:5: unexpected character '²'"),
    ("file", "x (* a\n (* b *)\n c *) y' ?\nfoo_R",
     "3:7: names ending in ' are reserved: y'"),
    ("file", "(* x' ? *) ok (* Type0\n *) zero_R x'",
     "2:5: names ending in _R are reserved: zero_R"),
    ("file", "Type1\r\n  Set0 Type0 x'\r\n?",
     "2:8: Type levels start at 1"),
    ("file", 'Set1 x\r\n\t(* Set *) Set é',
     "2:12: Set needs an explicit level, like Set1"),
    ("file", "one two x' two x'",
     "1:9: names ending in ' are reserved: x'"),
]


@pytest.mark.parametrize("parser, text, message", PARSE_ERRORS)
def test_parse_error_messages(parser, text, message):
    parse = parse_term if parser == "term" else parse_file
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    line, col, rest = message.split(":", 2)
    assert (err.value.line, err.value.col, err.value.message) == (
        int(line), int(col), rest[1:])


# ---------------------------------------------------------------------------
# Elaboration


def test_elaborate_resolves_globals(prelude_env):
    t = elaborate(prelude_env, parse_term("plus (succ zero) one"))
    assert t == App(App(Const("plus"), App(Constr("succ"), Constr("zero"))),
                    Const("one"))
    assert elaborate(prelude_env, parse_term("Nat")) == NAT
    assert elaborate(prelude_env, parse_term("List Nat")) == App(Ind("List"), NAT)


def test_elaborate_leaves_unknowns(prelude_env):
    assert elaborate(prelude_env, parse_term("mystery")) == Var("mystery")


def test_elaborate_renames_shadowing_binders(prelude_env):
    # A binder named like a global keeps its name: its uses are Vars, and
    # the global would be a Const, Ind or Constr.
    t = elaborate(prelude_env, parse_term("fun (plus : Nat) => plus"))
    assert t == Lam("plus", NAT, Var("plus"))
    t = elaborate(prelude_env, parse_term("fun (zero : Nat) => zero"))
    assert t == Lam("zero", NAT, Var("zero"))
    # Ordinary binders keep their names.
    t = elaborate(prelude_env, parse_term("fun (q : Nat) => q"))
    assert t.binder == "q"
    # Nested shadowing of an ordinary binder is renamed apart.
    t = elaborate(prelude_env, parse_term("fun (q : Nat) => fun (q : Bool) => q"))
    inner = t.body
    assert t.binder == "q" and inner.binder != "q"
    assert inner.body == Var(inner.binder)
    # A renamed binder avoids every name the term binds, a match's too.
    t = elaborate(prelude_env, parse_term(
        "fun (q : Nat) (q : Nat) => match q as q2 in Nat return Nat "
        "with | zero => q | succ q1 => q end"))
    inner = t.body
    assert t.binder == "q" and inner.binder not in ("q", "q1", "q2")
    assert inner.body.branches[1] == Lam("q1", NAT, Var(inner.binder))


def test_elaborate_renames_a_field_that_captures_a_parameter(prelude_env):
    # The field binder A would capture the parameter A free in the type of
    # the next field, List A, so it is renamed and the match checks.
    t = term_in(prelude_env,
                "fun (A : Set0) (l : List A) => match l as l0 in List A "
                "return Nat with | nil => zero | cons A t => succ zero end")
    infer(prelude_env, Context(), t)
    cons = t.body.body.branches[1]
    assert cons.binder != "A" and cons.body.annotation == App(Ind("List"),
                                                              Var("A"))


def test_elaborate_match_builds_case(prelude_env):
    t = term_in(prelude_env, "fun (n : Nat) => match n as x in Nat return Nat "
                             "with | zero => zero | succ k => k end")
    case = t.body
    assert isinstance(case, Case)
    assert case.ind == "Nat"
    assert case.params == ()
    # The motive binds the scrutinee at the declared type.
    assert alpha_eq(case.motive, Lam("x", NAT, NAT))
    # The zero branch is the bare term, the succ branch binds its field
    # with the annotation taken from the constructor.
    assert case.branches[0] == Constr("zero")
    assert alpha_eq(case.branches[1], Lam("k", NAT, Var("k")))


def test_elaborate_match_instantiates_params(prelude_env):
    t = term_in(prelude_env, """
        fun (l : List Nat) =>
          match l as x in List Nat return Nat with
          | nil => zero
          | cons h t => zero
          end
    """)
    case = t.body
    assert case.params == (NAT,)
    cons_branch = case.branches[1]
    assert alpha_eq(cons_branch,
                    Lam("h", NAT, Lam("t", App(Ind("List"), NAT),
                                      Constr("zero"))))


def test_elaborate_match_errors(prelude_env):
    with pytest.raises(ParseError, match="branch"):
        term_in(prelude_env, "match zero as x in Nat return Nat "
                             "with | zero => zero end")
    with pytest.raises(ParseError):
        term_in(prelude_env, "match zero as x in Nat return Nat "
                             "with | succ k => k | zero => zero end")
    with pytest.raises(ParseError):
        term_in(prelude_env, "match zero as x in Nat return Nat "
                             "with | zero => zero | succ => zero "
                             "| extra => zero end")
    with pytest.raises(ParseError, match="field"):
        term_in(prelude_env, "match zero as x in Nat return Nat "
                             "with | zero => zero | succ k j => k end")
    with pytest.raises(ParseError, match="unknown inductive"):
        term_in(prelude_env, "match zero as x in Missing return Nat "
                             "with | zero => zero end")
    with pytest.raises(ParseError, match="parameter"):
        term_in(prelude_env, "match l as x in List return Nat "
                             "with | nil => zero | cons h t => zero end")
    with pytest.raises(ParseError,
                       match="^1:1: expected a parameter, found '_'$"):
        term_in(prelude_env, "match l as x in List _ return Nat "
                             "with | nil => zero | cons h t => zero end")


def test_elaborate_match_index_binders(fresh_env):
    load_declarations(fresh_env, """
        inductive Vec (A : Set0) : Nat -> Set0 :=
          vnil : Vec A zero
        | vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).
    """)
    t = term_in(fresh_env, """
        fun (n : Nat) (v : Vec Nat n) =>
          match v as w in Vec Nat k return Nat with
          | vnil => zero
          | vcons m h t => m
          end
    """)
    case = t.body.body
    assert isinstance(case, Case)
    infer(fresh_env, Context().extend("n", NAT)
          .extend("v", term_in(fresh_env, "Vec Nat n")), case)
    # An underscore index binder is freshened, not taken literally.
    t = term_in(fresh_env, """
        fun (n : Nat) (v : Vec Nat n) =>
          match v as w in Vec Nat _ return Nat with
          | vnil => zero
          | vcons m h t => m
          end
    """)
    assert "_" not in str(t.body.body.motive)
    with pytest.raises(ParseError,
                       match="match indices must be fresh binder names"):
        term_in(fresh_env, """
            fun (v : Vec Nat (succ zero)) =>
              match v as w in Vec Nat (succ zero) return Nat with
              | vnil => zero
              | vcons m h t => m
              end
        """)


def test_declare_takes_every_declaration_kind():
    env = GlobalEnv()
    *_, checked, paramchecked = (
        declare(env, decl) for decl in parse_file(
            prelude_path().read_text()
            + "check plus one two.\nparamcheck plus.\n").decls)
    assert checked == (app(Const("plus"), Const("one"), Const("two")), NAT)
    assert paramchecked is env.definition("plus")
    with pytest.raises(TypeCheckError) as err:
        declare(env, parse_file("paramcheck Nat.").decls[0])
    assert err.value.kind is ErrorKind.UNBOUND_VARIABLE
    assert str(err.value) == "UnboundVariable: paramcheck needs a definition: Nat"
    with pytest.raises(TypeError, match="not a declaration"):
        declare(env, NAT)


def test_elaborated_prelude_types(prelude_env):
    # Elaboration feeds the kernel directly: spot-check a polymorphic type.
    d = prelude_env.definition("compose")
    got = infer(prelude_env, Context(), d.body)
    assert alpha_eq(got, d.type)
