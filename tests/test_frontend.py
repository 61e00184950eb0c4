"""Tests for the lexer, parser, and elaborator."""

import pytest

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    Fix,
    GlobalEnv,
    Ind,
    Lam,
    PROP,
    ParseError,
    Prod,
    SortT,
    Var,
    alpha_eq,
    arrow,
    elaborate,
    infer,
    parse_file,
    parse_term,
    set_sort,
    type_sort,
)
from rcic.frontend import (
    DCheck,
    DDef,
    DInductive,
    DParamCheck,
    RawMatch,
    tokenize,
)

from conftest import load_declarations, term_in

NAT = Ind("Nat")


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
    assert [(t.kind, t.value, t.line, t.col, t.describe()) for t in toks] == [
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
        tok = tokenize(text)[-2]
        assert (tok.value, tok.line, tok.col) == ("succ", *where)
    # End of input is where the text ends, after any comment and whitespace.
    for text, where in (("x (* a\n b *)  ", (2, 8)), ("x\n\n", (3, 1))):
        tok = tokenize(text)[-1]
        assert (tok.kind, tok.line, tok.col) == ("eof", *where)
    # Identifiers and numbers are ASCII; any other character is an error.
    for text, where in (("a ? b", "1:3"),
                        ("x\n  \t?", "2:4"),
                        ("def é : Nat := zero.", "1:5"),
                        ("def x : Nat := ².", "1:16")):
        with pytest.raises(ParseError, match="unexpected character") as err:
            tokenize(text)
        assert str(err.value).startswith(f"{where}: ")


# ---------------------------------------------------------------------------
# Term parsing


def test_parse_arrow_right_associative():
    t = parse_term("Nat -> Bool -> Nat")
    assert t == Prod("_", Var("Nat"), Prod("_", Var("Bool"), Var("Nat")))


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


def test_elaborated_prelude_types(prelude_env):
    # Elaboration feeds the kernel directly: spot-check a polymorphic type.
    d = prelude_env.definition("compose")
    got = infer(prelude_env, Context(), d.body)
    assert alpha_eq(got, d.type)
