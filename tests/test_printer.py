"""Tests for deterministic pretty-printing and its round-trip with parsing."""

import random

from rcic import (
    App,
    Const,
    Constr,
    Context,
    Ind,
    InductiveDecl,
    Lam,
    PROP,
    Prod,
    SortT,
    Var,
    alpha_eq,
    app,
    arrow,
    check,
    declare_inductive,
    elaborate,
    parse_term,
    print_definition,
    print_inductive,
    print_term,
)
from rcic.syntax import set_sort

from conftest import fresh_prelude_env, load_declarations, term_in
from gen import random_typed

NAT = Ind("Nat")


def test_print_atoms(prelude_env):
    assert print_term(Var("x")) == "x"
    assert print_term(SortT(PROP)) == "Prop"
    assert print_term(SortT(set_sort(2))) == "Set2"
    assert print_term(NAT) == "Nat"
    assert print_term(Constr("zero")) == "zero"


def test_print_application_and_parens(prelude_env):
    env = prelude_env
    assert print_term(term_in(env, "plus (succ zero) two"), env) == \
        "plus (succ zero) two"
    assert print_term(term_in(env, "(fun (x : Nat) => x) zero"), env) == \
        "(fun (x : Nat) => x) zero"
    assert print_term(term_in(env, "(Nat -> Nat) -> Nat"), env) == \
        "(Nat -> Nat) -> Nat"
    assert print_term(term_in(env, "Nat -> Nat -> Nat"), env) == \
        "Nat -> Nat -> Nat"


def test_print_binders(prelude_env):
    env = prelude_env
    assert print_term(term_in(env, "fun (x : Nat) => x"), env) == \
        "fun (x : Nat) => x"
    # Adjacent binders of the same type are grouped.
    assert print_term(term_in(env, "forall (A : Set0) (B : Set0), A -> B"),
                      env) == "forall (A B : Set0), A -> B"
    # A binder the codomain does not use prints as an arrow.
    assert print_term(term_in(env, "forall (A : Set0) (x : A), A"), env) == \
        "forall (A : Set0), A -> A"
    # Binders the codomain depends on keep their names.
    assert print_term(term_in(env, "forall (A : Set0) (P : A -> Prop) (x : A), P x"),
                      env) == "forall (A : Set0) (P : A -> Prop) (x : A), P x"


def test_print_match(prelude_env):
    env = prelude_env
    src = ("fun (n : Nat) => match n as x in Nat return Nat "
           "with | zero => zero | succ k => succ k end")
    out = print_term(term_in(env, src), env)
    assert out == ("fun (n : Nat) => match n as x in Nat return Nat "
                   "with | zero => zero | succ => fun (k : Nat) => succ k end")


def test_print_fix(prelude_env):
    env = prelude_env
    src = "fix f {struct 0} : Nat -> Nat := fun (n : Nat) => n"
    assert print_term(term_in(env, src), env) == src


def test_print_renames_a_binder_that_captures_a_global(prelude_env):
    # Kernel-API terms may bind a name that a global inside the binder's
    # scope also has; the binder prints under a fresh name.
    env = prelude_env
    t = Lam("plus", NAT, App(App(Const("plus"), Var("plus")), Var("plus")))
    out = print_term(t, env)
    assert out == "fun (plus1 : Nat) => plus plus1 plus1"
    assert alpha_eq(elaborate(env, parse_term(out)), t)
    t = Lam("Nat", SortT(set_sort(0)), NAT)
    assert print_term(t, env) == "fun (Nat1 : Set0) => Nat"
    assert alpha_eq(elaborate(env, parse_term(print_term(t, env))), t)
    # Without an environment every global is looked for.
    assert print_term(t) == "fun (Nat1 : Set0) => Nat"
    # A binder only named like a global, with no global in scope, keeps
    # its name.
    assert print_term(Lam("plus", NAT, Var("plus")), env) == \
        "fun (plus : Nat) => plus"


def test_print_definition_and_inductive(prelude_env):
    env = prelude_env
    assert print_definition(env.definition("negb"), env) == (
        "def negb : Bool -> Bool := fun (b : Bool) => "
        "match b as x in Bool return Bool "
        "with | true => false | false => true end.")
    assert print_inductive(env.inductive("List"), env) == (
        "inductive List (A : Set0) : Set0 := "
        "nil : List A | cons : A -> List A -> List A.")
    assert print_inductive(env.inductive("Empty"), env) == \
        "inductive Empty : Set0 := ."


def test_print_inductive_renames_captured_parameters(fresh_env):
    # Parameters named like a global that the arity or a constructor uses
    # would capture it when read back.  Box's parameter `Nat` must print
    # under another name for `Nat -> Set0` to keep meaning the inductive.
    env = fresh_env
    s0 = SortT(set_sort(0))
    box = InductiveDecl("Box", 1, Prod("Nat", s0, arrow(NAT, s0)), (
        ("mk", Prod("Nat", s0, arrow(NAT, app(Ind("Box"), Var("Nat"),
                                              Constr("zero"))))),))
    declare_inductive(env, box)
    text = print_inductive(box, env)
    assert text == ("inductive Box (Nat1 : Set0) : Nat -> Set0 := "
                    "mk : Nat -> Box Nat1 zero.")
    back = load_declarations(fresh_prelude_env(), text).inductive("Box")
    assert back.params == 1
    assert alpha_eq(back.arity, box.arity)
    assert alpha_eq(back.constructors[0][1], box.constructors[0][1])


def test_print_is_deterministic(prelude_env):
    env = prelude_env
    for name in env.names():
        d = env.definition(name)
        if d is None:
            continue
        once = print_term(d.body, env)
        assert once == print_term(d.body, env)


def test_round_trip_prelude(prelude_env):
    env = prelude_env
    for name in env.names():
        decl = env.definition(name)
        if decl is None:
            ind = env.inductive(name)
            for _, cty in ind.constructors:
                out = print_term(cty, env)
                assert alpha_eq(elaborate(env, parse_term(out)), cty)
            continue
        for t in (decl.type, decl.body):
            out = print_term(t, env)
            assert alpha_eq(elaborate(env, parse_term(out)), t)


def test_round_trip_generated(prelude_env):
    env = prelude_env
    rng = random.Random(20260814)
    for _ in range(150):
        t, ty = random_typed(rng, depth=4)
        check(env, Context(), t, ty)
        out = print_term(t, env)
        back = elaborate(env, parse_term(out))
        assert alpha_eq(back, t), out
