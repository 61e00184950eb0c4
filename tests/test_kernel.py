"""Tests for reduction, conversion, typing, and inductive wellformedness."""

import itertools
import random

import pytest

from rcic import (
    App,
    Case,
    Const,
    Constr,
    Context,
    Definition,
    ErrorKind,
    FULL,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    PROP,
    Prod,
    STAR,
    Sort,
    SortT,
    TypeCheckError,
    Var,
    alpha_eq,
    app,
    arrow,
    beta_normalize,
    check,
    check_inductive,
    conv,
    declare_definition,
    declare_inductive,
    elaborate,
    infer,
    infer_sort,
    parse_file,
    prelude_path,
    print_inductive,
    print_term,
    subst,
    subtype,
    whnf,
)

from rcic import kernel, syntax
from rcic.cli import main
from rcic.frontend import DDef
from rcic.kernel import axiom_sort, is_small, sort_of_product, subsort
from rcic.param import prime, primed, relation_name
from rcic.syntax import (children, free_vars, fresh_name, lams, names, prods,
                         set_sort, strip_prods, type_sort, unfold_app)

from conftest import load_declarations, term_in, translate_term
from gen import LIST_NAT, UNIT, random_typed
from nameless import to_nameless
from reducts import one_step_reducts, term_whnf
from term_infer import term_infer
from translation_gaps import GAPS
from walker_counts import VEC_SOURCE, check_inductive_calls, counting

NAT = Ind("Nat")
BOOL = Ind("Bool")

ALL_SORTS = ([PROP] + [set_sort(i) for i in range(5)]
             + [type_sort(i) for i in range(1, 5)])


# ---------------------------------------------------------------------------
# Sorts


def test_axiom_sort():
    assert axiom_sort(PROP) == type_sort(1)
    for i in range(4):
        assert axiom_sort(set_sort(i)) == type_sort(i + 1)
    for i in range(1, 4):
        assert axiom_sort(type_sort(i)) == type_sort(i + 1)


def _product_oracle(domain, codomain):
    """The three product rules, restated independently."""
    if codomain.kind == "Prop":
        return PROP
    if domain.kind == "Prop":
        return codomain
    level = max(domain.level, codomain.level)
    return Sort(codomain.kind, level)


def test_sort_of_product_table():
    for domain, codomain in itertools.product(ALL_SORTS, ALL_SORTS):
        assert sort_of_product(domain, codomain) == _product_oracle(domain, codomain)


def test_sort_of_product_spot():
    # Impredicative Prop: the codomain wins outright.
    assert sort_of_product(type_sort(4), PROP) == PROP
    # A Prop domain never raises the level.
    assert sort_of_product(PROP, set_sort(0)) == set_sort(0)
    # Predicative maximum keeps the codomain's family.
    assert sort_of_product(type_sort(2), set_sort(1)) == set_sort(2)
    assert sort_of_product(set_sort(3), type_sort(1)) == type_sort(3)


def _closure_oracle(levels=5):
    """Reflexive-transitive closure of the declared one-step inclusions."""
    sorts = ([PROP] + [set_sort(i) for i in range(levels + 1)]
             + [type_sort(i) for i in range(1, levels + 1)])
    edges = {(a, a) for a in sorts}
    edges.add((PROP, set_sort(1)))
    for i in range(levels):
        edges.add((set_sort(i), set_sort(i + 1)))
    for i in range(1, levels):
        edges.add((type_sort(i), type_sort(i + 1)))
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(edges), list(edges)):
            if b == c and (a, d) not in edges:
                edges.add((a, d))
                changed = True
    return sorts, edges


def test_subsort_matches_closure():
    sorts, closure = _closure_oracle()
    for a, b in itertools.product(sorts, sorts):
        assert subsort(a, b) == ((a, b) in closure), (a, b)


def test_subsort_spot():
    assert subsort(PROP, PROP)
    assert subsort(PROP, set_sort(1))
    assert not subsort(PROP, set_sort(0))
    assert subsort(set_sort(0), set_sort(2))
    assert not subsort(set_sort(2), set_sort(0))
    # The Set and Type families never mix.
    assert not subsort(set_sort(0), type_sort(1))
    assert not subsort(type_sort(1), set_sort(2))
    assert not subsort(PROP, type_sort(1))


# ---------------------------------------------------------------------------
# Reduction


def test_whnf_beta(prelude_env):
    t = App(Lam("x", NAT, Var("x")), Constr("zero"))
    assert whnf(prelude_env, t) == Constr("zero")
    # Only the head is reduced.
    inner = App(Lam("y", NAT, Var("y")), Constr("zero"))
    t = App(Lam("x", NAT, Lam("z", NAT, inner)), Constr("zero"))
    out = whnf(prelude_env, t)
    assert isinstance(out, Lam)
    assert out.body == inner


def test_whnf_delta(prelude_env):
    assert whnf(prelude_env, Const("one")) == App(Constr("succ"), Constr("zero"))


def test_whnf_iota(prelude_env):
    t = term_in(prelude_env, "match true as b in Bool return Nat "
                             "with | true => zero | false => one end")
    assert whnf(prelude_env, t) == Constr("zero")
    # Constructor arguments reach the branch.
    t = term_in(prelude_env, "match succ zero as n in Nat return Nat "
                             "with | zero => zero | succ k => k end")
    assert whnf(prelude_env, t) == Constr("zero")


def test_whnf_fix_unfolds_on_constructors(prelude_env):
    t = term_in(prelude_env, "plus one one")
    out = whnf(prelude_env, t)
    head, args = out, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    assert head == Constr("succ")


def test_whnf_fix_stuck_on_variable(prelude_env):
    # A fix whose decreasing argument is not constructor-headed must not
    # unfold, or checking recursive functions would diverge.
    fix = term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                               "fun (n : Nat) => match n as x in Nat return Nat "
                               "with | zero => zero | succ k => f k end")
    stuck = App(fix, Var("n"))
    assert whnf(prelude_env, stuck) == stuck


def test_whnf_fix_needs_all_arguments(prelude_env):
    fix = term_in(prelude_env, "fix f {struct 1} : Nat -> Nat -> Nat := "
                               "fun (n m : Nat) => n")
    partial = App(fix, Constr("zero"))
    assert whnf(prelude_env, partial) == partial


def test_whnf_reads_back_like_the_term_oracle(prelude_env):
    env = prelude_env
    # A case stuck on a reducible scrutinee keeps it in weak head normal
    # form: `pred m` unfolds to a case stuck on `m`.
    t = Case("Nat", App(Const("pred"), Var("m")), (), Lam("x", NAT, NAT),
             (Constr("zero"), Lam("k", NAT, Var("k"))))
    assert isinstance(whnf(env, t).scrutinee, Case)
    assert whnf(env, t) == term_whnf(env, t)
    # The fix unfolded under `plus one one` reads back as the term, and so
    # does its own name under the binder that `plus one` leaves open.
    for text in ("plus one one", "plus one"):
        t = term_in(env, text)
        assert whnf(env, t) == term_whnf(env, t)
    # A global the case has already forced, read back under a binder,
    # where the redex it is the argument of stays as it is.
    t = term_in(env, "(fun (n : Nat) => match n as x in Nat return Nat -> Nat "
                     "with | zero => fun (y : Nat) => y "
                     "| succ => fun (k y : Nat) => (fun (w : Nat) => w) n end) "
                     "one")
    assert whnf(env, t) == term_whnf(env, t)
    assert whnf(env, t).body == App(Lam("w", NAT, Var("w")), Const("one"))


def test_whnf_leaves_the_values_of_definitions_to_conversion(fresh_env):
    # whnf of F reads back the body of F's cached value, under which `G`
    # is bound to a thunk of `K`.  The read-back must not evaluate that
    # thunk outside the global environment, or conversion would later
    # find a `K` that cannot unfold.
    env = load_declarations(fresh_env, """
        def K : Set0 -> Set0 := fun (A : Set0) => A.
        def F : Set0 := (fun (G : Set0 -> Set0) => forall (n : Nat), G Nat) K.
        def use : F -> Nat := fun (h : F) => h zero.
    """)
    assert whnf(env, Const("F")) == Prod("n", NAT, App(Const("K"), NAT))
    assert conv(env, Const("F"), term_in(env, "forall (n : Nat), Nat"))
    load_declarations(env, """
        def back : F := fun (n : Nat) => n.
        def used : Nat := use back.
    """)


def _dag_size(t):
    """The number of distinct term objects in `t`, shared ones once."""
    seen, todo = set(), [t]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen.add(id(u))
            todo.extend(children(u))
    return len(seen)


def test_whnf_costs_only_the_head_on_duplicated_redexes():
    n, s0 = 40, SortT(set_sort(0))
    # F := (fun A => A -> A) ((fun A => A -> A) (... Nat)), n deep: the
    # redexes below the head stay as they are.
    double = Lam("A", s0, arrow(Var("A"), Var("A")))
    body = NAT
    for _ in range(n):
        body = App(double, body)
    env = GlobalEnv()
    env.add_definition(Definition("F", s0, body))
    out = whnf(env, Const("F"))
    assert out == arrow(body.arg, body.arg)
    # (fun a0 => (fun a1 => ... (fun an => an -> an) (a(n-1) -> a(n-1))
    # ...) (a0 -> a0)) Nat: every head reduces, and the result, 2^n nodes
    # as a tree, is read back as a DAG of one node per binder and level.
    t = arrow(Var(f"a{n}"), Var(f"a{n}"))
    for k in reversed(range(n)):
        t = App(Lam(f"a{k + 1}", s0, t),
                arrow(Var(f"a{k}"), Var(f"a{k}")))
    t = App(Lam("a0", s0, t), NAT)
    out = whnf(GlobalEnv(), t)
    assert type(out) is Prod and _dag_size(out) <= 3 * n


def test_beta_normalize():
    t = App(Lam("x", NAT, App(Lam("y", NAT, Var("y")), Var("x"))), Var("z"))
    assert beta_normalize(t) == Var("z")
    # Normalizes under binders, unlike whnf.
    t = Lam("x", NAT, App(Lam("y", NAT, Var("y")), Var("x")))
    assert beta_normalize(t) == Lam("x", NAT, Var("x"))


def _triple(base, avoid, scope=None):
    """The names x, x', x_R of a binder triple none of which is in `avoid`,
    nor has a name of `avoid` as its base.  A `_` base becomes `x`, which
    also avoids the names free in `scope`, the binder's scope."""
    if base == "_" and scope is not None:
        avoid = avoid | free_vars(scope)
    stems = {n.removesuffix(s) for n in avoid for s in ("'", "_R", "")}
    x = fresh_name(base, stems)
    return x, primed(x), relation_name(x)


def _redex_relation(env, t):
    """The relation space of the type `t` with a redex at every product:
    [forall (x : A), B] is fun f f' => forall (x : A) (x' : A') (x_R : [A]
    x x'), [B] (f x) (f' x'), with [A] and [B] in this form too, and any
    other type translates as `translate_term` translates it.  Reducing
    one applied to two terms gives the relation `param._relate` builds,
    and exercises every rule of `beta_normalize`: a binder renamed against
    everything substituted below it, and a chain of `f ↦ f x` thunks, one
    link per product."""
    levels = []
    while type(t) is Prod:
        levels.append(t)
        t = t.codomain
    rel, copy = translate_term(env, t), prime(t)
    for node in reversed(levels):
        dom_c, dom_r = prime(node.domain), _redex_relation(env, node.domain)
        copy = Prod(primed(node.binder), dom_c, copy)
        x, x_c, x_r = _triple(node.binder, free_vars(node.domain),
                              node.codomain)
        f, f_c, _ = _triple("f", free_vars(node) | free_vars(dom_r)
                            | free_vars(rel) | {x})
        rel = Lam(f, node, Lam(f_c, copy, Prod(
            x, node.domain, Prod(x_c, dom_c, Prod(
                x_r, app(dom_r, Var(x), Var(x_c)),
                app(rel, App(Var(f), Var(x)), App(Var(f_c), Var(x_c))))))))
    return rel


def _beta_normalize_by_subst(t):
    """The reference beta normaliser: substitute, then normalise again."""
    match t:
        case App(fn, arg):
            fn, arg = _beta_normalize_by_subst(fn), _beta_normalize_by_subst(arg)
            if isinstance(fn, Lam):
                return _beta_normalize_by_subst(subst(fn.body, fn.binder, arg))
            return App(fn, arg)
        case Prod(binder, domain, codomain):
            return Prod(binder, _beta_normalize_by_subst(domain),
                        _beta_normalize_by_subst(codomain))
        case Lam(binder, annotation, body):
            return Lam(binder, _beta_normalize_by_subst(annotation),
                       _beta_normalize_by_subst(body))
        case Case(ind, scrutinee, params, motive, branches):
            return Case(ind, _beta_normalize_by_subst(scrutinee),
                        tuple(map(_beta_normalize_by_subst, params)),
                        _beta_normalize_by_subst(motive),
                        tuple(map(_beta_normalize_by_subst, branches)))
        case Fix(binder, annotation, body, decreasing):
            return Fix(binder, _beta_normalize_by_subst(annotation),
                       _beta_normalize_by_subst(body), decreasing)
    return t


def test_beta_normalize_keeps_names_and_sharing():
    x = Var("x")
    # The substituted `x` is free under the binder `x`, which is renamed
    # exactly as `subst` renames it.
    redex = App(Lam("y", NAT, Lam("x", NAT, App(Var("y"), x))), x)
    assert beta_normalize(redex) == Lam("x1", NAT, App(x, Var("x1")))
    # A redex made by the substitution itself, in head position.
    t = App(Lam("f", arrow(NAT, NAT), Lam("n", NAT, App(Var("f"), Var("n")))),
            Lam("m", NAT, App(Constr("succ"), Var("m"))))
    assert beta_normalize(t) == Lam("n", NAT, App(Constr("succ"), Var("n")))
    # A normal term comes back as the same object.
    normal = Lam("n", NAT, Case("Nat", Var("n"), (), Lam("k", NAT, NAT),
                                (Constr("zero"), Lam("k", NAT, Var("k")))))
    assert beta_normalize(normal) is normal
    applied = App(Var("f"), normal)
    assert beta_normalize(applied) is applied
    # The relation of compose's type, where the two rules part.  A binder
    # is renamed once, against everything substituted below it: the middle
    # telescope keeps `x`, as the outer `x` is not used in it, and the last
    # one takes `x2`.  The reference renames at each contraction and names
    # both `x11`.
    s0 = SortT(set_sort(0))
    a, b, c = Var("A"), Var("B"), Var("C")
    ty = Prod("A", s0, Prod("B", s0, Prod("C", s0, arrow(
        arrow(b, c), arrow(arrow(a, b), arrow(a, c))))))
    raw = app(_redex_relation(GlobalEnv(), ty), Var("f"), Var("f'"))
    assert print_term(beta_normalize(raw)) == (
        "forall (A A' : Set0) (A_R : A -> A' -> Prop) "
        "(B B' : Set0) (B_R : B -> B' -> Prop) "
        "(C C' : Set0) (C_R : C -> C' -> Prop) "
        "(x : B -> C) (x' : B' -> C'), "
        "(forall (x1 : B) (x'1 : B'), B_R x1 x'1 -> C_R (x x1) (x' x'1)) -> "
        "(forall (x1 : A -> B) (x'1 : A' -> B'), "
        "(forall (x : A) (x' : A'), A_R x x' -> B_R (x1 x) (x'1 x')) -> "
        "(forall (x2 : A) (x'2 : A'), A_R x2 x'2 -> "
        "C_R (f A B C x x1 x2) (f' A' B' C' x' x'1 x'2)))")
    reference = _beta_normalize_by_subst(raw)
    assert "x11" in print_term(reference)
    assert to_nameless(beta_normalize(raw)) == to_nameless(reference)


def test_beta_normalize_matches_reference_on_translations(fresh_env):
    # Relations with a redex at every product, and the witnesses applied
    # to them.  The reference renames a binder at each contraction and
    # beta_normalize once, so they agree up to the names of bound
    # variables.
    for name in ("id", "compose", "flip", "plus", "double", "not_not",
                 "append", "map", "fold_right"):
        defn = fresh_env.definition(name)
        ty_r = _redex_relation(fresh_env, defn.type)
        for raw in (ty_r, app(ty_r, Const(name), Const(name)),
                    app(ty_r, defn.body, prime(defn.body))):
            assert (to_nameless(beta_normalize(raw))
                    == to_nameless(_beta_normalize_by_subst(raw))), name


def test_beta_normalize_matches_reference_on_generated_translations(
        fresh_env):
    # The witnesses and relations of generated terms, and open witnesses
    # applied to a triple named like one of the term's own binders, so
    # that the substitution must rename a binder it passes under.
    env = fresh_env
    rng = random.Random(20261019)
    renamed = 0
    for _ in range(150):
        t, ty = random_typed(rng, depth=4)
        raws = [translate_term(env, t),
                app(_redex_relation(env, ty), t, prime(t))]
        inner = sorted(names(t) - {t.binder}) if type(t) is Lam else []
        if inner:
            v = rng.choice(inner)
            raws.append(app(raws[0], Var(v), Var(v + "'"), Var(v + "_R")))
        for raw in raws:
            nf = beta_normalize(raw)
            assert to_nameless(nf) == to_nameless(_beta_normalize_by_subst(raw))
            renamed += bool(names(nf) - names(raw))
    assert renamed >= 10


def test_read_back_work_grows_at_most_quadratically(translated_env):
    # The relation of b{n}'s type applied to b{n} and its copy: twice the
    # binders may cost at most three times the read-back calls, as the
    # read-back renames a capturing binder once, by one more entry of its
    # environment, not by another pass over the body.
    calls = []
    for n in (20, 40):
        ty = prods([("_", NAT)] * n, NAT)
        body = lams([(f"x{i}", NAT) for i in range(n)],
                    app(Const("plus"), Var("x0"), Var(f"x{n - 1}")))
        rel = app(_redex_relation(translated_env, ty), body, prime(body))
        with counting([(kernel, "_quote")]) as quotes:
            beta_normalize(rel)
        calls.append(quotes[0])
    assert calls[1] / calls[0] <= 3.0


def test_beta_normalize_forces_thunk_chains_in_a_loop(translated_env):
    # The relation of b480's type applied to b480 and its copy: contracting
    # it binds `f` to `f x` once per arrow, a chain of 480 thunks that is
    # forced at the innermost codomain.  b480 is built with the term
    # constructors, and the check walks the result in a loop, so only
    # `beta_normalize` meets the depth, at the default recursion limit.
    n = 480
    ty = prods([("_", NAT)] * n, NAT)
    body = lams([(f"x{i}", NAT) for i in range(n)],
                app(Const("plus"), Var("x0"), Var(f"x{n - 1}")))
    nf = beta_normalize(app(_redex_relation(translated_env, ty), body,
                            prime(body)))
    binders, codomain = strip_prods(nf)
    assert len(binders) == 3 * n
    scope = {}  # a binder name in scope: the position of its binder

    def at(t):
        assert type(t) is Var
        return scope[t.name]

    for i, (name, domain) in enumerate(binders):
        if i % 3 < 2:
            assert domain == NAT
        else:
            rel, (a, b) = unfold_app(domain)
            assert rel == Ind("Nat_R") and (at(a), at(b)) == (i - 2, i - 1)
        scope[name] = i
    rel, sides = unfold_app(codomain)
    assert rel == Ind("Nat_R") and len(sides) == 2
    for copy, side in enumerate(sides):
        head, (a, b) = unfold_app(side)
        assert head == Const("plus")
        assert (at(a), at(b)) == (copy, 3 * (n - 1) + copy)


def test_one_step_reducts(prelude_env):
    redex = App(Lam("x", NAT, Var("x")), Constr("zero"))
    assert Constr("zero") in one_step_reducts(prelude_env, redex)
    # Delta at a defined name.
    assert (App(Constr("succ"), Constr("zero"))
            in one_step_reducts(prelude_env, Const("one")))
    # No redexes, no reducts.
    assert one_step_reducts(prelude_env, Lam("x", NAT, Var("x"))) == []
    # A single iota step applies the branch without reducing further.
    t = term_in(prelude_env, "match succ zero as n in Nat return Nat "
                             "with | zero => zero | succ k => k end")
    applied = App(Lam("k", NAT, Var("k")), Constr("zero"))
    assert any(alpha_eq(r, applied) for r in one_step_reducts(prelude_env, t))


# ---------------------------------------------------------------------------
# Conversion and subtyping


def test_conv_alpha(prelude_env):
    a = Lam("x", NAT, Var("x"))
    b = Lam("y", NAT, Var("y"))
    assert conv(prelude_env, a, b)
    assert not conv(prelude_env, a, Lam("y", BOOL, Var("y")))


def test_conv_under_binders(prelude_env):
    env = prelude_env
    x, y, z = Var("x"), Var("y"), Var("z")
    identity = Lam("x", NAT, x)
    # Equal binder names: the bodies are compared as they are.
    assert conv(env, identity, Lam("x", NAT, app(Lam("z", NAT, z), x)))
    assert conv(env, Prod("x", SortT(set_sort(0)), x),
                Prod("x", SortT(set_sort(0)), x))
    assert not conv(env, Lam("x", NAT, Lam("y", NAT, x)),
                    Lam("x", NAT, Lam("y", NAT, y)))
    # Different names.
    assert conv(env, identity, Lam("y", NAT, y))
    assert conv(env, Prod("x", SortT(set_sort(0)), x),
                Prod("y", SortT(set_sort(0)), y))
    assert conv(env, Lam("x", NAT, Lam("y", NAT, x)),
                Lam("y", NAT, Lam("x", NAT, y)))
    assert not conv(env, Lam("x", NAT, y), Lam("y", NAT, x))
    assert not conv(env, Prod("x", SortT(set_sort(0)), y),
                    Prod("y", SortT(set_sort(0)), x))
    # The first binder's name is free in the other body, so renaming only
    # that body would capture it.
    assert not conv(env, identity, Lam("y", NAT, x))
    assert conv(env, identity, Lam("y", NAT, app(Lam("w", NAT, y), x)))
    assert not conv(env, Prod("x", SortT(set_sort(0)), x),
                    Prod("y", SortT(set_sort(0)), x))
    # A binder named like a definition is abstract, never the global.
    assert not conv(env, Lam("one", NAT, Var("one")),
                    Lam("one", NAT, app(Constr("succ"), Constr("zero"))))
    # Fixpoints, whose binder is in scope in the body.
    ty = arrow(NAT, NAT)

    def fix(f, n, body):
        return Fix(f, ty, Lam(n, NAT, body), 0)

    assert conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                fix("f", "n", App(Var("f"), Var("n"))))
    assert conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                fix("g", "m", App(Var("g"), Var("m"))))
    assert not conv(env, fix("f", "n", App(Var("f"), Var("n"))),
                    fix("g", "n", App(Var("f"), Var("n"))))


def test_conv_computes(prelude_env):
    two_plus_two = term_in(prelude_env, "plus two two")
    four = term_in(prelude_env, "succ (succ (succ (succ zero)))")
    assert conv(prelude_env, two_plus_two, four)
    assert not conv(prelude_env, two_plus_two, term_in(prelude_env, "three"))
    # Unfolding on both sides.
    assert conv(prelude_env, term_in(prelude_env, "double two"),
                term_in(prelude_env, "plus two two"))


def test_conv_open_terms(prelude_env):
    env = prelude_env
    x = Var("x")  # x : Nat, free

    def plus(a, b):
        return app(Const("plus"), a, b)

    def succ(a):
        return App(Constr("succ"), a)

    zero, one, two = Constr("zero"), Const("one"), Const("two")
    # Same global head: the arguments are compared before unfolding.
    assert conv(env, plus(x, two), plus(x, succ(one)))
    # Unfolding and iota on a constructor-headed decreasing argument.
    assert conv(env, plus(zero, x), x)
    assert conv(env, plus(succ(x), zero), succ(plus(x, zero)))
    # Stuck on the free variable.
    assert not conv(env, plus(x, zero), x)
    assert not conv(env, plus(x, one), plus(one, x))

    def stuck(succ_branch):
        return Case("Nat", x, (), Lam("n", NAT, BOOL),
                    (Constr("true"), Lam("k", NAT, succ_branch)))

    assert conv(env, stuck(App(Const("negb"), Constr("true"))),
                stuck(Constr("false")))
    assert not conv(env, stuck(Constr("true")), stuck(Constr("false")))


def _constructor_form(env, t):
    """The oracle normal form of a closed first-order term: `term_whnf`,
    then the same for every argument of the constructor it reaches."""
    head, args = unfold_app(term_whnf(env, t))
    assert isinstance(head, (Constr, Ind)), head
    return app(head, *(_constructor_form(env, a) for a in args))


def test_conv_agrees_with_normal_form_oracle(prelude_env):
    env = prelude_env
    rng = random.Random(20240)
    first_order = (NAT, BOOL, LIST_NAT, UNIT)
    terms = []
    while len(terms) < 200:
        t, ty = random_typed(rng, depth=4)
        if any(alpha_eq(ty, target) for target in first_order):
            terms.append((t, ty, _constructor_form(env, t)))
    for t, _, nf in terms:
        assert conv(env, t, nf)
        assert conv(env, nf, t)
    pairs = convertible = 0
    for (a, ty_a, nf_a), (b, ty_b, nf_b) in zip(terms, terms[1:]):
        if not alpha_eq(ty_a, ty_b):
            continue
        pairs += 1
        expected = to_nameless(nf_a) == to_nameless(nf_b)
        convertible += expected
        assert conv(env, a, b) == expected
        assert conv(env, b, a) == expected
        assert subtype(env, a, b) == expected
        assert subtype(env, b, a) == expected
    # Both verdicts are exercised.
    assert pairs >= 50 and 0 < convertible < pairs


def test_conv_no_eta(prelude_env):
    expanded = term_in(prelude_env, "fun (n : Nat) => succ n")
    assert not conv(prelude_env, expanded, Constr("succ"))


# Shapes of application that the evaluator takes a whole spine at a time.
# Each is checked against the term-level oracle: `_constructor_form` for
# closed first-order terms, `term_whnf` itself for stuck ones.

ADD_BY_FUNCTION = (
    # `plus` whose fix body binds one argument and returns a function.
    "fix add {struct 0} : Nat -> Nat -> Nat := fun (n : Nat) => "
    "match n as x in Nat return Nat -> Nat with "
    "| zero => fun (m : Nat) => m "
    "| succ => fun (k m : Nat) => succ (add k m) end")


def _evaluates_like_oracle(env, t, expected, wrong):
    nf = _constructor_form(env, t)
    assert to_nameless(nf) == to_nameless(_constructor_form(env, expected))
    assert conv(env, t, nf) and conv(env, nf, t)
    assert conv(env, t, expected)
    assert not conv(env, t, wrong)


def test_eval_case_branch_that_is_not_a_lambda(prelude_env):
    # Iota hands the field to `plus` itself; the application of the case
    # supplies the second argument.
    env = prelude_env
    t = term_in(env, "(match three as n in Nat return Nat -> Nat with "
                     "| zero => fun (m : Nat) => m | succ => plus end) two")
    _evaluates_like_oracle(env, t, term_in(env, "plus two two"),
                           term_in(env, "three"))
    # A branch binder named like a variable of the case's environment
    # leaves that variable alone for the terms that share it.  (Built
    # directly: the elaborator would rename the branch binder.)
    case = Case("Nat", Const("one"), (), Lam("n", NAT, NAT),
                (Constr("zero"), Lam("k", NAT, Var("k"))))
    t = App(Lam("k", NAT, app(Const("plus"), case,
                              App(Constr("succ"), Var("k")))), Const("three"))
    _evaluates_like_oracle(env, t, term_in(env, "succ three"),
                           term_in(env, "one"))


def test_eval_lambda_telescope_partly_and_over_applied(prelude_env):
    env = prelude_env
    add = term_in(env, "fun (a b : Nat) => plus a b")
    partial = App(add, Const("two"))
    expected = term_in(env, "fun (b : Nat) => plus two b")
    assert to_nameless(beta_normalize(partial)) == to_nameless(expected)
    assert (to_nameless(whnf(env, partial))
            == to_nameless(term_whnf(env, partial)) == to_nameless(expected))
    assert conv(env, partial, expected)
    assert not conv(env, partial, term_in(env, "fun (b : Nat) => plus b two"))
    _evaluates_like_oracle(env, App(partial, Const("one")),
                           term_in(env, "three"), term_in(env, "two"))
    # Three arguments for a telescope of two: the body is a function.
    over = app(term_in(env, "fun (a : Nat) (f : Nat -> Nat) => f"),
               Constr("zero"), Constr("succ"), Const("two"))
    assert beta_normalize(over) == App(Constr("succ"), Const("two"))
    _evaluates_like_oracle(env, over, term_in(env, "three"),
                           term_in(env, "two"))


def test_eval_telescope_that_shadows_its_binder(prelude_env):
    env = prelude_env
    second = Lam("x", NAT, Lam("x", NAT, Var("x")))
    both = app(second, Const("one"), Const("two"))
    assert beta_normalize(both) == Const("two")
    _evaluates_like_oracle(env, both, Const("two"), Const("one"))
    one_arg = App(second, Const("one"))
    assert (to_nameless(beta_normalize(one_arg))
            == to_nameless(whnf(env, one_arg))
            == to_nameless(term_whnf(env, one_arg))
            == to_nameless(Lam("y", NAT, Var("y"))))


def test_eval_fix_applied_beyond_its_telescope(prelude_env):
    env = prelude_env
    t = app(term_in(env, ADD_BY_FUNCTION), Const("two"), Const("three"))
    _evaluates_like_oracle(env, t, term_in(env, "plus two three"),
                           term_in(env, "plus two two"))


def test_eval_stuck_fix_applied_to_more_arguments(prelude_env):
    env = prelude_env
    add = term_in(env, ADD_BY_FUNCTION)
    n, two = Var("n"), Const("two")
    stuck = app(add, n, two)
    assert whnf(env, stuck) == term_whnf(env, stuck) == stuck
    assert conv(env, stuck, app(add, n, App(Constr("succ"), Const("one"))))
    assert not conv(env, stuck, app(add, n, Const("three")))
    # Stuck on `n` first, then given `two` by a separate application.
    later = App(Lam("g", arrow(NAT, NAT), App(Var("g"), two)), App(add, n))
    assert (to_nameless(whnf(env, later))
            == to_nameless(term_whnf(env, later)) == to_nameless(stuck))
    assert conv(env, later, stuck)
    assert not conv(env, later, app(add, n, Const("three")))
    # A decreasing argument that arrives with a later application is
    # checked then, and unfolds the fix.
    add_on_second = term_in(
        env, "fix add {struct 1} : Nat -> Nat -> Nat := fun (m n : Nat) => "
             "match n as x in Nat return Nat with | zero => m "
             "| succ => fun (k : Nat) => succ (add m k) end")
    later = App(Lam("g", arrow(NAT, NAT), App(Var("g"), two)),
                App(add_on_second, Const("three")))
    _evaluates_like_oracle(env, later, term_in(env, "plus three two"),
                           term_in(env, "plus three three"))


def test_subtype_sorts(prelude_env):
    assert subtype(prelude_env, SortT(PROP), SortT(set_sort(1)))
    assert not subtype(prelude_env, SortT(set_sort(1)), SortT(PROP))
    assert not subtype(prelude_env, SortT(set_sort(0)), SortT(type_sort(1)))


def test_subtype_products(prelude_env):
    small = Prod("_", NAT, SortT(PROP))
    big = Prod("_", NAT, SortT(set_sort(1)))
    assert subtype(prelude_env, small, big)
    assert not subtype(prelude_env, big, small)
    # Domains are compared by conversion, not contravariantly.
    assert not subtype(prelude_env, Prod("_", SortT(set_sort(1)), SortT(PROP)),
                       Prod("_", SortT(PROP), SortT(PROP)))
    # Reflexivity via conversion.
    assert subtype(prelude_env, arrow(NAT, NAT), arrow(NAT, NAT))
    # Codomains are compared under one name for differently named binders.
    named_small = Prod("x", NAT, SortT(set_sort(0)))
    named_big = Prod("y", NAT, SortT(set_sort(1)))
    assert subtype(prelude_env, named_small, named_big)
    assert not subtype(prelude_env, named_big, named_small)
    assert subtype(prelude_env, Prod("x", SortT(set_sort(0)), Var("x")),
                   Prod("y", SortT(set_sort(0)), Var("y")))
    assert not subtype(prelude_env, Prod("x", SortT(set_sort(0)), Var("x")),
                       Prod("y", SortT(set_sort(0)), Var("x")))


def test_subtype_unfolds(prelude_env):
    assert subtype(prelude_env, term_in(prelude_env, "neg Nat"),
                   arrow(NAT, Ind("Empty")))


# ---------------------------------------------------------------------------
# Typing


def test_infer_sorts(prelude_env):
    ctx = Context()
    assert infer(prelude_env, ctx, SortT(PROP)) == SortT(type_sort(1))
    assert infer(prelude_env, ctx, SortT(set_sort(2))) == SortT(type_sort(3))


def test_infer_products(prelude_env):
    ctx = Context()
    # Predicative Set: quantifying over Set_i lands in Set_{i+1}.
    for i in range(4):
        t = Prod("A", SortT(set_sort(i)), Var("A"))
        assert infer(prelude_env, ctx, t) == SortT(set_sort(i + 1))
    # Impredicative Prop: any quantification over a Prop codomain is a Prop.
    t = term_in(prelude_env, "forall (P : Prop), P -> P")
    assert infer(prelude_env, ctx, t) == SortT(PROP)
    t = term_in(prelude_env, "forall (A : Set0) (P : A -> Prop) (x : A), P x")
    assert infer(prelude_env, ctx, t) == SortT(PROP)
    # But the type of predicates is large: its codomain is the sort Prop
    # itself, which lives in Type1.
    t = term_in(prelude_env, "forall (A : Set0), A -> Prop")
    assert infer(prelude_env, ctx, t) == SortT(type_sort(1))


def test_infer_lambda_app(prelude_env):
    ctx = Context()
    t = term_in(prelude_env, "fun (n : Nat) => succ n")
    assert alpha_eq(infer(prelude_env, ctx, t), arrow(NAT, NAT))
    assert infer(prelude_env, ctx, term_in(prelude_env, "id Nat two")) == NAT
    # Dependent application instantiates the codomain.
    assert alpha_eq(infer(prelude_env, ctx, term_in(prelude_env, "id Nat")),
                    arrow(NAT, NAT))


def _applications(t, ctx):
    """Every App node of `t`, with the context it is typed in."""
    stack = [(t, ctx)]
    while stack:
        u, c = stack.pop()
        if type(u) is App:
            yield u, c
        kids = children(u)
        if type(u) in (Prod, Lam, Fix):
            stack += [(kids[0], c), (kids[1], c.extend(u.binder, kids[0]))]
        else:
            stack += [(k, c) for k in kids]


def _infer_by_steps(env, ctx, t):
    """The type of an application the sequential way: reduce the head's
    type to a product and substitute one argument at a time."""
    head, args = unfold_app(t)
    ty = infer(env, ctx, head)
    for arg in args:
        ty = term_whnf(env, ty)
        assert isinstance(ty, Prod)
        ty = term_whnf(env, subst(ty.codomain, ty.binder, arg))
    return ty


def test_infer_spine_matches_sequential_substitution(prelude_env):
    # infer types a spine by binding the head type's binders to the
    # arguments' values; read back, the result must be the same type, up to
    # the names of binders, as substituting the arguments one by one.
    seen = 0
    for name in prelude_env.names():
        defn = prelude_env.definition(name)
        if defn is None:
            continue
        for t, ctx in _applications(defn.body, Context()):
            assert alpha_eq(infer(prelude_env, ctx, t),
                            _infer_by_steps(prelude_env, ctx, t)), name
            seen += 1
    assert seen > 90


def test_infer_globals(prelude_env):
    ctx = Context()
    assert infer(prelude_env, ctx, NAT) == SortT(set_sort(0))
    assert alpha_eq(infer(prelude_env, ctx, Constr("succ")), arrow(NAT, NAT))
    assert alpha_eq(infer(prelude_env, ctx, Const("plus")),
                    arrow(NAT, arrow(NAT, NAT)))


def _nat_bool_env():
    env = GlobalEnv()
    declare_inductive(env, InductiveDecl("Nat", 0, SortT(set_sort(0)), (
        ("zero", NAT), ("succ", arrow(NAT, NAT)))))
    declare_inductive(env, InductiveDecl("Bool", 0, SortT(set_sort(0)), (
        ("true", BOOL), ("false", BOOL))))
    return env


def test_a_type_shared_by_two_environments_is_evaluated_in_each():
    # One type term, F, in two environments that define F differently: g's
    # type is Nat in the first and Bool in the second, wherever the first
    # was computed.
    f = Const("F")
    env1, env2 = _nat_bool_env(), _nat_bool_env()
    for env, value, g in ((env1, NAT, Constr("zero")),
                          (env2, BOOL, Constr("true"))):
        declare_definition(env, "F", SortT(set_sort(0)), value)
        declare_definition(env, "g", f, g)
    declare_definition(env1, "h", NAT, Const("g"))
    with pytest.raises(TypeCheckError) as err:
        declare_definition(env2, "h", NAT, Const("g"))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    assert env2.definition("h") is None


def test_a_global_referred_to_as_another_kind_is_unknown(prelude_env):
    # Nat is an inductive, succ a constructor and plus a definition; each
    # name means nothing as a reference of another kind, before or after
    # its own kind was used.
    for name, right, wrong, what in (
            ("Nat", Ind, Constr, "constructor"),
            ("succ", Constr, Const, "definition"),
            ("plus", Const, Ind, "inductive")):
        for t in (wrong(name), right(name), wrong(name)):
            if type(t) is right:
                infer(prelude_env, Context(), t)
                continue
            with pytest.raises(TypeCheckError,
                               match=f"unknown {what} {name}$") as err:
                infer(prelude_env, Context(), t)
            assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
            assert not conv(prelude_env, t, right(name))


def test_a_name_declared_as_two_kinds_in_a_provisional_copy(prelude_env):
    # Checking an inductive named like another inductive's constructor
    # sees both under that name, whichever is used first.
    for first, second in ((Ind, Constr), (Constr, Ind)):
        env = prelude_env.with_provisional(
            InductiveDecl("zero", 0, SortT(set_sort(1)), ()))
        types = {Ind: SortT(set_sort(1)), Constr: NAT}
        for kind in (first, second, first):
            assert infer(env, Context(), kind("zero")) == types[kind]
        assert not conv(env, Ind("zero"), Constr("zero"))


def test_infer_context_and_unbound(prelude_env):
    ctx = Context().extend("n", NAT)
    assert infer(prelude_env, ctx, Var("n")) == NAT
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, Context(), Var("nowhere"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE


def test_infer_errors(prelude_env):
    ctx = Context()
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, App(Constr("zero"), Constr("zero")))
    assert err.value.kind == ErrorKind.NOT_A_FUNCTION
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, App(Constr("succ"), Constr("true")))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    with pytest.raises(TypeCheckError) as err:
        check(prelude_env, ctx, Constr("zero"), BOOL)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    with pytest.raises(TypeCheckError) as err:
        infer_sort(prelude_env, ctx, Constr("zero"))
    assert err.value.kind == ErrorKind.NOT_A_SORT


def test_check_uses_cumulativity(prelude_env):
    ctx = Context()
    # A Prop lives in Set1 by cumulativity.
    prop_ty = term_in(prelude_env, "forall (P : Prop), P -> P")
    check(prelude_env, ctx, prop_ty, SortT(set_sort(1)))
    with pytest.raises(TypeCheckError):
        check(prelude_env, ctx, SortT(set_sort(1)), SortT(set_sort(1)))


def test_infer_case(prelude_env):
    ctx = Context().extend("n", NAT)
    t = term_in(prelude_env, "match n as x in Nat return Bool "
                             "with | zero => true | succ k => false end")
    # Elaboration rebuilds the scrutinee binding, so retype in ctx.
    assert infer(prelude_env, ctx, t) == BOOL


def test_case_branches_with_fewer_lams_than_fields(prelude_env):
    # A branch that runs out of Lams before its constructor's fields is
    # compared, field by field, with its inferred product.
    t = term_in(prelude_env, "fun (n : Nat) => match n as x in Nat "
                             "return Nat -> Nat with "
                             "| zero => fun (m : Nat) => m | succ => plus end")
    assert alpha_eq(infer(prelude_env, Context(), t),
                    arrow(NAT, arrow(NAT, NAT)))
    t = term_in(prelude_env, "fun (A : Set0) (l : List A) => "
                             "match l as y in List A return Nat with "
                             "| nil => zero | cons => fun (x : A) => length A "
                             "end")
    assert print_term(infer(prelude_env, Context(), t)) == (
        "forall (A : Set0), List A -> Nat")
    t = term_in(prelude_env, "fun (n : Nat) => match n as x in Nat "
                             "return Nat -> Nat with "
                             "| zero => fun (m : Nat) => m | succ => negb end")
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, Context(), t)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    assert err.value.term == Const("negb")
    assert print_term(err.value.expected) == "Nat -> Nat -> Nat"
    assert print_term(err.value.actual) == "Bool -> Bool"
    # A branch whose type has fewer products than the fields left.
    t = term_in(prelude_env, "fun (n : Nat) => match n as x in Nat "
                             "return Nat with | zero => zero | succ => zero "
                             "end")
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, Context(), t)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    assert print_term(err.value.expected) == "Nat -> Nat"
    assert print_term(err.value.actual) == "Nat"


def test_case_motive_index_variables_are_distinct(fresh_env):
    # The motive's index variables are named after the arity's binders
    # (n, n1), each fresh for the context.  With `n` in the context the
    # first becomes n1, and the second must not become n1 as well, or a
    # motive over T j j would pass for one over T i j.
    mk_ty = app(Ind("T"), Constr("zero"), App(Constr("succ"), Constr("zero")))
    declare_inductive(fresh_env, InductiveDecl(
        "T", 0, Prod("n", NAT, Prod("n1", NAT, SortT(set_sort(0)))),
        (("mk", mk_ty),)))
    ctx = Context().extend("n", NAT).extend("s", mk_ty)

    def case(a, b):
        motive = Lam("i", NAT, Lam("j", NAT, Lam(
            "x", app(Ind("T"), Var(a), Var(b)), NAT)))
        return Case("T", Var("s"), (), motive, (Constr("zero"),))

    assert infer(fresh_env, ctx, case("i", "j")) == NAT
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, ctx, case("j", "j"))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE

def test_infer_case_errors(prelude_env):
    ctx = Context().extend("n", NAT)
    motive = Lam("x", NAT, BOOL)
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, Case("Nat", Var("n"), (), motive,
                                     (Constr("true"),)))
    assert err.value.kind == ErrorKind.ARITY_MISMATCH
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx, Case("Nat", Constr("true"), (), motive,
                                     (Constr("true"), Lam("k", NAT, Constr("false")))))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE


def _rejects(env, kind, message, run):
    """Run `run`, which must raise a TypeCheckError of `kind` with
    `message`, whose expected and actual terms print as the command line
    prints them."""
    with pytest.raises(TypeCheckError) as err:
        run()
    assert err.value.kind == kind
    assert err.value.message == message
    for term in (err.value.expected, err.value.actual):
        if term is not None:
            print_term(term, env)


def _cli_rejects(tmp_path, capsys, source, kind, message):
    """`rcic check` of the prelude and `source`, which must stop at its
    last declaration with `kind` and `message` and print no traceback."""
    path = tmp_path / "bad.rcic"
    path.write_text(source)
    assert main(["check", str(prelude_path()), str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {kind.value}: {message}\n" in err


VEC = """
inductive Vec (A : Set0) : Nat -> Set0 :=
  vnil : Vec A zero
| vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).
"""


# 2^10, computed inline: no global stands between a normaliser and the
# numeral's 1,024 nested succs.
BIG = ("((fix f (n : Nat) {struct n} : Nat := match n as m in Nat return Nat "
       "with | zero => succ zero | succ k => (fix p (a : Nat) (b : Nat) "
       "{struct a} : Nat := match a as a0 in Nat return Nat with | zero => b "
       "| succ j => succ (p j b) end) (f k) (f k) end) "
       + "(succ " * 10 + "zero" + ")" * 11)


def test_an_inferred_lam_type_is_not_normalised(tmp_path, capsys):
    # The Lam's product is read back with BIG as it stands, as it is when
    # the Lam is checked against a product instead of inferred.
    path = tmp_path / "big.rcic"
    path.write_text(
        "inductive Eq (A : Set0) (x : A) : A -> Prop := refl : Eq A x x.\n"
        f"def g : Unit -> Eq Nat {BIG} {BIG} := "
        f"fun (u : Unit) => refl Nat {BIG}.\n"
        f"def h : Eq Nat {BIG} {BIG} := (fun (u : Unit) => refl Nat {BIG}) tt."
        "\n")
    assert main(["check", str(prelude_path()), str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("h : Eq Nat ")


def test_infer_rejects_unknown_globals(prelude_env):
    for t, message in ((Ind("Nope"), "unknown inductive Nope"),
                       (Constr("nope"), "unknown constructor nope"),
                       (Case("Nope", Constr("zero"), (), Lam("x", NAT, NAT),
                             ()), "unknown inductive Nope")):
        _rejects(prelude_env, ErrorKind.UNBOUND_VARIABLE, message,
                 lambda: infer(prelude_env, Context(), t))


def test_infer_case_rejects_ill_formed_cases(fresh_env):
    env = load_declarations(fresh_env, VEC)
    vec = term_in(env, "Vec Nat zero")
    ctx = Context().extend("l", term_in(env, "List Nat")).extend(
        "bare", Ind("List")).extend("v", vec)
    branches = (Constr("zero"),
                term_in(env, "fun (h : Nat) (t : List Nat) => zero"))
    vec_branches = (Constr("zero"), term_in(
        env, "fun (n : Nat) (h : Nat) (t : Vec Nat n) => zero"))
    to_nat = Lam("x", term_in(env, "List Nat"), NAT)
    for t, kind, message in (
            (Case("List", Var("l"), (), to_nat, branches),
             ErrorKind.ARITY_MISMATCH,
             "case over List takes 1 parameters, got 0"),
            (Case("List", Var("bare"), (NAT,), to_nat, branches),
             ErrorKind.ARITY_MISMATCH,
             "scrutinee type applies List to 0 arguments"),
            (Case("Vec", Var("v"), (NAT,), NAT, vec_branches),
             ErrorKind.ARITY_MISMATCH,
             "motive of case over Vec takes too few arguments"),
            (Case("Vec", Var("v"), (NAT,), Lam("i", BOOL, Lam("x", vec, NAT)),
                  vec_branches),
             ErrorKind.NOT_CONVERTIBLE, "motive domain mismatch"),
            (Case("List", Var("l"), (NAT,), NAT, branches),
             ErrorKind.ARITY_MISMATCH,
             "motive of case over List must abstract the scrutinee")):
        _rejects(env, kind, message, lambda: infer(env, ctx, t))


def test_case_rejections_from_the_command_line(tmp_path, capsys):
    # Parameters that disagree with the scrutinee's type, and a motive that
    # lands in no sort.
    _cli_rejects(tmp_path, capsys,
                 "def f : List Nat -> Nat := fun (l : List Nat) =>\n"
                 "  match l as x in List Bool return Nat with\n"
                 "  | nil => zero | cons h t => zero end.\n",
                 ErrorKind.NOT_CONVERTIBLE,
                 "case parameters disagree with the scrutinee")
    _cli_rejects(tmp_path, capsys,
                 "def f : Nat -> Nat := fun (n : Nat) =>\n"
                 "  match n as x in Nat return zero with\n"
                 "  | zero => zero | succ k => zero end.\n",
                 ErrorKind.NOT_A_SORT, "motive must land in a sort")


def test_infer_dependent_case(prelude_env):
    # Large elimination over a small inductive picks the branch type.
    t = term_in(prelude_env, """
        fun (b : Bool) =>
          match b as x in Bool
          return (match x as y in Bool return Set0
                  with | true => Nat | false => Bool end)
          with | true => zero | false => true end
    """)
    ty = infer(prelude_env, Context(), t)
    assert isinstance(ty, Prod)
    assert ty.domain == BOOL


def test_fix_guard_accepts_structural(prelude_env):
    t = term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                             "fun (n : Nat) => match n as x in Nat return Nat "
                             "with | zero => zero | succ k => f k end")
    assert alpha_eq(infer(prelude_env, Context(), t), arrow(NAT, NAT))


def test_fix_guard_violations(prelude_env):
    ctx = Context()
    # Recursion on the argument itself.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                                   "fun (n : Nat) => f n"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # Recursion on something unrelated.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : Nat -> Nat := "
                                   "fun (n : Nat) => f two"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # The decreasing argument must be of inductive type.
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 0} : (Nat -> Nat) -> Nat := "
                                   "fun (g : Nat -> Nat) => f g"))
    assert err.value.kind == ErrorKind.GUARD_VIOLATION
    # The annotation must expose the decreasing argument.
    with pytest.raises(TypeCheckError):
        infer(prelude_env, ctx,
              term_in(prelude_env, "fix f {struct 2} : Nat -> Nat := "
                                   "fun (n : Nat) => n"))


def test_fix_variable_passed_as_a_value(tmp_path, capsys):
    # A bare occurrence of the fix variable is a call missing its
    # decreasing argument, even as the argument of another function.
    _cli_rejects(tmp_path, capsys,
                 "def f : Nat -> Nat :=\n"
                 "  fix f (n : Nat) {struct n} : Nat :=\n"
                 "    match n as x in Nat return Nat with\n"
                 "    | zero => zero\n"
                 "    | succ p => (fun (g : Nat -> Nat) => g p) f end.\n",
                 ErrorKind.GUARD_VIOLATION,
                 "recursive call to f is missing its decreasing argument")


def test_fix_negative_decreasing_index(prelude_env):
    # Only the kernel API can build it; it names no argument.
    fix = Fix("f", arrow(NAT, NAT), Lam("n", NAT, Constr("zero")), -1)
    with pytest.raises(TypeCheckError) as err:
        infer(prelude_env, Context(), fix)
    assert err.value.kind == ErrorKind.GUARD_VIOLATION


def test_fix_nested_call_through_branch(prelude_env):
    # Recursive calls may use a deeper subterm, peeled by two cases.
    t = term_in(prelude_env, """
        fix f {struct 0} : Nat -> Nat :=
          fun (n : Nat) =>
            match n as x in Nat return Nat with
            | zero => zero
            | succ k =>
                match k as y in Nat return Nat with
                | zero => zero
                | succ j => f j
                end
            end
    """)
    assert alpha_eq(infer(prelude_env, Context(), t), arrow(NAT, NAT))


# ---------------------------------------------------------------------------
# Inductive declarations


def test_check_inductive_accepts_prelude(prelude_env):
    for name in ("Bool", "Nat", "List", "Unit", "Empty"):
        assert prelude_env.inductive(name) is not None


def test_check_inductive_types_each_constructor_once():
    # The check types the arity and each constructor type once: it makes
    # no more `_infer` calls than inferring the sort of each of them.
    env = load_declarations(GlobalEnv(),
                            prelude_path().read_text() + VEC_SOURCE)
    for name, calls in check_inductive_calls().items():
        ind = env.inductive(name)
        seed = env.with_provisional(InductiveDecl(name, ind.params,
                                                  ind.arity, ()))
        with counting([(kernel, "_infer")]) as typed:
            infer_sort(env, Context(), ind.arity)
            for _, cty in ind.constructors:
                infer_sort(seed, Context(), cty)
        assert calls <= typed[0], name


def test_inductive_rejections_from_the_command_line(tmp_path, capsys):
    _cli_rejects(tmp_path, capsys, "inductive T : Nat := mk : T.\n",
                 ErrorKind.ILL_FORMED_INDUCTIVE,
                 "T: arity does not end in a sort")
    _cli_rejects(tmp_path, capsys,
                 "inductive D : Nat -> Set0 :=\n"
                 "  mk : D ((fun (X : Set0) => zero) (D zero)).\n",
                 ErrorKind.POSITIVITY_VIOLATION,
                 "D occurs in an index of constructor mk")


def test_inductive_constructor_disagrees_on_a_parameter(fresh_env):
    # mk's parameter is a Set0, which the arity's Set1 parameter accepts by
    # cumulativity, so only the parameter check rejects it.
    decl = InductiveDecl("P", 1, Prod("A", SortT(set_sort(1)),
                                      SortT(set_sort(1))),
                         (("mk", Prod("A", SortT(set_sort(0)),
                                      App(Ind("P"), Var("A")))),))
    _rejects(fresh_env, ErrorKind.ILL_FORMED_INDUCTIVE,
             "P: constructor mk disagrees with the arity on parameter A",
             lambda: check_inductive(fresh_env, decl))


def test_inductive_applied_to_the_wrong_number_of_arguments(fresh_env):
    # A constructor that concludes in its inductive applied to too few or
    # too many arguments is ill typed, so typing it rejects it first.
    arity = arrow(NAT, SortT(set_sort(0)))
    for core, kind, message in (
            (Ind("T"), ErrorKind.NOT_A_SORT, "expected a type"),
            (app(Ind("T"), Constr("zero"), Constr("zero")),
             ErrorKind.NOT_A_FUNCTION, "application head is not a function")):
        decl = InductiveDecl("T", 0, arity, (("mk", core),))
        _rejects(fresh_env, kind, message,
                 lambda: check_inductive(fresh_env, decl))


def test_inductive_positivity(fresh_env):
    bad = InductiveDecl("Bad", 0, SortT(set_sort(0)),
                        (("mk", arrow(arrow(Ind("Bad"), BOOL), Ind("Bad"))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, bad)
    assert err.value.kind == ErrorKind.POSITIVITY_VIOLATION


def test_inductive_negative_parameter_count(fresh_env):
    bad = InductiveDecl("T", -1, SortT(set_sort(0)), (("t", Ind("T")),))
    with pytest.raises(TypeCheckError) as err:
        declare_inductive(fresh_env, bad)
    assert err.value.kind == ErrorKind.ARITY_MISMATCH
    assert fresh_env.inductive("T") is None


def test_inductive_constructor_must_build_self(fresh_env):
    bad = InductiveDecl("Bad", 0, SortT(set_sort(0)), (("mk", NAT),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, bad)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE


def test_inductive_constructor_sort_fits(fresh_env):
    # A Set0 inductive cannot store a Set0, but a Set1 one can.
    field = SortT(set_sort(0))
    too_big = InductiveDecl("Box", 0, SortT(set_sort(0)),
                            (("box", arrow(field, Ind("Box"))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, too_big)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE
    fits = InductiveDecl("Box", 0, SortT(set_sort(1)),
                         (("box", arrow(field, Ind("Box"))),))
    check_inductive(fresh_env, fits)


def test_inductive_prop_is_impredicative(fresh_env):
    # A Prop inductive may store anything: the constructor telescope ends
    # in Prop, so its sort is Prop.
    decl = InductiveDecl("Squash", 0, SortT(PROP),
                         (("squash", arrow(SortT(set_sort(0)), Ind("Squash"))),))
    check_inductive(fresh_env, decl)


def test_inductive_params_must_prefix_constructors(fresh_env):
    arity = Prod("A", SortT(set_sort(0)), SortT(set_sort(0)))
    # The prefix is compared up to alpha, so a renamed binder is fine.
    renamed = InductiveDecl("Wrap", 1, arity,
                            (("wrap", Prod("B", SortT(set_sort(0)),
                                           App(Ind("Wrap"), Var("B")))),))
    check_inductive(fresh_env, renamed)
    # Dropping the parameter binders is not.
    missing = InductiveDecl("Wrap", 1, arity,
                            (("wrap", App(Ind("Wrap"), NAT)),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, missing)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE
    # The built type must apply the parameters themselves, in order.
    crooked = InductiveDecl("Wrap", 1, arity,
                            (("wrap", Prod("A", SortT(set_sort(0)),
                                           App(Ind("Wrap"), NAT))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, crooked)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE
    # A field that shadows the parameter is not the parameter.
    shadowed = InductiveDecl("Wrap", 1, Prod("A", SortT(set_sort(0)),
                                             SortT(set_sort(1))),
                             (("wrap", Prod("A", SortT(set_sort(0)), Prod(
                                 "A", SortT(set_sort(0)),
                                 App(Ind("Wrap"), Var("A"))))),))
    with pytest.raises(TypeCheckError) as err:
        check_inductive(fresh_env, shadowed)
    assert err.value.kind == ErrorKind.ILL_FORMED_INDUCTIVE



def test_inductive_params_renamed_at_once(fresh_env):
    # The constructor names the parameters (B A C) where the arity has
    # (A B C).  Read as the arity's binders, its C : B -> A -> Set0 is the
    # arity's C : A -> B -> Set0.  Renaming one binder at a time (A to B,
    # then B to A) would conflate A and B and reject it.
    s0 = SortT(set_sort(0))
    arity = Prod("A", s0, Prod("B", s0, Prod(
        "C", arrow(Var("A"), arrow(Var("B"), s0)), s0)))
    swapped = Prod("B", s0, Prod("A", s0, Prod(
        "C", arrow(Var("B"), arrow(Var("A"), s0)),
        arrow(Var("B"), app(Ind("T"), Var("B"), Var("A"), Var("C"))))))
    decl = InductiveDecl("T", 3, arity, (("mk", swapped),))
    declare_inductive(fresh_env, decl)
    assert is_small(fresh_env, "T")
    assert print_inductive(decl, fresh_env) == (
        "inductive T (A B : Set0) (C : A -> B -> Set0) : Set0 := "
        "mk : A -> T A B C.")

def test_inductive_indices_must_not_mention_self(fresh_env):
    arity = arrow(NAT, SortT(set_sort(0)))
    bad = InductiveDecl("Deep", 0, arity,
                        (("mk", Prod("x", App(Ind("Deep"), Constr("zero")),
                                     App(Ind("Deep"),
                                         App(Var("length_of"), Var("x")))),)))
    # The index position applies Deep to a term mentioning Deep itself.
    worse = InductiveDecl("Deep", 0, arity,
                          (("mk", App(Ind("Deep"),
                                      Case("Nat", Constr("zero"), (),
                                           Lam("x", NAT, NAT),
                                           (Constr("zero"),
                                            Lam("k", App(Ind("Deep"), Var("k")),
                                                Constr("zero")))))),))
    with pytest.raises(TypeCheckError):
        check_inductive(fresh_env, worse)


def test_declare_indexed_inductive(fresh_env):
    load_declarations(fresh_env, """
        inductive Vec (A : Set0) : Nat -> Set0 :=
          vnil : Vec A zero
        | vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).
    """)
    decl = fresh_env.inductive("Vec")
    assert decl.params == 1
    v = term_in(fresh_env, "vcons Nat zero two (vnil Nat)")
    ty = infer(fresh_env, Context(), v)
    assert alpha_eq(ty, term_in(fresh_env, "Vec Nat (succ zero)"))
    head = term_in(fresh_env, """
        fun (n : Nat) (v : Vec Nat (succ n)) =>
          match v as w in Vec Nat k return Nat with
          | vnil => zero
          | vcons m h t => h
          end
    """)
    infer(fresh_env, Context(), head)


def test_is_small(fresh_env):
    assert is_small(fresh_env, "Nat")
    assert is_small(fresh_env, "Bool")
    assert is_small(fresh_env, "List")
    assert is_small(fresh_env, "Empty")
    declare_inductive(fresh_env,
                      InductiveDecl("Boxed", 0, SortT(set_sort(1)),
                                    (("box", arrow(SortT(set_sort(0)),
                                                   Ind("Boxed"))),)))
    assert not is_small(fresh_env, "Boxed")


def test_strong_elim_gate(fresh_env):
    declare_inductive(fresh_env,
                      InductiveDecl("Boxed", 0, SortT(set_sort(1)),
                                    (("box", arrow(SortT(set_sort(0)),
                                                   Ind("Boxed"))),)))
    unbox = term_in(fresh_env, """
        fun (b : Boxed) =>
          match b as x in Boxed return Set0 with
          | box A => A
          end
    """)
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), unbox, STAR)
    assert err.value.kind == ErrorKind.NON_SMALL_STRONG_ELIM
    # Full mode allows it.
    infer(fresh_env, Context(), unbox, FULL)
    # Small motives over the same inductive stay legal in Star mode.
    weak = term_in(fresh_env, """
        fun (b : Boxed) =>
          match b as x in Boxed return Nat with
          | box A => zero
          end
    """)
    infer(fresh_env, Context(), weak, STAR)


def test_strong_elim_over_small_is_fine(prelude_env):
    t = term_in(prelude_env, """
        fun (b : Bool) =>
          match b as x in Bool return Set0 with
          | true => Nat
          | false => Bool
          end
    """)
    infer(prelude_env, Context(), t, STAR)


def test_subject_reduction_sample(prelude_env):
    rng = random.Random(99)
    body = prelude_env.definition("plus").body
    # Applied, the fixpoint has redexes: delta at the numerals, and fix
    # unfolding once the decreasing argument is constructor-headed.
    for arg in (Const("two"), App(Constr("succ"), Const("one"))):
        reducts = one_step_reducts(prelude_env, App(body, arg))
        assert reducts
        for r in rng.sample(reducts, min(10, len(reducts))):
            check(prelude_env, Context(), r, arrow(NAT, NAT))


# ---------------------------------------------------------------------------
# Locals and globals


def test_a_local_named_like_a_definition_stays_abstract(fresh_env):
    load_declarations(fresh_env, "def T : Set0 := Nat.")
    # The shadowing probe: in this context T is an abstract type, so y is
    # not a Nat.
    ctx = Context((("T", SortT(set_sort(0))), ("y", Var("T"))))
    with pytest.raises(TypeCheckError) as err:
        check(fresh_env, ctx, Var("y"), NAT)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    check(fresh_env, Context((("y", Const("T")),)), Var("y"), NAT)
    # Only the Const is the definition, for conversion, reduction and
    # typing alike.
    assert not conv(fresh_env, Var("T"), NAT)
    assert conv(fresh_env, Const("T"), NAT)
    assert whnf(fresh_env, Var("T")) == Var("T")
    assert whnf(fresh_env, Const("T")) == NAT
    assert infer(fresh_env, ctx, Var("T")) == SortT(set_sort(0))
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), Var("T"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
    with pytest.raises(TypeCheckError) as err:
        infer(fresh_env, Context(), Const("nowhere"))
    assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
    # An unknown Const is stuck, and is not the variable of its name.
    assert not conv(fresh_env, Const("nowhere"), Var("nowhere"))


def test_one_step_reducts_keep_fix_binders(prelude_env):
    # The body of plus is `fix plus ...`; the `plus` it calls is its own
    # binder, not the global, and the unapplied fix has no redex.
    body = prelude_env.definition("plus").body
    assert isinstance(body, Fix) and body.binder == "plus"
    assert one_step_reducts(prelude_env, body) == []


def test_inductive_may_mention_definitions(fresh_env):
    load_declarations(fresh_env, """
        def N : Set0 := Nat.
        inductive Foo : N -> Set0 := foo : Foo zero.
    """)
    assert fresh_env.inductive("Foo").arity == arrow(Const("N"), SortT(set_sort(0)))
    # Free variables are still rejected, by checking in the empty context.
    set0 = SortT(set_sort(0))
    for decl in (InductiveDecl("Bar", 0, arrow(Var("zz"), set0), ()),
                 InductiveDecl("Bar", 0, set0,
                               (("bar", arrow(Var("zz"), Ind("Bar"))),))):
        with pytest.raises(TypeCheckError) as err:
            check_inductive(fresh_env, decl)
        assert err.value.kind == ErrorKind.UNBOUND_VARIABLE
        assert err.value.message == "unbound variable zz"


# ---------------------------------------------------------------------------
# Typing on values: shadowed binders and the term oracle

SET0 = SortT(set_sort(0))
# fun (A : Set0) (x : A) (A : Set0) => x: its type returns the first A.
SHADOWING = Lam("A", SET0, Lam("x", Var("A"), Lam("A", SET0, Var("x"))))


def test_a_shadowed_binder_reads_back_under_a_fresh_name(prelude_env):
    ty = infer(prelude_env, Context(), SHADOWING)
    assert alpha_eq(ty, Prod("A", SET0, Prod("x", Var("A"),
                                             Prod("A1", SET0, Var("A")))))
    applied = app(SHADOWING, NAT, Constr("zero"), BOOL)
    with pytest.raises(TypeCheckError) as err:
        check(prelude_env, Context(), applied, BOOL)
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    check(prelude_env, Context(), applied, NAT)


def test_a_context_entry_shadowed_by_a_later_one(prelude_env):
    # The type of a is the first A, which the second A hides: the first
    # reads back under a fresh name, which the context does not bind.
    ctx = Context((("A", SET0), ("a", Var("A")), ("A", SET0)))
    with pytest.raises(TypeCheckError) as err:
        check(prelude_env, ctx, Var("a"), Var("A"))
    assert err.value.kind == ErrorKind.NOT_CONVERTIBLE
    assert infer(prelude_env, ctx, Var("a")) == Var("A1")
    check(prelude_env, Context((("A", SET0), ("a", Var("A")))), Var("a"),
          Var("A"))


def _agrees_with_term_oracle(env, t):
    return conv(env, infer(env, Context(), t), term_infer(env, Context(), t))


def test_infer_matches_the_term_oracle_on_the_prelude(prelude_env):
    for name in prelude_env.names():
        defn = prelude_env.definition(name)
        if defn is not None:
            assert _agrees_with_term_oracle(prelude_env, defn.body), name
            assert _agrees_with_term_oracle(prelude_env, defn.type), name


def test_infer_matches_the_term_oracle_on_translation_gaps(fresh_env):
    load_declarations(fresh_env, "".join(GAPS.values()))
    for name in GAPS:
        body = fresh_env.definition(name).body
        assert _agrees_with_term_oracle(fresh_env, body), name


def test_infer_matches_the_term_oracle_on_generated_terms(prelude_env):
    for seed in range(3):
        rng = random.Random(seed)
        for _ in range(100):
            t, _ = random_typed(rng, depth=4)
            assert _agrees_with_term_oracle(prelude_env, t), (seed, t)


def test_declaring_the_prelude_substitutes_nothing():
    # After elaboration, the kernel checks every prelude declaration on
    # values: it neither substitutes nor computes free variables.
    env, calls = GlobalEnv(), 0
    targets = [(syntax, "_subst_all"), (syntax, "free_vars"),
               (kernel, "free_vars")]
    for decl in parse_file(prelude_path().read_text()).decls:
        if isinstance(decl, DDef):
            ty, body = elaborate(env, decl.type), elaborate(env, decl.body)
            with counting(targets) as count:
                declare_definition(env, decl.name, ty, body)
        else:
            arity = elaborate(env, decl.arity)
            seed = env.with_provisional(
                InductiveDecl(decl.name, decl.params, arity, ()))
            ctors = tuple((c, elaborate(seed, ty))
                          for c, ty in decl.constructors)
            with counting(targets) as count:
                declare_inductive(env, InductiveDecl(decl.name, decl.params,
                                                     arity, ctors))
        calls += count[0]
    assert len(env.names()) == 35 and calls == 0
