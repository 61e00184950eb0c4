"""Free theorems read off the relational translation, and the gate on
strong elimination of impredicative inductives.

The relation of a polymorphic function, instantiated at a chosen relation,
is a theorem about every function of its type (Reynolds, Wadler).  For
`id : forall (A : Set0), A -> A`, relating each `a : A` to `tt : Unit`
exactly when `a` equals a fixed `x` proves `id A x = x`.

In an impredicative Prop the translation is sound only if a large
inductive in Prop cannot be eliminated into a Type sort (Keller & Lasson,
CSL 2012): `wit` below projects the type packed in an `Ex`, which the
default elimination mode rejects and which `--full-elim` lets through to a
witness that does not check.
"""

from rcic import (
    PROP,
    App,
    Const,
    Constr,
    Context,
    Ind,
    InductiveDecl,
    Lam,
    Prod,
    SortT,
    Var,
    app,
    check,
    declare_inductive,
    prelude_path,
    translate_definition,
)
from rcic.cli import main
from rcic.syntax import set_sort

SET0 = SortT(set_sort(0))

EX = """
inductive Ex : Prop := ex : forall (A : Set0), A -> Ex.
def wit : Ex -> Set0 :=
  fun (e : Ex) =>
    match e as y in Ex return Set0 with
    | ex => fun (A : Set0) (a : A) => A
    end.
"""


def test_id_free_theorem(fresh_env):
    env = fresh_env
    # inductive eq (A : Set0) (x : A) : A -> Prop := refl : eq A x x.
    A, x, a = Var("A"), Var("x"), Var("a")
    declare_inductive(env, InductiveDecl(
        "eq", 2, Prod("A", SET0, Prod("x", A, Prod("y", A, SortT(PROP)))),
        (("refl", Prod("A", SET0, Prod("x", A, app(Ind("eq"), A, x, x)))),)))
    id_r = translate_definition(env, "id")
    assert id_r.name == "id_R"
    # fun A x => id_R A Unit (fun a u => eq A a x) x tt (refl A x)
    related = Lam("a", A, Lam("u", Ind("Unit"), app(Ind("eq"), A, a, x)))
    proof = Lam("A", SET0, Lam("x", A, app(
        Const("id_R"), A, Ind("Unit"), related, x, Constr("tt"),
        app(Constr("refl"), A, x))))
    # forall (A : Set0) (x : A), eq A (id A x) x
    theorem = Prod("A", SET0, Prod("x", A, app(
        Ind("eq"), A, App(App(Const("id"), A), x), x)))
    check(env, Context(), proof, theorem)


def test_impredicative_gate(tmp_path, capsys):
    source = tmp_path / "ex.rcic"
    source.write_text(EX)
    files = [str(prelude_path()), str(source)]
    assert main(["check", *files]) == 1
    assert "NonSmallStrongElim" in capsys.readouterr().err
    assert main(["param-check", "--full-elim", *files]) == 1
    assert "FAIL wit" in capsys.readouterr().out.splitlines()
