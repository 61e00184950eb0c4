"""Calls of the term walkers during `abstraction_check` of b{n}.

b{n} is `fun (x0 ... x{n-1} : Nat) => plus x0 x{n-1}` at `Nat -> ... -> Nat`,
whose translation nests a binder triple per source binder.  The walkers are
`syntax._subst_all` (behind `subst` and `subst_all`) and `kernel._quote`,
the read-back behind `beta_normalize`.  The read-back follows binder
bodies, substituted variables and contracted redexes in a loop, so one of
its calls can cover many nodes.  Both are called through their module
globals, so wrapping those globals counts every call.  The count does not
depend on the machine, so its growth from b20 to b40 is a scaling check
that needs no timing.

The second count is of `syntax._subst_all` calls alone, made by
`rcic param-check` of the prelude plus the indexed family `Vec` and three
definitions over it (`VEC_SOURCE`): matching on an indexed family opens
product telescopes of relation arities and constructor types.

    PYTHONPATH=src python tests/walker_counts.py

prints two Markdown lines: the counts for b20 and b40 and their ratio, and
the param-check count.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from rcic import (Context, GlobalEnv, abstraction_check, declare, kernel,
                  parse_file, prelude_path, syntax)
from rcic.cli import main

WALKERS = ((syntax, "_subst_all"), (kernel, "_quote"))


# The same text as the `VEC` block of `bench/gen.py`.
VEC_SOURCE = """\
inductive Vec (A : Set0) : Nat -> Set0 :=
  vnil : Vec A zero
| vcons : forall (n : Nat), A -> Vec A n -> Vec A (succ n).

def vhead : forall (A : Set0) (n : Nat), A -> Vec A n -> A :=
  fun (A : Set0) (n : Nat) (d : A) (v : Vec A n) =>
    match v as w in Vec A k return A with
    | vnil => d
    | vcons => fun (m : Nat) (h : A) (t : Vec A m) => h
    end.

def vlen : forall (A : Set0) (n : Nat), Vec A n -> Nat :=
  fix vlen {struct 2} : forall (A : Set0) (n : Nat), Vec A n -> Nat :=
    fun (A : Set0) (n : Nat) (v : Vec A n) =>
      match v as w in Vec A k return Nat with
      | vnil => zero
      | vcons => fun (m : Nat) (h : A) (t : Vec A m) => succ (vlen A m t)
      end.

def vappend : forall (A : Set0) (n m : Nat), Vec A n -> Vec A m -> Vec A (plus n m) :=
  fix vappend {struct 3} :
      forall (A : Set0) (n m : Nat), Vec A n -> Vec A m -> Vec A (plus n m) :=
    fun (A : Set0) (n m : Nat) (v : Vec A n) (w : Vec A m) =>
      match v as x in Vec A k return Vec A (plus k m) with
      | vnil => w
      | vcons => fun (k : Nat) (h : A) (t : Vec A k) =>
          vcons A (plus k m) h (vappend A k m t w)
      end.
"""


def binder_depth_source(n: int) -> str:
    arrows = " -> ".join(["Nat"] * (n + 1))
    binders = " ".join(f"x{i}" for i in range(n))
    return (f"def b{n} : {arrows} :=\n"
            f"  fun ({binders} : Nat) => plus x0 x{n - 1}.\n")


def walker_calls(n: int) -> int:
    """Walker calls made by `abstraction_check` of b{n} against a fresh
    prelude environment; the declarations themselves are not counted."""
    env = GlobalEnv()
    for decl in parse_file(prelude_path().read_text() +
                           binder_depth_source(n)).decls:
        declare(env, decl)
    defn = env.definition(f"b{n}")
    calls = 0
    originals = [(mod, name, getattr(mod, name)) for mod, name in WALKERS]

    def counting(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return wrapper

    try:
        for mod, name, fn in originals:
            setattr(mod, name, counting(fn))
        assert abstraction_check(env, Context(), defn.body, defn.type)
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)
    return calls


def param_check_subst_calls() -> int:
    """`_subst_all` calls made by `rcic param-check` of the prelude plus
    `VEC_SOURCE`, every verdict PASS."""
    calls = 0
    original = syntax._subst_all

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    with tempfile.TemporaryDirectory() as tmp:
        vec = Path(tmp) / "vec.rcic"
        vec.write_text(VEC_SOURCE)
        try:
            syntax._subst_all = counting
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["param-check", str(prelude_path()), str(vec)])
        finally:
            syntax._subst_all = original
    assert code == 0
    return calls


if __name__ == "__main__":
    b20, b40 = walker_calls(20), walker_calls(40)
    sys.stdout.write(f"Substitution and read-back calls: b20 {b20}, b40 {b40}, "
                     f"ratio {b40 / b20:.2f}\n")
    sys.stdout.write(f"Substitution walker calls of param-check on the "
                     f"prelude and Vec: {param_check_subst_calls()}\n")
