"""Calls of the term walkers during `abstraction_check` of b{n}.

b{n} is `fun (x0 ... x{n-1} : Nat) => plus x0 x{n-1}` at `Nat -> ... -> Nat`,
whose translation nests a binder triple per source binder.  The walkers are
`syntax._subst_all` (behind `subst` and `subst_all`) and `kernel._quote`,
the read-back behind `beta_normalize`.  The read-back follows binder
bodies, substituted variables and contracted redexes in a loop, so one of
its calls can cover many nodes.  b{n} holds no redex, so nothing is read
back: the kernel contracts the body applied to the binders of its type's
relation as it checks.  Both are called through their module
globals, so wrapping those globals counts every call.  The count does not
depend on the machine, so its growth from b20 to b40 is a scaling check
that needs no timing.

The second count is of `param.prime` calls, also made by
`abstraction_check` of b{n}, for b100 and b200.  `prime` renames a term
to its copy; the translation of a product telescope builds the copy of each
suffix once, from the copy of the suffix below it, so the count grows
linearly in the binder depth.

The third count is of `syntax._subst_all` calls alone, made by
`rcic param-check` of the prelude plus the indexed family `Vec` and three
definitions over it (`VEC_SOURCE`).  The kernel types on values and
substitutes nothing, so the calls are the translation's: renaming binder
triples, rebinding a fix's aliases, and opening the relation's arity for
a translated match, three binders per index.

The fourth count is of `kernel._eval` calls, made by `rcic check` of the
prelude plus `CONV_SOURCE`, a chain of numerals and `refl` proofs of
closed `plus` and `mult` equations over it: kernel conversion decides
them by evaluation, one call per term evaluated apart from its spine.

The fifth count is of `syntax._subst_all` calls made by the same `rcic
check`.  The kernel makes none; any are the elaborator's, which reads
the binder types of a match off the declared telescopes.

The sixth count is of `param.translate_inductive` calls, made by the same
`rcic param-check` as the third.  Each entry point of the translation
asks once for the relation of each inductive its terms mention, before it
translates; the clauses themselves ask for none.

The seventh count is of `kernel._infer` calls made inside
`kernel.check_inductive` while the prelude and `VEC_SOURCE` are declared.
The check types the arity and each constructor type once, the parameter
domains in the loop that binds them, so the count is at most that of
inferring the sort of each of those types.

The eighth count is of `kernel._quote` calls made by the same `rcic
param-check` as the third.  The translation builds every relation in
normal form, so `beta_normalize` reads back only the relations that hold
a redex of the source; the prelude and `Vec` have none.

The ninth count is of the passes of the cyclic garbage collector made
during the same `rcic check` as the fourth, from `gc.get_stats()`.  A run
pauses the collector and makes no pass of its own, so the count is 0; a
pass that the run's allocations made due may still start as soon as the
run re-enables the collector, and would be counted.

The tenth count is of the names the translation probes in its searches
for a fresh name (`param`'s calls of `fresh_name`) while it translates
b64 and b128.  Each level of b{n}'s type renames its binder triple past
the names of the levels before it; a search resumes where the last one
for the same name stopped, so the count grows linearly in n.

    PYTHONPATH=src python tests/walker_counts.py

prints ten Markdown lines: the walker counts for b20 and b40 and their
ratio, the `prime` counts for b100 and b200 and their ratio, the
param-check count, the two check counts, the relation inductive count,
the inductive check count, the read-back count, the collector count, and
the name probes for b64 and b128 and their ratio.
"""

import contextlib
import gc
import io
import sys
import tempfile
from pathlib import Path

from rcic import (Context, GlobalEnv, abstraction_check, declare, kernel,
                  param, parse_file, prelude_path, syntax)
from rcic.cli import main
from rcic.frontend import DInductive

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

# Numerals n0 ... n24 as a definition chain, as in the conv-check
# workload of `bench/gen.py`, and four proofs by conversion over them.
CONV_SOURCE = (
    "inductive Eq (A : Set0) (x : A) : A -> Prop := refl : Eq A x x.\n"
    + "def n0 : Nat := zero.\n"
    + "".join(f"def n{i} : Nat := succ n{i - 1}.\n" for i in range(1, 25))
    + """\
def p0 : Eq Nat (plus n9 n15) n24 := refl Nat n24.
def p1 : Eq Nat (mult n4 n6) n24 := refl Nat n24.
def p2 : Eq Nat (plus n11 n13) (plus n13 n11) := refl Nat (plus n11 n13).
def p3 : Eq Nat (mult n6 n4) (mult n4 n6) := refl Nat (mult n6 n4).
""")


def binder_depth_source(n: int) -> str:
    arrows = " -> ".join(["Nat"] * (n + 1))
    binders = " ".join(f"x{i}" for i in range(n))
    return (f"def b{n} : {arrows} :=\n"
            f"  fun ({binders} : Nat) => plus x0 x{n - 1}.\n")


@contextlib.contextmanager
def counting(targets):
    """Count the calls of each `(module, name)` global in `targets` while
    the block runs, into the one entry of the list it yields."""
    calls = [0]
    originals = [(mod, name, getattr(mod, name)) for mod, name in targets]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    try:
        for mod, name, fn in originals:
            setattr(mod, name, counted(fn))
        yield calls
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


def walker_calls(n: int, targets=WALKERS) -> int:
    """Calls of the `targets` globals (by default the walkers) made by
    `abstraction_check` of b{n} against a fresh prelude environment; the
    declarations themselves are not counted."""
    env = GlobalEnv()
    for decl in parse_file(prelude_path().read_text() +
                           binder_depth_source(n)).decls:
        declare(env, decl)
    defn = env.definition(f"b{n}")
    with counting(targets) as calls:
        assert abstraction_check(env, Context(), defn.body, defn.type)
    return calls[0]


@contextlib.contextmanager
def cli_run(command: str, source: str):
    """A block that runs `rcic <command>` of the prelude plus `source`
    when it calls the function it yields, which returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "source.rcic"
        path.write_text(source)
        with contextlib.redirect_stdout(io.StringIO()):
            yield lambda: main([command, str(prelude_path()), str(path)])


def cli_calls(targets, command: str, source: str) -> int:
    """Calls of the `targets` globals made by `rcic <command>` of the
    prelude plus `source`, which must exit 0."""
    with cli_run(command, source) as run, counting(targets) as calls:
        assert run() == 0
    return calls[0]


def collector_passes(command: str, source: str) -> int:
    """Passes of the cyclic garbage collector, over all generations, made
    by `rcic <command>` of the prelude plus `source`, which must exit 0."""
    with cli_run(command, source) as run:
        before = sum(gen["collections"] for gen in gc.get_stats())
        assert run() == 0
        return sum(gen["collections"] for gen in gc.get_stats()) - before


def name_probes(n: int) -> int:
    """The names probed by `param`'s fresh-name searches while it
    translates b{n}, after the relations of the prelude, which are declared
    first and not counted.  A search from base{start} that returns base{i}
    probes i - start + 1 names; one that starts at the base itself probes
    i + 1, the base counting as base0."""
    env = GlobalEnv()
    for decl in parse_file(prelude_path().read_text() +
                           binder_depth_source(n)).decls:
        declare(env, decl)
    for name in list(env.names()):
        if env.definition(name) is not None and name != f"b{n}":
            param.translate_definition(env, name)
    probes = [0]
    search = param.fresh_name

    def counted(base, avoid, start=0):
        found = search(base, avoid, start)
        index = int(found[len("x" if base == "_" else base):] or 0)
        probes[0] += index - start + 1 if start else index + 1
        return found

    param.fresh_name = counted
    try:
        param.translate_definition(env, f"b{n}")
    finally:
        param.fresh_name = search
    return probes[0]


def check_inductive_calls() -> dict[str, int]:
    """The `kernel._infer` calls made in declaring each inductive of the
    prelude and `VEC_SOURCE`, by name.  Declaring an inductive elaborates
    it, which the kernel takes no part in, and checks it: every call is
    made inside `check_inductive`."""
    env, calls = GlobalEnv(), {}
    for decl in parse_file(prelude_path().read_text() + VEC_SOURCE).decls:
        with counting([(kernel, "_infer")]) as count:
            declare(env, decl)
        if isinstance(decl, DInductive):
            calls[decl.name] = count[0]
    return calls


if __name__ == "__main__":
    b20, b40 = walker_calls(20), walker_calls(40)
    sys.stdout.write(f"Substitution and read-back calls: b20 {b20}, b40 {b40}, "
                     f"ratio {b40 / b20:.2f}\n")
    b100, b200 = (walker_calls(n, [(param, "prime")]) for n in (100, 200))
    sys.stdout.write(f"Copy (prime) calls: b100 {b100}, b200 {b200}, "
                     f"ratio {b200 / b100:.2f}\n")
    subst_calls = cli_calls([(syntax, "_subst_all")], "param-check",
                            VEC_SOURCE)
    sys.stdout.write(f"Substitution walker calls of param-check on the "
                     f"prelude and Vec: {subst_calls}\n")
    eval_calls = cli_calls([(kernel, "_eval")], "check", CONV_SOURCE)
    sys.stdout.write(f"Kernel evaluator calls of check on the prelude and "
                     f"numeral proofs: {eval_calls}\n")
    subst_calls = cli_calls([(syntax, "_subst_all")], "check", CONV_SOURCE)
    sys.stdout.write(f"Substitution walker calls of check on the prelude and "
                     f"numeral proofs: {subst_calls}\n")
    ind_calls = cli_calls([(param, "translate_inductive")], "param-check",
                          VEC_SOURCE)
    sys.stdout.write(f"Relation inductive requests of param-check on the "
                     f"prelude and Vec: {ind_calls}\n")
    infer_calls = sum(check_inductive_calls().values())
    sys.stdout.write(f"Kernel inference calls of the inductive checks of the "
                     f"prelude and Vec: {infer_calls}\n")
    quote_calls = cli_calls([(kernel, "_quote")], "param-check", VEC_SOURCE)
    sys.stdout.write(f"Read-back calls of param-check on the prelude and Vec: "
                     f"{quote_calls}\n")
    passes = collector_passes("check", CONV_SOURCE)
    sys.stdout.write(f"Cyclic collector passes of check on the prelude and "
                     f"numeral proofs: {passes}\n")
    b64, b128 = name_probes(64), name_probes(128)
    sys.stdout.write(f"Fresh-name probes of the translation: b64 {b64}, "
                     f"b128 {b128}, ratio {b128 / b64:.2f}\n")
