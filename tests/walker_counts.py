"""Calls of the substitution walkers during `abstraction_check` of b{n}.

b{n} is `fun (x0 ... x{n-1} : Nat) => plus x0 x{n-1}` at `Nat -> ... -> Nat`,
whose translation nests a binder triple per source binder.  The walkers are
`syntax._subst_all` (behind `subst` and `subst_all`) and `kernel._hsubst`
(behind `beta_normalize`); both call themselves through their module
globals, so wrapping those globals counts every call.  The count does not
depend on the machine, so its growth from b20 to b40 is a scaling check
that needs no timing.

    PYTHONPATH=src python tests/walker_counts.py

prints one Markdown line with the counts for b20 and b40 and their ratio.
"""

import sys

from rcic import (Context, GlobalEnv, abstraction_check, declare, kernel,
                  parse_file, prelude_path, syntax)

WALKERS = ((syntax, "_subst_all"), (kernel, "_hsubst"))


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


if __name__ == "__main__":
    b20, b40 = walker_calls(20), walker_calls(40)
    sys.stdout.write(f"Substitution walker calls: b20 {b20}, b40 {b40}, "
                     f"ratio {b40 / b20:.2f}\n")
