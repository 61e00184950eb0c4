"""A fixed pure-Python workload that gauges how fast the host runs right now.

The measuring host's CPU speed drifts on its own, in phases from seconds to
minutes, by a fifth or more.  Each benchmark process runs `quantum()` a few
times next to the work it measures, and the parent scales that process's
timings by `REFERENCE_S / quantum time`.  The reported times are then
seconds at the reference speed, and a slow phase of the host cancels out.

The workload imitates what rcic spends its time on (frozen dataclass terms
with named binders, free-variable sets, capture-avoiding substitution,
alpha-equivalence, string building) but is its own code.  It must never
call rcic, or a change to rcic would move the yardstick with it; and it
must not change, or old and new figures stop being comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# Seconds one quantum took on the host that defined the benchmark, at its
# usual speed (2-vCPU Xeon KVM guest, Python 3.11).  Only the ratio to it
# matters; it fixes the unit of the scaled figures.
REFERENCE_S = 0.015
QUANTA = 3  # quanta run before and after each measured stretch


class T:
    __slots__ = ()


@dataclass(frozen=True)
class V(T):
    name: str


@dataclass(frozen=True)
class A(T):
    fn: T
    arg: T


@dataclass(frozen=True)
class L(T):
    binder: str
    ty: T
    body: T


def fv(t: T) -> frozenset:
    if isinstance(t, V):
        return frozenset((t.name,))
    if isinstance(t, A):
        return fv(t.fn) | fv(t.arg)
    return fv(t.ty) | (fv(t.body) - {t.binder})


def subst(t: T, x: str, v: T, fv_v: frozenset) -> T:
    if isinstance(t, V):
        return v if t.name == x else t
    if isinstance(t, A):
        return A(subst(t.fn, x, v, fv_v), subst(t.arg, x, v, fv_v))
    ty = subst(t.ty, x, v, fv_v)
    if t.binder == x:
        return L(t.binder, ty, t.body)
    if t.binder in fv_v:
        fresh = t.binder + "'"
        body = subst(t.body, t.binder, V(fresh), frozenset((fresh,)))
        return L(fresh, ty, subst(body, x, v, fv_v))
    return L(t.binder, ty, subst(t.body, x, v, fv_v))


def alpha(a: T, b: T, env: dict, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, V):
        return env.get(("a", a.name), a.name) == env.get(("b", b.name), b.name)
    if isinstance(a, A):
        return alpha(a.fn, b.fn, env, depth) and alpha(a.arg, b.arg, env, depth)
    inner = {**env, ("a", a.binder): depth, ("b", b.binder): depth}
    return alpha(a.ty, b.ty, env, depth) and alpha(a.body, b.body, inner,
                                                    depth + 1)


def show(t: T) -> str:
    if isinstance(t, V):
        return t.name
    if isinstance(t, A):
        return f"({show(t.fn)} {show(t.arg)})"
    return f"(fun ({t.binder} : {show(t.ty)}) => {show(t.body)})"


def build(depth: int, k: int) -> T:
    """A fixed term: nested lambdas over a spine of applications."""
    body: T = V(f"x{k % 5}")
    for i in range(depth):
        body = A(A(V("f"), body), V(f"x{(i * 7 + k) % 5}"))
    for i in range(5):
        body = L(f"x{i}", V("N"), body)
    return body


def quantum() -> float:
    """Run the fixed workload once; return its wall time in seconds."""
    start = time.perf_counter()
    for k in range(18):
        t = build(40, k)
        v = A(V("x1"), V("g"))
        s = subst(t, "f", v, fv(v))
        if not alpha(s, subst(build(40, k), "f", v, fv(v)), {}, 0):
            raise AssertionError("calibration workload is broken")
        if len(show(s)) < 100:
            raise AssertionError("calibration workload is broken")
    return time.perf_counter() - start


def quanta(n: int = QUANTA) -> list[float]:
    return [quantum() for _ in range(n)]
