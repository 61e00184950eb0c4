"""Span tracing of rcic's public functions, installed from outside the package.

`Tracer.install` replaces each traced function at every module binding that
refers to it (the defining module and every module that imported it), so
recursive calls through the module global are traced too.  The binding of
`check` inside `rcic.param` gets its own wrapper that names the three
judgments `abstraction_check` makes, in order: source, copy, witness.

Spans (name, start, end, parent) stay in memory in flat arrays and are
written out once, by `Tracer.dump`, when the traced command has returned.
Self time is what is left of a span after its wrapped children.

A traced command runs in one of two passes, because a wrapper costs more
than `free_vars`, which is called millions of times, spends per call:

- The timing pass gives each traced function that calls itself by name a
  private copy whose self-calls reach the copy directly, not the wrapper;
  their time is the enclosing span's.  It runs no counting hooks.  The
  wrappers that remain still cost time: `wrapper_costs` measures it in the
  traced process on throwaway functions, and `summarize` takes it out.
- The counting pass sends self-calls through the wrapper, which counts
  them, and runs hooks that count tokens, nodes and bytes.  Only its counts
  are used.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from pathlib import Path

# Public functions traced per module.  Private helpers (`_infer`, `_subst`,
# `_translate`, ...) are not wrapped: their time is self time of the public
# function that called them.
TRACED = {
    "cli": ("main",),
    "frontend": ("tokenize", "parse_file", "parse_term", "elaborate"),
    "kernel": ("whnf", "conv", "subtype", "check", "infer", "infer_sort",
               "check_guard", "check_inductive", "beta_normalize",
               "declare_definition", "declare_inductive"),
    "param": ("abstraction_check", "translate_definition",
              "translate_inductive", "prime"),
    "syntax": ("free_vars", "subst", "alpha_eq"),
    "printer": ("print_term", "print_definition", "print_inductive"),
}
MODULES = tuple(TRACED)
JUDGMENTS = ("source", "copy", "witness")


def count_nodes(t) -> int:
    """Number of term nodes in `t`, children found through its fields."""
    from rcic.syntax import Term

    n = 0
    stack = [t]
    while stack:
        u = stack.pop()
        n += 1
        for v in u.__dict__.values():
            if isinstance(v, Term):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(w for w in v if isinstance(w, Term))
    return n


class Tracer:
    """Wraps rcic's public functions for one pass (see above) and keeps
    their spans."""

    def __init__(self, counting: bool) -> None:
        self.counting = counting
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_recursive = array("i")  # self-calls that passed through
        self.stack = [-1]
        self.counters = {"frontend.tokens": 0, "frontend.nodes": 0,
                         "param.witness_nodes": 0, "printer.bytes_out": 0}
        self.judged: dict[int, int] = {}
        self.costs = {"inner": 0.0, "outer": 0.0, "pass": 0.0}
        # (module, globals of a private copy, its name), timing pass only
        self.copies: list[tuple] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        stack = self.stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        add_recursive = self.span_recursive.append
        span_name, ends = self.span_name, self.span_end
        recursive = self.span_recursive
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and span_name[top] == nid:
                recursive[top] += 1
                return fn(*args, **kwargs)
            idx = len(ends)
            add_name(nid)
            add_parent(top)
            add_end(0.0)
            add_recursive(0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _judgment(self, fn):
        """Wrapper for `check` as bound in rcic.param."""
        plain = self._wrap(fn, "kernel.check")
        named = [self._wrap(fn, f"kernel.check#{j}",
                            self._count_witness if j == "witness" else None)
                 for j in JUDGMENTS]
        abstraction = self.names.index("param.abstraction_check")
        span_name, stack, judged = self.span_name, self.stack, self.judged

        def check(*args, **kwargs):
            parent = stack[-1]
            if parent < 0 or span_name[parent] != abstraction:
                return plain(*args, **kwargs)
            k = judged.get(parent, 0)
            judged[parent] = k + 1
            return named[min(k, 2)](*args, **kwargs)

        return check

    def _count(self, key: str, measure):
        def after(args, result) -> None:
            self.counters[key] += measure(args, result)
        return after

    def _count_witness(self, args, result) -> None:
        self.counters["param.witness_nodes"] += count_nodes(args[2])

    def install(self) -> None:
        """Wrap every traced function at every rcic module binding."""
        import rcic
        import rcic.cli  # noqa: F401  (loads every traced module)

        printer_ids: set[int] = set()
        span_name, stack = self.span_name, self.stack

        def printed(args, result) -> None:
            parent = stack[-1]
            if parent < 0 or span_name[parent] not in printer_ids:
                self.counters["printer.bytes_out"] += len(result.encode())

        after = {
            "frontend.tokenize": self._count("frontend.tokens",
                                             lambda a, r: len(r)),
            "frontend.elaborate": self._count("frontend.nodes",
                                              lambda a, r: count_nodes(r)),
        }
        wrappers = {}
        for module in MODULES:
            mod = sys.modules[f"rcic.{module}"]
            for fname in TRACED[module]:
                name = f"{module}.{fname}"
                hook = printed if module == "printer" else after.get(name)
                fn = getattr(mod, fname)
                target = fn if self.counting else self._copy(mod, fname, fn)
                wrappers[id(fn)] = self._wrap(
                    target, name, hook if self.counting else None)
                if module == "printer":
                    printer_ids.add(len(self.names) - 1)
        kernel_check = wrappers[id(sys.modules["rcic.kernel"].check)]
        judgment = self._judgment(kernel_check.__wrapped__)
        for mod in [rcic] + [sys.modules[f"rcic.{m}"] for m in MODULES]:
            for attr, value in list(vars(mod).items()):
                if id(value) not in wrappers:
                    continue
                if mod.__name__ == "rcic.param" and attr == "check":
                    setattr(mod, attr, judgment)
                else:
                    setattr(mod, attr, wrappers[id(value)])
        for mod, env, fname in self.copies:
            own = env[fname]
            env.update(vars(mod))
            env[fname] = own

    def _copy(self, mod, fname: str, fn):
        """For the timing pass: a copy of `fn` whose calls to its own name
        reach the copy, or `fn` itself if it never calls its own name.  The
        copy's globals are a snapshot of the module's, filled in with the
        wrappers at the end of `install`."""
        code = getattr(fn, "__code__", None)
        if code is None or fname not in code.co_names:
            return fn
        env = dict(vars(mod))
        copy = types.FunctionType(code, env, fn.__name__, fn.__defaults__,
                                  fn.__closure__)
        copy.__kwdefaults__ = fn.__kwdefaults__
        env[fname] = copy
        self.copies.append((mod, env, fname))
        return copy

    def check_copies(self) -> None:
        """Fail if a module rebound a global while the command ran: the
        private copies would have run with the old value."""
        for mod, env, fname in self.copies:
            for key, value in vars(mod).items():
                if key != fname and key in env and env[key] is not value:
                    raise RuntimeError(
                        f"{mod.__name__}.{key} was rebound during the traced "
                        f"run; the timing copy of {fname} saw the old value")

    def dump(self, path: Path) -> None:
        """Write the spans, counters and wrapper costs: a JSON header line,
        then the span arrays back to back."""
        self.check_copies()
        header = {"names": self.names, "spans": len(self.span_end),
                  "counting": self.counting,
                  "counters": self.counters, "costs": self.costs,
                  "typecodes": [a.typecode for a in self._arrays()]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a in self._arrays():
                a.tofile(f)

    def _arrays(self):
        return (self.span_name, self.span_parent, self.span_start,
                self.span_end, self.span_recursive)


def wrapper_costs(calls: int = 20000, depth: int = 20,
                  reps: int = 7) -> dict[str, float]:
    """Seconds a `Tracer` wrapper adds per call, measured on throwaway
    functions that call through a module-style global, as rcic's do:

    - `inner`: inside the span's [start, end], on top of the call itself;
    - `outer`: outside it, charged to the caller;
    - `pass`: a direct self-call, which only passes through.

    Each figure is the fastest of `reps` tries, so that a slow moment of
    the host does not inflate it.
    """
    ns: dict = {}
    exec("def leaf(k):\n    return k\n"
         "def rec(k):\n    return k if k == 0 else rec(k - 1)\n"
         "def loop(f, n, a):\n    for _ in range(n):\n        f(a)\n", ns)
    leaf, rec, loop = ns["leaf"], ns["rec"], ns["loop"]
    tracer = Tracer(counting=False)
    traced_leaf = tracer._wrap(leaf, "leaf")
    traced_rec = tracer._wrap(rec, "rec")
    clock = time.perf_counter
    best = {"leaf": [], "traced_leaf": [], "rec": [], "traced_rec": []}
    tops = calls // depth
    for _ in range(reps):
        for key, f, n, a in (("leaf", leaf, calls, 0),
                             ("traced_leaf", traced_leaf, calls, 0),
                             ("rec", rec, tops, depth),
                             ("traced_rec", traced_rec, tops, depth)):
            ns["rec"] = traced_rec if key == "traced_rec" else rec
            del tracer.span_end[:], tracer.span_start[:]
            del tracer.span_name[:], tracer.span_parent[:]
            del tracer.span_recursive[:]
            began = clock()
            loop(f, n, a)
            took = clock() - began
            inner = sum(e - s for s, e in zip(tracer.span_start,
                                              tracer.span_end))
            best[key].append((took, inner))
    fastest = {key: min(v) for key, v in best.items()}
    call = fastest["leaf"][0] / calls
    span = fastest["traced_leaf"][0] / calls - call
    inner = max(0.0, fastest["traced_leaf"][1] / calls - call)
    passing = (fastest["traced_rec"][0] - fastest["rec"][0]
               - tops * span) / (tops * depth)
    return {"inner": inner, "outer": max(0.0, span - inner),
            "pass": max(0.0, passing)}


def load(path: Path):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["spans"]
        arrays = []
        for code in header["typecodes"]:
            a = array(code)
            a.fromfile(f, n)
            arrays.append(a)
    return header, arrays


def summarize(path: Path, scale: float = 1.0) -> dict:
    """Per-function self time and call count, inclusive time per span
    name, and the counters, from one dumped trace.  Times have the
    wrappers' own cost taken out and are multiplied by `scale`."""
    header, (names, parents, starts, ends, recursive) = load(path)
    n = header["spans"]
    costs = header["costs"]
    inner, outer, passing = costs["inner"], costs["outer"], costs["pass"]
    fn_names = [name.split("#")[0] for name in header["names"]]
    covered = [0.0] * n    # raw time of wrapped children, with their cost
    inclusive = [0.0] * n  # corrected inclusive time
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    # A child span always comes after its parent, so walking backwards
    # finishes every child before its parent.
    for i in range(n - 1, -1, -1):
        dur = ends[i] - starts[i]
        own = dur - inner - covered[i] - recursive[i] * passing
        inclusive[i] += own
        p = parents[i]
        if p >= 0:
            covered[p] += dur + outer
            inclusive[p] += inclusive[i]
        fn = fn_names[names[i]]
        full = header["names"][names[i]]
        self_s[fn] = self_s.get(fn, 0.0) + own * scale
        calls[fn] = calls.get(fn, 0) + 1 + recursive[i]
        # Meaningful for spans that never nest in themselves, such as
        # cli.main and the abstraction judgments.
        total_s[full] = total_s.get(full, 0.0) + inclusive[i] * scale
    return {"self_s": self_s, "total_s": total_s, "calls": calls,
            "counting": header["counting"], "counters": header["counters"]}
