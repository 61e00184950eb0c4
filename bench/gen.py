"""Seeded generators for the benchmark's `.rcic` inputs.

Each workload is a function of a seed that returns the source text of one
file, checked after the bundled prelude.  The generators only write text:
rcic never sees the seed, and the same seed gives byte-identical files.

Every generated definition is well typed by construction, so its known
answer is "accepted" under `rcic check` and PASS under `rcic param-check`
(the abstraction theorem).  Large numerals are built as a chain of
definitions `n{i} := succ n{i-1}`, never as nested `succ (...)` literals:
a parenthesised numeral about 256 deep makes the parser recurse past
Python's limit, which is a parser defect for a test, not a benchmark input.
"""

from __future__ import annotations

import random
import re

BOOL = "Bool"
NAT = "Nat"
LIST_NAT = ("List", NAT)
LIST_BOOL = ("List", BOOL)
BASE = (BOOL, NAT, LIST_NAT, LIST_BOOL)


def arrow(*tys):
    """The curried function type tys[0] -> ... -> tys[-1]."""
    out = tys[-1]
    for ty in reversed(tys[:-1]):
        out = ("->", ty, out)
    return out


# Top-level types of generated definitions: base data and first-order
# functions over them.
TOP_TYPES = (
    NAT, NAT, BOOL, LIST_NAT, LIST_BOOL,
    arrow(NAT, NAT), arrow(NAT, BOOL), arrow(BOOL, BOOL),
    arrow(LIST_NAT, NAT), arrow(NAT, LIST_NAT), arrow(NAT, NAT, NAT),
    arrow(BOOL, NAT, NAT), arrow(LIST_BOOL, BOOL),
)


def show_type(ty, atom: bool = False) -> str:
    """Concrete syntax of a generator type; `atom` parenthesises it for an
    argument position."""
    if isinstance(ty, str):
        return ty
    if ty[0] == "List":
        text = f"List {ty[1]}"
    else:
        domain = show_type(ty[1], atom=ty[1][0] == "->")
        text = f"{domain} -> {show_type(ty[2])}"
    return f"({text})" if atom else text


def _paren(text: str) -> str:
    return text if text.isidentifier() else f"({text})"


class TermGen:
    """Type-directed generator of closed well-typed terms over the prelude.

    With `refer`, the generated definitions are indexed by type (`of_type`)
    and, for first-order functions, by result type (`callers`), so later
    definitions call earlier ones as well as prelude functions.  Binder names come from a per-definition counter and never
    shadow.
    """

    def __init__(self, rng: random.Random, refer: bool = True):
        self.rng = rng
        self.refer = refer
        self.of_type: dict = {}  # type -> names, in order of definition
        self.callers: dict = {}  # result type -> [(name, argument type)]
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def definition(self, name: str, ty, depth: int, draws: int = 1,
                   pick=None) -> str:
        """With `draws` > 1, draw that many bodies and keep the one `pick`
        chooses, by default the one of median length, so that sizes, and
        with them costs, vary little."""
        bodies = []
        for _ in range(draws):
            self.counter = 0
            bodies.append(self.term(ty, (), depth))
        body = (pick or median_length)(bodies)
        if self.refer:
            self.of_type.setdefault(ty, []).append(name)
            if ty[0] == "->" and ty[1] in BASE:
                self.callers.setdefault(ty[2], []).append((name, ty[1]))
        return f"def {name} : {show_type(ty)} :=\n  {body}.\n"

    def _names(self, ctx, ty) -> list[str]:
        return [n for n, t in ctx if t == ty] + self.of_type.get(ty, [])

    def leaf(self, ty, ctx) -> str:
        names = self._names(ctx, ty)
        if names and self.rng.random() < 0.6:
            return self.rng.choice(names)
        if ty == NAT:
            return self.rng.choice(("zero", "one", "two", "three"))
        if ty == BOOL:
            return self.rng.choice(("true", "false"))
        if ty[0] == "List":
            return f"nil {ty[1]}"
        x = self.fresh("x")
        body = self.leaf(ty[2], ctx + ((x, ty[1]),))
        return f"fun ({x} : {show_type(ty[1])}) => {body}"

    def term(self, ty, ctx, depth: int) -> str:
        if depth <= 0:
            return self.leaf(ty, ctx)
        if ty[0] == "->":
            x = self.fresh("x")
            body = self.term(ty[2], ctx + ((x, ty[1]),), depth - 1)
            return f"fun ({x} : {show_type(ty[1])}) => {body}"
        d = depth - 1

        def sub(target) -> str:
            return _paren(self.term(target, ctx, d))

        options = [lambda: self.leaf(ty, ctx),
                   lambda: self.case_bool(ty, ctx, d),
                   lambda: self.case_nat(ty, ctx, d),
                   lambda: self.case_list(ty, ctx, d),
                   lambda: f"if_then_else {show_type(ty, atom=True)} "
                           f"{sub(BOOL)} {sub(ty)} {sub(ty)}"]
        callers = [(n, t[1]) for n, t in ctx
                   if t[0] == "->" and t[2] == ty and t[1] in BASE]
        callers += self.callers.get(ty, [])
        if callers:
            def call() -> str:
                name, arg_ty = self.rng.choice(callers)
                return f"{name} {sub(arg_ty)}"
            options.append(call)
        if ty == NAT:
            options += [
                lambda: f"succ {sub(NAT)}",
                lambda: f"plus {sub(NAT)} {sub(NAT)}",
                lambda: f"mult {sub(NAT)} {sub(NAT)}",
                lambda: f"pred {sub(NAT)}",
                lambda: f"double {sub(NAT)}",
                lambda: f"length Nat {sub(LIST_NAT)}",
                lambda: f"head_default Nat {sub(NAT)} {sub(LIST_NAT)}",
                lambda: f"nat_fold Nat {sub(NAT)} {sub(arrow(NAT, NAT))} {sub(NAT)}",
            ]
        elif ty == BOOL:
            options += [
                lambda: f"negb {sub(BOOL)}",
                lambda: f"andb {sub(BOOL)} {sub(BOOL)}",
                lambda: f"orb {sub(BOOL)} {sub(BOOL)}",
                lambda: f"is_zero {sub(NAT)}",
                lambda: f"head_default Bool {sub(BOOL)} {sub(LIST_BOOL)}",
            ]
        else:
            a = ty[1]
            other = NAT if a == BOOL else BOOL
            options += [
                lambda: f"cons {a} {sub(a)} {sub(ty)}",
                lambda: f"singleton {a} {sub(a)}",
                lambda: f"append {a} {sub(ty)} {sub(ty)}",
                lambda: f"rev {a} {sub(ty)}",
                lambda: f"tail {a} {sub(ty)}",
                lambda: f"map {other} {a} {sub(arrow(other, a))} "
                        f"{sub(('List', other))}",
            ]
        return self.rng.choice(options)()

    def case_bool(self, ty, ctx, depth: int) -> str:
        z = self.fresh("z")
        return (f"match {_paren(self.term(BOOL, ctx, depth))} as {z} in Bool "
                f"return {show_type(ty)} with "
                f"| true => {self.term(ty, ctx, depth)} "
                f"| false => {self.term(ty, ctx, depth)} end")

    def case_nat(self, ty, ctx, depth: int) -> str:
        z, k = self.fresh("z"), self.fresh("k")
        inner = ctx + ((k, NAT),)
        return (f"match {_paren(self.term(NAT, ctx, depth))} as {z} in Nat "
                f"return {show_type(ty)} with "
                f"| zero => {self.term(ty, ctx, depth)} "
                f"| succ => fun ({k} : Nat) => {self.term(ty, inner, depth)} end")

    def case_list(self, ty, ctx, depth: int) -> str:
        a = self.rng.choice((NAT, BOOL))
        z, h, t = self.fresh("z"), self.fresh("h"), self.fresh("t")
        inner = ctx + ((h, a), (t, ("List", a)))
        return (f"match {_paren(self.term(('List', a), ctx, depth))} as {z} "
                f"in List {a} return {show_type(ty)} with "
                f"| nil => {self.term(ty, ctx, depth)} "
                f"| cons => fun ({h} : {a}) ({t} : List {a}) => "
                f"{self.term(ty, inner, depth)} end")


def median_length(bodies: list[str]) -> str:
    return sorted(bodies, key=lambda b: len(b.split()))[len(bodies) // 2]


def generated_definitions(rng: random.Random, count: int, prefix: str,
                          depth: int, refer: bool = True,
                          draws: int = 1, pick=None) -> str:
    """`count` definitions whose types cycle through TOP_TYPES in a seeded
    order, so the mix of types, and with it most of the cost, does not
    depend on the seed.  `draws` > 1 narrows each body's size (see
    `TermGen.definition`)."""
    gen = TermGen(rng, refer)
    types = []
    while len(types) < count:
        types += rng.sample(TOP_TYPES, len(TOP_TYPES))
    return "\n".join(gen.definition(f"{prefix}{i}", ty, depth, draws, pick)
                     for i, ty in enumerate(types[:count]))


def bulk_check(seed: int, count: int = 2000) -> str:
    """Many short definitions: work for the lexer, parser, elaborator and
    a shallow `infer`; nothing is translated.  Later definitions call
    earlier ones as well as the prelude."""
    rng = random.Random(f"bulk-check:{seed}")
    return "(* bulk-check *)\n\n" + generated_definitions(rng, count, "g", 2,
                                                          draws=5)


EQ = "inductive Eq (A : Set0) (x : A) : A -> Prop := refl : Eq A x x.\n"


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` draws from [lo, hi], one from each of `count` equal strata,
    in random order: the sum barely moves with the seed."""
    width = (hi - lo + 1) / count
    out = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(out)
    return out


def conv_check(seed: int, numerals: int = 120, proofs: int = 60) -> str:
    """`refl` proofs of closed arithmetic equations: kernel conversion does
    the work through delta, iota and fix unfolding.  The proofs share one
    chain of numerals, so normal-form reuse or lazy delta would pay here.
    Each proof comes right after the last numeral it names, so cheap
    numerals and costly proofs alternate through the whole file and the
    time of every kind of declaration is sampled over the whole run.
    Besides the `proofs` seeded ones there are twelve fixed proofs, the
    same for every seed: four `mult` and eight commutativity proofs whose
    operands lie above the seeded ones' ranges.  They are the slowest, so
    `decl_tail_ms` measures the same proofs whatever the seed."""
    rng = random.Random(f"conv-check:{seed}")
    per_kind = proofs // 3
    half = numerals // 2
    plus_a = _strata(rng, per_kind, 0, half)
    plus_b = _strata(rng, per_kind, 0, half)
    comm_a = _strata(rng, per_kind, 0, half - half // 6)
    comm_b = _strata(rng, per_kind, 0, half - half // 6)
    side = int(numerals ** 0.5)
    mult_a = _strata(rng, per_kind, 1, side - 1)
    mult_b = _strata(rng, per_kind, 1, side - 1)
    top = numerals // side
    mult_a += [side, top, side, top - 1]
    mult_b += [top, side, top - 1, side]
    for i, j in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (0, 3), (3, 0)):
        comm_a.append(half - i)
        comm_b.append(half - j)
    proofs_after = [[] for _ in range(numerals + 1)]
    for a, b in zip(plus_a, plus_b):
        proofs_after[a + b].append(
            f"Eq Nat (plus n{a} n{b}) n{a + b} := refl Nat n{a + b}")
    for a, b in zip(mult_a, mult_b):
        proofs_after[a * b].append(
            f"Eq Nat (mult n{a} n{b}) n{a * b} := refl Nat n{a * b}")
    for a, b in zip(comm_a, comm_b):
        proofs_after[max(a, b)].append(
            f"Eq Nat (plus n{a} n{b}) (plus n{b} n{a}) := refl Nat (plus n{a} n{b})")
    lines = ["(* conv-check *)", "", EQ]
    count = 0
    for i in range(numerals + 1):
        lines.append(f"def n{i} : Nat := " + ("zero." if i == 0
                                             else f"succ n{i - 1}."))
        rng.shuffle(proofs_after[i])
        for text in proofs_after[i]:
            lines.append(f"def p{count} : {text}.")
            count += 1
    return "\n".join(lines) + "\n"


VEC = """\
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


# Estimated param-check cost of a generated body per word, in ms: a least
# squares fit over 390 bodies timed one by one on the measuring host at the
# commit that defined the benchmark (R^2 0.93).  Type arguments and binder
# types count against the call or `fun` they belong to; `match` stands for
# its six keywords.  The estimate only chooses among draws of the seeded
# generator, so a change to rcic never changes the inputs.
PARAM_COST = {
    "map": 10.8, "if_then_else": 5.7, "nat_fold": 5.6, "append": 5.2,
    "cons": 5.1, "fun": 4.1, "length": 4.0, "head_default": 4.0,
    "singleton": 3.9, "tail": 3.8, "nil": 3.75, "rev": 3.5, "match": 8.2,
    "Nat": -3.1, "Bool": -3.0, "List": 0.3, "orb": 1.0, "mult": 1.0,
    "plus": 0.7, "pred": 0.7, "andb": 0.6, "double": 0.6, "one": 0.5,
    "negb": 0.5, "succ": 0.5, "is_zero": 0.4, "two": 0.3,
}
PARAM_TARGET_MS = 5.0


def param_cost(body: str) -> float:
    return sum(PARAM_COST.get(w, 0.0) for w in re.findall(r"[A-Za-z_]+", body))


def nearest_param_target(bodies: list[str]) -> str:
    return min(bodies, key=lambda b: abs(param_cost(b) - PARAM_TARGET_MS))


# One use of every prelude function a generated definition may call.  Under
# param-check a global's relation is translated when it is first used, so
# these fix where that one-time cost falls; without them it falls on
# whichever generated definition happens to come first, for each seed.
FIRST_USES = """\
def w_if_then_else : Nat := if_then_else Nat true zero one.
def w_plus : Nat := plus one two.
def w_mult : Nat := mult two three.
def w_pred : Nat := pred three.
def w_double : Nat := double two.
def w_length : Nat := length Nat (nil Nat).
def w_head_default : Nat := head_default Nat zero (nil Nat).
def w_nat_fold : Nat := nat_fold Nat zero (fun (x : Nat) => x) two.
def w_negb : Bool := negb true.
def w_andb : Bool := andb true false.
def w_orb : Bool := orb true false.
def w_is_zero : Bool := is_zero one.
def w_singleton : List Nat := singleton Nat one.
def w_append : List Nat := append Nat (nil Nat) (nil Nat).
def w_rev : List Nat := rev Nat (nil Nat).
def w_tail : List Nat := tail Nat (nil Nat).
def w_map : List Nat := map Bool Nat (fun (x : Bool) => one) (nil Bool).
"""


def binder_depth(n: int) -> str:
    binders = " ".join(f"x{i}" for i in range(n))
    ty = " -> ".join(["Nat"] * (n + 1))
    return f"def b{n} : {ty} :=\n  fun ({binders} : Nat) => plus x0 x{n - 1}.\n"


def param_check(seed: int, count: int = 100,
                depths: tuple[int, ...] = (4, 8, 12, 16)) -> str:
    """The abstraction check: translation plus three kernel judgments over
    big translated terms with little reduction.  Its cost grows
    super-linearly in binder depth, hence the `b{n}` family.  Each generated
    body is the one of nine draws whose estimated cost is nearest
    PARAM_TARGET_MS, so the per-definition cost barely moves with the
    seed."""
    rng = random.Random(f"param-check:{seed}")
    parts = ["(* param-check *)\n", FIRST_USES, generated_definitions(
        rng, count, "q", 2, refer=False, draws=9, pick=nearest_param_target)]
    parts += [binder_depth(n) for n in depths]
    parts.append(VEC)
    return "\n".join(parts)


WORKLOADS = {
    "bulk-check": ("check", bulk_check),
    "conv-check": ("check", conv_check),
    "param-check": ("param-check", param_check),
}
