"""Concrete syntax: lexer, parser, and the elaborator to kernel terms.

The parser is environment free and produces kernel term nodes directly,
except that every name is a Var and every match is a RawMatch placeholder.
Elaboration resolves names against a global environment (free names of
inductives, constructors and definitions become Ind, Constr and Const),
renames shadowing binders so binder names are locally unique, and expands
each RawMatch into a fully annotated case: the motive and branch binders
get their types from the inductive's declaration.  `declare` elaborates
and kernel-checks one parsed inductive or definition.

Names ending in ' or _R (`param.is_reserved`) are reserved for generated
copies and witnesses and are rejected unless the caller opts in (useful for
reading generated code back in).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (
    App,
    Case,
    Const,
    Constr,
    Definition,
    Fix,
    GlobalEnv,
    Ind,
    InductiveDecl,
    Lam,
    Prod,
    Sort,
    SortT,
    Term,
    Var,
    app,
    fresh_name,
    lams,
    prods,
    strip_prods,
    subst,
)
from .kernel import STAR, EliminationMode, declare_definition, declare_inductive
from .param import PRIME_SUFFIX, WITNESS_SUFFIX, is_reserved


class ParseError(Exception):
    """A syntax or elaboration error with a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


KEYWORDS = frozenset({
    "forall", "fun", "fix", "struct", "match", "as", "in", "return",
    "with", "end", "def", "inductive", "check", "paramcheck",
})

_SORT_RE = re.compile(r"(Prop|Set(\d+)|Type(\d+))\Z")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_NUMBER_RE = re.compile(r"\d+")

_TWO_CHAR = (":=", "->", "=>")
_ONE_CHAR = "(){}:,.|"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "sort", "number", "symbol", "eof"
    value: object
    line: int
    col: int

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(str(self.value))


def tokenize(text: str, allow_reserved: bool = False) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if text.startswith("(*", i):
            start_line, start_col = line, col
            depth = 0
            while i < n:
                if text.startswith("(*", i):
                    depth += 1
                    advance(2)
                elif text.startswith("*)", i):
                    depth -= 1
                    advance(2)
                    if depth == 0:
                        break
                else:
                    advance(1)
            if depth != 0:
                raise ParseError("unterminated comment", start_line, start_col)
            continue
        if c.isalpha() or c == "_":
            m = _IDENT_RE.match(text, i)
            assert m is not None
            word = m.group(0)
            tok_line, tok_col = line, col
            advance(len(word))
            if word in KEYWORDS:
                tokens.append(Token("keyword", word, tok_line, tok_col))
                continue
            sm = _SORT_RE.match(word)
            if sm is not None:
                tokens.append(Token("sort", _parse_sort(word, tok_line, tok_col),
                                    tok_line, tok_col))
                continue
            if word in ("Set", "Type"):
                raise ParseError(f"{word} needs an explicit level, like {word}1",
                                 tok_line, tok_col)
            if not allow_reserved and is_reserved(word):
                suffix = (PRIME_SUFFIX if word.endswith(PRIME_SUFFIX)
                          else WITNESS_SUFFIX)
                raise ParseError(
                    f"names ending in {suffix} are reserved: {word}",
                    tok_line, tok_col)
            tokens.append(Token("ident", word, tok_line, tok_col))
            continue
        if c.isdigit():
            m = _NUMBER_RE.match(text, i)
            assert m is not None
            tok_line, tok_col = line, col
            advance(len(m.group(0)))
            tokens.append(Token("number", int(m.group(0)), tok_line, tok_col))
            continue
        two = text[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("symbol", two, line, col))
            advance(2)
            continue
        if c in _ONE_CHAR:
            tokens.append(Token("symbol", c, line, col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", None, line, col))
    return tokens


def _parse_sort(word: str, line: int, col: int) -> Sort:
    if word == "Prop":
        return Sort("Prop")
    kind = "Set" if word.startswith("Set") else "Type"
    level = int(word[len(kind):])
    if kind == "Type" and level < 1:
        raise ParseError("Type levels start at 1", line, col)
    return Sort(kind, level)


@dataclass(frozen=True)
class RawMatch(Term):
    """Surface match, before the motive and branch binders are annotated."""

    scrutinee: Term
    as_name: str
    ind: str
    atoms: tuple[Term, ...]  # parameter terms, then index binder names
    motive: Term
    branches: tuple[tuple[str, tuple[str, ...], Term], ...]
    line: int
    col: int


@dataclass(frozen=True)
class DInductive:
    name: str
    params: int
    arity: Term  # parameter binders included
    constructors: tuple[tuple[str, Term], ...]  # types include the parameters
    line: int
    col: int


@dataclass(frozen=True)
class DDef:
    name: str
    type: Term
    body: Term
    line: int
    col: int


@dataclass(frozen=True)
class DCheck:
    term: Term
    line: int
    col: int


@dataclass(frozen=True)
class DParamCheck:
    name: str
    line: int
    col: int


Decl = DInductive | DDef | DCheck | DParamCheck


@dataclass(frozen=True)
class SourceFile:
    decls: tuple[Decl, ...]


class _Parser:
    def __init__(self, text: str, allow_reserved: bool = False):
        self.tokens = tokenize(text, allow_reserved)
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.peek()
        if tok.kind != "symbol" or tok.value != sym:
            raise self.error(f"expected {sym!r}, found {tok.describe()}")
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "keyword" or tok.value != word:
            raise self.error(f"expected {word!r}, found {tok.describe()}")
        return self.next()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected a name, found {tok.describe()}")
        self.next()
        return tok.value

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.value == sym

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value == word

    # Terms.

    def term(self) -> Term:
        if self.at_keyword("forall"):
            self.next()
            binders = self.binder_groups(minimum=1)
            self.expect_symbol(",")
            return prods(binders, self.term())
        if self.at_keyword("fun"):
            self.next()
            binders = self.binder_groups(minimum=1)
            self.expect_symbol("=>")
            return lams(binders, self.term())
        if self.at_keyword("fix"):
            self.next()
            name = self.expect_ident()
            binders = self.binder_groups(minimum=0)
            self.expect_symbol("{")
            self.expect_keyword("struct")
            tok = self.peek()
            if tok.kind == "number":
                decreasing = tok.value
            elif tok.kind == "ident" and any(b == tok.value for b, _ in binders):
                decreasing = next(i for i, (b, _) in enumerate(binders) if b == tok.value)
            else:
                raise self.error(
                    f"expected an argument index or binder name, found {tok.describe()}")
            self.next()
            self.expect_symbol("}")
            self.expect_symbol(":")
            annotation = self.term()
            self.expect_symbol(":=")
            body = self.term()
            # Heading binders abbreviate a product annotation and a lambda body.
            return Fix(name, prods(binders, annotation), lams(binders, body), decreasing)
        return self.arrow()

    def arrow(self) -> Term:
        lhs = self.application()
        if self.at_symbol("->"):
            self.next()
            return Prod("_", lhs, self.term())
        return lhs

    def application(self) -> Term:
        t = self.atom()
        while self.starts_atom():
            t = App(t, self.atom())
        return t

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("ident", "sort"):
            return True
        if tok.kind == "symbol" and tok.value == "(":
            return True
        return tok.kind == "keyword" and tok.value == "match"

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return Var(tok.value)
        if tok.kind == "sort":
            self.next()
            return SortT(tok.value)
        if tok.kind == "symbol" and tok.value == "(":
            self.next()
            t = self.term()
            self.expect_symbol(")")
            return t
        if tok.kind == "keyword" and tok.value == "match":
            return self.match_expr()
        raise self.error(f"expected a term, found {tok.describe()}")

    def match_expr(self) -> Term:
        start = self.expect_keyword("match")
        scrutinee = self.term()
        self.expect_keyword("as")
        as_name = self.expect_ident()
        self.expect_keyword("in")
        ind = self.expect_ident()
        atoms: list[Term] = []
        while self.starts_atom():
            atoms.append(self.atom())
        self.expect_keyword("return")
        motive = self.term()
        self.expect_keyword("with")
        branches: list[tuple[str, tuple[str, ...], Term]] = []
        while self.at_symbol("|"):
            self.next()
            cname = self.expect_ident()
            args: list[str] = []
            while self.peek().kind == "ident":
                args.append(self.expect_ident())
            self.expect_symbol("=>")
            branches.append((cname, tuple(args), self.term()))
        self.expect_keyword("end")
        return RawMatch(scrutinee, as_name, ind, tuple(atoms), motive,
                        tuple(branches), start.line, start.col)

    def binder_groups(self, minimum: int = 0) -> list[tuple[str, Term]]:
        binders: list[tuple[str, Term]] = []
        while self.at_symbol("("):
            self.next()
            names = [self.expect_ident()]
            while self.peek().kind == "ident":
                names.append(self.expect_ident())
            self.expect_symbol(":")
            ty = self.term()
            self.expect_symbol(")")
            binders.extend((name, ty) for name in names)
        if len(binders) < minimum:
            raise self.error(
                f"expected a binder like (x : T), found {self.peek().describe()}")
        return binders

    # Declarations.

    def file(self) -> SourceFile:
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            decls.append(self.decl())
        return SourceFile(tuple(decls))

    def decl(self) -> Decl:
        tok = self.peek()
        if self.at_keyword("def"):
            self.next()
            name = self.expect_ident()
            self.expect_symbol(":")
            ty = self.term()
            self.expect_symbol(":=")
            body = self.term()
            self.expect_symbol(".")
            return DDef(name, ty, body, tok.line, tok.col)
        if self.at_keyword("inductive"):
            self.next()
            name = self.expect_ident()
            binders = self.binder_groups()
            self.expect_symbol(":")
            arity = self.term()
            self.expect_symbol(":=")
            constructors: list[tuple[str, Term]] = []
            if not self.at_symbol("."):
                if self.at_symbol("|"):
                    self.next()
                while True:
                    cname = self.expect_ident()
                    self.expect_symbol(":")
                    ctype = self.term()
                    constructors.append((cname, prods(binders, ctype)))
                    if not self.at_symbol("|"):
                        break
                    self.next()
            self.expect_symbol(".")
            return DInductive(name, len(binders), prods(binders, arity),
                              tuple(constructors), tok.line, tok.col)
        if self.at_keyword("check"):
            self.next()
            t = self.term()
            self.expect_symbol(".")
            return DCheck(t, tok.line, tok.col)
        if self.at_keyword("paramcheck"):
            self.next()
            name = self.expect_ident()
            self.expect_symbol(".")
            return DParamCheck(name, tok.line, tok.col)
        raise self.error(
            f"expected a declaration, found {tok.describe()}")


def parse_term(text: str, allow_reserved: bool = False) -> Term:
    """Parse a single term; the whole input must be consumed."""
    p = _Parser(text, allow_reserved)
    try:
        t = p.term()
    except RecursionError:
        # Input nested beyond the interpreter's recursion limit; the
        # error points at the token the parser had reached.
        raise p.error("nesting too deep") from None
    tok = p.peek()
    if tok.kind != "eof":
        raise p.error(f"unexpected {tok.describe()} after the term")
    return t


def parse_file(text: str, allow_reserved: bool = False) -> SourceFile:
    """Parse a sequence of declarations, each terminated by a period."""
    p = _Parser(text, allow_reserved)
    try:
        return p.file()
    except RecursionError:
        raise p.error("nesting too deep") from None


def elaborate(env: GlobalEnv, t: Term) -> Term:
    """Resolve names and expand matches into annotated cases.

    Bound names stay Var.  A free name becomes an Ind, Constr or Const node
    if it names an inductive, constructor or definition, and stays a Var
    otherwise (a context variable, or unknown).  Binders that shadow an
    enclosing binder or a global are renamed, so every binder name is
    locally unique.
    """
    taken = _names_of(t)
    return _elab(env, t, {}, taken)


def _names_of(t: Term) -> set[str]:
    out: set[str] = set()

    def go(u: Term) -> None:
        match u:
            case Var(name):
                out.add(name)
            case SortT() | Ind() | Constr():
                pass
            case App(fn, arg):
                go(fn)
                go(arg)
            case Prod(binder, domain, codomain) | Lam(binder, domain, codomain):
                out.add(binder)
                go(domain)
                go(codomain)
            case Fix(binder, annotation, body, _):
                out.add(binder)
                go(annotation)
                go(body)
            case Case(_, scrutinee, params, motive, branches):
                go(scrutinee)
                for p in params:
                    go(p)
                go(motive)
                for b in branches:
                    go(b)
            case RawMatch(scrutinee, as_name, _, atoms, motive, branches):
                out.add(as_name)
                go(scrutinee)
                for a in atoms:
                    go(a)
                go(motive)
                for _, args, body in branches:
                    out.update(args)
                    go(body)

    go(t)
    out.discard("_")
    return out


def _bind(env: GlobalEnv, name: str, scope: dict[str, str],
          taken: set[str]) -> tuple[str, dict[str, str]]:
    """Bind `name`, renamed if it shadows a binder or a global.  The kernel
    does not need the latter (a Var is never a global); it keeps printed
    terms unambiguous, as fresh names avoid no Ind or Constr name."""
    if name == "_":
        return name, scope
    if (name in scope or env.lookup(name) is not None
            or env.constructor(name) is not None):
        new = fresh_name(name, frozenset(taken) | set(scope.values()))
    else:
        new = name
    taken.add(new)
    return new, {**scope, name: new}


def _elab(env: GlobalEnv, t: Term, scope: dict[str, str],
          taken: set[str]) -> Term:
    match t:
        case Var(name):
            if name in scope:
                return Var(scope[name])
            entry = env.lookup(name)
            if isinstance(entry, Definition):
                return Const(name)
            if entry is not None:
                return Ind(name)
            if env.constructor(name) is not None:
                return Constr(name)
            return t
        case SortT() | Ind() | Constr() | Const():
            return t
        case App(fn, arg):
            return App(_elab(env, fn, scope, taken),
                       _elab(env, arg, scope, taken))
        case Prod(binder, domain, codomain):
            dom = _elab(env, domain, scope, taken)
            new, inner = _bind(env, binder, scope, taken)
            return Prod(new, dom, _elab(env, codomain, inner, taken))
        case Lam(binder, annotation, body):
            ann = _elab(env, annotation, scope, taken)
            new, inner = _bind(env, binder, scope, taken)
            return Lam(new, ann, _elab(env, body, inner, taken))
        case Fix(binder, annotation, body, decreasing):
            ann = _elab(env, annotation, scope, taken)
            new, inner = _bind(env, binder, scope, taken)
            return Fix(new, ann, _elab(env, body, inner, taken), decreasing)
        case Case(ind, scrutinee, params, motive, branches):
            return Case(ind,
                        _elab(env, scrutinee, scope, taken),
                        tuple(_elab(env, p, scope, taken) for p in params),
                        _elab(env, motive, scope, taken),
                        tuple(_elab(env, b, scope, taken) for b in branches))
        case RawMatch():
            return _elab_match(env, t, scope, taken)
    raise TypeError(f"not a term: {t!r}")


def _elab_match(env: GlobalEnv, rm: RawMatch, scope: dict[str, str],
                taken: set[str]) -> Term:
    decl = env.inductive(rm.ind)
    if decl is None:
        raise ParseError(f"unknown inductive {rm.ind}", rm.line, rm.col)
    arity_binders, _ = strip_prods(decl.arity)
    n_indices = len(arity_binders) - decl.params
    if len(rm.atoms) != decl.params + n_indices:
        raise ParseError(
            f"match on {rm.ind} takes {decl.params} parameter(s) and "
            f"{n_indices} index binder(s), got {len(rm.atoms)}",
            rm.line, rm.col)

    params = tuple(_elab(env, a, scope, taken) for a in rm.atoms[:decl.params])
    index_names: list[str] = []
    for atom in rm.atoms[decl.params:]:
        if not isinstance(atom, Var):
            raise ParseError("match indices must be fresh binder names",
                             rm.line, rm.col)
        index_names.append(atom.name)
    scrutinee = _elab(env, rm.scrutinee, scope, taken)

    # Annotate the motive binders from the declared arity.
    tele = decl.arity
    for p in params:
        assert isinstance(tele, Prod)
        tele = subst(tele.codomain, tele.binder, p)
    inner = scope
    motive_binders: list[tuple[str, Term]] = []
    for given in index_names:
        assert isinstance(tele, Prod)
        if given == "_":
            # The scrutinee binder's type must name every index.
            new = fresh_name("i", frozenset(taken) | set(inner.values()))
            taken.add(new)
        else:
            new, inner = _bind(env, given, inner, taken)
        motive_binders.append((new, tele.domain))
        tele = subst(tele.codomain, tele.binder, Var(new))
    as_ty = app(Ind(rm.ind), *params, *(Var(name) for name, _ in motive_binders))
    as_new, inner = _bind(env, rm.as_name, inner, taken)
    motive_binders.append((as_new, as_ty))
    motive = lams(motive_binders, _elab(env, rm.motive, inner, taken))

    if len(rm.branches) != len(decl.constructors):
        raise ParseError(
            f"match on {rm.ind} needs {len(decl.constructors)} branch(es), "
            f"got {len(rm.branches)}", rm.line, rm.col)
    branches: list[Term] = []
    for (got, args, body), (cname, ctype) in zip(rm.branches,
                                                 decl.constructors):
        if got != cname:
            raise ParseError(
                f"branches must follow declaration order: expected {cname}, "
                f"found {got}", rm.line, rm.col)
        if not args:
            branches.append(_elab(env, body, scope, taken))
            continue
        ctele = ctype
        for p in params:
            assert isinstance(ctele, Prod)
            ctele = subst(ctele.codomain, ctele.binder, p)
        fields, _ = strip_prods(ctele)
        if len(args) != len(fields):
            raise ParseError(
                f"constructor {cname} has {len(fields)} field(s), "
                f"got {len(args)} binder(s)", rm.line, rm.col)
        binner = scope
        field_binders: list[tuple[str, Term]] = []
        for given in args:
            assert isinstance(ctele, Prod)
            new, binner = _bind(env, given, binner, taken)
            field_binders.append((new, ctele.domain))
            ctele = subst(ctele.codomain, ctele.binder, Var(new))
        branches.append(lams(field_binders, _elab(env, body, binner, taken)))

    return Case(rm.ind, scrutinee, params, motive, tuple(branches))


def declare(env: GlobalEnv, decl: DInductive | DDef,
            mode: EliminationMode = STAR) -> InductiveDecl | Definition:
    """Elaborate one parsed inductive or definition, declare it in `env`
    through the kernel, and return the checked entry."""
    if isinstance(decl, DDef):
        declare_definition(env, decl.name, elaborate(env, decl.type),
                           elaborate(env, decl.body), mode)
        return env.definition(decl.name)
    arity = elaborate(env, decl.arity)
    # Constructor types see the inductive, not yet its constructors.
    seed = env.with_provisional(InductiveDecl(decl.name, decl.params, arity, ()))
    ctors = tuple((c, elaborate(seed, ty)) for c, ty in decl.constructors)
    ind = InductiveDecl(decl.name, decl.params, arity, ctors)
    declare_inductive(env, ind, mode)
    return ind
