"""Concrete syntax: lexer, parser, and the elaborator to kernel terms.

The parser is environment free and produces kernel term nodes directly,
except that every name is a Var and every match is a RawMatch placeholder.
Elaboration resolves names against a global environment (free names of
inductives, constructors and definitions become Ind, Constr and Const),
renames shadowing binders so binder names are locally unique, and expands
each RawMatch into a fully annotated case: the motive and branch binders
get their types from the inductive's declaration.  `declare` elaborates
and kernel-checks one parsed inductive or definition.

The lexer makes one pattern match per token (leading whitespace included)
and returns named tuples; a sort (`Prop`, `Set<n>`, `Type<n>`) is a group of
that pattern.  Identifiers, numbers and symbols are ASCII; any other
character outside a comment is a ParseError, `unexpected character`.  The
parser tells keywords and symbols apart by a token's value alone: no
identifier has a keyword's text, and no other token has a symbol's.

Names ending in ' or _R (`param.is_reserved`) are reserved for generated
copies and witnesses and are rejected unless the caller opts in (useful for
reading generated code back in).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .syntax import (
    App,
    Case,
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
    children,
    fresh_name,
    lams,
    map_children,
    names,
    open_prods,
    prods,
    rebuild_binder,
    strip_prods,
)
from .kernel import (STAR, EliminationMode, declare_definition,
                     declare_inductive)
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

# One match per token, whitespace before it included; the name of the group
# that matched is its kind.  A sort is a whole word (`Set1x` is a word).  A
# character that starts no ASCII token is junk.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]*
    (?: (?P<comment>\(\*)
      | (?P<sort>(?:Prop|Set[0-9]+|Type[0-9]+)(?![A-Za-z0-9_']))
      | (?P<word>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<number>[0-9]+)
      | (?P<symbol>:=|->|=>|[(){}:,.|])
      | (?P<eof>\Z)
      | (?P<junk>[^ \t\r\n]) )
""", re.VERBOSE)
# The delimiters that open and close a nested comment.
_COMMENT_RE = re.compile(r"\(\*|\*\)")


class Token(NamedTuple):
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
    pos = 0  # where the next match starts
    seen = 0  # the newlines before `seen` are counted in `line`
    line = 1
    line_start = 0  # index of the first character of `line`
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", seen, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", seen, start) + 1
        seen = start
        col = start - line_start + 1
        pos = m.end()
        word = m.group(kind)
        if kind == "symbol":
            tokens.append(Token("symbol", word, line, col))
        elif kind == "number":
            tokens.append(Token("number", int(word), line, col))
        elif kind == "comment":
            depth = 1
            for delim in _COMMENT_RE.finditer(text, pos):
                depth += 1 if delim.group() == "(*" else -1
                if depth == 0:
                    pos = delim.end()
                    break
            else:
                raise ParseError("unterminated comment", line, col)
        elif kind == "eof":
            tokens.append(Token("eof", None, line, col))
            return tokens
        elif kind == "junk":
            raise ParseError(f"unexpected character {word!r}", line, col)
        elif kind == "sort":
            tokens.append(Token("sort", _parse_sort(word, line, col),
                                line, col))
        elif word in KEYWORDS:
            tokens.append(Token("keyword", word, line, col))
        elif word in ("Set", "Type"):
            raise ParseError(f"{word} needs an explicit level, like {word}1",
                             line, col)
        elif not allow_reserved and is_reserved(word):
            suffix = (PRIME_SUFFIX if word.endswith(PRIME_SUFFIX)
                      else WITNESS_SUFFIX)
            raise ParseError(f"names ending in {suffix} are reserved: {word}",
                             line, col)
        else:
            tokens.append(Token("ident", word, line, col))


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

    # What syntax.children and syntax.names need of a node kind they do
    # not know.
    def children(self) -> tuple[Term, ...]:
        return (self.scrutinee, *self.atoms, self.motive,
                *(body for _, _, body in self.branches))

    def binders(self) -> tuple[str, ...]:
        return (self.as_name, *(a for _, args, _ in self.branches for a in args))


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

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def at(self, text: str) -> bool:
        """Whether the next token is the keyword or symbol `text`."""
        return self.tokens[self.pos].value == text

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.value != text:
            raise self.error(f"expected {text!r}, found {tok.describe()}")
        return self.next()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected a name, found {tok.describe()}")
        return self.next().value

    # Terms.

    def term(self) -> Term:
        if self.at("forall"):
            self.next()
            binders = self.binder_groups(minimum=1)
            self.expect(",")
            return prods(binders, self.term())
        if self.at("fun"):
            self.next()
            binders = self.binder_groups(minimum=1)
            self.expect("=>")
            return lams(binders, self.term())
        if self.at("fix"):
            self.next()
            name = self.expect_ident()
            binders = self.binder_groups(minimum=0)
            self.expect("{")
            self.expect("struct")
            tok = self.peek()
            bound = [b for b, _ in binders]
            if tok.kind == "number":
                decreasing = tok.value
            elif tok.value in bound:
                decreasing = bound.index(tok.value)
            else:
                raise self.error(
                    f"expected an argument index or binder name, found {tok.describe()}")
            self.next()
            self.expect("}")
            self.expect(":")
            annotation = self.term()
            self.expect(":=")
            body = self.term()
            # Heading binders abbreviate a product annotation and a lambda body.
            return Fix(name, prods(binders, annotation), lams(binders, body), decreasing)
        return self.arrow()

    def arrow(self) -> Term:
        lhs = self.application()
        if self.at("->"):
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
        return tok.kind in ("ident", "sort") or tok.value in ("(", "match")

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident" and tok.value != "_":
            self.next()
            return Var(tok.value)
        if tok.kind == "sort":
            self.next()
            return SortT(tok.value)
        if tok.value == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if tok.value == "match":
            return self.match_expr()
        raise self.error(f"expected a term, found {tok.describe()}")

    def match_expr(self) -> Term:
        start = self.expect("match")
        scrutinee = self.term()
        self.expect("as")
        as_name = self.expect_ident()
        self.expect("in")
        ind = self.expect_ident()
        atoms: list[Term] = []
        while self.starts_atom():
            # `_` stands for an index binder the motive does not name.
            atoms.append(Var(self.next().value) if self.at("_")
                         else self.atom())
        self.expect("return")
        motive = self.term()
        self.expect("with")
        branches: list[tuple[str, tuple[str, ...], Term]] = []
        while self.at("|"):
            self.next()
            cname = self.expect_ident()
            args: list[str] = []
            while self.peek().kind == "ident":
                args.append(self.expect_ident())
            self.expect("=>")
            branches.append((cname, tuple(args), self.term()))
        self.expect("end")
        return RawMatch(scrutinee, as_name, ind, tuple(atoms), motive,
                        tuple(branches), start.line, start.col)

    def binder_groups(self, minimum: int = 0) -> list[tuple[str, Term]]:
        binders: list[tuple[str, Term]] = []
        while self.at("("):
            self.next()
            names = [self.expect_ident()]
            while self.peek().kind == "ident":
                names.append(self.expect_ident())
            self.expect(":")
            ty = self.term()
            self.expect(")")
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
        if self.at("def"):
            self.next()
            name = self.expect_ident()
            self.expect(":")
            ty = self.term()
            self.expect(":=")
            body = self.term()
            self.expect(".")
            return DDef(name, ty, body, tok.line, tok.col)
        if self.at("inductive"):
            self.next()
            name = self.expect_ident()
            binders = self.binder_groups()
            self.expect(":")
            arity = self.term()
            self.expect(":=")
            constructors: list[tuple[str, Term]] = []
            if not self.at("."):
                if self.at("|"):
                    self.next()
                while True:
                    cname = self.expect_ident()
                    self.expect(":")
                    ctype = self.term()
                    constructors.append((cname, prods(binders, ctype)))
                    if not self.at("|"):
                        break
                    self.next()
            self.expect(".")
            return DInductive(name, len(binders), prods(binders, arity),
                              tuple(constructors), tok.line, tok.col)
        if self.at("check"):
            self.next()
            t = self.term()
            self.expect(".")
            return DCheck(t, tok.line, tok.col)
        if self.at("paramcheck"):
            self.next()
            name = self.expect_ident()
            self.expect(".")
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
    otherwise (a context variable, or unknown).  A binder that shadows an
    enclosing binder is renamed, so every binder name is locally unique;
    one named like a global keeps its name.
    """
    return _elab(env, t, {}, _Taken(t))


class _Taken:
    """What a fresh binder name avoids in elaborating `term`: `names(term)`
    (every binder kept as is) and the fresh names so far, so every name in
    scope.  Built on first use: most terms rename no binder."""

    def __init__(self, term: Term):
        self.term = term
        self.names: set[str] | None = None

    def fresh(self, base: str) -> str:
        if self.names is None:
            self.names = names(self.term)
        new = fresh_name(base, self.names)
        self.names.add(new)
        return new


def _bind(name: str, scope: dict[str, str],
          taken: _Taken) -> tuple[str, dict[str, str]]:
    """Bind `name`, renamed only if it shadows an enclosing binder: a Var
    never means a global, so a binder may share a global's name."""
    if name == "_":
        return name, scope
    new = taken.fresh(name) if name in scope else name
    return new, {**scope, name: new}


def _elab(env: GlobalEnv, t: Term, scope: dict[str, str],
          taken: _Taken) -> Term:
    kind = type(t)
    if kind is Var:
        if t.name in scope:
            return Var(scope[t.name])
        return env.reference(t.name) or t
    if kind is App:
        # Application spines nest as deep as their argument count, so this
        # arm recurses directly: one frame per argument, not three through
        # map_children.
        return App(_elab(env, t.fn, scope, taken),
                   _elab(env, t.arg, scope, taken))
    if kind is Prod or kind is Lam or kind is Fix:
        dom, body = children(t)
        dom = _elab(env, dom, scope, taken)
        new, inner = _bind(t.binder, scope, taken)
        return rebuild_binder(t, new, dom, _elab(env, body, inner, taken))
    if kind is RawMatch:
        return _elab_match(env, t, scope, taken)
    return map_children(t, lambda c: _elab(env, c, scope, taken))


def _elab_match(env: GlobalEnv, rm: RawMatch, scope: dict[str, str],
                taken: _Taken) -> Term:
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

    if Var("_") in rm.atoms[:decl.params]:
        raise ParseError("expected a parameter, found '_'", rm.line, rm.col)
    params = tuple(_elab(env, a, scope, taken) for a in rm.atoms[:decl.params])
    index_names: list[str] = []
    for atom in rm.atoms[decl.params:]:
        if not isinstance(atom, Var):
            raise ParseError("match indices must be fresh binder names",
                             rm.line, rm.col)
        index_names.append(atom.name)
    scrutinee = _elab(env, rm.scrutinee, scope, taken)

    # Annotate the motive binders from the declared arity.  Declared
    # arities and constructor types are syntactic product telescopes.
    inner = scope
    index_binders: list[str] = []
    for given in index_names:
        if given == "_":
            # The scrutinee binder's type must name every index.
            new = taken.fresh("i")
        else:
            new, inner = _bind(given, inner, taken)
        index_binders.append(new)
    motive_binders = open_prods(decl.arity, params, index_binders)
    as_ty = app(Ind(rm.ind), *params, *map(Var, index_binders))
    as_new, inner = _bind(rm.as_name, inner, taken)
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
        fields = len(strip_prods(ctype)[0]) - decl.params
        if len(args) != fields:
            raise ParseError(
                f"constructor {cname} has {fields} field(s), "
                f"got {len(args)} binder(s)", rm.line, rm.col)
        binner = scope
        field_names: list[str] = []
        for given in args:
            new, binner = _bind(given, binner, taken)
            field_names.append(new)
        branches.append(lams(open_prods(ctype, params, field_names),
                             _elab(env, body, binner, taken)))

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
