"""Concrete syntax: lexer, parser, and the elaborator to kernel terms.

The parser is environment free and produces kernel term nodes directly,
except that every name is a Var and every match is a RawMatch placeholder.
Elaboration resolves names against a global environment (free names of
inductives, constructors and definitions become Ind, Constr and Const),
renames shadowing binders so binder names are locally unique, and expands
each RawMatch into a fully annotated case: the motive and branch binders
get their types from the inductive's declaration.  `declare` takes every
kind of parsed declaration through the kernel.

The lexer makes one pattern match per token or newline (the spaces after it
included) and builds one tuple per token, without a Python-level call.  The group that matched is the token's kind, so the pattern tells
sorts (`Prop`, `Set<n>`, `Type<n>`), identifiers and reserved names apart;
a keyword is an identifier in KEYWORDS.  Identifiers, numbers and symbols
are ASCII; any other character outside a comment is a ParseError,
`unexpected character`.  The parser tells keywords and symbols apart by a
token's value alone: no identifier has a keyword's text, and no other token
has a symbol's.  It reads arrow chains, the bodies of `forall`, `fun` and
`fix`, and application spines in loops, so only parentheses and the other
parts of a binder form or a match take Python frames per nesting level.

Names ending in ' or _R (`syntax.is_reserved`) are reserved for generated
copies and witnesses and are rejected unless the caller opts in (useful for
reading generated code back in).
"""

from __future__ import annotations

import re
from functools import partial
from operator import itemgetter
from sys import intern
from typing import Callable

from .syntax import (
    PRIME_SUFFIX,
    WITNESS_SUFFIX,
    App,
    Case,
    Context,
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
    _Record,
    _set,
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
from .kernel import (STAR, EliminationMode, ErrorKind, TypeCheckError,
                     declare_definition, declare_inductive, infer)


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

# One match per token or newline, the spaces after it included; the name of
# the group that matched is its kind.  A sort is a whole word (`Set1x` is an
# identifier), and `_parse_sort` rejects `Set` and `Type` without a level.
# Any other word is an identifier (a keyword if it is in KEYWORDS) unless it
# ends like a reserved name.  Spaces start a match only at the start of the
# text and after a comment.  A character that starts no ASCII token is junk.
_WORD_END = r"(?![A-Za-z0-9_'])"
_TOKEN_RE = re.compile(rf"""
    (?: (?P<comment>\(\*)
      | (?P<symbol>:=|->|=>|[(){{}}:,.|])
      | (?P<sort>(?:Prop|Set[0-9]*|Type[0-9]*){_WORD_END})
      | (?P<ident>[A-Za-z_][A-Za-z0-9_']*{_WORD_END}
                  (?<!{re.escape(PRIME_SUFFIX)})(?<!{re.escape(WITNESS_SUFFIX)}))
      | (?P<reserved>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<nl>\n)
      | (?P<number>[0-9]+)
      | (?P<space>[ \t\r]+)
      | (?P<eof>\Z)
      | (?P<junk>.) )
    [ \t\r]*
""", re.VERBOSE)
# The delimiters that open and close a nested comment.
_COMMENT_RE = re.compile(r"\(\*|\*\)")


class Token(tuple):
    """A token: its kind ("ident", "keyword", "sort", "number", "symbol" or
    "eof"), its value, and the line and column where it starts.  A plain
    tuple subclass, which `tokenize` builds with tuple.__new__."""

    __slots__ = ()
    kind = property(itemgetter(0))
    value = property(itemgetter(1))
    line = property(itemgetter(2))
    col = property(itemgetter(3))

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return repr(str(self.value))


def tokenize(text: str, allow_reserved: bool = False) -> list[Token]:
    """The tokens of `text`, then an `eof` token where the text ends.

    Every word and symbol is interned, so equal names share one string."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__
    line = 1
    base = -1  # index of the newline before `line`; col = index - base
    pos = 0  # where scanning starts: the text's start, then a comment's end
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastgroup
            if kind == "ident" or kind == "symbol":
                word = intern(m[kind])
                append(new(Token, ("keyword" if word in KEYWORDS else kind,
                                   word, line, m.start() - base)))
            elif kind == "nl":
                line += 1
                base = m.start()
            elif kind == "number":
                append(new(Token, (kind, int(m[kind]), line,
                                   m.start() - base)))
            elif kind == "sort":
                col = m.start() - base
                append(new(Token, (kind, _parse_sort(m[kind], line, col),
                                   line, col)))
            elif kind == "comment":
                start = m.start()
                depth = 1
                for delim in _COMMENT_RE.finditer(text, start + 2):
                    depth += 1 if delim.group() == "(*" else -1
                    if depth == 0:
                        pos = delim.end()
                        break
                else:
                    raise ParseError("unterminated comment", line,
                                     start - base)
                newlines = text.count("\n", start, pos)
                if newlines:
                    line += newlines
                    base = text.rindex("\n", start, pos)
                break  # scan on from the comment's end
            elif kind == "eof":
                append(new(Token, (kind, None, line, m.start() - base)))
                return tokens
            elif kind == "reserved":
                word = intern(m[kind])
                col = m.start() - base
                if not allow_reserved:
                    suffix = (PRIME_SUFFIX if word.endswith(PRIME_SUFFIX)
                              else WITNESS_SUFFIX)
                    raise ParseError(
                        f"names ending in {suffix} are reserved: {word}",
                        line, col)
                append(new(Token, ("ident", word, line, col)))
            elif kind == "junk":
                raise ParseError(f"unexpected character {m[kind]!r}", line,
                                 m.start() - base)


def _parse_sort(word: str, line: int, col: int) -> Sort:
    if word == "Prop":
        return Sort("Prop")
    kind = "Set" if word.startswith("Set") else "Type"
    if word == kind:
        raise ParseError(f"{word} needs an explicit level, like {word}1",
                         line, col)
    level = int(word[len(kind):])
    if kind == "Type" and level < 1:
        raise ParseError("Type levels start at 1", line, col)
    return Sort(kind, level)


class RawMatch(Term):
    """Surface match, before the motive and branch binders are annotated."""

    __match_args__ = ("scrutinee", "as_name", "ind", "atoms", "motive",
                      "branches", "line", "col")

    def __init__(self, scrutinee: Term, as_name: str, ind: str,
                 atoms: tuple[Term, ...], motive: Term,
                 branches: tuple[tuple[str, tuple[str, ...], Term], ...],
                 line: int, col: int) -> None:
        _set(self, "scrutinee", scrutinee)
        _set(self, "as_name", as_name)
        _set(self, "ind", ind)
        _set(self, "atoms", atoms)  # parameter terms, then index binder names
        _set(self, "motive", motive)
        _set(self, "branches", branches)
        _set(self, "line", line)
        _set(self, "col", col)

    # What syntax.children and syntax.names need of a node kind they do
    # not know.
    def children(self) -> tuple[Term, ...]:
        return (self.scrutinee, *self.atoms, self.motive,
                *(body for _, _, body in self.branches))

    def binders(self) -> tuple[str, ...]:
        return (self.as_name, *(a for _, args, _ in self.branches for a in args))


class DInductive(_Record):
    __match_args__ = ("name", "params", "arity", "constructors", "line", "col")

    def __init__(self, name: str, params: int, arity: Term,
                 constructors: tuple[tuple[str, Term], ...], line: int,
                 col: int) -> None:
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "arity", arity)  # parameter binders included
        # The constructor types include the parameters.
        _set(self, "constructors", constructors)
        _set(self, "line", line)
        _set(self, "col", col)


class DDef(_Record):
    __match_args__ = ("name", "type", "body", "line", "col")

    def __init__(self, name: str, type: Term, body: Term, line: int,
                 col: int) -> None:
        _set(self, "name", name)
        _set(self, "type", type)
        _set(self, "body", body)
        _set(self, "line", line)
        _set(self, "col", col)


class DCheck(_Record):
    __match_args__ = ("term", "line", "col")

    def __init__(self, term: Term, line: int, col: int) -> None:
        _set(self, "term", term)
        _set(self, "line", line)
        _set(self, "col", col)


class DParamCheck(_Record):
    __match_args__ = ("name", "line", "col")

    def __init__(self, name: str, line: int, col: int) -> None:
        _set(self, "name", name)
        _set(self, "line", line)
        _set(self, "col", col)


Decl = DInductive | DDef | DCheck | DParamCheck


class SourceFile(_Record):
    __match_args__ = ("decls",)

    def __init__(self, decls: tuple[Decl, ...]) -> None:
        _set(self, "decls", decls)


class _Parser:
    """A recursive-descent parser over `tokenize`'s list.  The hot methods,
    `term` and `application`, read `tokens[pos]` directly."""

    def __init__(self, text: str, allow_reserved: bool = False):
        self.tokens = tokenize(text, allow_reserved)
        self.pos = 0
        # One Var node per name: nodes are immutable, so one can be shared.
        self.var_nodes: dict[str, Var] = {}

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
        tok = self.tokens[self.pos]
        if tok.value != text:
            raise self.error(f"expected {text!r}, found {tok.describe()}")
        self.pos += 1
        return tok

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise self.error(f"expected a name, found {tok.describe()}")
        self.pos += 1
        return tok.value

    def global_name(self) -> str:
        """The name a declaration gives a global: `_` names nothing."""
        if self.at("_"):
            raise self.error("expected a name, found '_'")
        return self.expect_ident()

    # Terms.

    def term(self) -> Term:
        """A term.  An arrow's target and the body of a `forall`, `fun` or
        `fix` extend as far right as they can, so a chain of them is read
        in one loop and built from the inside out; only parentheses and the
        other parts of a form nest."""
        tokens = self.tokens
        # The forms around the part being read, outermost first, each as
        # the function that wraps it.
        outer: list[Callable[[Term], Term]] = []
        while True:
            kind, value, _, _ = tokens[self.pos]
            if kind == "keyword" and value in ("forall", "fun"):
                self.pos += 1
                binders = self.binder_groups(minimum=1)
                self.expect("," if value == "forall" else "=>")
                outer.append(partial(prods if value == "forall" else lams,
                                     binders))
            elif kind == "keyword" and value == "fix":
                self.pos += 1
                outer.append(self.fix_heading())
            else:
                t = self.application()
                if tokens[self.pos][1] != "->":
                    break
                self.pos += 1
                outer.append(partial(Prod, "_", t))
        for wrap in reversed(outer):
            t = wrap(t)
        return t

    def fix_heading(self) -> Callable[[Term], Term]:
        """Read what follows `fix` up to its body; return the function that
        builds the Fix around the body."""
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
        # Heading binders abbreviate a product annotation and a lambda body.
        return lambda body: Fix(name, prods(binders, annotation),
                                lams(binders, body), decreasing)

    def application(self) -> Term:
        """An application spine, read in a loop: a name, a sort or a
        parenthesised term is read here, a match (and anything that is no
        term) by `atom`."""
        tokens = self.tokens
        var_nodes = self.var_nodes
        pos = self.pos
        t = None
        while True:
            kind, value, _, _ = tokens[pos]
            if kind == "ident" and value != "_":
                arg = (var_nodes.get(value)
                       or var_nodes.setdefault(value, Var(value)))
                pos += 1
            elif kind == "sort":
                arg = SortT(value)
                pos += 1
            elif value == "(":
                self.pos = pos + 1
                arg = self.term()
                self.expect(")")
                pos = self.pos
            elif kind == "ident" or value == "match" or t is None:
                self.pos = pos
                arg = self.atom()
                pos = self.pos
            else:
                break
            t = arg if t is None else App(t, arg)
        self.pos = pos
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
        tokens = self.tokens
        binders: list[tuple[str, Term]] = []
        while tokens[self.pos][1] == "(":
            self.pos += 1
            names = [self.expect_ident()]
            while tokens[self.pos][0] == "ident":
                names.append(self.expect_ident())
            self.expect(":")
            ty = self.term()
            self.expect(")")
            binders += [(name, ty) for name in names]
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
            name = self.global_name()
            self.expect(":")
            ty = self.term()
            self.expect(":=")
            body = self.term()
            self.expect(".")
            return DDef(name, ty, body, tok.line, tok.col)
        if self.at("inductive"):
            self.next()
            name = self.global_name()
            binders = self.binder_groups()
            self.expect(":")
            arity = self.term()
            self.expect(":=")
            constructors: list[tuple[str, Term]] = []
            if not self.at("."):
                if self.at("|"):
                    self.next()
                while True:
                    cname = self.global_name()
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
            name = self.global_name()
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
        # A binder telescope is read in a loop: one frame per telescope,
        # not one per binder.
        levels = []
        while kind is Prod or kind is Lam or kind is Fix:
            dom, body = children(t)
            dom = _elab(env, dom, scope, taken)
            new, scope = _bind(t.binder, scope, taken)
            levels.append((t, new, dom))
            t = body
            kind = type(t)
        out = _elab(env, t, scope, taken)
        for node, new, dom in reversed(levels):
            out = rebuild_binder(node, new, dom, out)
        return out
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


def declare(env: GlobalEnv, decl: Decl, mode: EliminationMode = STAR
            ) -> InductiveDecl | Definition | tuple[Term, Term]:
    """Process one parsed declaration against `env` through the kernel.
    An inductive or a definition is elaborated, checked, declared in `env`
    and returned; a `check` returns its elaborated term and that term's
    type; a `paramcheck` returns the definition it names."""
    match decl:
        case DDef(name):
            declare_definition(env, name, elaborate(env, decl.type),
                               elaborate(env, decl.body), mode)
            return env.definition(name)
        case DInductive(name, params):
            arity = elaborate(env, decl.arity)
            # Constructor types see the inductive, not yet its constructors.
            seed = env.with_provisional(InductiveDecl(name, params, arity, ()))
            ctors = tuple((c, elaborate(seed, ty))
                          for c, ty in decl.constructors)
            ind = InductiveDecl(name, params, arity, ctors)
            declare_inductive(env, ind, mode)
            return ind
        case DCheck(raw_term):
            term = elaborate(env, raw_term)
            return term, infer(env, Context(), term, mode)
        case DParamCheck(name):
            defn = env.definition(name)
            if defn is None:
                raise TypeCheckError(ErrorKind.UNBOUND_VARIABLE,
                                     f"paramcheck needs a definition: {name}")
            return defn
    raise TypeError(f"not a declaration: {decl!r}")
