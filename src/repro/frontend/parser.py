"""Recursive-descent parser for the surface language's concrete syntax.

The parser elaborates source text directly into the existing
:mod:`repro.surface.ast` / :mod:`repro.surface.types` nodes, so everything
downstream (inference, the levity checks, the cost-model evaluator, the
L→M compiler bridge) works on parsed programs unchanged.

Grammar (``[]`` optional, ``{}`` repetition; see ``docs/FRONTEND.md`` for
the full reference)::

    module  ::= [ 'module' conid 'where' ] { 'import' conid } { decl }
    decl    ::= var '::' type                      -- type signature
              | var { var } '=' expr               -- function binding
    type    ::= 'forall' { binder } '.' type
              | context '=>' type
              | btype [ '->' type ]
    btype   ::= atype { atype }
    atype   ::= conid | varid | '(' type ')' | '(#' [ type {',' type} ] '#)'
              | '(' ')' | '(' ',' ')' | '[' ']'
    binder  ::= varid | '(' varid '::' kind ')'
    kind    ::= akind [ '->' kind ]
    akind   ::= 'Type' | 'Rep' | 'Constraint' | 'TYPE' rep | '(' kind ')'
    rep     ::= RepConName | varid | 'TupleRep' '[' [ rep {',' rep} ] ']'
              | 'SumRep' '[' [ rep {'|' rep} ] ']' | '(' rep ')'
    expr    ::= '\\' { apat } '->' expr
              | 'let' var [ '::' type [';' var] ] '=' expr 'in' expr
              | 'if' expr 'then' expr 'else' expr
              | 'case' expr 'of' '{' alt { ';' alt } [';'] '}'
              | opexpr [ '::' type ]
    opexpr  ::= [ '-' ] fexp { SYMBOL opexpr }     -- precedence climbing
    fexp    ::= aexp { aexp }
    aexp    ::= varid | conid | literal | '(' expr ')' | '(' SYMBOL ')'
              | '(#' [ expr {',' expr} ] '#)' | '(' ')'
    alt     ::= conid { varid } '->' expr | [ '-' ] INT '->' expr
              | [ '-' ] INT# '->' expr
              | '(#' varid {',' varid} '#)' '->' expr | '_' '->' expr
    apat    ::= varid | '(' varid '::' type ')'

Layout is deliberately minimal: **a token in column 1 always begins a new
top-level declaration**.  Expressions and types may continue across lines
as long as continuation lines are indented.  ``case`` alternatives use
explicit braces and semicolons (the same concrete form the AST pretty
printer emits), so no offside rule is needed.

Free lowercase type variables in a signature are implicitly quantified at
kind ``Type`` in first-occurrence order — mirroring both Haskell's implicit
quantification and the display-defaulted output of
:func:`repro.pretty.render_scheme`.  Representation variables must be bound
explicitly by a ``forall (r :: Rep).`` telescope ("never infer levity
polymorphism" applies to the concrete syntax too).

Every error raised here is a :class:`~repro.core.errors.ParseError`
carrying a 1-based line/column position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import ParseError
from ..core.kinds import (
    CONSTRAINT,
    Kind,
    REP_KIND,
    TYPE_LIFTED,
    TypeKind,
)
from ..core.rep import (
    ADDR_REP,
    CHAR_REP,
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    Rep,
    RepVar,
    SumRep,
    TupleRep,
    UNLIFTED,
    WORD_REP,
)
from ..surface.ast import (
    Alternative,
    Decl,
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitChar,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
    Expr,
    FunBind,
    ImportDecl,
    Module,
    ModuleHeader,
    TypeSig,
)
from ..surface.types import (
    BUILTIN_TYCONS,
    Binder,
    ClassConstraint,
    ForAllTy,
    FunTy,
    QualTy,
    SType,
    TyApp,
    TyVar,
    UnboxedTupleTy,
)
from ..telemetry import REGISTRY as _REGISTRY
from .lexer import RESERVED_SYMBOLS, SYMBOL_CHARS, Span, Token, tokenize

#: Names of the nullary representation constructors.
REP_CONSTANTS: Dict[str, Rep] = {
    "LiftedRep": LIFTED,
    "UnliftedRep": UNLIFTED,
    "IntRep": INT_REP,
    "WordRep": WORD_REP,
    "CharRep": CHAR_REP,
    "AddrRep": ADDR_REP,
    "FloatRep": FLOAT_REP,
    "DoubleRep": DOUBLE_REP,
}

#: Infix operator table: name -> (precedence, associativity).
#: Unknown symbolic operators default to ``(9, "left")``.
OPERATOR_TABLE: Dict[str, Tuple[int, str]] = {
    "$": (0, "right"),
    "||": (2, "right"),
    "&&": (3, "right"),
    "==#": (4, "left"), "/=#": (4, "left"),
    "<#": (4, "left"), "<=#": (4, "left"),
    ">#": (4, "left"), ">=#": (4, "left"),
    "==##": (4, "left"), "<##": (4, "left"),
    "+#": (6, "left"), "-#": (6, "left"),
    "+": (6, "left"), "-": (6, "left"),
    "+##": (6, "left"), "-##": (6, "left"),
    "++": (6, "right"),
    "*#": (7, "left"), "*##": (7, "left"), "/##": (7, "left"),
    "*": (7, "left"),
    ".": (9, "right"),
}

#: Precedence of prefix negation (Haskell's unary minus sits at 6, the same
#: level as the binary ``-``).
NEGATE_PREC = 6


def _negated(operand: Expr) -> Expr:
    """Fold prefix minus into literals; elaborate to ``negate`` otherwise."""
    if isinstance(operand, ELitInt):
        return ELitInt(-operand.value)
    if isinstance(operand, ELitIntHash):
        return ELitIntHash(-operand.value)
    if isinstance(operand, ELitDoubleHash):
        return ELitDoubleHash(-operand.value)
    return EApp(EVar("negate"), operand)


def _decl_key(decl: Decl) -> Tuple[str, str]:
    """The ``decl_spans`` key of a declaration (kind tag + name)."""
    if isinstance(decl, TypeSig):
        return ("sig", decl.name)
    if isinstance(decl, ModuleHeader):
        return ("module", decl.name)
    if isinstance(decl, ImportDecl):
        return ("import", decl.name)
    return ("bind", decl.name)


def validate_module_decls(decls: List[Decl], decl_span_list: List[Span],
                          default_name: str) -> str:
    """Enforce module-shape rules and return the module's name.

    A ``module M where`` header must be the *first* declaration (which also
    rules out duplicates), and ``import`` declarations must precede all
    signatures and bindings.  Shared by :meth:`Parser.parse_module` and
    :func:`parse_module_incremental` so both paths reject exactly the same
    shapes with the same spans.
    """
    name = default_name
    seen_code = False
    for index, decl in enumerate(decls):
        span = decl_span_list[index]
        if isinstance(decl, ModuleHeader):
            if index != 0:
                raise ParseError(
                    "the 'module ... where' header must be the first "
                    "declaration in the file", span.line, span.column)
            name = decl.name
        elif isinstance(decl, ImportDecl):
            if seen_code:
                raise ParseError(
                    "imports must appear before all other declarations",
                    span.line, span.column)
        else:
            seen_code = True
    return name


@dataclass
class ParsedModule:
    """A parsed module plus the span bookkeeping the driver needs."""

    module: Module
    filename: str
    source: str
    #: Span of each declaration, keyed by ("sig" | "bind", name).
    decl_spans: Dict[Tuple[str, str], Span] = field(default_factory=dict)
    #: The merged expression-span table once built (see :attr:`expr_spans`).
    _expr_spans: Optional[Dict[int, Span]] = field(default=None, repr=False,
                                                   compare=False)
    #: Span of every declaration instance, parallel to ``module.decls``
    #: (unlike ``decl_spans`` this keeps duplicates: the dependency planner
    #: needs the source slice of *each* declaration).
    decl_span_list: List[Span] = field(default_factory=list)
    #: Optional memoised free-variable references per declaration (parallel
    #: to ``module.decls``; None entries for non-bindings).  Filled by the
    #: incremental parser so the dependency planner need not re-walk
    #: unchanged ASTs; ``None`` as a whole means "compute on demand".
    decl_refs: Optional[List[Optional[FrozenSet[str]]]] = None
    #: Per declaration (parallel to ``module.decls``): its block's
    #: block-relative expression-span table and the block's line offset.
    #: Filled by the incremental parser, whose memoised blocks are shared
    #: by parses that place them at different lines; ``None`` for a
    #: whole-module parse, whose spans are absolute already.
    decl_block_spans: Optional[List[Tuple[Dict[int, Span], int]]] = None

    @property
    def expr_spans(self) -> Dict[int, Span]:
        """Absolute spans of expression nodes, keyed by id(node) (nodes are
        not interned); built on first read for an incremental parse."""
        if self._expr_spans is None:
            spans: Dict[int, Span] = {}
            for table, delta in self.decl_block_spans or ():
                for node_id, span in table.items():
                    spans[node_id] = _shift_span(span, delta)
            self._expr_spans = spans
        return self._expr_spans

    def expr_spans_of(self, decl_index: int):
        """The absolute spans of one declaration's expression nodes, as a
        mapping with ``.get(id(node))`` — shifted on lookup, so checking a
        declaration never copies its block's table."""
        if self.decl_block_spans is None:
            return self.expr_spans
        table, delta = self.decl_block_spans[decl_index]
        return _ShiftedSpans(table, delta) if delta else table

    def span_of_binding(self, name: str) -> Optional[Span]:
        """Best span for diagnostics about the binding ``name``."""
        return (self.decl_spans.get(("bind", name))
                or self.decl_spans.get(("sig", name)))

    def span_of_expr(self, expr: Expr) -> Optional[Span]:
        return self.expr_spans.get(id(expr))


class _ShiftedSpans:
    """A block-relative span table read ``delta`` lines further down."""

    __slots__ = ("table", "delta")

    def __init__(self, table: Dict[int, Span], delta: int) -> None:
        self.table = table
        self.delta = delta

    def get(self, node_id: int, default: Optional[Span] = None
            ) -> Optional[Span]:
        span = self.table.get(node_id)
        if span is None:
            return default
        return _shift_span(span, self.delta)


class _TypeScope:
    """Lexical scope of ``forall``-bound type/representation variables."""

    def __init__(self) -> None:
        self.frames: List[Dict[str, Kind]] = []
        #: Free type variables, in first-occurrence order (implicit forall).
        self.implicit: Dict[str, None] = {}

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def bind(self, name: str, kind: Kind) -> None:
        self.frames[-1][name] = kind

    def lookup(self, name: str) -> Optional[Kind]:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None


class Parser:
    """A recursive-descent parser over the token stream."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.filename = filename
        self.source = source
        self.tokens = tokenize(source, filename)
        # Two extra references to the eof token let _peek index without a
        # bounds check: lookahead never goes past offset 2, and _next never
        # moves past eof.
        self.tokens += [self.tokens[-1]] * 2
        self.pos = 0
        self.scope = _TypeScope()
        self.expr_spans: Dict[int, Span] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def _at_eof(self) -> bool:
        return self._peek().kind == "eof"

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    def _expect(self, kind: str, what: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise self._error(f"expected {what}, found {token.text!r}"
                              if token.kind != "eof"
                              else f"expected {what}, found end of input")
        return self._next()

    def _expect_symbol(self, text: str) -> Token:
        token = self._peek()
        if not token.is_symbol(text):
            raise self._error(f"expected {text!r}, found "
                              + (repr(token.text) if token.kind != "eof"
                                 else "end of input"))
        return self._next()

    def _continues(self) -> bool:
        """May the current construct consume the next token?

        Column 1 is reserved for new top-level declarations, so any token
        there ends whatever expression or type is being parsed.
        """
        token = self._peek()
        return token.kind != "eof" and token.column != 1

    def _note(self, expr: Expr, span: Span) -> Expr:
        self.expr_spans[id(expr)] = span
        return expr

    # =======================================================================
    # Modules and declarations
    # =======================================================================

    def parse_module(self, name: str = "Main",
                     validate: bool = True) -> ParsedModule:
        decls: List[Decl] = []
        decl_spans: Dict[Tuple[str, str], Span] = {}
        decl_span_list: List[Span] = []
        while not self._at_eof():
            token = self._peek()
            if token.kind == "semi":
                self._next()
                continue
            if token.column != 1:
                raise self._error(
                    "declarations must start in column 1 "
                    f"(found {token.text!r} at column {token.column})")
            decl, span = self._parse_decl()
            decls.append(decl)
            decl_span_list.append(span)
            decl_spans.setdefault(_decl_key(decl), span)
        if validate:
            name = validate_module_decls(decls, decl_span_list, name)
        parsed = ParsedModule(Module(name, decls), self.filename, self.source,
                              decl_spans, self.expr_spans, decl_span_list)
        return parsed

    def _parse_decl(self) -> Tuple[Decl, Span]:
        start = self._peek().span
        token = self._peek()
        if token.is_keyword("module"):
            self._next()
            name_token = self._expect("conid", "a module name")
            where = self._peek()
            if not where.is_keyword("where"):
                raise self._error("expected 'where' after the module name")
            self._next()
            return (ModuleHeader(name_token.text),
                    start.merge(self._previous_span()))
        if token.is_keyword("import"):
            self._next()
            name_token = self._expect("conid", "a module name")
            return (ImportDecl(name_token.text),
                    start.merge(self._previous_span()))
        name = self._parse_decl_name()
        if self._peek().is_symbol("::"):
            self._next()
            type_ = self.parse_signature_type()
            return TypeSig(name, type_), start.merge(self._previous_span())
        params: List[str] = []
        while self._peek().kind == "varid":
            params.append(self._next().text)
        self._expect_symbol("=")
        body = self.parse_expr()
        return (FunBind(name, params, body),
                start.merge(self._previous_span()))

    def _parse_decl_name(self) -> str:
        token = self._peek()
        if token.kind == "varid":
            return self._next().text
        if token.kind == "lparen" and self._peek(1).kind == "symbol" \
                and self._peek(2).kind == "rparen":
            self._next()
            name = self._next().text
            self._next()
            return name
        raise self._error("expected a declaration "
                          "(name :: type  or  name args = expr)")

    def _previous_span(self) -> Span:
        return self.tokens[max(self.pos - 1, 0)].span

    # =======================================================================
    # Types
    # =======================================================================

    def parse_signature_type(self) -> SType:
        """A top-level signature type with implicit quantification."""
        outer_implicit = self.scope.implicit
        self.scope.implicit = {}
        try:
            type_ = self.parse_type()
            free = list(self.scope.implicit)
        finally:
            self.scope.implicit = outer_implicit
        if free:
            type_ = ForAllTy(tuple(Binder(n, TYPE_LIFTED) for n in free),
                             type_)
        return type_

    def parse_type(self) -> SType:
        token = self._peek()
        if token.is_keyword("forall"):
            return self._parse_forall()
        context = self._try_parse_context()
        if context is not None:
            body = self.parse_type()
            return QualTy(context, body)
        left = self._parse_btype()
        if self._continues() and self._peek().is_symbol("->"):
            self._next()
            return FunTy(left, self.parse_type())
        return left

    def _parse_forall(self) -> SType:
        self._next()  # 'forall'
        binders: List[Binder] = []
        self.scope.push()
        try:
            while not self._peek().is_symbol("."):
                binders.append(self._parse_forall_binder())
            self._next()  # '.'
            if not binders:
                raise self._error("a forall needs at least one binder")
            body = self.parse_type()
        finally:
            self.scope.pop()
        return ForAllTy(binders, body)

    def _parse_forall_binder(self) -> Binder:
        token = self._peek()
        if token.kind == "varid":
            self._next()
            self.scope.bind(token.text, TYPE_LIFTED)
            return Binder(token.text, TYPE_LIFTED)
        if token.kind == "lparen":
            self._next()
            name = self._expect("varid", "a type variable").text
            self._expect_symbol("::")
            kind = self.parse_kind()
            self._expect("rparen", "')'")
            self.scope.bind(name, kind)
            return Binder(name, kind)
        raise self._error("expected a forall binder "
                          "(a  or  (a :: kind))")

    def _try_parse_context(self) -> Optional[Tuple[ClassConstraint, ...]]:
        """Parse ``C ty =>`` or ``(C1 t1, ..., Cn tn) =>`` with backtracking."""
        saved = self.pos
        saved_implicit = dict(self.scope.implicit)
        try:
            constraints: List[ClassConstraint] = []
            if self._peek().kind == "lparen":
                self._next()
                if self._peek().kind != "rparen":
                    constraints.append(self._parse_constraint())
                    while self._peek().kind == "comma":
                        self._next()
                        constraints.append(self._parse_constraint())
                self._expect("rparen", "')'")
            else:
                constraints.append(self._parse_constraint())
            self._expect_symbol("=>")
            return tuple(constraints)
        except ParseError:
            self.pos = saved
            self.scope.implicit = saved_implicit
            return None

    def _parse_constraint(self) -> ClassConstraint:
        name = self._expect("conid", "a class name").text
        argument = self._parse_atype()
        return ClassConstraint(name, argument)

    def _parse_btype(self) -> SType:
        type_ = self._parse_atype()
        while self._continues() and self._starts_atype():
            type_ = TyApp(type_, self._parse_atype())
        return type_

    def _starts_atype(self) -> bool:
        token = self._peek()
        return token.kind in ("conid", "varid", "lparen", "lhash", "lbracket")

    def _parse_atype(self) -> SType:
        token = self._peek()

        if token.kind == "conid":
            self._next()
            tycon = BUILTIN_TYCONS.get(token.text)
            if tycon is None:
                raise self._error(
                    f"unknown type constructor {token.text!r}", token)
            return tycon

        if token.kind == "varid":
            self._next()
            kind = self.scope.lookup(token.text)
            if kind is None:
                # Implicitly quantified at kind Type.
                self.scope.implicit.setdefault(token.text, None)
                kind = TYPE_LIFTED
            if kind == REP_KIND:
                raise self._error(
                    f"representation variable {token.text!r} used as a type "
                    "(it may only appear inside TYPE ...)", token)
            return TyVar(token.text, kind)

        if token.kind == "lbracket":
            self._next()
            self._expect("rbracket", "']' (the list type constructor '[]')")
            return BUILTIN_TYCONS["[]"]

        if token.kind == "lhash":
            self._next()
            components: List[SType] = []
            if self._peek().kind != "rhash":
                components.append(self.parse_type())
                while self._peek().kind == "comma":
                    self._next()
                    components.append(self.parse_type())
            self._expect("rhash", "'#)'")
            return UnboxedTupleTy(components)

        if token.kind == "lparen":
            self._next()
            nxt = self._peek()
            if nxt.kind == "rparen":
                self._next()
                return BUILTIN_TYCONS["()"]
            if nxt.kind == "comma":
                self._next()
                self._expect("rparen", "')' (the pair constructor '(,)')")
                return BUILTIN_TYCONS["(,)"]
            inner = self.parse_type()
            self._expect("rparen", "')'")
            return inner

        raise self._error(f"expected a type, found "
                          + (repr(token.text) if token.kind != "eof"
                             else "end of input"))

    # -- kinds and representations -------------------------------------------

    def parse_kind(self) -> Kind:
        kind = self._parse_akind()
        if self._continues() and self._peek().is_symbol("->"):
            self._next()
            from ..core.kinds import ArrowKind
            return ArrowKind(kind, self.parse_kind())
        return kind

    def _parse_akind(self) -> Kind:
        token = self._peek()
        if token.kind == "conid":
            if token.text == "Type":
                self._next()
                return TYPE_LIFTED
            if token.text == "Rep":
                self._next()
                return REP_KIND
            if token.text == "Constraint":
                self._next()
                return CONSTRAINT
            if token.text == "TYPE":
                self._next()
                return TypeKind(self._parse_rep())
            raise self._error(f"unknown kind {token.text!r}", token)
        if token.kind == "lparen":
            self._next()
            kind = self.parse_kind()
            self._expect("rparen", "')'")
            return kind
        raise self._error("expected a kind (Type, TYPE r, Rep, Constraint)")

    def _parse_rep(self) -> Rep:
        token = self._peek()
        if token.kind == "conid":
            if token.text == "TupleRep":
                self._next()
                return TupleRep(self._parse_rep_list("comma"))
            if token.text == "SumRep":
                self._next()
                return SumRep(self._parse_rep_list("bar"))
            rep = REP_CONSTANTS.get(token.text)
            if rep is None:
                raise self._error(
                    f"unknown representation {token.text!r}", token)
            self._next()
            return rep
        if token.kind == "varid":
            kind = self.scope.lookup(token.text)
            if kind != REP_KIND:
                raise self._error(
                    f"representation variable {token.text!r} is not bound by "
                    "a forall (r :: Rep) telescope", token)
            self._next()
            return RepVar(token.text)
        if token.kind == "lparen":
            self._next()
            rep = self._parse_rep()
            self._expect("rparen", "')'")
            return rep
        raise self._error("expected a runtime representation")

    def _parse_rep_list(self, separator: str) -> List[Rep]:
        self._expect("lbracket", "'['")
        reps: List[Rep] = []
        if self._peek().kind != "rbracket":
            reps.append(self._parse_rep())
            while ((separator == "comma" and self._peek().kind == "comma")
                   or (separator == "bar" and self._peek().is_symbol("|"))):
                self._next()
                reps.append(self._parse_rep())
        self._expect("rbracket", "']'")
        return reps

    # =======================================================================
    # Expressions
    # =======================================================================

    def parse_expr(self) -> Expr:
        start = self._peek().span
        expr = self._parse_op_expr(0)
        if self._continues() and self._peek().is_symbol("::"):
            self._next()
            type_ = self.parse_signature_type()
            expr = EAnn(expr, type_)
        return self._note(expr, start.merge(self._previous_span()))

    def _parse_special(self) -> Optional[Expr]:
        """Lambda / let / if / case — forms that extend as far as possible."""
        token = self._peek()
        if token.kind == "backslash":
            return self._parse_lambda()
        if token.is_keyword("let"):
            return self._parse_let()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("case"):
            return self._parse_case()
        return None

    def _parse_op_expr(self, min_prec: int) -> Expr:
        start = self._peek().span
        if self._peek().is_symbol("-"):
            # Prefix negation (the only prefix operator, exactly as in
            # Haskell).  Its operand extends over tighter operators only, so
            # ``- a * b`` negates the product while ``- a + b`` adds to the
            # negation; the negation itself then participates as a left
            # operand at precedence NEGATE_PREC.  Like Haskell's "cannot mix"
            # rule, a negation may not itself be the operand of a
            # tighter-binding operator: ``a *# - b`` must be written
            # ``a *# (- b)`` (otherwise the operand parse would swallow the
            # rest of the tighter chain and mis-group it).
            if min_prec > NEGATE_PREC:
                raise self._error(
                    "prefix '-' cannot be the operand of an operator that "
                    "binds more tightly than subtraction; parenthesise the "
                    "negation")
            self._next()
            operand = self._parse_op_expr(NEGATE_PREC + 1)
            left = self._note(_negated(operand),
                              start.merge(self._previous_span()))
        else:
            special = self._parse_special()
            if special is not None:
                # Lambda/let/if bodies extend maximally, so no operator can
                # follow them here; a brace-delimited case, however, may be
                # the left operand of an infix operator — fall into the loop.
                left = special
            else:
                left = self._parse_fexp()
        while self._continues():
            token = self._peek()
            if token.kind != "symbol" or token.text in RESERVED_SYMBOLS:
                break
            prec, assoc = OPERATOR_TABLE.get(token.text, (9, "left"))
            if prec < min_prec:
                break
            self._next()
            right = self._parse_op_expr(prec + 1 if assoc == "left" else prec)
            left = EApp(EApp(EVar(token.text), left), right)
            self._note(left, start.merge(self._previous_span()))
        return left

    def _parse_fexp(self) -> Expr:
        start = self._peek().span
        expr = self._parse_aexp()
        while self._continues() and self._starts_aexp():
            argument = self._parse_aexp()
            expr = EApp(expr, argument)
            self._note(expr, start.merge(self._previous_span()))
        return expr

    def _starts_aexp(self) -> bool:
        token = self._peek()
        return token.kind in ("varid", "conid", "int", "inthash",
                              "doublehash", "string", "char",
                              "lparen", "lhash")

    def _parse_aexp(self) -> Expr:
        token = self._peek()
        span = token.span

        if token.kind == "varid":
            self._next()
            return self._note(EVar(token.text), span)

        if token.kind == "conid":
            self._next()
            if token.text == "True":
                return self._note(EBool(True), span)
            if token.text == "False":
                return self._note(EBool(False), span)
            return self._note(EVar(token.text), span)

        if token.kind == "int":
            self._next()
            return self._note(ELitInt(token.value), span)
        if token.kind == "inthash":
            self._next()
            return self._note(ELitIntHash(token.value), span)
        if token.kind == "doublehash":
            self._next()
            return self._note(ELitDoubleHash(token.value), span)
        if token.kind == "string":
            self._next()
            return self._note(ELitString(token.value), span)
        if token.kind == "char":
            self._next()
            return self._note(ELitChar(token.value), span)

        if token.kind == "lhash":
            self._next()
            components: List[Expr] = []
            if self._peek().kind != "rhash":
                components.append(self.parse_expr())
                while self._peek().kind == "comma":
                    self._next()
                    components.append(self.parse_expr())
            end = self._expect("rhash", "'#)'")
            return self._note(EUnboxedTuple(components),
                              span.merge(end.span))

        if token.kind == "lparen":
            self._next()
            nxt = self._peek()
            if nxt.kind == "rparen":
                end = self._next()
                return self._note(EVar("()"), span.merge(end.span))
            if nxt.kind == "symbol" and nxt.text not in RESERVED_SYMBOLS \
                    and self._peek(1).kind == "rparen":
                self._next()
                end = self._next()
                return self._note(EVar(nxt.text), span.merge(end.span))
            inner = self.parse_expr()
            end = self._expect("rparen", "')'")
            return self._note(inner, span.merge(end.span))

        raise self._error("expected an expression, found "
                          + (repr(token.text) if token.kind != "eof"
                             else "end of input"))

    # -- the special forms ----------------------------------------------------

    def _parse_lambda(self) -> Expr:
        start = self._next().span  # '\'
        binders: List[Tuple[str, Optional[SType]]] = []
        while True:
            token = self._peek()
            if token.kind == "varid":
                self._next()
                binders.append((token.text, None))
            elif token.kind == "lparen":
                self._next()
                name = self._expect("varid", "a lambda binder").text
                self._expect_symbol("::")
                annotation = self.parse_type()
                self._expect("rparen", "')'")
                binders.append((name, annotation))
            else:
                break
        if not binders:
            raise self._error("a lambda needs at least one binder")
        self._expect_symbol("->")
        body = self.parse_expr()
        for name, annotation in reversed(binders):
            body = ELam(name, body, annotation)
        return self._note(body, start.merge(self._previous_span()))

    def _parse_let(self) -> Expr:
        start = self._next().span  # 'let'
        name = self._expect("varid", "a let binder").text
        signature: Optional[SType] = None
        if self._peek().is_symbol("::"):
            self._next()
            signature = self.parse_signature_type()
            if self._peek().kind == "semi":
                # Accept the printed form  let x :: t; x = rhs in body.
                self._next()
                again = self._expect("varid", f"{name!r} (the signed binder)")
                if again.text != name:
                    raise self._error(
                        f"let signature names {name!r} but the binding is "
                        f"for {again.text!r}", again)
        self._expect_symbol("=")
        rhs = self.parse_expr()
        if not self._peek().is_keyword("in"):
            raise self._error("expected 'in' to close the let binding")
        self._next()
        body = self.parse_expr()
        return self._note(ELet(name, rhs, body, signature),
                          start.merge(self._previous_span()))

    def _parse_if(self) -> Expr:
        start = self._next().span  # 'if'
        condition = self.parse_expr()
        if not self._peek().is_keyword("then"):
            raise self._error("expected 'then'")
        self._next()
        consequent = self.parse_expr()
        if not self._peek().is_keyword("else"):
            raise self._error("expected 'else'")
        self._next()
        alternative = self.parse_expr()
        return self._note(EIf(condition, consequent, alternative),
                          start.merge(self._previous_span()))

    def _parse_case(self) -> Expr:
        start = self._next().span  # 'case'
        scrutinee = self.parse_expr()
        if not self._peek().is_keyword("of"):
            raise self._error("expected 'of'")
        self._next()
        self._expect("lbrace", "'{' (case alternatives use explicit braces)")
        alternatives: List[Alternative] = []
        while True:
            if self._peek().kind == "rbrace":
                break
            alternatives.append(self._parse_alternative())
            if self._peek().kind == "semi":
                self._next()
                continue
            break
        end = self._expect("rbrace", "'}'")
        if not alternatives:
            raise self._error("a case expression needs at least one "
                              "alternative", end)
        return self._note(ECase(scrutinee, alternatives),
                          start.merge(self._previous_span()))

    def _parse_alternative(self) -> Alternative:
        token = self._peek()
        if token.kind == "underscore":
            self._next()
            constructor = "_"
            binders: List[str] = []
        elif token.kind == "int":
            self._next()
            constructor = str(token.value)
            binders = []
        elif token.kind == "inthash":
            self._next()
            constructor = f"{token.value}#"
            binders = []
        elif token.is_symbol("-") and self._peek(1).kind in ("int", "inthash"):
            self._next()
            literal = self._next()
            constructor = (f"{-literal.value}#" if literal.kind == "inthash"
                           else str(-literal.value))
            binders = []
        elif token.kind == "conid":
            self._next()
            constructor = token.text
            binders = []
            while self._peek().kind == "varid":
                binders.append(self._next().text)
        elif token.kind == "lhash":
            self._next()
            constructor = "(#,#)"
            binders = []
            if self._peek().kind != "rhash":
                binders.append(self._expect("varid", "a pattern binder").text)
                while self._peek().kind == "comma":
                    self._next()
                    binders.append(
                        self._expect("varid", "a pattern binder").text)
            self._expect("rhash", "'#)'")
        else:
            raise self._error("expected a pattern (constructor, literal, "
                              "unboxed tuple, or _)")
        self._expect_symbol("->")
        rhs = self.parse_expr()
        return Alternative(constructor, binders, rhs)


# ---------------------------------------------------------------------------
# Incremental (block-memoised) module parsing
# ---------------------------------------------------------------------------
#
# The binding-level driver re-parses a module on every incremental check to
# re-derive the dependency plan.  Since a token in column 1 always begins a
# new top-level declaration, a module splits into independent *declaration
# blocks* with a cheap line scanner; each block's parse depends only on the
# block's own text, so a session can memoise block parses and re-lex/parse
# only the blocks that actually changed.  Spans inside a memoised block are
# stored block-relative and re-based by line offset on assembly.


#: Memoised block parses are dropped wholesale past this many entries
#: (a simple bound; block texts are small but sessions are long-lived).
_BLOCK_MEMO_LIMIT = 65536


@dataclass(frozen=True)
class _BlockParse:
    """The (block-relative) parse of one declaration block."""

    decls: Tuple[Decl, ...]
    decl_span_list: Tuple[Span, ...]
    expr_spans: Dict[int, Span]
    #: Free-variable references per decl (None for type signatures) —
    #: computed once so the dependency planner skips the AST walk.
    refs: Tuple[Optional[FrozenSet[str]], ...] = ()
    #: (message-without-position-prefix, line, column) when the block does
    #: not parse; memoising failures keeps erroring files cheap too.
    error: Optional[Tuple[str, int, int]] = None


def _line_starts_decl(line: str, depth: int) -> bool:
    """Does this line put a token in column 1 (i.e. start a declaration)?

    Mirrors the lexer: inside a block comment nothing starts; a line
    comment (``--`` not followed by another symbol character) and a block
    comment opener are trivia, not tokens.
    """
    if depth > 0 or not line or line[0] in " \t\r":
        return False
    if line.startswith("{-"):
        return False
    if line.startswith("--"):
        after = line[2:3]
        if not after or after not in SYMBOL_CHARS - {"-"}:
            return False
    return True


def _scan_line_trivia(line: str, depth: int) -> int:
    """Advance the block-comment depth across one line.

    Replicates exactly the lexer's trivia rules: nested ``{- -}`` comments
    (inside which nothing else is special), ``--`` line comments, string
    literals and character literals (primes inside identifiers are *not*
    character-literal openers).
    """
    i, n = 0, len(line)
    prev_name_char = False
    while i < n:
        ch = line[i]
        if depth:
            if ch == "{" and line[i + 1:i + 2] == "-":
                depth += 1
                i += 2
            elif ch == "-" and line[i + 1:i + 2] == "}":
                depth -= 1
                i += 2
            else:
                i += 1
            continue
        if ch == '"':
            i += 1
            while i < n and line[i] != '"':
                i += 2 if line[i] == "\\" else 1
            i += 1
            prev_name_char = False
            continue
        if ch == "'" and not prev_name_char:
            j = i + 1
            if line[j:j + 1] == "\\":
                j += 2
            elif j < n:
                j += 1
            i = j + 1 if line[j:j + 1] == "'" else i + 1
            prev_name_char = False
            continue
        if ch == "-" and line[i + 1:i + 2] == "-":
            after = line[i + 2:i + 3]
            if not after or after not in SYMBOL_CHARS - {"-"}:
                break  # line comment: the rest of the line is trivia
            i += 1
            prev_name_char = False
            continue
        if ch == "{" and line[i + 1:i + 2] == "-":
            depth += 1
            i += 2
            prev_name_char = False
            continue
        prev_name_char = ch.isalnum() or ch in "_'#"
        i += 1
    return depth


def split_decl_blocks(source: str) -> List[Tuple[int, str]]:
    """Split a module into ``(start_line, text)`` declaration blocks.

    Block boundaries are the lines that put a token in column 1; trivia
    before the first declaration forms a preamble block of its own.  The
    concatenation of all block texts (newline-joined) is the source.
    """
    lines = source.split("\n")
    starts: List[int] = []
    depth = 0
    for index, line in enumerate(lines):
        if _line_starts_decl(line, depth):
            starts.append(index)
        # Only an opener, or a closer inside a comment, can move the depth:
        # every other line keeps it, so it skips the character scan.
        if "{-" in line or (depth and "-}" in line):
            depth = _scan_line_trivia(line, depth)
    if not starts or starts[0] != 0:
        starts.insert(0, 0)
    blocks: List[Tuple[int, str]] = []
    for position, start in enumerate(starts):
        stop = starts[position + 1] if position + 1 < len(starts) \
            else len(lines)
        blocks.append((start + 1, "\n".join(lines[start:stop])))
    return blocks


def _parse_block(text: str) -> _BlockParse:
    parser = Parser(text, "<block>")
    try:
        # Module-shape validation (header first, imports before code) is
        # positional across the whole file, so it runs on assembly in
        # parse_module_incremental, not per block.
        parsed = parser.parse_module(validate=False)
    except ParseError as exc:
        message = str(exc)
        prefix = f"{exc.line}:{exc.column}: "
        if message.startswith(prefix):
            message = message[len(prefix):]
        return _BlockParse((), (), {}, (),
                           (message, exc.line, exc.column))
    refs = tuple(
        decl.rhs.free_vars() - frozenset(decl.params)
        if isinstance(decl, FunBind) else None
        for decl in parsed.module.decls)
    return _BlockParse(tuple(parsed.module.decls),
                       tuple(parsed.decl_span_list),
                       parsed.expr_spans, refs)


def _shift_span(span: Span, delta: int) -> Span:
    if delta == 0:
        return span
    return Span(span.line + delta, span.column,
                span.end_line + delta, span.end_column)


def parse_module_incremental(source: str, filename: str = "<input>",
                             name: str = "Main",
                             memo: Optional[Dict[str, _BlockParse]] = None
                             ) -> ParsedModule:
    """Parse a module block by block, reusing memoised block parses.

    Produces exactly what :func:`parse_module` produces (same declaration
    order, spans, expression-span table), but a block whose text is
    already in ``memo`` skips lexing and parsing entirely — the payoff
    that makes warm incremental re-checks parse only the edited bindings.
    Expression spans stay block-relative (``decl_block_spans``), so an
    unchanged block costs the same wherever it now sits.
    """
    decls: List[Decl] = []
    decl_spans: Dict[Tuple[str, str], Span] = {}
    decl_span_list: List[Span] = []
    decl_refs: List[Optional[FrozenSet[str]]] = []
    decl_block_spans: List[Tuple[Dict[int, Span], int]] = []
    used_blocks: set = set()
    blocks = parsed_blocks = 0
    error: Optional[ParseError] = None
    for start_line, text in split_decl_blocks(source):
        blocks += 1
        block = memo.get(text) if memo is not None else None
        if block is None:
            block = _parse_block(text)
            parsed_blocks += 1
            if memo is not None:
                if len(memo) >= _BLOCK_MEMO_LIMIT:
                    memo.clear()
                memo[text] = block
        if id(block) in used_blocks:
            # The same block text occurs twice in one module (duplicate
            # definitions).  Sharing the memoised AST would collide the
            # id()-keyed expression spans — the second occurrence would
            # overwrite the first's positions — so duplicates get fresh
            # nodes.
            block = _parse_block(text)
            parsed_blocks += 1
        used_blocks.add(id(block))
        delta = start_line - 1
        if block.error is not None:
            message, line, column = block.error
            error = ParseError(message, line + delta if line else line, column)
            break
        for decl, span in zip(block.decls, block.decl_span_list):
            absolute = _shift_span(span, delta)
            decls.append(decl)
            decl_span_list.append(absolute)
            decl_spans.setdefault(_decl_key(decl), absolute)
            decl_block_spans.append((block.expr_spans, delta))
        decl_refs.extend(block.refs)
    # Once per module parse, not per block or token.
    _REGISTRY.inc("parse.modules")
    _REGISTRY.inc("parse.blocks", parsed_blocks)
    _REGISTRY.inc("parse.block_hits", blocks - parsed_blocks)
    if error is not None:
        raise error
    name = validate_module_decls(decls, decl_span_list, name)
    return ParsedModule(Module(name, decls), filename, source, decl_spans,
                        None, decl_span_list, decl_refs, decl_block_spans)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_module(source: str, filename: str = "<input>",
                 name: str = "Main") -> ParsedModule:
    """Parse a whole surface module from source text."""
    return Parser(source, filename).parse_module(name)


def parse_expr(source: str, filename: str = "<input>") -> Expr:
    """Parse a single expression (must consume the whole input)."""
    parser = Parser(source, filename)
    expr = parser.parse_expr()
    if not parser._at_eof():
        raise parser._error("unexpected input after expression")
    return expr


def parse_type(source: str, filename: str = "<input>") -> SType:
    """Parse a type, implicitly quantifying free lowercase variables."""
    parser = Parser(source, filename)
    type_ = parser.parse_signature_type()
    if not parser._at_eof():
        raise parser._error("unexpected input after type")
    return type_


def parse_scheme(source: str, filename: str = "<input>"):
    """Parse a type and view it as an inference :class:`Scheme`."""
    from ..infer.schemes import Scheme

    return Scheme.from_type(parse_type(source, filename))
