"""Unit tests for the concrete-syntax frontend (lexer + parser)."""

import dataclasses
import pickle
import sys
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.core.kinds import (
    ArrowKind,
    CONSTRAINT,
    REP_KIND,
    TYPE_INT,
    TYPE_LIFTED,
    TypeKind,
)
from repro.core.rep import DOUBLE_REP, INT_REP, RepVar, SumRep, TupleRep
from repro.frontend import (
    Parser,
    parse_expr,
    parse_module,
    parse_scheme,
    parse_type,
)
from repro.frontend.lexer import Span, Token, tokenize
from repro.surface.ast import (
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
    Expr,
    FunBind,
    TypeSig,
)
from repro.surface.types import (
    Binder,
    BOOL_TY,
    ClassConstraint,
    ForAllTy,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    QualTy,
    TyApp,
    TyVar,
    UnboxedTupleTy,
    fun,
)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def kinds_of(source):
    return [t.kind for t in tokenize(source)]


class TestLexer:
    def test_identifiers_and_hashes(self):
        tokens = tokenize("sumTo# Int# x' _ignore")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            ("varid", "sumTo#"), ("conid", "Int#"), ("varid", "x'"),
            ("varid", "_ignore")]

    def test_literals(self):
        tokens = tokenize('42 7# 2.5## "hi\\n" \'c\'')
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("int", 42), ("inthash", 7), ("doublehash", 2.5),
            ("string", "hi\n"), ("char", "c")]

    def test_unboxed_tuple_brackets(self):
        assert kinds_of("(# Int#, a #)") == [
            "lhash", "conid", "comma", "varid", "rhash", "eof"]
        assert kinds_of("(# #)") == ["lhash", "rhash", "eof"]

    def test_operator_section_is_not_lhash(self):
        # '(' directly followed by a symbolic operator must stay a paren.
        assert kinds_of("(+#)") == ["lparen", "symbol", "rparen", "eof"]
        assert kinds_of("(#.)") == ["lparen", "symbol", "rparen", "eof"]

    def test_parser_lookahead_past_the_end_is_eof(self):
        parser = Parser("x")
        parser._next()
        assert [parser._peek(offset).kind for offset in range(3)] == [
            "eof", "eof", "eof"]

    def test_comments(self):
        assert kinds_of("x -- trailing\n{- block {- nested -} -} y") == [
            "varid", "varid", "eof"]

    def test_spans_are_one_based(self):
        token = tokenize("  foo")[0]
        assert (token.line, token.column) == (1, 3)
        token = tokenize("a\n  bar")[1]
        assert (token.line, token.column) == (2, 3)

    def test_boxed_fractional_literal_rejected(self):
        with pytest.raises(ParseError):
            tokenize("2.5")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')


#: Every lexer diagnostic, pinned: (source, message, line, column).
LEXER_ERRORS = [
    ('x = "oops', "unterminated string literal", 1, 5),
    ('x = "ab\ncd"', "unterminated string literal", 1, 5),
    ("c = 'a", "unterminated character literal", 1, 5),
    ("c = 'ab'", "unterminated character literal", 1, 5),
    ("c =\n  ''", "unterminated character literal", 2, 3),
    ("c = '\\nx'", "unterminated character literal", 1, 5),
    ("x = {- open {- nested -}", "unterminated block comment", 1, 5),
    ("-- note\n\n  {- a\n{- b -}", "unterminated block comment", 3, 3),
    ('s = "a\\qb"', "unknown escape \\q", 1, 9),
    ("c = '\\q'", "unknown escape \\q", 1, 8),
    ('s = "a\\\nb"', "unknown escape \\\n", 2, 1),
    ('s = "\\', "unknown escape \\", 1, 7),
    ("x = 2.5", "unsupported literal '2.5': boxed fractional literals are "
     "not in the surface language (use e.g. 2.5##)", 1, 5),
    ("x = 2.5#", "malformed literal '2.5#': a fractional literal needs two "
     "trailing hashes (Double#)", 1, 5),
    ("x = 1 § 2", "unexpected character '§'", 1, 7),
    ("x = ²x", "unexpected character '²'", 1, 5),
    ("f x =\n  x\t٣", "unexpected character '٣'", 2, 5),
]


@pytest.mark.parametrize("source,message,line,column", LEXER_ERRORS)
def test_lexer_diagnostics_are_pinned(source, message, line, column):
    with pytest.raises(ParseError) as info:
        tokenize(source)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"{line}:{column}: {message}", line, column)


class TestLexerValues:
    """Span and Token behave as frozen values."""

    def test_equality_hash_and_repr(self):
        span = Span(1, 2, 1, 5)
        assert span == Span(1, 2, 1, 5) and span != Span(1, 2, 1, 6)
        assert span != (1, 2, 1, 5)
        assert hash(span) == hash((1, 2, 1, 5))
        assert repr(span) == "Span(1:2-1:5)"
        token = tokenize("  abc")[0]
        same = Token("varid", "abc", "abc", Span(1, 3, 1, 6))
        assert token == same and len({token, same}) == 1
        assert repr(token) == "Token(varid, 'abc', 1:3)"

    def test_immutable_and_picklable(self):
        token = tokenize("x")[0]
        with pytest.raises(FrozenInstanceError):
            token.kind = "conid"
        with pytest.raises(FrozenInstanceError):
            del token.span.line
        assert pickle.loads(pickle.dumps(token)) == token


@pytest.fixture
def default_recursion_limit():
    """Run at the interpreter's default limit, as ``python -m repro`` does
    (conftest raises it for the recursive evaluators)."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.usefixtures("default_recursion_limit")
class TestLexerPathologicalShapes:
    def test_long_trivia_run_then_illegal_character(self):
        chunk = "  \t-- a comment line\n\n"
        copies = 100_000 // len(chunk) + 1
        with pytest.raises(ParseError) as info:
            tokenize(chunk * copies + "  §")
        assert (info.value.line, info.value.column) == (2 * copies + 1, 3)

    def test_deeply_nested_block_comment(self):
        depth = 10_000
        tokens = tokenize("{-" * depth + "x\n" + "-}" * depth + " y")
        assert [(t.kind, t.span) for t in tokens] == [
            ("varid", Span(2, 2 * depth + 2, 2, 2 * depth + 3)),
            ("eof", Span(2, 2 * depth + 3, 2, 2 * depth + 3))]
        with pytest.raises(ParseError) as info:
            tokenize("a\n  " + "{-" * depth + "-}" * (depth - 1))
        assert str(info.value) == "2:3: unterminated block comment"

    def test_long_identifier(self):
        name = "x" * 100_000
        tokens = tokenize(f"f = {name}#\n")
        assert tokens[2] == Token("varid", name + "#", name + "#",
                                  Span(1, 5, 1, 100_006))
        assert tokens[3].span == Span(2, 1, 2, 1)


# ---------------------------------------------------------------------------
# Types and kinds
# ---------------------------------------------------------------------------


class TestTypes:
    def test_explicit_telescope(self):
        type_ = parse_type(
            "forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b")
        assert isinstance(type_, ForAllTy)
        assert type_.binders == (
            Binder("r", REP_KIND),
            Binder("a", TYPE_LIFTED),
            Binder("b", TypeKind(RepVar("r"))))
        b = TyVar("b", TypeKind(RepVar("r")))
        a = TyVar("a", TYPE_LIFTED)
        assert type_.body == fun(FunTy(a, b), a, b)

    def test_implicit_quantification_in_occurrence_order(self):
        scheme = parse_scheme("(b -> a) -> b")
        assert [name for name, _ in scheme.type_binders] == ["b", "a"]
        assert all(kind == TYPE_LIFTED for _, kind in scheme.type_binders)

    def test_concrete_kinds(self):
        type_ = parse_type("forall (a :: TYPE IntRep). a -> Int")
        assert type_.binders[0].kind == TYPE_INT

    def test_tuple_and_sum_reps(self):
        type_ = parse_type(
            "forall (a :: TYPE TupleRep [IntRep, DoubleRep]). a")
        assert type_.binders[0].kind == TypeKind(
            TupleRep((INT_REP, DOUBLE_REP)))
        type_ = parse_type("forall (a :: TYPE SumRep [IntRep | DoubleRep]). a")
        assert type_.binders[0].kind == TypeKind(
            SumRep((INT_REP, DOUBLE_REP)))

    def test_unboxed_tuple_type(self):
        assert parse_type("(# Int#, Bool #)") == UnboxedTupleTy(
            (INT_HASH_TY, BOOL_TY))
        assert parse_type("(# #)") == UnboxedTupleTy(())

    def test_constraints(self):
        type_ = parse_type("Num a => a -> a")
        assert isinstance(type_, ForAllTy)
        assert isinstance(type_.body, QualTy)
        assert type_.body.constraints == (
            ClassConstraint("Num", TyVar("a")),)
        type_ = parse_type("(Num a, Eq a) => a")
        assert len(type_.body.constraints) == 2

    def test_type_application(self):
        type_ = parse_type("Maybe (Maybe Int)")
        assert isinstance(type_, TyApp)
        assert isinstance(type_.argument, TyApp)

    def test_list_and_pair_tycons(self):
        assert parse_type("[] Int").pretty() == "[] Int"
        assert parse_type("(,) Int Bool").pretty() == "(,) Int Bool"

    def test_arrow_kind(self):
        type_ = parse_type("forall (f :: Type -> Type). f")
        assert type_.binders[0].kind == ArrowKind(TYPE_LIFTED, TYPE_LIFTED)

    def test_constraint_kind_parses(self):
        type_ = parse_type("forall (c :: Constraint). Int")
        assert type_.binders[0].kind == CONSTRAINT

    def test_unknown_tycon_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("Nonexistent")

    def test_unbound_rep_var_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("forall (a :: TYPE r). a")

    def test_rep_var_used_as_type_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("forall (r :: Rep). r -> Int")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class TestExpressions:
    def test_application_is_left_nested(self):
        assert parse_expr("f x y") == EApp(EApp(EVar("f"), EVar("x")),
                                           EVar("y"))

    def test_operator_precedence(self):
        # *# binds tighter than +#.
        expr = parse_expr("a +# b *# c")
        expected = EApp(EApp(EVar("+#"), EVar("a")),
                        EApp(EApp(EVar("*#"), EVar("b")), EVar("c")))
        assert expr == expected

    def test_dollar_is_right_associative_and_loose(self):
        expr = parse_expr("f $ g $ h x")
        inner = EApp(EApp(EVar("$"), EVar("g")),
                     EApp(EVar("h"), EVar("x")))
        assert expr == EApp(EApp(EVar("$"), EVar("f")), inner)

    def test_operator_section_name(self):
        assert parse_expr("(+#) x y") == EApp(EApp(EVar("+#"), EVar("x")),
                                              EVar("y"))

    def test_lambda_with_annotation(self):
        expr = parse_expr("\\(x :: Int#) y -> x")
        assert expr == ELam("x", ELam("y", EVar("x")), INT_HASH_TY)

    def test_let_both_forms(self):
        plain = parse_expr("let x = 1 in x")
        assert plain == ELet("x", ELitInt(1), EVar("x"))
        signed = parse_expr("let x :: Int = 1 in x")
        printed = parse_expr("let x :: Int; x = 1 in x")
        assert signed == printed
        assert signed.signature == INT_TY

    def test_if_and_bools(self):
        expr = parse_expr("if True then 1 else 2")
        assert expr == EIf(EBool(True), ELitInt(1), ELitInt(2))

    def test_case_with_literal_and_wildcard(self):
        expr = parse_expr("case n of { 1# -> a; _ -> b }")
        assert isinstance(expr, ECase)
        assert [a.constructor for a in expr.alternatives] == ["1#", "_"]

    def test_case_constructor_binders(self):
        expr = parse_expr("case b of { I# x -> x }")
        assert expr.alternatives[0].binders == ("x",)

    def test_case_as_left_operand_of_infix(self):
        expr = parse_expr("case c of { I# x -> x } +# 1#")
        assert isinstance(expr, EApp)
        assert expr.function.function == EVar("+#")
        assert isinstance(expr.function.argument, ECase)

    def test_case_unboxed_tuple_pattern(self):
        expr = parse_expr("case p of { (# q, r #) -> q }")
        assert expr.alternatives[0].constructor == "(#,#)"
        assert expr.alternatives[0].binders == ("q", "r")

    def test_unboxed_tuple_expression(self):
        assert parse_expr("(# 1#, 2# #)") == EUnboxedTuple(
            (ELitIntHash(1), ELitIntHash(2)))

    def test_annotation(self):
        expr = parse_expr('3# :: Int#')
        assert expr == EAnn(ELitIntHash(3), INT_HASH_TY)

    def test_string_and_unit(self):
        assert parse_expr('error "boom"') == EApp(EVar("error"),
                                                  ELitString("boom"))
        assert parse_expr("()") == EVar("()")

    def test_double_hash_literal(self):
        assert parse_expr("2.5## +## 1.5##") == EApp(
            EApp(EVar("+##"), ELitDoubleHash(2.5)), ELitDoubleHash(1.5))


# ---------------------------------------------------------------------------
# Modules and declarations
# ---------------------------------------------------------------------------


SUM_TO = """\
sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }

main :: Int#
main = sumTo# 0# 100#
"""


class TestModules:
    def test_declarations_and_spans(self):
        parsed = parse_module(SUM_TO, "sumto.lev")
        module = parsed.module
        assert set(module.signatures()) == {"sumTo#", "main"}
        assert set(module.bindings()) == {"sumTo#", "main"}
        assert module.signatures()["sumTo#"] == fun(
            INT_HASH_TY, INT_HASH_TY, INT_HASH_TY)
        span = parsed.span_of_binding("main")
        assert (span.line, span.column) == (5, 1)
        sig_span = parsed.decl_spans[("sig", "sumTo#")]
        assert (sig_span.line, sig_span.column) == (1, 1)

    def test_multiline_continuation(self):
        parsed = parse_module(
            "f :: Int ->\n"
            "     Int\n"
            "f x =\n"
            "  plusInt x\n"
            "    1\n")
        assert parsed.module.signatures()["f"] == fun(INT_TY, INT_TY)
        bind = parsed.module.bindings()["f"]
        assert bind.rhs == EApp(EApp(EVar("plusInt"), EVar("x")), ELitInt(1))

    def test_signature_does_not_capture_next_declaration(self):
        # Regression: the context backtrack must not leak the next line's
        # binding name into the implicit forall.
        parsed = parse_module("f :: Int# -> Int#\nf x = x\n")
        assert parsed.module.signatures()["f"] == fun(INT_HASH_TY,
                                                      INT_HASH_TY)

    def test_column_one_starts_a_declaration(self):
        with pytest.raises(ParseError):
            parse_module("f = plusInt 1\n2\n")  # '2' cannot start a decl

    def test_operator_signature(self):
        parsed = parse_module("(!!#) :: Int# -> Int#\n(!!#) x = x\n")
        assert "!!#" in parsed.module.signatures()

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_module("f = \n")
        assert info.value.line >= 1
        assert info.value.column >= 1

    def test_empty_module(self):
        assert parse_module("-- nothing here\n").module.decls == ()


# ---------------------------------------------------------------------------
# Incremental (block-memoised) parsing equivalence
# ---------------------------------------------------------------------------


class TestIncrementalParsing:
    """parse_module_incremental must be observably identical to
    parse_module — same decls, same spans, same expression-span table —
    with or without a warm memo."""

    CASES = [
        "f :: Int#\nf = 1#\n",
        # leading comments, blank lines, trailing trivia
        "-- leading comment\n\nf = 1#\n\n-- trailing\n",
        # a block comment spanning lines with column-1 text inside it
        "a = 1#\n{- not\na decl\n-}\nb = 2#\n",
        # nested block comments
        "{- outer {- inner -} still -}\nc :: Int#\nc = 3#\n",
        # string containing comment openers and a column-1-looking quote
        's = "{- not a comment -} -- nor this"\n',
        # char literals and primes in identifiers
        "tail' :: Int# -> Int#\ntail' x = x\nch = 'a'\nesc = '\\n'\n",
        # multi-line declarations (continuation lines indented)
        "long :: Int#\nlong =\n  1#\n    +# 2#\n\nnext = long\n",
        # operators at column 1 via section declaration form
        "(+!) :: Int# -> Int# -> Int#\n(+!) x y = x +# y\n",
        # duplicate definitions (last wins, both parsed)
        "v = 1#\nv = 2#\n",
        # *identical* duplicate blocks: the memo must not share AST nodes
        # within one module (expression spans are id()-keyed)
        "w = 1#\nw = 1#\n",
        # a stray closer at depth 0 (in a line comment, in a string) does
        # not open or close anything
        "a = 1# -- stray -} closer\nb = 2# --}\n",
        't = "-}"\nu = t\n',
        # an opener inside a string literal opens nothing
        's = "{- not a comment"\nt = 1#\n',
        # a comment opened mid-line hides the column-1 line after it
        "a = 1# {- open\nb = 2#\n-} +# 3#\nc = 4#\n",
        # a nested opener on a line of its own keeps the depth above zero
        # past the first closer
        "{- outer\n  {- inner\n-}\nx = 1#\n-}\ny = 2#\n",
    ]

    @staticmethod
    def _observables(parsed):
        return (
            parsed.module.pretty(),
            [type(d).__name__ for d in parsed.module.decls],
            parsed.decl_span_list,
            dict(parsed.decl_spans),
            sorted(parsed.expr_spans.values(),
                   key=lambda s: (s.line, s.column, s.end_line, s.end_column)),
        )

    @pytest.mark.parametrize("source", CASES)
    def test_matches_whole_module_parse(self, source):
        from repro.frontend.parser import parse_module_incremental

        memo = {}
        whole = parse_module(source, "case.lev")
        cold = parse_module_incremental(source, "case.lev", memo=memo)
        warm = parse_module_incremental(source, "case.lev", memo=memo)
        for incremental in (cold, warm):
            assert self._observables(incremental) == self._observables(whole)

    @pytest.mark.parametrize("source", CASES)
    def test_blocks_start_at_column_one_tokens(self, source):
        # A coarser split still parses the same (a block may hold several
        # declarations), so the block starts are pinned on their own.
        from repro.frontend.parser import split_decl_blocks

        starts = sorted({token.line for token in tokenize(source)
                         if token.column == 1 and token.kind != "eof"})
        blocks = split_decl_blocks(source)
        assert [line for line, _ in blocks if line in starts] == starts
        assert all(line in starts for line, _ in blocks[1:])

    def test_examples_and_golden_corpora_match(self):
        import glob
        import os

        from repro.frontend.parser import parse_module_incremental

        here = os.path.dirname(os.path.abspath(__file__))
        paths = sorted(
            glob.glob(os.path.join(here, "golden", "**", "*.lev"),
                      recursive=True)
            + glob.glob(os.path.join(here, os.pardir, "examples", "*.lev")))
        assert paths
        memo = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                whole = parse_module(source, path)
            except ParseError as exc:
                with pytest.raises(ParseError) as caught:
                    parse_module_incremental(source, path, memo=memo)
                assert str(caught.value) == str(exc)
                continue
            incremental = parse_module_incremental(source, path, memo=memo)
            assert self._observables(incremental) == self._observables(whole)

    def test_memoised_blocks_skip_reparsing(self):
        from repro.frontend.parser import parse_module_incremental

        memo = {}
        parse_module_incremental("a = 1#\n\nb = a\n", memo=memo)
        blocks_before = set(memo)
        # Editing 'b' must only add the new b-block to the memo.
        parse_module_incremental("a = 1#\n\nb = a +# 1#\n", memo=memo)
        added = set(memo) - blocks_before
        assert added == {"b = a +# 1#\n"}

    def test_parse_error_positions_are_absolute(self):
        from repro.frontend.parser import parse_module_incremental

        source = "fine = 1#\n\nbroken = \n"
        with pytest.raises(ParseError) as exc:
            parse_module_incremental(source, "err.lev", memo={})
        whole_error = None
        try:
            parse_module(source, "err.lev")
        except ParseError as caught:
            whole_error = caught
        assert (exc.value.line, exc.value.column) == \
            (whole_error.line, whole_error.column)


# ---------------------------------------------------------------------------
# Span placement across edits (one block memo)
# ---------------------------------------------------------------------------


def _expr_preorder(node):
    """Every expression node under ``node``, in pre-order."""
    if isinstance(node, Expr):
        yield node
    if dataclasses.is_dataclass(node):
        for item in dataclasses.fields(node):
            yield from _expr_preorder(getattr(node, item.name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _expr_preorder(item)


#: A module as chunks of whole lines.  ``bad`` has a type error whose
#: diagnostic lands on the sub-expression ``f (g True)``.
_SPAN_BASE = (
    "f :: Int# -> Int#\nf x = x +# 1#\n",
    "\n",
    "bad :: Int#\nbad = f (g True)\n",
    "\n",
    "g y = y\n",
    "-- a comment line\n",
    "h = \\k -> case k of { 1# -> f k; _ -> let z = f 2# in z }\n",
)

#: What an edit inserts: blank lines, comment lines, whole bindings.
_SPAN_INSERTS = ("\n", "-- note\n", "{- a block\ncomment -}\n",
                 "extra = f 3#\n", "pair x = (# f x, g x #)\n")

#: Chunks an edit may delete: the base module's trivia and any insert
#: (the base bindings, and so the type error, always remain).
_SPAN_DELETABLE = frozenset(_SPAN_INSERTS) | {"-- a comment line\n"}


@st.composite
def _edit_sequences(draw):
    """The texts of a random edit sequence, then of undoing it step by
    step back to the base module."""
    chunks = list(_SPAN_BASE)
    texts = ["".join(chunks)]
    undo = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        deletable = [index for index, chunk in enumerate(chunks)
                     if chunk in _SPAN_DELETABLE]
        if deletable and draw(st.booleans()):
            index = draw(st.sampled_from(deletable))
            undo.append((index, chunks.pop(index)))
        else:
            index = draw(st.integers(min_value=0, max_value=len(chunks)))
            chunks.insert(index, draw(st.sampled_from(_SPAN_INSERTS)))
            undo.append((index, None))
        texts.append("".join(chunks))
    for index, removed in reversed(undo):
        if removed is None:
            del chunks[index]
        else:
            chunks.insert(index, removed)
        texts.append("".join(chunks))
    assert texts[-1] == texts[0]
    return texts


class TestSpanPlacement:
    """Memoised blocks are shared by parses that place them at different
    lines.  Every parse must give each expression node its own absolute
    span, and keep giving it after later parses move the same blocks."""

    @staticmethod
    def _assert_spans(parsed, source, merged=False):
        """Each node's span — through the per-declaration view the
        inferencer reads, or the merged table — equals the whole-module
        parse's span for the same node (paired by a pre-order walk)."""
        whole = parse_module(source, "m.lev")
        assert len(parsed.module.decls) == len(whole.module.decls)
        seen = 0
        for index, (decl, twin) in enumerate(zip(parsed.module.decls,
                                                 whole.module.decls)):
            view = parsed.expr_spans if merged \
                else parsed.expr_spans_of(index)
            nodes = list(_expr_preorder(decl))
            twins = list(_expr_preorder(twin))
            assert [type(node) for node in nodes] == \
                [type(node) for node in twins]
            for node, other in zip(nodes, twins):
                expected = whole.expr_spans.get(id(other))
                assert view.get(id(node)) == expected
                seen += expected is not None
        assert seen

    @staticmethod
    def _bad_span(source):
        line = source.split("\n").index("bad = f (g True)") + 1
        return Span(line, 7, line, 17)

    @given(_edit_sequences())
    @settings(max_examples=40, deadline=None)
    def test_edit_sequences_keep_spans_on_their_nodes(self, texts):
        from repro.driver import Session

        session = Session()
        taken = []
        for source in texts:
            parsed, diagnostics = session.pipeline.parse(source, "m.lev")
            assert parsed is not None and not diagnostics
            self._assert_spans(parsed, source)
            taken.append((parsed, source))
            # A type error in a moved block is placed as a cold check
            # places it.
            warm = session.check(source, "m.lev")
            cold = Session().check(source, "m.lev")
            placed = [(d.span, d.message) for d in warm.diagnostics]
            assert placed == [(d.span, d.message) for d in cold.diagnostics]
            assert self._bad_span(source) in [span for span, _ in placed]
        # Earlier parses keep their spans although their blocks now sit at
        # other lines; the merged table is built only now, on first read.
        for parsed, source in taken:
            self._assert_spans(parsed, source)
            self._assert_spans(parsed, source, merged=True)

    def test_parse_module_spans_are_absolute_already(self):
        parsed = parse_module("a = 1#\n\nb = a +# 2#\n", "m.lev")
        assert parsed.decl_block_spans is None
        assert parsed.expr_spans_of(1) is parsed.expr_spans
