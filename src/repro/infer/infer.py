"""Type inference for the surface language (Section 5.2).

The engine is a fairly conventional Hindley–Milner-style inferencer with two
paper-specific twists:

1. **Representation unification variables.**  Every invented type variable
   ``α`` gets kind ``TYPE ρ`` for a fresh representation variable ``ρ``; if
   ``α`` is later unified with a lifted type, ``ρ`` is solved to
   ``LiftedRep``, and if with ``Int#``, to ``IntRep`` — all through the
   ordinary unifier (:mod:`repro.infer.unify`).  The paper notes this is a
   *simplification* over the old sub-kinding implementation.

2. **Never infer levity polymorphism.**  When a binding without a signature
   is generalised, any representation variable that could be generalised is
   instead defaulted to ``LiftedRep`` (:mod:`repro.infer.defaulting`).
   Declared signatures, on the other hand, may be levity-polymorphic; they
   are *checked*, and a desugarer-style post-pass
   (:mod:`repro.infer.levity_check`) enforces the Section 5.1 restrictions
   on every binder and argument site.

The engine records binder/argument sites as it goes and exposes them through
:class:`BindingResult`, so callers (and tests) can inspect exactly why a
program such as ``abs2`` is rejected while its η-contraction ``abs1`` is
accepted (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    InstanceResolutionError,
    LevityError,
    LevityPolymorphicArgument,
    LevityPolymorphicBinder,
    ScopeError,
    TypeCheckError,
)
from ..core.kinds import TYPE_LIFTED, TypeKind
from ..telemetry import REGISTRY as _REGISTRY, TRACER as _TRACER
from ..core.rep import Rep, RepVar
from ..surface.ast import (
    Alternative,
    ClassDecl,
    DataDecl,
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
    InstanceDecl,
    Module,
    TypeSig,
)
from ..surface.types import (
    BOOL_TY,
    CHAR_TY,
    ClassConstraint,
    DOUBLE_HASH_TY,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    SType,
    STRING_TY,
    TyVar,
    UnboxedTupleTy,
    fun,
)
from .defaulting import GeneralisationResult, generalise
from .levity_check import LevityCheckReport, LevityRecord, check_records
from .schemes import Scheme, TypeEnv
from .unify import UnifierState


@dataclass
class InferOptions:
    """Behavioural switches for the inference engine."""

    #: Ablation flag (E7): generalise representation variables instead of
    #: defaulting them.  The resulting schemes are un-compilable and the
    #: levity check rejects any binding that binds a value at such a type.
    generalise_reps: bool = False
    #: Collect levity violations into the report instead of raising on the
    #: first one (GHC collects them all and reports together).
    collect_levity_violations: bool = False
    #: Skip the post-inference levity check entirely (used by the
    #: sub-kinding baseline comparison, which has its own rules).
    run_levity_check: bool = True


@dataclass
class BindingResult:
    """Everything the engine learned about one top-level binding."""

    name: str
    scheme: Scheme
    levity_report: LevityCheckReport
    defaulted_rep_vars: Tuple[str, ...] = ()
    residual_constraints: Tuple[ClassConstraint, ...] = ()

    @property
    def ok(self) -> bool:
        return self.levity_report.ok


@dataclass
class ModuleResult:
    """Result of inferring a whole module."""

    schemes: Dict[str, Scheme] = field(default_factory=dict)
    bindings: Dict[str, BindingResult] = field(default_factory=dict)
    env: Optional[TypeEnv] = None

    def scheme_of(self, name: str) -> Scheme:
        return self.schemes[name]


def _not_in_scope(name: str, env: TypeEnv) -> str:
    """A scope-error message with near-miss suggestions from ``env``.

    ``1 + 2`` at a prelude without boxed ``+`` should say
    "did you mean '+#'?" rather than leave the user guessing; the hash
    check catches boxed/unboxed spelling confusions that plain edit
    distance misses (``+`` vs ``+##``).
    """
    import difflib

    message = f"variable {name!r} is not in scope"
    candidates = sorted(env.all_bindings())
    close = difflib.get_close_matches(name, candidates, n=3, cutoff=0.6)
    stem = name.rstrip("#")
    for candidate in candidates:
        if candidate != name and candidate.rstrip("#") == stem \
                and candidate not in close:
            close.append(candidate)
    if close:
        suggestions = " or ".join(repr(c) for c in close[:3])
        message += f" (did you mean {suggestions}?)"
    return message


class Inferencer:
    """The type-inference engine."""

    def __init__(self, options: Optional[InferOptions] = None,
                 class_env=None, spans=None) -> None:
        self.options = options or InferOptions()
        self.state = UnifierState()
        self.records: List[LevityRecord] = []
        #: Constraints assumed from the signature currently being checked.
        self.givens: List[ClassConstraint] = []
        #: Duck-typed class environment (see :mod:`repro.classes.declarations`);
        #: must provide ``resolve(constraint, state)`` and
        #: ``method_schemes(class_decl)`` when class/instance declarations or
        #: class constraints are used.
        self.class_env = class_env
        #: Optional mapping ``id(expr) -> Span``, read only through
        #: ``.get`` (the frontend's ``ParsedModule.expr_spans``, or one
        #: declaration's ``expr_spans_of`` view).  When present, scope errors,
        #: unification failures and levity violations are stamped with the
        #: span of the offending *sub-expression* instead of leaving the
        #: caller to fall back to the whole binding.
        self.spans = spans
        #: Solver-op counts already folded into the telemetry registry;
        #: ``_publish_solver_stats`` publishes only the delta since the
        #: last fold so re-using one inferencer never double-counts.
        self._solver_published: Dict[str, int] = {}

    # ------------------------------------------------------------------ utils

    def _span(self, expr: Expr):
        if self.spans is None:
            return None
        return self.spans.get(id(expr))

    def _unify_at(self, expr: Optional[Expr], actual: SType,
                  expected: SType) -> None:
        """Unify, attaching ``expr``'s span to any failure that has none."""
        try:
            self.state.unify_types(actual, expected)
        except TypeCheckError as exc:
            if exc.span is None and expr is not None:
                exc.span = self._span(expr)
            raise

    def instantiate(self, scheme: Scheme) -> Tuple[List[ClassConstraint], SType]:
        """Replace quantified variables by fresh unification variables."""
        rep_mapping: Dict[str, Rep] = {
            name: self.state.fresh_rep_uvar() for name in scheme.rep_binders}
        type_mapping: Dict[str, SType] = {}
        for name, kind in scheme.type_binders:
            kind = kind.substitute_reps(rep_mapping)
            type_mapping[name] = self.state.fresh_type_uvar(kind)
        body = scheme.body.subst_reps(rep_mapping).subst_types(type_mapping)
        constraints = [
            ClassConstraint(c.class_name,
                            c.argument.subst_reps(rep_mapping)
                            .subst_types(type_mapping))
            for c in scheme.constraints]
        return constraints, body

    def record_binder(self, type_: SType, description: str,
                      span=None) -> None:
        self.records.append(LevityRecord("binder", description, type_, span))

    def record_argument(self, type_: SType, description: str,
                        span=None) -> None:
        self.records.append(LevityRecord("argument", description, type_,
                                         span))

    # ------------------------------------------------------------- expressions

    def infer(self, env: TypeEnv, expr: Expr
              ) -> Tuple[SType, List[ClassConstraint]]:
        """Infer a type and collect wanted class constraints."""
        if isinstance(expr, EVar):
            scheme = env.lookup(expr.name)
            if scheme is None:
                error = ScopeError(_not_in_scope(expr.name, env))
                error.span = self._span(expr)
                raise error
            constraints, type_ = self.instantiate(scheme)
            return type_, constraints

        if isinstance(expr, ELitInt):
            return INT_TY, []
        if isinstance(expr, ELitIntHash):
            return INT_HASH_TY, []
        if isinstance(expr, ELitDoubleHash):
            return DOUBLE_HASH_TY, []
        if isinstance(expr, ELitString):
            return STRING_TY, []
        if isinstance(expr, ELitChar):
            return CHAR_TY, []
        if isinstance(expr, EBool):
            return BOOL_TY, []

        if isinstance(expr, EApp):
            function_type, constraints = self.infer(env, expr.function)
            argument_type, argument_constraints = self.infer(env,
                                                             expr.argument)
            constraints = constraints + argument_constraints
            result_type = self.state.fresh_type_uvar()
            self._unify_at(expr, function_type,
                           FunTy(argument_type, result_type))
            self.record_argument(
                argument_type,
                f"argument {expr.argument.pretty()!r} of an application",
                self._span(expr.argument) or self._span(expr))
            return result_type, constraints

        if isinstance(expr, ELam):
            if expr.annotation is not None:
                binder_type: SType = expr.annotation
            else:
                binder_type = self.state.fresh_type_uvar()
            self.record_binder(binder_type,
                               f"lambda binder {expr.var!r}",
                               self._span(expr))
            body_env = env.bind(expr.var, Scheme.monomorphic(binder_type))
            body_type, constraints = self.infer(body_env, expr.body)
            return FunTy(binder_type, body_type), constraints

        if isinstance(expr, ELet):
            result = self._infer_local_binding(env, expr)
            body_env = env.bind(expr.var, result.scheme)
            body_type, constraints = self.infer(body_env, expr.body)
            return body_type, constraints + list(result.residual_constraints)

        if isinstance(expr, EIf):
            condition_type, constraints = self.infer(env, expr.condition)
            self._unify_at(expr.condition, condition_type, BOOL_TY)
            then_type, then_constraints = self.infer(env, expr.consequent)
            else_type, else_constraints = self.infer(env, expr.alternative)
            self._unify_at(expr.alternative, then_type, else_type)
            return then_type, constraints + then_constraints + else_constraints

        if isinstance(expr, EAnn):
            constraints = self.check(env, expr.expr, expr.type)
            scheme = Scheme.from_type(expr.type)
            instantiation_constraints, type_ = self.instantiate(scheme)
            return type_, constraints + instantiation_constraints

        if isinstance(expr, EUnboxedTuple):
            component_types: List[SType] = []
            constraints = []
            for component in expr.components:
                component_type, component_constraints = self.infer(env,
                                                                   component)
                component_types.append(component_type)
                constraints.extend(component_constraints)
            return UnboxedTupleTy(component_types), constraints

        if isinstance(expr, ECase):
            return self._infer_case(env, expr)

        raise TypeCheckError(f"cannot infer a type for {expr!r}")

    def check(self, env: TypeEnv, expr: Expr,
              expected: SType) -> List[ClassConstraint]:
        """Check ``expr`` against ``expected`` (a monotype or prenex sigma)."""
        scheme = Scheme.from_type(expected)
        if scheme.rep_binders or scheme.type_binders or scheme.constraints:
            # Checking against a sigma-type: skolemise and check the body.
            _, skolem_body, givens = self._skolemise(scheme)
            previous_givens = list(self.givens)
            self.givens.extend(givens)
            try:
                wanted = self.check(env, expr, skolem_body)
                return self._discharge(wanted)
            finally:
                self.givens = previous_givens
        actual, constraints = self.infer(env, expr)
        self._unify_at(expr, actual, expected)
        return constraints

    # ------------------------------------------------------------------ case

    def _infer_case(self, env: TypeEnv, expr: ECase
                    ) -> Tuple[SType, List[ClassConstraint]]:
        scrutinee_type, constraints = self.infer(env, expr.scrutinee)
        result_type = self.state.fresh_type_uvar()
        for alternative in expr.alternatives:
            try:
                alt_env, alt_constraints = self._bind_pattern(
                    env, alternative, scrutinee_type)
            except TypeCheckError as exc:
                if exc.span is None:
                    exc.span = self._span(expr.scrutinee) or self._span(expr)
                raise
            constraints.extend(alt_constraints)
            rhs_type, rhs_constraints = self.infer(alt_env, alternative.rhs)
            constraints.extend(rhs_constraints)
            self._unify_at(alternative.rhs, rhs_type, result_type)
        return result_type, constraints

    def _bind_pattern(self, env: TypeEnv, alternative: Alternative,
                      scrutinee_type: SType
                      ) -> Tuple[TypeEnv, List[ClassConstraint]]:
        constructor = alternative.constructor
        if constructor == "_":
            return env, []
        if constructor.lstrip("-").isdigit():
            # A literal pattern: Int# when written with a trailing '#'
            # convention is not needed; bare integer literals in patterns
            # match boxed Ints, hash-suffixed ones match Int#.
            self.state.unify_types(scrutinee_type, INT_TY)
            return env, []
        if constructor.endswith("#") and constructor[:-1].lstrip("-").isdigit():
            self.state.unify_types(scrutinee_type, INT_HASH_TY)
            return env, []
        if constructor == "(#,#)":
            # An unboxed-tuple pattern (# x1, ..., xn #): the pseudo
            # constructor has no scheme (it is representation-polymorphic in
            # every field); unify the scrutinee with a tuple of fresh
            # unification variables instead.  Found by corpus fuzzing: the
            # pattern parsed and evaluated, but never inferred.
            field_types = [self.state.fresh_type_uvar()
                           for _ in alternative.binders]
            self.state.unify_types(scrutinee_type,
                                   UnboxedTupleTy(field_types))
            alt_env = env
            for binder, field_type in zip(alternative.binders, field_types):
                self.record_binder(
                    field_type,
                    f"pattern binder {binder!r} of an unboxed tuple")
                alt_env = alt_env.bind(binder,
                                       Scheme.monomorphic(field_type))
            return alt_env, []
        scheme = env.lookup(constructor)
        if scheme is None:
            raise ScopeError(
                f"unknown data constructor {constructor!r} in pattern")
        constraints, constructor_type = self.instantiate(scheme)
        field_types: List[SType] = []
        current = constructor_type
        for _ in alternative.binders:
            current = self.state.zonk_type(current)
            if not isinstance(current, FunTy):
                raise TypeCheckError(
                    f"constructor {constructor!r} applied to too many "
                    "pattern variables")
            field_types.append(current.argument)
            current = current.result
        self.state.unify_types(scrutinee_type, current)
        alt_env = env
        for binder, field_type in zip(alternative.binders, field_types):
            self.record_binder(field_type,
                               f"pattern binder {binder!r} of {constructor!r}")
            alt_env = alt_env.bind(binder, Scheme.monomorphic(field_type))
        return alt_env, constraints

    # ------------------------------------------------------------- bindings

    def _skolemise(self, scheme: Scheme
                   ) -> Tuple[Dict[str, Rep], SType, List[ClassConstraint]]:
        """Turn quantified variables into rigid skolems."""
        rep_mapping: Dict[str, Rep] = {
            name: RepVar(name, unification=False)
            for name in scheme.rep_binders}
        type_mapping: Dict[str, SType] = {}
        for name, kind in scheme.type_binders:
            type_mapping[name] = TyVar(name, kind.substitute_reps(rep_mapping))
        body = scheme.body.subst_reps(rep_mapping).subst_types(type_mapping)
        givens = [
            ClassConstraint(c.class_name,
                            c.argument.subst_reps(rep_mapping)
                            .subst_types(type_mapping))
            for c in scheme.constraints]
        return rep_mapping, body, givens

    def _discharge(self, wanted: Sequence[ClassConstraint]
                   ) -> List[ClassConstraint]:
        """Discharge wanted constraints against givens and instances."""
        residual: List[ClassConstraint] = []
        for constraint in wanted:
            zonked = ClassConstraint(constraint.class_name,
                                     self.state.zonk_type(constraint.argument))
            if self._matches_given(zonked):
                continue
            if (self.class_env is not None
                    and self.class_env.resolve(zonked, self.state)):
                continue
            residual.append(zonked)
        return residual

    def _matches_given(self, constraint: ClassConstraint) -> bool:
        for given in self.givens:
            if given.class_name != constraint.class_name:
                continue
            if self.state.zonk_type(given.argument) == constraint.argument:
                return True
        return False

    def _require_no_residual(self, name: str,
                             residual: Sequence[ClassConstraint]) -> None:
        unresolved = [c for c in residual
                      if c.argument.free_uvars() == frozenset()
                      and not c.argument.free_type_vars()]
        if unresolved:
            rendered = ", ".join(c.pretty() for c in unresolved)
            raise InstanceResolutionError(
                f"no instance for {rendered} arising from {name!r}")

    def infer_binding(self, env: TypeEnv, name: str, params: Sequence[str],
                      rhs: Expr,
                      signature: Optional[SType] = None) -> BindingResult:
        """Infer or check one top-level (or let) binding."""
        records_start = len(self.records)
        if signature is not None:
            scheme, residual = self._check_against_signature(
                env, name, params, rhs, signature)
            defaulted: Tuple[str, ...] = ()
        else:
            scheme, residual, defaulted = self._infer_unsigned(
                env, name, params, rhs)

        report = LevityCheckReport()
        if self.options.run_levity_check:
            report = check_records(
                self.state, self.records[records_start:],
                collect=True)
            if not self.options.collect_levity_violations and report.violations:
                first = report.violations[0]
                exc_type = (LevityPolymorphicBinder
                            if first.kind_of_violation == "binder"
                            else LevityPolymorphicArgument)
                raise exc_type(f"in the binding for {name!r}: {first.pretty()}")

        self._require_no_residual(name, residual)
        self._publish_solver_stats()
        return BindingResult(name, scheme, report, defaulted, tuple(residual))

    def _publish_solver_stats(self) -> None:
        """Fold this state's solver counters into the global registry.

        Runs once per successfully checked binding (``solver.*`` metric
        names mirror :class:`repro.infer.unify.UnifierStats` fields).
        """
        stats = getattr(self.state, "stats", None)
        if stats is None:
            # Stand-in solver states (the benchmarks' legacy baseline)
            # carry no counters; nothing to publish.
            return
        counts = stats.as_dict()
        published = self._solver_published
        for key, value in counts.items():
            delta = value - published.get(key, 0)
            if delta:
                _REGISTRY.counter("solver." + key).inc(delta)
        self._solver_published = counts

    def _infer_unsigned(self, env: TypeEnv, name: str,
                        params: Sequence[str], rhs: Expr
                        ) -> Tuple[Scheme, List[ClassConstraint],
                                   Tuple[str, ...]]:
        param_types: List[SType] = []
        local_env = env
        for param in params:
            binder_type = self.state.fresh_type_uvar()
            self.record_binder(binder_type,
                               f"parameter {param!r} of {name!r}")
            param_types.append(binder_type)
            local_env = local_env.bind(param, Scheme.monomorphic(binder_type))
        # Monomorphic recursion: the binding may refer to itself.
        self_type = self.state.fresh_type_uvar()
        local_env = local_env.bind(name, Scheme.monomorphic(self_type))
        rhs_type, wanted = self.infer(local_env, rhs)
        full_type: SType = rhs_type
        if param_types:
            full_type = fun(*param_types, rhs_type)
        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("unit.unify", binding=name)
        try:
            self.state.unify_types(self_type, full_type)
            wanted = self._discharge(wanted)
            result: GeneralisationResult = generalise(
                self.state, env, full_type, wanted,
                generalise_reps=self.options.generalise_reps)
        finally:
            if traced:
                _TRACER.end("unit.unify")
        return result.scheme, list(result.residual_constraints), \
            result.defaulted_rep_vars

    def _check_against_signature(self, env: TypeEnv, name: str,
                                 params: Sequence[str], rhs: Expr,
                                 signature: SType
                                 ) -> Tuple[Scheme, List[ClassConstraint]]:
        declared = Scheme.from_type(signature)
        _, body, givens = self._skolemise(declared)
        previous_givens = list(self.givens)
        self.givens.extend(givens)
        try:
            local_env = env.bind(name, declared)  # polymorphic recursion OK
            current: SType = body
            for param in params:
                current = self.state.zonk_type(current)
                if not isinstance(current, FunTy):
                    raise TypeCheckError(
                        f"the equation for {name!r} has more parameters than "
                        f"its signature {signature.pretty()} allows")
                self.record_binder(current.argument,
                                   f"parameter {param!r} of {name!r}")
                local_env = local_env.bind(
                    param, Scheme.monomorphic(current.argument))
                current = current.result
            traced = _TRACER.enabled
            if traced:
                _TRACER.begin("unit.unify", binding=name, mode="check")
            try:
                wanted = self.check(local_env, rhs, current)
                residual = self._discharge(wanted)
            finally:
                if traced:
                    _TRACER.end("unit.unify")
            return declared, residual
        finally:
            self.givens = previous_givens

    def _infer_local_binding(self, env: TypeEnv, let: ELet) -> BindingResult:
        return self.infer_binding(env, let.var, (), let.rhs,
                                  signature=let.signature)

    # --------------------------------------------------------------- modules

    def infer_module(self, module: Module, env: TypeEnv) -> ModuleResult:
        """Infer every binding of a module, in declaration order."""
        result = ModuleResult()
        signatures = module.signatures()
        current_env = env

        for decl in module.decls:
            if isinstance(decl, DataDecl):
                current_env = current_env.bind_many(
                    _constructor_schemes(decl))
            elif isinstance(decl, ClassDecl):
                if self.class_env is None:
                    raise TypeCheckError(
                        "class declarations require a class environment "
                        "(see repro.classes)")
                self.class_env.register_class(decl)
                current_env = current_env.bind_many(
                    self.class_env.method_schemes(decl))
            elif isinstance(decl, InstanceDecl):
                if self.class_env is None:
                    raise TypeCheckError(
                        "instance declarations require a class environment "
                        "(see repro.classes)")
                self.class_env.register_instance(decl, self, current_env)
            elif isinstance(decl, FunBind):
                binding = self.infer_binding(
                    current_env, decl.name, decl.params, decl.rhs,
                    signature=signatures.get(decl.name))
                result.bindings[decl.name] = binding
                result.schemes[decl.name] = binding.scheme
                current_env = current_env.bind(decl.name, binding.scheme)
            # Standalone TypeSig declarations are picked up via signatures.

        result.env = current_env
        return result


def _constructor_schemes(decl: DataDecl) -> Dict[str, Scheme]:
    """Schemes for the constructors of an (ordinary, lifted) data type."""
    from ..surface.types import TyApp, TyCon, kind_of_type

    binder_kinds = [(binder.name, binder.kind) for binder in decl.binders]
    result_kind = TYPE_LIFTED
    tycon_kind = result_kind
    for _, kind in reversed(binder_kinds):
        from ..core.kinds import ArrowKind
        tycon_kind = ArrowKind(kind, tycon_kind)
    tycon = TyCon(decl.name, tycon_kind)
    result_type: SType = tycon
    for binder_name, binder_kind in binder_kinds:
        result_type = TyApp(result_type, TyVar(binder_name, binder_kind))

    schemes: Dict[str, Scheme] = {}
    for constructor in decl.constructors:
        constructor_type: SType = result_type
        for field_type in reversed(constructor.fields):
            constructor_type = FunTy(field_type, constructor_type)
        schemes[constructor.name] = Scheme(
            (), tuple(binder_kinds), (), constructor_type)
    return schemes


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def infer_expr(expr: Expr, env: Optional[TypeEnv] = None,
               options: Optional[InferOptions] = None,
               class_env=None) -> SType:
    """Infer (and zonk) the type of a single expression."""
    from ..surface.prelude import prelude_env

    inferencer = Inferencer(options, class_env)
    environment = env or prelude_env()
    type_, constraints = inferencer.infer(environment, expr)
    residual = inferencer._discharge(constraints)
    inferencer._require_no_residual("<expression>", residual)
    if inferencer.options.run_levity_check:
        report = check_records(inferencer.state, inferencer.records)
        if report.violations:
            raise LevityPolymorphicBinder(report.pretty()) \
                if report.violations[0].kind_of_violation == "binder" \
                else LevityPolymorphicArgument(report.pretty())
    return inferencer.state.zonk_type(type_)


def infer_binding(name: str, params: Sequence[str], rhs: Expr,
                  signature: Optional[SType] = None,
                  env: Optional[TypeEnv] = None,
                  options: Optional[InferOptions] = None,
                  class_env=None) -> BindingResult:
    """Infer or check a single top-level binding against the prelude."""
    from ..surface.prelude import prelude_env

    inferencer = Inferencer(options, class_env)
    return inferencer.infer_binding(env or prelude_env(), name, params, rhs,
                                    signature)


def infer_module(module: Module, env: Optional[TypeEnv] = None,
                 options: Optional[InferOptions] = None,
                 class_env=None) -> ModuleResult:
    """Infer a whole module against the prelude."""
    from ..surface.prelude import prelude_env

    inferencer = Inferencer(options, class_env)
    return inferencer.infer_module(module, env or prelude_env())
