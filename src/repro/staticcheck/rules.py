"""The engine-contract rules: RS001-RS006, RS009 and RS011-RS014.

Each rule is documented in ``docs/static-analysis.md`` with its
rationale, the exact exemptions it grants and the finding (or
regression fixture) that justifies keeping it; the docstrings here are
the normative short form.  Codes of deleted rules are not reused.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterable

from repro.staticcheck.callgraph import RACING, walk_own
from repro.staticcheck.core import (
    FileContext,
    Project,
    Rule,
    register_rule,
)

_BITWISE_BINOPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)

#: repro.bits.words helpers whose return value is a word/bitmap.
_BITMAP_HELPERS = frozenset({
    "lowest_bit",
    "clear_lowest_bit",
    "mask_up_to",
    "mask_from",
    "interval_between",
    "prefix_xor",
})


def _is_int_literal(node: ast.AST, value: int | None = None) -> bool:
    if not (isinstance(node, ast.Constant) and type(node.value) is int):
        return False
    return value is None or node.value == value


def _has_bitand_ancestor(node: ast.AST, ctx: FileContext) -> bool:
    """Whether the expression's value flows through an ``&`` before it
    leaves the enclosing statement (``&`` with any operand clamps a
    non-negative word back into range; ``&`` with ``~x`` keeps the other
    operand's bound)."""
    current = node
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.stmt):
            return isinstance(anc, ast.AugAssign) and isinstance(anc.op, ast.BitAnd)
        if isinstance(anc, ast.BinOp) and isinstance(anc.op, ast.BitAnd):
            return True
        if isinstance(anc, ast.Call) and current in anc.args:
            # The value escapes into a call — stop scanning; the callee
            # is responsible for its own clamping.
            return False
        current = anc
    return False


def _is_single_bit_expr(node: ast.AST, ctx: FileContext, scope: ast.AST,
                        _depth: int = 0) -> bool:
    """``1 << n`` or a name only ever bound to such expressions."""
    if _depth > 4:
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
        return _is_int_literal(node.left)
    if isinstance(node, ast.Name):
        bindings = ctx.bindings(scope).get(node.id)
        if bindings:
            return all(
                _is_single_bit_expr(value, ctx, scope, _depth + 1)
                for value in bindings
            )
    if isinstance(node, ast.IfExp):
        return all(
            _is_single_bit_expr(branch, ctx, scope, _depth + 1)
            for branch in (node.body, node.orelse)
        )
    return False


def _is_word_like(node: ast.AST, ctx: FileContext, scope: ast.AST,
                  _seen: frozenset[str] = frozenset(), _depth: int = 0) -> bool:
    """Heuristic taint: could this expression hold a word/bitmap value?

    True for bitwise operations, calls to the known bitmap helpers of
    :mod:`repro.bits.words`, and names bound (flow-insensitively, in the
    enclosing scope) to either.  Parameters and plain arithmetic stay
    untainted — positions and counters are not words.
    """
    if _depth > 6:
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BITWISE_BINOPS):
        # Bitwise ops over comparison results are numpy boolean-mask
        # algebra ((a == 0) & flag), not word arithmetic.
        if isinstance(node.left, ast.Compare) or isinstance(node.right, ast.Compare):
            return False
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _BITMAP_HELPERS
    if isinstance(node, ast.Name) and node.id not in _seen:
        bindings = ctx.bindings(scope).get(node.id, ())
        return any(
            _is_word_like(value, ctx, scope, _seen | {node.id}, _depth + 1)
            for value in bindings
        )
    return False


@register_rule
class UnmaskedWordArithmetic(Rule):
    """RS001: word arithmetic in ``repro/bits/`` must clamp to the word.

    Python ints are unbounded; the paper's Algorithm-3 tricks assume
    fixed 64-bit words.  ``~``, ``<<`` (non-constant shiftee), and
    ``+``/``-`` on word-tainted values must flow through an ``&`` before
    the end of the statement.  Exemptions: ``1 << n`` single-bit/mask
    construction, ``x - 1`` where ``x`` is a single bit (the borrow
    cannot underflow), ``~m`` used directly as a subscript index (numpy
    boolean masking, fixed-width by construction).
    """

    code = "RS001"
    name = "unmasked-word-arithmetic"
    summary = "bit-parallel arithmetic not clamped with '& WORD_MASK'"
    node_types = (ast.BinOp, ast.UnaryOp, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        if not ctx.in_packages("bits"):
            return
        scope = ctx.enclosing_scope(node)
        if isinstance(node, ast.UnaryOp):
            self._check_unary(node, ctx, project, scope)
        elif isinstance(node, ast.BinOp):
            self._check_binop(node, ctx, project, scope)
        else:
            self._check_augassign(node, ctx, project, scope)

    def _check_unary(self, node: ast.UnaryOp, ctx: FileContext,
                     project: Project, scope: ast.AST) -> None:
        if isinstance(node.op, ast.Invert):
            parent = ctx.parent(node)
            if isinstance(parent, ast.Subscript) and parent.slice is node:
                return  # numpy boolean-mask indexing
            if not _has_bitand_ancestor(node, ctx):
                project.add(self, ctx, node,
                            "'~' result is negative in unbounded Python ints; "
                            "clamp with '& WORD_MASK' (or the chunk mask)")
        elif isinstance(node.op, ast.USub):
            if _is_word_like(node.operand, ctx, scope) and \
                    not _has_bitand_ancestor(node, ctx):
                project.add(self, ctx, node,
                            "unary '-' on a word value yields a negative int; "
                            "use it only inside an '&' clamp")

    def _check_binop(self, node: ast.BinOp, ctx: FileContext,
                     project: Project, scope: ast.AST) -> None:
        if isinstance(node.op, ast.LShift):
            if _is_int_literal(node.left):
                return  # 1 << n: single-bit / constant construction
            if not _has_bitand_ancestor(node, ctx):
                project.add(self, ctx, node,
                            "'<<' can carry set bits past the word width; "
                            "clamp the result with '& WORD_MASK'")
        elif isinstance(node.op, (ast.Add, ast.Sub)):
            if not (_is_word_like(node.left, ctx, scope)
                    or _is_word_like(node.right, ctx, scope)):
                return
            if _has_bitand_ancestor(node, ctx):
                return
            if isinstance(node.op, ast.Sub) and _is_int_literal(node.right, 1) and (
                _is_single_bit_expr(node.left, ctx, scope)
            ):
                return  # (1 << n) - 1 / b - 1 mask construction: b >= 1
            kind = "+" if isinstance(node.op, ast.Add) else "-"
            project.add(self, ctx, node,
                        f"'{kind}' on word values can overflow/underflow the "
                        "64-bit word; clamp with '& WORD_MASK'")

    def _check_augassign(self, node: ast.AugAssign, ctx: FileContext,
                         project: Project, scope: ast.AST) -> None:
        if isinstance(node.op, ast.LShift):
            project.add(self, ctx, node,
                        "'<<=' cannot be clamped in place; write the masked "
                        "form 'x = (x << n) & WORD_MASK' (counters: 'x *= 2')")
        elif isinstance(node.op, (ast.Add, ast.Sub)):
            if _is_word_like(node.target, ctx, scope) or \
                    _is_word_like(node.value, ctx, scope):
                kind = "+=" if isinstance(node.op, ast.Add) else "-="
                project.add(self, ctx, node,
                            f"'{kind}' on a word value cannot be clamped in "
                            "place; write the masked explicit form")


#: Raise targets that are always acceptable: abstract-method guards,
#: iteration-protocol signals, and the process-exit protocol
#: (``raise SystemExit(main())`` — an exit code, not an error).
_ALLOWED_BUILTIN_RAISES = frozenset({
    "NotImplementedError", "StopIteration", "StopAsyncIteration", "SystemExit",
})

_BUILTIN_EXCEPTIONS = frozenset(
    name for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


@register_rule
class RaiseTaxonomy(Rule):
    """RS002: engine/resilience/checkpoint/stream code raises only the
    :mod:`repro.errors` hierarchy.

    A bare ``ValueError`` from deep inside an engine is indistinguishable
    from a data bug to callers that catch ``ReproError``; the error
    surface is part of the API.  Private module-local control-flow
    exceptions (``_Suspend``) and abstract-method
    ``NotImplementedError`` are exempt.  ``benchmarks/`` is in scope
    too — a harness that raises ``ValueError`` where it means "the
    contract was violated" muddies its own verdicts — but harness
    *plumbing* failures (boot, subprocess wrangling) may raise
    ``RuntimeError`` with a reasoned suppression.
    """

    code = "RS002"
    name = "raise-taxonomy"
    summary = "builtin exception raised where repro.errors is required"
    node_types = (ast.Raise,)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        assert isinstance(node, ast.Raise)
        if not ctx.in_packages("engine", "resilience", "checkpoint", "stream",
                               "benchmarks"):
            return
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        if isinstance(exc, ast.Call):
            exc = exc.func
        if not isinstance(exc, ast.Name):
            return  # attribute raises (errors.X) and exotic forms pass
        name = exc.id
        if name.startswith("_"):
            return  # private module-local control-flow exception
        if name in _ALLOWED_BUILTIN_RAISES:
            return
        if name in _BUILTIN_EXCEPTIONS:
            project.add(self, ctx, node,
                        f"raises builtin {name}; raise a repro.errors class "
                        "(subclass the builtin for compatibility if needed)")


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _accepts_keyword(args: ast.arguments, name: str) -> bool:
    if args.kwarg is not None:
        return True
    return any(arg.arg == name for arg in [*args.args, *args.kwonlyargs])


def _is_abstract_method(node: ast.FunctionDef) -> bool:
    """Body is (docstring +) a single ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _is_engine_class(node: ast.ClassDef) -> bool:
    """Public class subclassing EngineBase, or duck-typed with both
    ``run`` and ``run_records`` (the multi-query engine).  An abstract
    base whose own ``run`` merely raises NotImplementedError is not an
    engine."""
    if node.name.startswith("_"):
        return False
    methods = {
        item.name: item for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    run = methods.get("run")
    if run is not None and isinstance(run, ast.FunctionDef) and _is_abstract_method(run):
        return False
    for base in node.bases:
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name == "EngineBase":
            return True
    return "run" in methods and "run_records" in methods


@register_rule
class LimitsThreading(Rule):
    """RS003: engines accept ``limits=`` and forward it to nested engines.

    Resource guards only work if every nested scan inherits them: an
    engine that builds a sub-engine without ``limits=`` opens an
    unguarded path (a depth bomb inside a filter candidate would bypass
    ``max_depth``).  Checked in ``repro/engine/`` and
    ``repro/baselines/``: every public engine class's ``__init__`` must
    accept ``limits`` (directly or via ``**kwargs``), and every call to
    an engine constructor must pass ``limits=`` or forward ``**kwargs``.

    Also checked in ``repro/serve/``: every service dispatch site that
    compiles an engine (``compile`` / ``compile_engine``) must pass
    ``limits=`` explicitly — a request that reaches an engine without
    its own deadline has silently escaped the budget-propagation
    contract.
    """

    code = "RS003"
    name = "limits-threading"
    summary = "'limits=' not accepted or not forwarded to a nested engine"
    node_types = (ast.ClassDef, ast.Call)

    #: serve-side compile entry points that must carry the request limits.
    _SERVE_COMPILE_NAMES = frozenset({"compile", "compile_engine"})

    def __init__(self) -> None:
        self._engine_classes: set[str] = set()
        self._calls: list[tuple[str, ast.Call, bool]] = []
        self._missing_init: list[tuple[str, ast.ClassDef]] = []

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        if ctx.in_packages("serve"):
            self._visit_serve(node, ctx, project)
            return
        if not ctx.in_packages("engine", "baselines"):
            return
        if isinstance(node, ast.ClassDef):
            if not _is_engine_class(node):
                return
            self._engine_classes.add(node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    if not _accepts_keyword(item.args, "limits"):
                        self._missing_init.append((ctx.path, node))
                    break
        else:
            assert isinstance(node, ast.Call)
            name = _call_name(node)
            if name is None:
                return
            threads = (
                any(kw.arg == "limits" or kw.arg is None for kw in node.keywords)
            )
            self._calls.append((ctx.path, node, threads))

    def _visit_serve(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name not in self._SERVE_COMPILE_NAMES:
            return
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
        ):
            return  # re.compile is not an engine
        if not any(kw.arg == "limits" or kw.arg is None for kw in node.keywords):
            project.add(self, ctx, node,
                        f"service dispatch {name}(...) without 'limits=': "
                        "every request must carry its own deadline into the "
                        "engine (pass the rebudgeted request limits)")

    def end_project(self, project: Project) -> None:
        for path, class_node in self._missing_init:
            project.add(self, path, class_node,
                        f"engine class {class_node.name} does not accept "
                        "'limits=' in __init__ (add the parameter or **kwargs)",
                        col=class_node.col_offset)
        for path, call, threads in self._calls:
            name = _call_name(call)
            if name in self._engine_classes and not threads:
                project.add(self, path, call,
                            f"call to engine constructor {name}(...) does not "
                            "forward 'limits=' (pass limits= or **kwargs)",
                            col=call.col_offset)


#: Annotation names that compose to JSON.
_JSON_ATOMS = frozenset({"int", "str", "float", "bool", "None", "NoneType",
                         "dict", "list", "tuple", "object"})
_JSON_CONTAINERS = frozenset({"list", "dict", "tuple", "Optional", "Union"})


def _annotation_is_jsonable(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        # string annotations ('list[int]') and bare None
        if node.value is None:
            return True
        if isinstance(node.value, str):
            try:
                return _annotation_is_jsonable(
                    ast.parse(node.value, mode="eval").body
                )
            except SyntaxError:
                return False
        return False
    if isinstance(node, ast.Name):
        return node.id in _JSON_ATOMS
    if isinstance(node, ast.Attribute):
        return node.attr in _JSON_ATOMS
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_is_jsonable(node.left) and _annotation_is_jsonable(node.right)
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name not in _JSON_CONTAINERS:
            return False
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_is_jsonable(el) for el in elements)
    return False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None
        )
        if name == "dataclass":
            return True
    return False


@register_rule
class CheckpointSerializable(Rule):
    """RS004: checkpoint-payload classes hold only JSON-composable state.

    A field that is not built from ``int/str/float/bool/None`` and
    ``list/dict/tuple`` thereof either crashes ``json.dumps`` at save
    time or — worse — round-trips as a different type and corrupts a
    resume.  Applies to dataclasses in ``repro/checkpoint/`` that define
    ``to_dict`` (the serialization marker).
    """

    code = "RS004"
    name = "checkpoint-serializable"
    summary = "non-JSON-serializable field on a checkpoint payload class"
    node_types = (ast.ClassDef,)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        assert isinstance(node, ast.ClassDef)
        if not ctx.in_packages("checkpoint"):
            return
        if not _is_dataclass(node):
            return
        methods = {
            item.name for item in node.body if isinstance(item, ast.FunctionDef)
        }
        if "to_dict" not in methods:
            return
        for item in node.body:
            if not isinstance(item, ast.AnnAssign):
                continue
            if not _annotation_is_jsonable(item.annotation):
                rendered = ast.unparse(item.annotation)
                project.add(self, ctx, item,
                            f"field annotated {rendered!r} is not "
                            "JSON-primitive-composable; checkpoint payloads "
                            "must survive json.dumps/json.loads unchanged")


#: module.attr call patterns that are nondeterministic.
_NONDET_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
             "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
    "secrets": None,  # every secrets.* call
}


@register_rule
class DeterministicResume(Rule):
    """RS005: checkpoint/resume and differential-fuzz paths are
    deterministic.

    Kill-resume equivalence and fuzz reproducibility both assert
    bit-identical behaviour across process restarts; a ``time.time()``
    in a payload or an unseeded RNG in a mutator silently breaks them.
    Applies to ``repro/checkpoint/`` and ``repro/resilience/fuzz.py``.
    Seeded ``random.Random(seed)`` instances are the sanctioned
    randomness; wall-clock reads belong in injected clocks.

    Builtin ``hash()`` is flagged there and in ``repro/data/`` and
    ``benchmarks/`` too: str and bytes hashes are salted per process, so
    a seed derived from one (``random.Random(hash(name) ^ seed)``) gives
    different "seeded" data in every process.  ``zlib.crc32`` is stable.
    Only the hash check reaches those two trees — benchmarks read clocks
    by design.
    """

    code = "RS005"
    name = "deterministic-resume"
    summary = "nondeterminism (clock/RNG/set order/str hash) on a determinism-critical path"
    node_types = (ast.Call, ast.For, ast.comprehension)

    def _in_scope(self, ctx: FileContext) -> bool:
        return ctx.in_packages("checkpoint") or ctx.module == "repro.resilience.fuzz"

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "hash":
            if self._in_scope(ctx) or ctx.in_packages("data", "benchmarks"):
                project.add(self, ctx, node,
                            "hash() of a str/bytes is salted per process; derive "
                            "seeds and keys with zlib.crc32 instead")
            return
        if not self._in_scope(ctx):
            return
        if isinstance(node, ast.Call):
            self._check_call(node, ctx, project)
        elif isinstance(node, ast.For):
            self._check_iterable(node.iter, ctx, project)
        else:
            assert isinstance(node, ast.comprehension)
            self._check_iterable(node.iter, ctx, project)

    def _check_call(self, node: ast.Call, ctx: FileContext, project: Project) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            return
        module, attr = func.value.id, func.attr
        if module == "random":
            if attr in {"Random", "SystemRandom"}:
                if attr == "SystemRandom" or not (node.args or node.keywords):
                    project.add(self, ctx, node,
                                f"random.{attr}() without a seed is "
                                "nondeterministic; pass an explicit seed")
            else:
                project.add(self, ctx, node,
                            f"module-level random.{attr}() uses global hidden "
                            "state; use a seeded random.Random instance")
            return
        wanted = _NONDET_CALLS.get(module)
        if wanted is None and module in _NONDET_CALLS:
            project.add(self, ctx, node,
                        f"{module}.{attr}() is nondeterministic by design and "
                        "breaks kill-resume equivalence")
        elif wanted is not None and attr in wanted:
            project.add(self, ctx, node,
                        f"{module}.{attr}() reads ambient state; inject a "
                        "clock/seed so resume replays identically")

    def _check_iterable(self, node: ast.expr, ctx: FileContext,
                        project: Project) -> None:
        is_set = isinstance(node, ast.Set) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"}
        )
        if is_set:
            project.add(self, ctx, node,
                        "iteration over a set has hash-order semantics; sort "
                        "first (sorted(...)) on determinism-critical paths")


_RECORDING_NAMES = frozenset({
    "log", "debug", "info", "warning", "warn", "error", "exception",
    "critical", "record", "count", "inc", "increment", "add", "observe",
    "note", "quarantine", "append", "skipped", "print",
})


@register_rule
class ExceptionSwallow(Rule):
    """RS006: no bare/overbroad ``except`` that swallows silently.

    ``except Exception: pass`` hides engine bugs as data errors.  A
    broad handler must re-raise, use the bound exception object, or
    record the event (logger/metric call); otherwise narrow the type.
    """

    code = "RS006"
    name = "exception-swallow"
    summary = "broad except clause swallows the error without recording it"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if not self._is_broad(node.type):
            return
        if self._handler_accounts_for_error(node):
            return
        label = "bare 'except:'" if node.type is None else \
            f"'except {ast.unparse(node.type)}:'"
        project.add(self, ctx, node,
                    f"{label} swallows the error: re-raise, use the bound "
                    "exception, record a metric/log, or narrow the type")

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        candidates: Iterable[ast.expr] = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for candidate in candidates:
            name = candidate.id if isinstance(candidate, ast.Name) else (
                candidate.attr if isinstance(candidate, ast.Attribute) else None
            )
            if name in {"Exception", "BaseException"}:
                return True
        return False

    @staticmethod
    def _handler_accounts_for_error(node: ast.ExceptHandler) -> bool:
        bound = node.name
        for child in node.body:
            for sub in ast.walk(child):
                if isinstance(sub, ast.Raise):
                    return True
                if bound and isinstance(sub, ast.Name) and sub.id == bound:
                    return True
                if isinstance(sub, ast.Call):
                    name = _call_name(sub)
                    if name in _RECORDING_NAMES:
                        return True
        return False


#: ``await obj.ATTR(...)`` on one of these attributes paces the handler
#: on a remote party — a client socket, a queue peer, a lock holder —
#: and must therefore be bounded by ``asyncio.wait_for``.
_CLIENT_IO_ATTRS = frozenset({
    "read", "readline", "readexactly", "readuntil", "drain", "sendall",
    "recv", "accept", "connect", "wait_closed", "get", "put", "join",
    "wait", "acquire",
})

#: Queue constructors that default to unbounded capacity.
_QUEUE_NAMES = frozenset({"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"})


@register_rule
class BoundedServeIO(Rule):
    """RS009: serve never waits on a client without a timeout, never
    queues without a bound.

    The service's overload contract is *shed, don't stall*.  Two code
    shapes silently break it:

    - an ``await`` on client-paced I/O (``reader.read*``,
      ``writer.drain``, ``queue.get`` …) without ``asyncio.wait_for``
      is a hang vector — one slow-loris client parks a handler forever;
    - an unbounded ``Queue()`` converts overload into unbounded latency
      instead of a 429.

    Checked only inside ``src/repro/serve/``.  A deliberately
    indefinite wait (e.g. sleeping until SIGTERM) takes a reasoned
    ``# repro: ignore[RS009]`` suppression.
    """

    code = "RS009"
    name = "bounded-serve-io"
    summary = "unbounded queue or wait_for-less await on client I/O in repro/serve"
    node_types = (ast.Await, ast.Call)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        if not ctx.in_packages("serve"):
            return
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _QUEUE_NAMES and not (
                node.args
                or any(kw.arg == "maxsize" for kw in node.keywords)
            ):
                project.add(self, ctx, node,
                            f"{name}() without a maxsize bound: an unbounded "
                            "queue converts overload into latency — bound it "
                            "and shed (429) when full")
            return
        assert isinstance(node, ast.Await)
        value = node.value
        if not isinstance(value, ast.Call):
            return
        if _call_name(value) in ("wait_for", "timeout_at"):
            return  # the bounding construct itself
        func = value.func
        if isinstance(func, ast.Attribute) and func.attr in _CLIENT_IO_ATTRS:
            project.add(self, ctx, node,
                        f"await on .{func.attr}(...) without asyncio.wait_for: "
                        "a client that never completes this I/O hangs the "
                        "handler — wrap it with the request's client_timeout")


#: ``os.<attr>`` calls that are the tell-tale of a hand-rolled
#: atomic-write protocol (the rename that publishes, the fsyncs that
#: order it).
_DURABLE_OS_ATTRS = frozenset({"replace", "rename", "fsync"})

#: Path-object methods that publish or write a file when called on a
#: temp-file name — the ``tmp.write_bytes(...); tmp.rename(path)`` idiom.
_DURABLE_PATH_ATTRS = frozenset({"replace", "rename", "write_bytes"})


@register_rule
class HandRolledDurableWrite(Rule):
    """RS011: persistent-path writes go through ``repro.storage``.

    Crash consistency is a protocol, not a line of code: tmp-in-dir,
    fsync, rename, parent-dir fsync, tmp cleanup on failure — and it is
    only *proven* for writers the disk-chaos harness can reach through
    the injectable filesystem shim.  A bare ``os.replace`` (or a
    ``tmp.write_bytes(...) / tmp.rename(...)`` pair) outside
    ``repro/storage`` is a second, unproven implementation of that
    protocol: it will drift (the sidecar writer missed the parent-dir
    fsync and leaked its temp file on a failed write until it was
    migrated).  Everything durable routes through
    :func:`repro.storage.atomic_write`; :mod:`repro.storage` itself is
    the one place allowed to touch the raw syscalls.
    """

    code = "RS011"
    name = "hand-rolled-durable-write"
    summary = "durable-write syscalls outside repro.storage"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        assert isinstance(node, ast.Call)
        if ctx.in_packages("storage"):
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv = func.value
        if (isinstance(recv, ast.Name) and recv.id == "os"
                and func.attr in _DURABLE_OS_ATTRS):
            project.add(self, ctx, node,
                        f"os.{func.attr} outside repro/storage: route the "
                        "write through repro.storage.atomic_write so the "
                        "full protocol (tmp + fsync + rename + dir fsync + "
                        "cleanup) applies and fault injection can reach it")
            return
        if (isinstance(recv, ast.Name) and "tmp" in recv.id.lower()
                and func.attr in _DURABLE_PATH_ATTRS):
            project.add(self, ctx, node,
                        f"{recv.id}.{func.attr}(...) looks like a hand-rolled "
                        "tmp-file publish: use repro.storage.atomic_write "
                        "instead of a private tmp+rename protocol")


# ---------------------------------------------------------------------
# Concurrency rules (RS012-RS014): whole-program, built on the call
# graph, execution contexts, blocking chains and shared classes of
# callgraph.py.  They run from end_project only (no node_types, so the
# per-node dispatcher never calls them).
# ---------------------------------------------------------------------


def _lock_guarded(node: ast.AST, ctx: FileContext) -> bool:
    """Whether the node sits inside a ``with``/``async with`` on a lock.

    Lexical only: the guard must be visible in the same function.  A
    context expression counts as a lock when any identifier in it
    mentions "lock" or "mutex" (``self._index_lock``, ``LOCK``,
    ``cache_lock.acquire_timeout(...)``).
    """
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        if isinstance(anc, (ast.With, ast.AsyncWith)) and _is_lock_with(anc):
            return True
    return False


def _is_lock_with(node: ast.With | ast.AsyncWith) -> bool:
    for item in node.items:
        for sub in ast.walk(item.context_expr):
            name = None
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            if name is not None and ("lock" in name.lower() or "mutex" in name.lower()):
                return True
    return False


@register_rule
class BlockingCallInEventLoop(Rule):
    """RS012: no await-free path from the event loop to blocking I/O.

    One loop thread serves every connection; a single ``flock`` or
    sidecar ``mmap`` on it stalls *all* of them (the slow-loris and
    burst phases of serve_chaos measure exactly this).  The rule walks
    the whole-program call graph from every loop root — ``async def``
    bodies and callables handed to ``call_soon``/``call_later`` — and
    flags any call site that reaches a blocking primitive (``fsync``,
    ``flock``, ``os.replace``, ``mmap``, file open/read/write,
    ``time.sleep``, and anything that transitively calls them, e.g.
    stage-1 ``build``/``load_or_build``) without first hopping contexts
    through ``run_in_executor``/``submit``.  The diagnostic carries the
    reconstructed chain down to the primitive.  The runtime
    cross-check is :mod:`repro.serve.loopguard`.
    """

    code = "RS012"
    name = "blocking-in-loop"
    summary = "blocking call reachable from the event loop without an executor hop"

    def end_project(self, project: Project) -> None:
        graph = project.call_graph()
        for qualname in sorted(graph.loop_roots):
            info = graph.functions.get(qualname)
            if info is None:
                continue
            for site in info.calls:
                chain = graph.blocking_chain(site)
                if chain is None:
                    continue
                if len(chain) == 1:
                    project.add(self, info.ctx, site.node,
                                f"blocking call '{chain[0]}' on the event-loop "
                                "thread: every connection stalls while it runs "
                                "— hand it to the executor "
                                "(await loop.run_in_executor(...))")
                else:
                    project.add(self, info.ctx, site.node,
                                f"await-free blocking path: {' -> '.join(chain)} "
                                "runs on the event-loop thread — hop to the "
                                "executor before entering it")


@register_rule
class UnguardedSharedState(Rule):
    """RS013: shared mutable state is written under a lock, or not at all.

    A *shared* object is one that outlives a request and is reachable
    from more than one execution context: module-level singletons
    (``QUERY_CACHE``, the metrics registry), service objects with
    async methods, and anything such an object stores or returns.  The
    context analysis assigns each function the set of contexts that can
    run it ({loop, executor, thread}; pool workers have their own
    memory and do not count); a write to shared state from a function
    runnable in two of them is a data race unless a ``with <lock>``
    lexically guards it.  Plain ``x += 1`` is three bytecodes — the GIL
    does not make it atomic (tests/test_concurrency_races.py
    demonstrates the lost updates).
    """

    code = "RS013"
    name = "unguarded-shared-state"
    summary = "shared state written from >=2 execution contexts without a lock"

    def end_project(self, project: Project) -> None:
        graph = project.call_graph()
        for qualname, info in sorted(graph.functions.items()):
            racing = graph.contexts[qualname] & RACING
            if len(racing) < 2:
                continue
            if info.name in ("__init__", "__post_init__", "__new__"):
                continue  # object under construction is not yet shared
            owner = graph.owner_of(qualname)
            owner_shared = owner is not None and owner.qualname in graph.shared_classes
            module_globals = graph.module_global_names(info.module)
            contexts = ", ".join(sorted(racing))
            for node, desc in _shared_writes(
                info, owner.name if owner_shared and owner else None, module_globals
            ):
                if _lock_guarded(node, info.ctx):
                    continue
                project.add(self, info.ctx, node,
                            f"unguarded write to shared {desc} from "
                            f"contexts {{{contexts}}}: interleavings lose "
                            "updates or tear multi-field stats — hold a "
                            "threading.Lock around the mutation (asyncio.Lock "
                            "only serializes tasks on the loop)")


def _shared_writes(info, owner_class: str | None,
                   module_globals: set[str]) -> Iterable[tuple[ast.AST, str]]:
    """Yield (node, description) for writes to shared state in a function
    (a lambda's single expression is not checked)."""
    if isinstance(info.node, ast.Lambda):
        return
    own = list(walk_own(info.node))
    declared_global = {
        name for stmt in own if isinstance(stmt, ast.Global) for name in stmt.names
    }
    for stmt in own:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                desc = _shared_target_desc(
                    target, owner_class, module_globals, declared_global
                )
                if desc is not None:
                    yield target, desc
        elif isinstance(stmt, ast.Call):
            # Mutating calls on shared receivers: x.append/.update/.pop
            func = stmt.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                desc = _shared_target_desc(
                    func.value, owner_class, module_globals, declared_global,
                    mutating_call=func.attr,
                )
                if desc is not None:
                    yield stmt, desc


_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "setdefault",
    "update", "clear", "remove", "discard", "add",
})


def _shared_target_desc(target: ast.AST, owner_class: str | None,
                        module_globals: set[str],
                        declared_global: set[str],
                        mutating_call: str | None = None) -> str | None:
    suffix = f".{mutating_call}(...)" if mutating_call else ""
    # self.attr = ... / self.attr += ... / self.attr.update(...)
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)):
        base = target.value.id
        if base == "self" and owner_class is not None:
            return f"attribute {owner_class}.{target.attr}{suffix}"
        if base in module_globals:
            # GLOBAL.attr = ... — attribute write on a module singleton
            return f"module global {base}.{target.attr}{suffix}"
    # self.attr[k] = ... (shared dict/list slot)
    if isinstance(target, ast.Subscript):
        base = target.value
        if (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
                and base.value.id == "self" and owner_class is not None):
            return f"attribute {owner_class}.{base.attr}[...]{suffix}"
        if isinstance(base, ast.Name) and base.id in module_globals:
            return f"module global {base.id}[...]{suffix}"
    # NAME = ... rebinding a declared global, NAME.add(...) on a global
    if isinstance(target, ast.Name):
        if target.id in declared_global:
            return f"module global {target.id}"
        if mutating_call is not None and target.id in module_globals:
            return f"module global {target.id}{suffix}"
    return None


@register_rule
class AwaitSplitReadModifyWrite(Rule):
    """RS014: a read-modify-write of shared state must not span an await.

    Every ``await`` is a scheduling point: any other task — including
    another instance of the *same handler* — may run before control
    returns.  A value read from a shared attribute before the await is
    stale by the time the write lands after it, even with zero threads
    involved (this is the single-threaded race asyncio makes possible).
    The rule walks each ``async def`` in source order, counting awaits,
    and flags attributes of shared objects (and module globals) that
    are read at one await-count and written at a strictly later one.
    Fix by recomputing after the await, or by holding an
    ``asyncio.Lock`` across the whole read-modify-write.
    """

    code = "RS014"
    name = "await-split-rmw"
    summary = "read-modify-write of shared state split across an await"

    def end_project(self, project: Project) -> None:
        graph = project.call_graph()
        for qualname, info in sorted(graph.functions.items()):
            if not info.is_async:
                continue
            owner = graph.owner_of(qualname)
            owner_shared = owner is not None and owner.qualname in graph.shared_classes
            module_globals = graph.module_global_names(info.module)
            events = _AwaitEvents(
                owner.name if owner_shared and owner else None, module_globals
            )
            events.collect(info.node)
            for key, write_node, read_tick, write_tick in events.split_rmws():
                project.add(self, info.ctx, write_node,
                            f"read-modify-write of shared {key} spans an await "
                            f"(read before await #{read_tick + 1}, written "
                            "after it): another task can interleave and its "
                            "update is lost — recompute after the await or "
                            "hold an asyncio.Lock across both")


class _AwaitEvents:
    """In-order scan of an async body: shared reads/writes vs awaits."""

    def __init__(self, owner_class: str | None, module_globals: set[str]) -> None:
        self.owner_class = owner_class
        self.module_globals = module_globals
        self.ticks = 0
        self.lock_depth = 0
        self.reads: dict[str, int] = {}      # key -> earliest tick
        self.writes: list[tuple[str, ast.AST, int]] = []

    def collect(self, root: ast.AST) -> None:
        for child in ast.iter_child_nodes(root):
            self._visit(child, root)

    def _visit(self, node: ast.AST, root: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Await):
            for child in ast.iter_child_nodes(node):
                self._visit(child, root)
            self.ticks += 1
            return
        if isinstance(node, (ast.With, ast.AsyncWith)) and _is_lock_with(node):
            self.lock_depth += 1
            for child in ast.iter_child_nodes(node):
                self._visit(child, root)
            self.lock_depth -= 1
            return
        key = self._shared_key(node)
        if key is not None and self.lock_depth == 0:
            accesses = getattr(node, "ctx", None)
            if isinstance(accesses, ast.Load):
                self.reads.setdefault(key, self.ticks)
            elif isinstance(accesses, (ast.Store, ast.Del)):
                self.writes.append((key, node, self.ticks))
        for child in ast.iter_child_nodes(node):
            self._visit(child, root)

    def _shared_key(self, node: ast.AST) -> str | None:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.owner_class is not None):
            return f"{self.owner_class}.{node.attr}"
        if isinstance(node, ast.Name) and node.id in self.module_globals:
            return f"module global {node.id}"
        return None

    def split_rmws(self):
        for key, node, write_tick in self.writes:
            read_tick = self.reads.get(key)
            if read_tick is not None and write_tick > read_tick:
                yield key, node, read_tick, write_tick
