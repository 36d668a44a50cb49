"""Whole-program analysis for the concurrency rules (RS012-RS014).

The per-file rules (RS001-RS006, RS009, RS011) are pattern matchers;
the concurrency rules need to answer questions no single file can: *is
this function reachable from an ``async def`` without an executor hop?*
and *is this attribute written from two execution contexts at once?*
:func:`build_graph` answers them in four steps:

**1. Index.**  Every file contributes its module name, its imports
(module- and function-level), its module-level bindings, and every
function-like scope (functions, methods, nested defs, lambdas) under a
dotted qualname (``repro.serve.app.QueryService._dispatch``).  Classes
record their methods, their base names, and a best-effort map of
attribute name → class (from ``__init__`` assignments, parameter
annotations threaded through ``self.x = param``, and dataclass field
annotations).

**2. Resolve.**  Every call site in every function body is resolved to
project qualnames where possible:

- plain names resolve lexically (nested defs, module functions,
  imported symbols — following package re-exports), then to classes
  (a constructor call is an edge to ``__init__``/``__post_init__``);
- attribute calls resolve through light type inference on the
  receiver (constructor bindings, parameter/attribute annotations,
  and return annotations of already-resolved calls); an *untyped*
  receiver falls back to by-name method lookup only when the method
  name is unique to one project class — ambiguous names produce no
  edge rather than a wrong one;
- **dispatch sites are not ordinary edges**: ``loop.run_in_executor``,
  ``executor.submit``, ``pool.submit``/``apply_async``,
  ``Thread(target=...)`` and ``loop.call_soon*`` hand their callable to
  a different execution context, which is exactly the boundary the
  concurrency rules care about.  The dispatched callable (name, bound
  method, lambda, or ``functools.partial``) is recorded with the
  context it will run in.

**3. Contexts.**  Every ``async def`` body runs on the event-loop
thread (``loop``); a callable handed to ``run_in_executor``/
``executor.submit`` runs on an executor thread (``executor``);
``Thread(target=...)`` on a dedicated thread (``thread``); process-pool
submissions in a *worker process* (``pool`` — its memory is not shared
with ours, so it never races our state).  Contexts flow along ordinary
call edges; a dispatch edge does *not* propagate the caller's context
(switching contexts is its whole job), and neither does an edge *into*
an ``async def`` (calling a coroutine function only creates the
coroutine; its body always runs on the loop).

**4. Blocking and sharing.**  A function *blocks* if it directly calls
a blocking primitive (``fcntl.flock``, ``os.fsync``/``os.replace``,
``mmap``, file open/read/write, ``time.sleep``) or calls — without a
dispatch hop — a sync project function that blocks; the chain to the
primitive is kept for the diagnostic (``indexed -> load_or_build ->
flock``).  A class is *shared* (long-lived, reachable from several
contexts at once) if an instance is bound at module level
(``QUERY_CACHE = CompiledQueryCache()``), if it defines async methods
(servers hold themselves across contexts), or if a shared class stores
or returns it (attribute types, method return annotations).

The graph deliberately under-approximates: an edge it cannot resolve
with confidence is dropped, because for RS012/RS013 a wrong edge
manufactures a false finding while a missing edge at worst misses one
(the runtime loopguard is the backstop for misses).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.staticcheck.core import FileContext

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Dispatch callables: method/function name -> (context kind, how to
#: find the callable argument).  ``kind`` is the execution context the
#: callable will run in; ``arg`` is the positional index of the callable
#: (``None`` means keyword ``target=``, the ``Thread`` convention).
_DISPATCH_SPECS: dict[str, tuple[str, int | None]] = {
    "run_in_executor": ("executor", 1),
    "submit": ("executor", 0),  # kind refined from the receiver name
    "apply_async": ("pool", 0),
    "map_async": ("pool", 0),
    "imap": ("pool", 0),
    "imap_unordered": ("pool", 0),
    "Thread": ("thread", None),
    "Timer": ("thread", 1),
    "Process": ("pool", None),
    "call_soon": ("loop", 0),
    "call_soon_threadsafe": ("loop", 0),
    "call_later": ("loop", 1),
    "call_at": ("loop", 1),
    "add_signal_handler": ("loop", 1),
}

#: Receiver-name fragments that turn an ambiguous ``submit`` into a
#: process-pool dispatch (``ProcessPoolExecutor`` workers do not share
#: memory with the submitter, unlike thread executors).
_POOLISH = ("pool", "process", "proc")

#: Contexts that share this process's memory and can interleave.
#: ``pool`` is deliberately left out: a worker process mutating its own
#: copy of a registry is not a race, and treating it as one would drown
#: the real loop-vs-executor findings.
RACING = frozenset({"loop", "executor", "thread"})

#: Fully resolved external callables that block the calling thread.
BLOCKING_EXTERNAL = frozenset({
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "os.replace",
    "os.rename",
    "os.link",
    "os.unlink",
    "os.remove",
    "os.makedirs",
    "os.stat",
    "os.listdir",
    "fcntl.flock",
    "fcntl.lockf",
    "mmap.mmap",
    "open",
    "shutil.rmtree",
    "shutil.copyfile",
    "shutil.move",
    "subprocess.run",
    "subprocess.check_output",
})

#: Attribute names that block even when the receiver cannot be typed —
#: the ``pathlib.Path`` I/O surface plus the raw lock/sync syscalls.
#: Deliberately narrow: generic names (``read``, ``write``, ``get``)
#: would tar asyncio stream methods with the same brush.
BLOCKING_ATTRS = frozenset({
    "read_bytes",
    "read_text",
    "write_bytes",
    "write_text",
    "mkdir",
    "rmdir",
    "touch",
    "flock",
    "lockf",
    "fsync",
})


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    node: ast.Call
    #: Project qualnames this call may enter (same execution context).
    targets: tuple[str, ...] = ()
    #: Dotted external name (``os.fsync``, ``open``) when the call
    #: resolves outside the project.
    external: str | None = None
    #: Raw attribute name for hint matching (``read_bytes``); also set
    #: for unresolved plain-name calls.
    attr: str | None = None
    #: Execution context a dispatched callable runs in, when this call
    #: is a dispatch site (``executor``/``pool``/``thread``/``loop``).
    dispatch: str | None = None
    #: Qualnames of the dispatched callables.
    dispatch_targets: tuple[str, ...] = ()


@dataclass
class FunctionInfo:
    """One function-like scope (def, async def, method, nested, lambda)."""

    qualname: str
    node: ast.AST
    ctx: FileContext
    module: str
    is_async: bool = False
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    base_names: tuple[str, ...] = ()
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> inferred class *name* (project classes only)
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    name: str
    ctx: FileContext
    #: local name -> dotted target ("os", "repro.storage.atomic_write").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level bound names -> the expressions assigned to them.
    globals: dict[str, list[ast.expr]] = field(default_factory=dict)


class CallGraph:
    """The indexed project, its resolved call edges, and the facts
    RS012-RS014 read off them."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}  # by qualname
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        #: function qualname -> qualname of the lexically enclosing
        #: function (nested defs and lambdas).
        self.enclosing: dict[str, str] = {}
        #: (function qualname, name) pairs currently being inferred —
        #: the cycle breaker for rebound names (see _infer_name_type).
        self._inferring_names: set[tuple[str, str]] = set()
        #: function qualname -> execution contexts that can run it.
        self.contexts: dict[str, frozenset[str]] = {}
        #: Functions whose body starts an event-loop stint: ``async def``s
        #: plus sync callables handed to ``call_soon``/``call_later``.
        #: RS012 reports only at these roots (one finding per bad call
        #: site, not one per function along the chain).
        self.loop_roots: set[str] = set()
        #: sync function qualname -> chain of callee names down to the
        #: blocking primitive (last element).
        self.blocking: dict[str, tuple[str, ...]] = {}
        #: Class qualnames whose instances are long-lived/shared.
        self.shared_classes: set[str] = set()

    # -- phase 1: indexing ---------------------------------------------

    def index_file(self, ctx: FileContext) -> None:
        module = ctx.module
        info = ModuleInfo(module, ctx)
        self.modules[module] = info
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    info.imports[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: not used in this tree
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{node.module}.{alias.name}"
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and value is not None:
                    info.globals.setdefault(target.id, []).append(value)
        self._index_scope(ctx.tree, ctx, module, module)

    def _index_scope(
        self,
        scope: ast.AST,
        ctx: FileContext,
        module: str,
        prefix: str,
    ) -> None:
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                self._add_function(FunctionInfo(
                    qualname, child, ctx, module,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                ), prefix)
                self._index_scope(child, ctx, module, qualname)
            elif isinstance(child, ast.ClassDef):
                cls_qual = f"{prefix}.{child.name}"
                cls = ClassInfo(
                    cls_qual, child.name, module, child,
                    base_names=tuple(_name_of(base) for base in child.bases
                                     if _name_of(base)),
                )
                self.classes[cls_qual] = cls
                self.classes_by_name.setdefault(child.name, []).append(cls)
                for item in child.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[item.name] = f"{cls_qual}.{item.name}"
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        inferred = _annotation_class(item.annotation)
                        if inferred:
                            cls.attr_types.setdefault(item.target.id, inferred)
                self._index_scope(child, ctx, module, cls_qual)
            else:
                self._index_lambdas(child, ctx, module, prefix)

    def _index_lambdas(
        self, node: ast.AST, ctx: FileContext, module: str, prefix: str,
    ) -> None:
        """Register lambdas nested in expressions (dispatch callables)."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Lambda):
                qualname = f"{prefix}.<lambda@{sub.lineno}>"
                if qualname not in self.functions:
                    self._add_function(
                        FunctionInfo(qualname, sub, ctx, module),
                        prefix,
                    )

    def _add_function(self, info: FunctionInfo, enclosing_prefix: str) -> None:
        self.functions[info.qualname] = info
        if enclosing_prefix in self.functions:
            self.enclosing[info.qualname] = enclosing_prefix

    def finish_index(self) -> None:
        """Second half of phase 1: derived maps that need every file."""
        for cls in self.classes.values():
            for method_name, qualname in cls.methods.items():
                self.methods_by_name.setdefault(method_name, []).append(qualname)
            for name in ("__init__", "__post_init__"):
                qual = cls.methods.get(name)
                if qual:
                    self._infer_attr_types(cls, self.functions[qual])

    def _infer_attr_types(self, cls: ClassInfo, init: FunctionInfo) -> None:
        node = init.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types: dict[str, str] = {}
        for arg in [*node.args.args, *node.args.kwonlyargs]:
            if arg.annotation is not None:
                inferred = _annotation_class(arg.annotation)
                if inferred:
                    param_types[arg.arg] = inferred
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                inferred: str | None = None
                if isinstance(stmt, ast.AnnAssign):
                    inferred = _annotation_class(stmt.annotation)
                if inferred is None and value is not None:
                    inferred = self._value_class_name(value, init, param_types)
                if inferred and inferred in self.classes_by_name:
                    cls.attr_types.setdefault(target.attr, inferred)

    def _value_class_name(
        self, value: ast.expr, fn: FunctionInfo, param_types: dict[str, str]
    ) -> str | None:
        if isinstance(value, ast.IfExp):
            return (self._value_class_name(value.body, fn, param_types)
                    or self._value_class_name(value.orelse, fn, param_types))
        if isinstance(value, ast.Call):
            name = _name_of(value.func)
            if name and name in self.classes_by_name:
                return name
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        return None

    # -- phase 2: resolution -------------------------------------------

    def resolve(self) -> None:
        for info in self.functions.values():
            self._resolve_function(info)

    def owner_of(self, qualname: str) -> ClassInfo | None:
        """The class a method qualname belongs to, if any."""
        prefix = qualname.rsplit(".", 1)[0]
        return self.classes.get(prefix)

    def _resolve_function(self, info: FunctionInfo) -> None:
        for sub in walk_own(info.node):
            if isinstance(sub, ast.Call):
                info.calls.append(self._resolve_call(sub, info))

    def _resolve_call(self, call: ast.Call, info: FunctionInfo) -> CallSite:
        func = call.func
        # Dispatch sites first: the callee runs in another context.
        dispatch = self._dispatch_site(call, info)
        if dispatch is not None:
            return dispatch
        if isinstance(func, ast.Name):
            return self._resolve_name_call(call, func.id, info)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(call, func, info)
        return CallSite(call)

    def _dispatch_site(self, call: ast.Call, info: FunctionInfo) -> CallSite | None:
        func = call.func
        name = _name_of(func)
        if name not in _DISPATCH_SPECS:
            return None
        kind, arg_index = _DISPATCH_SPECS[name]
        if name == "submit" and isinstance(func, ast.Attribute):
            recv_name = (_name_of(func.value) or "").lower()
            recv_type = self._infer_type(func.value, info) or ""
            if any(tag in recv_name for tag in _POOLISH) or "Process" in recv_type:
                kind = "pool"
        callable_expr: ast.expr | None = None
        if arg_index is None:
            for kw in call.keywords:
                if kw.arg == "target":
                    callable_expr = kw.value
        elif len(call.args) > arg_index:
            callable_expr = call.args[arg_index]
        targets = self._resolve_callable(callable_expr, info) if callable_expr is not None else ()
        return CallSite(call, dispatch=kind, dispatch_targets=targets, attr=name)

    def _resolve_callable(self, expr: ast.expr, info: FunctionInfo) -> tuple[str, ...]:
        """Resolve a callable *value* (not a call): dispatch targets."""
        if isinstance(expr, ast.Lambda):
            for qualname, fn in self.functions.items():
                if fn.node is expr:
                    return (qualname,)
            return ()
        if isinstance(expr, ast.Call) and _name_of(expr.func) == "partial" and expr.args:
            return self._resolve_callable(expr.args[0], info)
        if isinstance(expr, ast.Name):
            site = self._resolve_name_call(ast.Call(func=expr, args=[], keywords=[]), expr.id, info)
            return site.targets
        if isinstance(expr, ast.Attribute):
            site = self._resolve_attr_call(
                ast.Call(func=expr, args=[], keywords=[]), expr, info
            )
            return site.targets
        return ()

    def _resolve_name_call(self, call: ast.Call, name: str, info: FunctionInfo) -> CallSite:
        # 1. lexically enclosing nested defs
        scope_qual = info.qualname
        while True:
            candidate = f"{scope_qual}.{name}"
            if candidate in self.functions:
                return CallSite(call, targets=(candidate,), attr=name)
            nxt = self.enclosing.get(scope_qual)
            if nxt is None:
                break
            scope_qual = nxt
        # 2. module-level function or class in the same module
        module_candidate = f"{info.module}.{name}"
        if module_candidate in self.functions:
            return CallSite(call, targets=(module_candidate,), attr=name)
        if module_candidate in self.classes:
            return CallSite(
                call, targets=self._constructor_targets(self.classes[module_candidate]),
                attr=name,
            )
        # 3. imported symbol (following package re-exports)
        module = self.modules.get(info.module)
        if module and name in module.imports:
            return self._resolve_dotted(call, module.imports[name], name)
        return CallSite(call, attr=name, external=name if name in _KNOWN_EXTERNAL else None)

    def _resolve_dotted(self, call: ast.Call, dotted: str, attr: str) -> CallSite:
        dotted = self._follow_reexport(dotted)
        if dotted in self.functions:
            return CallSite(call, targets=(dotted,), attr=attr)
        if dotted in self.classes:
            return CallSite(
                call, targets=self._constructor_targets(self.classes[dotted]), attr=attr
            )
        return CallSite(call, external=dotted, attr=attr)

    def _constructor_targets(self, cls: ClassInfo) -> tuple[str, ...]:
        targets = []
        for name in ("__init__", "__post_init__"):
            qual = cls.methods.get(name)
            if qual:
                targets.append(qual)
        return tuple(targets)

    def _resolve_attr_call(
        self, call: ast.Call, func: ast.Attribute, info: FunctionInfo
    ) -> CallSite:
        attr = func.attr
        recv = func.value
        # self.method() / cls.method(): the enclosing class, then bases.
        if isinstance(recv, ast.Name) and recv.id in ("self", "cls"):
            cls = self._enclosing_class(info)
            target = self._method_on(cls, attr) if cls else None
            if target:
                return CallSite(call, targets=(target,), attr=attr)
        # module attribute: os.fsync, sidecar.load_buffer, np.frombuffer
        if isinstance(recv, ast.Name):
            module = self.modules.get(info.module)
            if module and recv.id in module.imports:
                dotted = f"{module.imports[recv.id]}.{attr}"
                return self._resolve_dotted(call, dotted, attr)
            # ClassName.classmethod(...)
            resolved = self._resolve_class_named(recv.id, info)
            if resolved is not None:
                target = self._method_on(resolved, attr)
                if target:
                    return CallSite(call, targets=(target,), attr=attr)
        # typed receiver
        recv_type = self._infer_type(recv, info)
        if recv_type:
            resolved = self._resolve_class_named(recv_type, info)
            if resolved is not None:
                target = self._method_on(resolved, attr)
                if target:
                    return CallSite(call, targets=(target,), attr=attr)
        # untyped: by-name, only when unambiguous project-wide
        candidates = self.methods_by_name.get(attr, [])
        if len(candidates) == 1 and not attr.startswith("__"):
            return CallSite(call, targets=(candidates[0],), attr=attr)
        return CallSite(call, attr=attr)

    def _enclosing_class(self, info: FunctionInfo) -> ClassInfo | None:
        prefix = info.qualname
        while prefix:
            cls = self.classes.get(prefix.rsplit(".", 1)[0])
            if cls is not None:
                return cls
            nxt = self.enclosing.get(prefix)
            if nxt is None or nxt == prefix:
                break
            prefix = nxt
        return None

    def _method_on(self, cls: ClassInfo, attr: str) -> str | None:
        """Method lookup on a class, then its project bases (by name)."""
        seen: set[str] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if attr in current.methods:
                return current.methods[attr]
            for base in current.base_names:
                for base_cls in self.classes_by_name.get(base, []):
                    queue.append(base_cls)
        return None

    def _resolve_class_named(self, name: str, info: FunctionInfo) -> ClassInfo | None:
        qual = f"{info.module}.{name}"
        if qual in self.classes:
            return self.classes[qual]
        module = self.modules.get(info.module)
        if module and name in module.imports:
            dotted = module.imports[name]
            resolved = self._follow_reexport(dotted)
            if resolved in self.classes:
                return self.classes[resolved]
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _follow_reexport(self, dotted: str, _depth: int = 0) -> str:
        """Package re-exports: ``repro.storage.atomic_write`` is really
        ``repro.storage.atomic.atomic_write`` (followed via the package
        ``__init__``'s own import map)."""
        if _depth > 4 or dotted in self.classes or dotted in self.functions:
            return dotted
        if "." in dotted:
            mod_part, sym = dotted.rsplit(".", 1)
            module = self.modules.get(mod_part)
            if module and sym in module.imports:
                return self._follow_reexport(module.imports[sym], _depth + 1)
        return dotted

    # -- light type inference ------------------------------------------

    def _infer_type(self, expr: ast.expr, info: FunctionInfo,
                    _depth: int = 0) -> str | None:
        """Best-effort class *name* of an expression's value."""
        if _depth > 4:
            return None
        if isinstance(expr, ast.Call):
            name = _name_of(expr.func)
            if name and (f"{info.module}.{name}" in self.classes
                         or name in self.classes_by_name):
                resolved = self._resolve_class_named(name, info)
                if resolved is not None:
                    return resolved.name
            # return annotation of a resolvable call
            site = self._resolve_call(expr, info)
            if site.targets:
                target = self.functions.get(site.targets[0])
                if target is not None and isinstance(
                    target.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    returns = target.node.returns
                    if returns is not None:
                        inferred = _annotation_class(returns)
                        if inferred and inferred in self.classes_by_name:
                            return inferred
            return None
        if isinstance(expr, ast.IfExp):
            return (self._infer_type(expr.body, info, _depth + 1)
                    or self._infer_type(expr.orelse, info, _depth + 1))
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id in ("self", "cls"):
                cls = self._enclosing_class(info)
                if cls is not None:
                    return cls.attr_types.get(expr.attr)
            return None
        if isinstance(expr, ast.Name):
            return self._infer_name_type(expr.id, info, _depth)
        return None

    def _infer_name_type(self, name: str, info: FunctionInfo, _depth: int) -> str | None:
        # Name -> binding-expression lookup is the one back-edge in the
        # inference recursion (a rebinding like ``sock = wrap(sock)``
        # would otherwise loop forever, since resolving the call resets
        # the depth counter); refuse re-entrant lookups of the same
        # name in the same function.
        key = (info.qualname, name)
        if key in self._inferring_names:
            return None
        self._inferring_names.add(key)
        try:
            return self._infer_name_type_inner(name, info, _depth)
        finally:
            self._inferring_names.discard(key)

    def _infer_name_type_inner(self, name: str, info: FunctionInfo,
                               _depth: int) -> str | None:
        # parameter annotation, then local bindings, then enclosing scopes
        current: FunctionInfo | None = info
        while current is not None:
            node = current.node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in [*node.args.args, *node.args.kwonlyargs]:
                    if arg.arg == name and arg.annotation is not None:
                        inferred = _annotation_class(arg.annotation)
                        if inferred:
                            return inferred
                # AnnAssign-typed or constructor-bound locals
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) \
                            and stmt.target.id == name:
                        inferred = _annotation_class(stmt.annotation)
                        if inferred:
                            return inferred
                bindings = current.ctx.bindings(node).get(name, ())
                for value in bindings:
                    inferred = self._infer_type(value, current, _depth + 1)
                    if inferred:
                        return inferred
            enclosing = self.enclosing.get(current.qualname)
            current = self.functions.get(enclosing) if enclosing else None
        return None

    # -- contexts --------------------------------------------------------

    def propagate_contexts(self) -> None:
        contexts: dict[str, set[str]] = {q: set() for q in self.functions}
        worklist: list[str] = []

        def seed(qualname: str, kind: str) -> None:
            if kind not in contexts.get(qualname, set()):
                contexts.setdefault(qualname, set()).add(kind)
                worklist.append(qualname)

        for qualname, info in self.functions.items():
            if info.is_async:
                seed(qualname, "loop")
                self.loop_roots.add(qualname)
            for site in info.calls:
                if site.dispatch is None:
                    continue
                for target in site.dispatch_targets:
                    seed(target, site.dispatch)
                    if site.dispatch == "loop":
                        self.loop_roots.add(target)

        while worklist:
            current = worklist.pop()
            info = self.functions.get(current)
            if info is None:
                continue
            current_ctx = contexts[current]
            for site in info.calls:
                for target in self._sync_targets(site):
                    known = contexts.setdefault(target, set())
                    missing = current_ctx - known
                    if missing:
                        known.update(missing)
                        worklist.append(target)

        self.contexts = {q: frozenset(c) for q, c in contexts.items()}

    def _sync_targets(self, site: CallSite) -> Iterator[str]:
        """Callees that run in the caller's context: none for a dispatch
        (it switches context), and no ``async def`` (its body always
        runs on the loop)."""
        if site.dispatch is not None:
            return
        for target in site.targets:
            callee = self.functions.get(target)
            if callee is not None and not callee.is_async:
                yield target

    # -- blocking reach ----------------------------------------------------

    def blocking_chain(self, site: CallSite) -> tuple[str, ...] | None:
        """How this call site blocks its thread: ``(primitive,)`` when it
        calls one itself, ``(callee, ..., primitive)`` when it enters a
        blocking sync function; ``None`` when it does not block."""
        if site.dispatch is not None:
            return None
        if site.external is not None:
            # `pathlib.Path.open`-style dotted tails match by attribute
            if (site.external in BLOCKING_EXTERNAL
                    or site.external.rsplit(".", 1)[-1] in BLOCKING_ATTRS):
                return (site.external,)
        if not site.targets and site.attr in BLOCKING_ATTRS:
            return (site.attr,)
        for target in self._sync_targets(site):
            tail = self.blocking.get(target)
            if tail is not None:
                return (_short(target), *tail)
        return None

    def compute_blocking(self) -> None:
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if qualname in self.blocking:
                    continue
                for site in info.calls:
                    chain = self.blocking_chain(site)
                    if chain is not None:
                        self.blocking[qualname] = chain
                        changed = True
                        break

    # -- shared long-lived objects ------------------------------------------

    def compute_shared_classes(self) -> None:
        shared = self.shared_classes
        # Seeds: module-level instances, and classes that own async methods.
        for module in self.modules.values():
            for values in module.globals.values():
                for value in values:
                    if isinstance(value, ast.Call):
                        for cls in self.classes_by_name.get(_name_of(value.func) or "", []):
                            shared.add(cls.qualname)
        for cls in self.classes.values():
            if any(self.functions[q].is_async for q in cls.methods.values()):
                shared.add(cls.qualname)

        # Fixed point: shared classes share what they store and return.
        changed = True
        while changed:
            changed = False
            for qualname in list(shared):
                cls = self.classes[qualname]
                candidates = list(cls.attr_types.values())
                for method_qual in cls.methods.values():
                    returns = getattr(self.functions[method_qual].node, "returns", None)
                    inferred = _annotation_class(returns) if returns is not None else None
                    if inferred:
                        candidates.append(inferred)
                for name in candidates:
                    matches = self.classes_by_name.get(name, [])
                    if len(matches) == 1 and matches[0].qualname not in shared:
                        shared.add(matches[0].qualname)
                        changed = True

    # -- queries used by the rules -------------------------------------

    def module_global_names(self, module: str) -> set[str]:
        info = self.modules.get(module)
        return set(info.globals) if info else set()


def walk_own(fn: ast.AST) -> Iterator[ast.AST]:
    """A function's body, statement by statement, without descending
    into nested function scopes."""
    body = [fn.body] if isinstance(fn, ast.Lambda) else fn.body  # type: ignore[attr-defined]
    for stmt in body:
        stack = [stmt]
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNC_TYPES):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _short(qualname: str) -> str:
    """`repro.serve.registry.Corpus.indexed` -> `Corpus.indexed`."""
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]


def _name_of(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_class(node: ast.AST) -> str | None:
    """Class name out of an annotation, stripping Optional/unions/quotes."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _annotation_class(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class(node.left)
        if left and left not in ("None", "NoneType"):
            return left
        return _annotation_class(node.right)
    if isinstance(node, ast.Subscript):
        base = _name_of(node.value)
        if base == "Optional":
            return _annotation_class(node.slice)
        return None
    return None


#: Bare names treated as external calls when they resolve nowhere
#: (blocking-primitive hints for subset runs where the callee module is
#: not part of the checked file set).
_KNOWN_EXTERNAL = frozenset({"open", "print", "input"})


def build_graph(files: Iterable[FileContext]) -> CallGraph:
    graph = CallGraph()
    for ctx in files:
        graph.index_file(ctx)
    graph.finish_index()
    graph.resolve()
    graph.propagate_contexts()
    graph.compute_blocking()
    graph.compute_shared_classes()
    return graph
