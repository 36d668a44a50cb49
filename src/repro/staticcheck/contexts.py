"""Execution-context analysis on top of the call graph.

Answers the three questions the concurrency rules ask:

- **Which context(s) can run this function?**  Roots: every
  ``async def`` body runs on the event-loop thread (``loop``); a
  callable handed to ``run_in_executor``/``executor.submit`` runs on an
  executor thread (``executor``); ``Thread(target=...)`` runs on a
  dedicated thread (``thread``); process-pool submissions run in a
  *worker process* (``pool`` — its memory is not shared with ours, so
  it never races our state, but results merged back by the caller do).
  Contexts then flow along ordinary call edges; a dispatch edge does
  *not* propagate the caller's context — switching contexts is its
  whole job.  Edges *into* an ``async def`` also don't propagate:
  calling a coroutine function only creates the coroutine; its body
  always runs on the loop.

- **Does this function block?**  A fixed point over sync call chains:
  a function blocks if it directly calls a blocking primitive
  (``fcntl.flock``, ``os.fsync``/``os.replace``, ``mmap``, file
  open/read/write, ``time.sleep``) or calls — without a dispatch hop —
  a sync project function that blocks.  The chain to the primitive is
  kept for the diagnostic (``indexed -> load_or_build -> flock``).

- **Which objects are shared?**  A class is *shared* (long-lived,
  reachable from several contexts at once) if an instance is bound at
  module level (``QUERY_CACHE = CompiledQueryCache()``), if it defines
  async methods (servers hold themselves across contexts), or if a
  shared class stores/returns it (attribute annotations in
  ``__init__``/dataclass fields, method return annotations).  Writes to
  attributes of shared instances from ≥2 racing contexts are what
  RS013 reports.

``pool`` is deliberately excluded from :data:`RACING`: a worker process
mutating its own copy of a registry is not a race, and treating it as
one would drown the real loop-vs-executor findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.staticcheck.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_graph,
)

#: Contexts that share this process's memory and can interleave.
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


def is_blocking_site(site: CallSite) -> str | None:
    """The primitive's display name when this call site itself blocks."""
    if site.dispatch is not None:
        return None
    if site.external is not None:
        if site.external in BLOCKING_EXTERNAL:
            return site.external
        # match `pathlib.Path.open`-style dotted tails
        tail = site.external.rsplit(".", 1)[-1]
        if tail in BLOCKING_ATTRS:
            return site.external
    if not site.targets and site.attr in BLOCKING_ATTRS:
        return site.attr
    return None


@dataclass
class Analysis:
    """Whole-program facts shared by RS012-RS014."""

    graph: CallGraph
    #: function qualname -> execution contexts that can run it.
    contexts: dict[str, frozenset[str]] = field(default_factory=dict)
    #: Functions whose body starts an event-loop stint: ``async def``s
    #: plus sync callables handed to ``call_soon``/``call_later``.
    #: RS012 reports only at these roots (one finding per bad call
    #: site, not one per function along the chain).
    loop_roots: set[str] = field(default_factory=set)
    #: sync function qualname -> chain of callee names down to the
    #: blocking primitive (last element).
    blocking: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Class qualnames whose instances are long-lived/shared.
    shared_classes: set[str] = field(default_factory=set)

    # -- conveniences for the rules ------------------------------------

    def racing_contexts(self, qualname: str) -> frozenset[str]:
        return self.contexts.get(qualname, frozenset()) & RACING

    def chain_for(self, qualname: str) -> str:
        chain = self.blocking.get(qualname)
        if not chain:
            return _short(qualname)
        return " -> ".join([_short(qualname), *chain])


def _short(qualname: str) -> str:
    """`repro.serve.registry.Corpus.indexed` -> `Corpus.indexed`."""
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[-2][:1].isupper():
        return ".".join(parts[-2:])
    return parts[-1]


def build_analysis(files) -> Analysis:
    graph = build_graph(files)
    analysis = Analysis(graph)
    _propagate_contexts(analysis)
    _compute_blocking(analysis)
    _compute_shared_classes(analysis)
    return analysis


# -- context propagation ----------------------------------------------


def _propagate_contexts(analysis: Analysis) -> None:
    graph = analysis.graph
    contexts: dict[str, set[str]] = {q: set() for q in graph.functions}

    worklist: list[str] = []

    def seed(qualname: str, kind: str) -> None:
        if kind not in contexts.get(qualname, set()):
            contexts.setdefault(qualname, set()).add(kind)
            worklist.append(qualname)

    for qualname, info in graph.functions.items():
        if info.is_async:
            seed(qualname, "loop")
            analysis.loop_roots.add(qualname)
        for site in info.calls:
            if site.dispatch is None:
                continue
            for target in site.dispatch_targets:
                seed(target, site.dispatch)
                if site.dispatch == "loop":
                    analysis.loop_roots.add(target)

    while worklist:
        current = worklist.pop()
        info = graph.functions.get(current)
        if info is None:
            continue
        current_ctx = contexts[current]
        for site in info.calls:
            if site.dispatch is not None:
                continue  # dispatch switches context; seeded above
            for target in site.targets:
                callee = graph.functions.get(target)
                if callee is None or callee.is_async:
                    continue  # coroutine bodies always run on the loop
                known = contexts.setdefault(target, set())
                missing = current_ctx - known
                if missing:
                    known.update(missing)
                    worklist.append(target)

    analysis.contexts = {q: frozenset(c) for q, c in contexts.items()}


# -- blocking reach ----------------------------------------------------


def _compute_blocking(analysis: Analysis) -> None:
    graph = analysis.graph
    blocking: dict[str, tuple[str, ...]] = {}
    changed = True
    while changed:
        changed = False
        for qualname, info in graph.functions.items():
            if qualname in blocking:
                continue
            chain = _first_blocking_chain(info, blocking, graph)
            if chain is not None:
                blocking[qualname] = chain
                changed = True
    analysis.blocking = blocking


def _first_blocking_chain(
    info: FunctionInfo,
    blocking: dict[str, tuple[str, ...]],
    graph: CallGraph,
) -> tuple[str, ...] | None:
    for site in info.calls:
        primitive = is_blocking_site(site)
        if primitive is not None:
            return (primitive,)
        if site.dispatch is not None:
            continue
        for target in site.targets:
            callee = graph.functions.get(target)
            if callee is None or callee.is_async:
                continue
            tail = blocking.get(target)
            if tail is not None:
                return (_short(target), *tail)
    return None


# -- shared long-lived objects ----------------------------------------


def _compute_shared_classes(analysis: Analysis) -> None:
    graph = analysis.graph
    shared: set[str] = set()

    # Seeds: module-level instances, and classes that own async methods.
    for module in graph.modules.values():
        for values in module.globals.values():
            for value in values:
                if not isinstance(value, ast.Call):
                    continue
                name = _callable_name(value.func)
                if name is None:
                    continue
                for cls in graph.classes_by_name.get(name, []):
                    shared.add(cls.qualname)
    for cls in graph.classes.values():
        for method_qual in cls.methods.values():
            method = graph.functions.get(method_qual)
            if method is not None and method.is_async:
                shared.add(cls.qualname)
                break

    # Fixed point: shared classes share what they store and return.
    changed = True
    while changed:
        changed = False
        for qualname in list(shared):
            cls = graph.classes[qualname]
            candidates: list[str] = list(cls.attr_types.values())
            for method_qual in cls.methods.values():
                method = graph.functions.get(method_qual)
                if method is None:
                    continue
                node = method.node
                returns = getattr(node, "returns", None)
                if returns is not None:
                    from repro.staticcheck.callgraph import _annotation_class

                    inferred = _annotation_class(returns)
                    if inferred:
                        candidates.append(inferred)
            for name in candidates:
                matches = graph.classes_by_name.get(name, [])
                if len(matches) == 1 and matches[0].qualname not in shared:
                    shared.add(matches[0].qualname)
                    changed = True

    analysis.shared_classes = shared


def _callable_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None
