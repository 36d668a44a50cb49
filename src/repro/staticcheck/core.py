"""Framework for the engine-contract checker.

One parse per file, one generic AST walk shared by every rule:

- :class:`FileContext` — the parsed tree plus the derived maps every
  rule needs (dotted module name, parent links, enclosing scopes,
  flow-insensitive name bindings, suppression comments);
- :class:`Rule` — a plugin with ``visit`` callbacks filtered by node
  type, plus an optional ``end_project`` hook for cross-module rules
  (constructor threading, the whole-program concurrency rules);
- :func:`check_paths` / :func:`check_sources` — the two entry points
  (filesystem walk for the CLI, in-memory sources for fixture tests).

Suppressions are inline comments::

    bitmap = bs + odd_starts  # repro: ignore[RS001] -- carry read from overflow

A suppression must name the rule code *and* carry a ``-- reason``; a
malformed one (missing reason, unparsable code list) is itself reported
as RS000 so suppressions cannot rot silently.  A comment on its own line
suppresses the line below it; a trailing comment suppresses its own
line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Type

#: Code used for meta-findings about the checker's own input (malformed
#: suppression comments, unparsable files).
META_CODE = "RS000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<codes>[^\]]*)\](?P<rest>.*)$"
)
_REASON_RE = re.compile(r"^\s*--\s*(?P<reason>\S.*)$")
_CODE_RE = re.compile(r"^RS\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: ignore[...] -- reason`` comment."""

    codes: tuple[str, ...]
    reason: str
    comment_line: int
    applies_to: int


class _ParentVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.parents: dict[ast.AST, ast.AST] = {}

    def generic_visit(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.parents[child] = node
        super().generic_visit(node)


_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Module)


class FileContext:
    """Everything a rule may ask about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path.replace("\\", "/")
        self.tree = tree
        visitor = _ParentVisitor()
        visitor.visit(tree)
        self.parents: dict[ast.AST, ast.AST] = visitor.parents
        self.suppressions = _parse_suppressions(source)
        self._bindings: dict[ast.AST, dict[str, list[ast.expr]]] = {}

    # -- structural helpers --------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield enclosing nodes, innermost first, up to the module."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function/lambda, else the module."""
        for anc in self.ancestors(node):
            if isinstance(anc, _SCOPE_TYPES):
                return anc
        return self.tree

    @cached_property
    def module(self) -> str:
        """Dotted module name, anchored at the last ``repro`` or
        ``benchmarks`` directory in the path however the path was given:
        ``/abs/src/repro/bits/words.py`` -> ``repro.bits.words``,
        ``../benchmarks/serve_chaos.py`` -> ``benchmarks.serve_chaos``.
        A package ``__init__`` is its package; a path with neither
        anchor keeps its parts after a leading ``/`` or ``src``."""
        parts = list(Path(self.path).with_suffix("").parts)
        anchors = [i for i, part in enumerate(parts[:-1]) if part in ("repro", "benchmarks")]
        if anchors:
            parts = parts[anchors[-1]:]
        while parts and parts[0] in ("src", "/"):
            parts = parts[1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else Path(self.path).stem

    def in_packages(self, *names: str) -> bool:
        """Whether the file lives under any of the given ``repro``
        subpackages, or is a ``benchmarks`` file and ``benchmarks`` is
        one of the names."""
        parts = self.module.split(".")
        top = parts[1:2] if parts[0] == "repro" else parts[:1]
        return bool(top) and top[0] in names

    # -- name bindings (flow-insensitive, per scope) --------------------

    def bindings(self, scope: ast.AST) -> dict[str, list[ast.expr]]:
        """Name -> every expression assigned to it within ``scope``.

        Flow-insensitive: order and reachability are ignored, which is
        the conservative choice for taint-style queries ("could this
        name hold a bitmap?").  Nested scopes are not descended into.
        """
        cached = self._bindings.get(scope)
        if cached is not None:
            return cached
        found: dict[str, list[ast.expr]] = {}

        def record(target: ast.expr, value: ast.expr) -> None:
            if isinstance(target, ast.Name):
                found.setdefault(target.id, []).append(value)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    record(element, value)

        for node in ast.walk(scope):
            if node is not scope and isinstance(node, _SCOPE_TYPES):
                continue  # shallow: do not cross into nested scopes
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(target, node.value)
            elif isinstance(node, ast.AugAssign):
                synthetic = ast.BinOp(left=node.target, op=node.op, right=node.value)
                record(node.target, synthetic)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                record(node.target, node.value)
        self._bindings[scope] = found
        return found


def _parse_suppressions(source: str) -> list[Suppression | Finding]:
    """Extract suppression comments; malformed ones come back as findings.

    The returned findings carry an empty path — the caller rewrites it.
    """
    results: list[Suppression | Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return results
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        # A comment with nothing but whitespace before it on its line
        # suppresses the next *code* line (skipping blank lines and
        # follow-on comment lines); a trailing comment its own line.
        source_lines = source.splitlines()
        prefix = source_lines[line - 1][: token.start[1]]
        if prefix.strip() == "":
            applies_to = line + 1
            while applies_to <= len(source_lines):
                stripped = source_lines[applies_to - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                applies_to += 1
        else:
            applies_to = line
        codes = tuple(
            code.strip() for code in match.group("codes").split(",") if code.strip()
        )
        reason_match = _REASON_RE.match(match.group("rest"))
        if not codes or any(not _CODE_RE.match(code) for code in codes):
            results.append(Finding(
                META_CODE, "", line, token.start[1],
                "malformed suppression: expected 'repro: ignore[RSxxx]' with "
                "comma-separated RSxxx codes",
            ))
            continue
        if reason_match is None:
            results.append(Finding(
                META_CODE, "", line, token.start[1],
                f"suppression of {', '.join(codes)} lacks a '-- reason' justification",
            ))
            continue
        results.append(Suppression(
            codes=codes,
            reason=reason_match.group("reason").strip(),
            comment_line=line,
            applies_to=applies_to,
        ))
    return results


class Project:
    """Cross-file state shared by every rule during one run."""

    def __init__(self) -> None:
        self.files: list[FileContext] = []
        self.findings: list[Finding] = []
        self._graph = None

    def call_graph(self):
        """The whole-program analysis (:mod:`repro.staticcheck.callgraph`),
        built lazily.

        Only the concurrency rules (RS012-RS014) pay for it; a
        ``--select RS001`` run never constructs the graph.  Cached so
        the three rules share one build.
        """
        if self._graph is None:
            from repro.staticcheck.callgraph import build_graph

            self._graph = build_graph(self.files)
        return self._graph

    def add(self, rule: "Rule", ctx_or_path: "FileContext | str",
            node_or_line: "ast.AST | int", message: str, col: int = 0) -> None:
        """Record a finding against a node (usual case) or a raw line."""
        path = ctx_or_path.path if isinstance(ctx_or_path, FileContext) else ctx_or_path
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 0)
            col = getattr(node_or_line, "col_offset", 0)
        else:
            line = node_or_line
        self.findings.append(Finding(rule.code, path, line, col, message))


class Rule:
    """Base class for one checker rule.

    Subclasses set ``code``/``name``/``summary``, declare the node
    types they want via ``node_types``, and implement :meth:`visit`.
    Cross-module rules accumulate state on ``self`` and emit from
    :meth:`end_project`.
    """

    code: str = "RS999"
    name: str = "unnamed"
    summary: str = ""
    node_types: tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: FileContext, project: Project) -> None:
        """Called for each node whose type is in ``node_types``."""

    def end_project(self, project: Project) -> None:
        """Called once after every file has been visited."""


RULE_REGISTRY: dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _select_rules(select: Iterable[str] | None) -> list[Rule]:
    if select is None:
        codes = sorted(RULE_REGISTRY)
    else:
        codes = []
        for code in select:
            if code not in RULE_REGISTRY:
                raise KeyError(
                    f"unknown rule {code!r}; expected one of {sorted(RULE_REGISTRY)}"
                )
            codes.append(code)
    return [RULE_REGISTRY[code]() for code in codes]


def check_sources(
    sources: dict[str, str],
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Check in-memory sources (path -> text). The testable entry point."""
    # Import for the side effect of registering the rules when callers
    # use repro.staticcheck.core directly.
    from repro.staticcheck import rules as _rules  # noqa: F401

    rules = _select_rules(select)
    dispatch: dict[type, list[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    project = Project()
    suppression_map: dict[str, list[Suppression]] = {}

    for path, source in sources.items():
        normalized = str(path).replace("\\", "/")
        try:
            tree = ast.parse(source, filename=normalized)
        except SyntaxError as exc:
            project.findings.append(Finding(
                META_CODE, normalized, exc.lineno or 0, (exc.offset or 1) - 1,
                f"file does not parse: {exc.msg}",
            ))
            continue
        ctx = FileContext(normalized, source, tree)
        project.files.append(ctx)
        suppressions: list[Suppression] = []
        for item in ctx.suppressions:
            if isinstance(item, Finding):
                project.findings.append(Finding(
                    item.rule, normalized, item.line, item.col, item.message,
                ))
            else:
                suppressions.append(item)
        suppression_map[normalized] = suppressions

        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                rule.visit(node, ctx, project)

    for rule in rules:
        rule.end_project(project)

    return _apply_suppressions(project.findings, suppression_map)


def _apply_suppressions(
    findings: list[Finding],
    suppression_map: dict[str, list[Suppression]],
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        suppressed = False
        if finding.rule != META_CODE:
            for supp in suppression_map.get(finding.path, ()):
                if finding.line == supp.applies_to and finding.rule in supp.codes:
                    suppressed = True
                    break
        if not suppressed:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


def check_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Check files/directories on disk; directories are walked for ``.py``."""
    sources: dict[str, str] = {}
    unreadable: list[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            sources[str(file_path)] = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            # Surface unreadable files as findings rather than crashing.
            unreadable.append(Finding(
                META_CODE, str(file_path), 0, 0, f"cannot read file: {exc}"
            ))
    findings = check_sources(sources, select)
    return sorted([*findings, *unreadable], key=Finding.sort_key)


def count_suppressions(paths: Iterable[str | Path]) -> dict[str, int]:
    """Well-formed ``# repro: ignore[...]`` comments per file.

    The input to the suppression budget (``--suppression-budget``):
    malformed suppressions are already RS000 findings and are *not*
    counted — the budget bounds how many justified exemptions the tree
    may carry, so that suppressing a finding is always a visible,
    reviewed act (the budget file must change in the same commit).
    """
    counts: dict[str, int] = {}
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError:
            continue  # unreadable files surface via check_paths
        total = sum(
            1 for item in _parse_suppressions(source)
            if isinstance(item, Suppression)
        )
        if total:
            counts[str(file_path).replace("\\", "/")] = total
    return counts
