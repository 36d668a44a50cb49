"""Prepare/index/run: the two-stage engine API.

The two-stage hot path (``docs/two-stage.md``) separates work that
depends only on the *query* (automaton compilation), work that depends
only on the *data* (the stage-1 structural index — per-class position
arrays, leveled depth tables), and the stage-2 streaming pass that
consumes both.  This module gives each stage a first-class object:

- :func:`repro.compile` → :class:`PreparedQuery` — the compiled query,
  reusable across many buffers;
- :func:`repro.index` (or :meth:`PreparedQuery.index`) →
  :class:`IndexedBuffer` — one input's stage-1 artifacts, reusable
  across many queries;
- :meth:`PreparedQuery.run` — stage 2, accepting raw bytes *or* an
  :class:`IndexedBuffer`.

Amortization matrix::

    prepared = repro.compile("$.pd[*].id")
    indexed = repro.index(data)          # stage 1, once
    prepared.run(indexed)                # stage 2 only
    repro.compile("$.pd[*].sp").run(indexed)   # same index, new query
    prepared.run(other_data)             # same query, new buffer

The legacy one-shot surface (``JsonSki(query).run(data)``) remains a
thin wrapper over the same machinery and is kept for compatibility; new
code should prefer this API.  Constructing ``repro.engine.jsonski._Run``
directly is unsupported — it is an internal type whose signature changes
without notice (see ``docs/api.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path as FsPath
from threading import Lock
from typing import Any

from repro.bits.index import DEFAULT_CHUNK_SIZE
from repro.stream.buffer import StreamBuffer

#: Default size of the process-wide compiled-query LRU.  A workload sees
#: a small working set of hot query texts; 256 parsed ASTs plus their
#: automata are a few MB at most.
QUERY_CACHE_SIZE = 256


class CompiledQueryCache:
    """Process-wide LRU of parsed paths and compiled automata.

    Two layers, because the two artifacts have different keys and
    costs: query *text* → parsed :class:`~repro.jsonpath.ast.Path`
    (parse is regex-free but allocation-heavy), and canonical path text
    → :class:`~repro.query.automaton.QueryAutomaton` (compilation
    interns frontier states).  Automata are safe to share across engines
    and threads — their memo tables only ever grow with idempotent
    entries — so every engine compiled from the same path reuses one
    automaton object.

    Failures are never cached: a query that does not parse (or cannot
    compile, e.g. a filter path fed to :func:`compile_query`) raises
    exactly as before and leaves the cache untouched.
    """

    def __init__(self, maxsize: int = QUERY_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._paths: OrderedDict[str, Any] = OrderedDict()
        self._automata: OrderedDict[str, Any] = OrderedDict()
        self._lock = Lock()
        self.hits = 0
        self.misses = 0

    def _get(self, table: OrderedDict, key: str) -> Any:
        with self._lock:
            cached = table.get(key)
            if cached is not None:
                table.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return cached

    def _put(self, table: OrderedDict, key: str, value: Any) -> None:
        with self._lock:
            table[key] = value
            table.move_to_end(key)
            while len(table) > self.maxsize:
                table.popitem(last=False)

    def parse(self, query: str) -> Any:
        """Parsed :class:`~repro.jsonpath.ast.Path` for ``query`` text."""
        cached = self._get(self._paths, query)
        if cached is None:
            from repro.jsonpath.parser import parse_path

            cached = parse_path(query)
            self._put(self._paths, query, cached)
        return cached

    def automaton(self, path: Any) -> Any:
        """Compiled automaton for ``path`` (text or parsed ``Path``)."""
        if isinstance(path, str):
            path = self.parse(path)
        key = path.unparse()
        cached = self._get(self._automata, key)
        if cached is None:
            from repro.query.automaton import compile_query

            cached = compile_query(path)
            self._put(self._automata, key, cached)
        return cached

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "paths": len(self._paths),
                "automata": len(self._automata),
            }

    def clear(self) -> None:
        with self._lock:
            self._paths.clear()
            self._automata.clear()
            self.hits = 0
            self.misses = 0


#: The process-wide cache.  Tests swap this attribute to observe
#: eviction; call sites go through the module functions below so the
#: swap takes effect everywhere at once.
QUERY_CACHE = CompiledQueryCache()


def cached_parse(query: str) -> Any:
    """Parse JSONPath text through the process-wide LRU."""
    return QUERY_CACHE.parse(query)


def cached_automaton(path: Any) -> Any:
    """Compile a path through the process-wide LRU (shared automata)."""
    return QUERY_CACHE.automaton(path)


class IndexedBuffer:
    """One input's stage-1 artifacts: bytes plus a retained structural
    index, reusable across queries and runs.

    Unlike the transient :class:`~repro.stream.buffer.StreamBuffer` an
    engine builds per ``run(bytes)`` call (whose chunk cache is bounded
    because the buffer is throwaway), an :class:`IndexedBuffer` retains
    every built chunk (``cache_chunks=None``), so the second query over
    the same data pays zero stage-1 cost.  Construct via
    :func:`repro.index` or :meth:`PreparedQuery.index`.
    """

    def __init__(
        self,
        data: bytes | str | StreamBuffer,
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if isinstance(data, StreamBuffer):
            self.buffer = data
        else:
            self.buffer = StreamBuffer(data, mode=mode, chunk_size=chunk_size, cache_chunks=None)
        #: Path of the sidecar this index was loaded from, if any.
        self.sidecar: FsPath | None = None

    @property
    def data(self) -> bytes:
        return self.buffer.data

    @property
    def mode(self) -> str:
        """Scanner mode the index was built for (``'vector'``/``'word'``)."""
        return self.buffer.mode

    def __len__(self) -> int:
        return len(self.buffer.data)

    def warm(self) -> "IndexedBuffer":
        """Eagerly build every chunk's stage-1 index (normally chunks
        build lazily as the scan reaches them).  Returns ``self``."""
        index = self.buffer.index
        for chunk_id in range(index.n_chunks):
            index.get(chunk_id)
        return self

    # -- persistence (structural-index sidecar) -------------------------

    def save(self, path: str | FsPath, fs: Any = None, metrics: Any = None) -> FsPath:
        """Persist the stage-1 index as a sidecar file (vector mode only).

        Warms every chunk first, then writes through
        :func:`repro.storage.atomic_write` (``fs`` injects the syscall
        shim for fault testing); see :mod:`repro.engine.sidecar` for the
        format.  Raises :class:`~repro.errors.IndexSidecarError` for
        word-mode buffers.
        """
        from repro.engine import sidecar
        from repro.storage import REAL_FS

        return sidecar.save_buffer(
            self.buffer, path, fs=fs if fs is not None else REAL_FS, metrics=metrics
        )

    @classmethod
    def load(cls, path: str | FsPath, data: bytes | str, chunk_size: int | None = None) -> "IndexedBuffer":
        """Reconstruct a fully-warm index for ``data`` from a sidecar.

        Any validation failure — magic, format version, corpus
        fingerprint, truncation, checksum — raises
        :class:`~repro.errors.IndexSidecarError`; callers that hold the
        bytes should fall back to building (:meth:`load_or_build`).
        """
        from repro.engine import sidecar

        if isinstance(data, str):
            data = data.encode("utf-8")
        indexed = cls(sidecar.load_buffer(path, data, chunk_size=chunk_size))
        indexed.sidecar = FsPath(path)
        return indexed

    @classmethod
    def load_or_build(
        cls,
        data: bytes | str,
        cache_dir: str | FsPath,
        mode: str = "vector",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        fs: Any = None,
        metrics: Any = None,
        lock_timeout: float = 30.0,
    ) -> "IndexedBuffer":
        """The caching entry point: reuse a valid sidecar under
        ``cache_dir`` or build (and best-effort persist) a fresh index.

        A missing, stale, corrupt, or version-mismatched sidecar is
        never fatal — the index is rebuilt from the bytes — but the
        fallback is neither silent nor destructive:

        - every rejection increments ``storage.sidecar_rejects`` with
          the validation ``reason`` (surfaced in CLI ``--metrics`` and
          serve ``/metrics``);
        - a sidecar that *exists* but fails validation is quarantined
          (renamed ``*.corrupt`` next to a reason note) instead of
          being overwritten, preserving the evidence;
        - rebuilds are **single-flight** across processes: concurrent
          cold-cache callers serialize on an advisory lock and all but
          the winner load the winner's sidecar
          (:func:`repro.storage.build_once`);
        - stale ``.tmp<pid>`` orphans from killed writers are swept on
          cache-dir open.

        Word-mode indexes build directly (the sidecar format covers
        vector mode only).  ``fs``/``metrics`` inject the syscall shim
        and counter registry (fault testing / isolation).
        """
        from repro.engine import sidecar
        from repro.errors import IndexSidecarError
        from repro.storage import REAL_FS, build_once, quarantine, sweep_stale_tmp
        from repro.storage.metrics import resolve

        if isinstance(data, str):
            data = data.encode("utf-8")
        if mode != "vector":
            return cls(data, mode=mode, chunk_size=chunk_size)
        if fs is None:
            fs = REAL_FS
        registry = resolve(metrics)
        corpus: bytes = data
        sweep_stale_tmp(FsPath(cache_dir), fs=fs, metrics=registry)
        fp = sidecar.fingerprint(corpus)
        path = sidecar.sidecar_path(cache_dir, corpus, chunk_size, fp)

        def load() -> "IndexedBuffer | None":
            try:
                loaded = cls(sidecar.load_buffer(path, corpus, chunk_size, fp))
            except IndexSidecarError as exc:
                reason = getattr(exc, "reason", "unspecified")
                registry.counter("storage.sidecar_rejects", reason=reason).add(1)
                if reason != "missing":
                    quarantine(path, reason, detail=str(exc), fs=fs, metrics=registry)
                return None
            loaded.sidecar = FsPath(path)
            return loaded

        def build() -> "IndexedBuffer":
            built = cls(corpus, mode=mode, chunk_size=chunk_size).warm()
            try:
                sidecar.save_buffer(built.buffer, path, fs=fs, metrics=registry, fp=fp)
                built.sidecar = FsPath(path)
            except OSError:
                # Read-only or full cache dir: serve the built index anyway.
                pass
            return built

        result = build_once(
            path, load, build, lock_timeout=lock_timeout, fs=fs, metrics=registry
        )
        value = result.value
        assert isinstance(value, IndexedBuffer)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexedBuffer({len(self)} bytes, mode={self.mode!r})"


# repro: ignore[RS003,RS007] -- not an engine: a wrapper the registry's
# compile() puts around every constructed engine; it takes the engine
# instance (limits and friends were already applied by the factory) and
# is selected through compile(), never registered itself.
class PreparedQuery:
    """A compiled query bound to one registered engine.

    Wraps the engine instance built by :func:`repro.compile`, adding the
    two-stage verbs (:meth:`index`, :meth:`run` over an
    :class:`IndexedBuffer`) while delegating the full engine surface
    (``first``, ``exists``, ``run_records``, ``last_stats``, ...)
    unchanged, so it is a drop-in replacement for the engine object the
    factory used to return.
    """

    def __init__(self, engine: Any, info: Any = None) -> None:
        self.engine = engine
        #: The registry :class:`~repro.registry.EngineInfo`, when known.
        self.info = info

    # -- two-stage verbs ------------------------------------------------

    def index(
        self,
        data: bytes | str | StreamBuffer,
        chunk_size: int | None = None,
        cache_dir: str | FsPath | None = None,
    ) -> IndexedBuffer:
        """Stage 1: build a reusable :class:`IndexedBuffer` for ``data``
        in this engine's scanner mode.

        With ``cache_dir``, stage 1 goes through the persistent sidecar
        cache (:meth:`IndexedBuffer.load_or_build`): a valid sidecar for
        these bytes skips indexing entirely; otherwise the index is
        built and persisted for the next run.
        """
        if isinstance(data, StreamBuffer):
            return IndexedBuffer(data)
        mode = getattr(self.engine, "mode", "vector")
        size = chunk_size if chunk_size is not None else getattr(self.engine, "chunk_size", DEFAULT_CHUNK_SIZE)
        if cache_dir is not None:
            return IndexedBuffer.load_or_build(data, cache_dir, mode=mode, chunk_size=size)
        return IndexedBuffer(data, mode=mode, chunk_size=size)

    def _coerce(self, data: Any) -> Any:
        # A two-stage engine runs stage 2 over the indexed buffer; the
        # others read bytes, so an indexed input hands them its text.
        if isinstance(data, IndexedBuffer):
            data = data.buffer
        if isinstance(data, StreamBuffer) and self.info is not None and not self.info.two_stage:
            return data.data
        return data

    # -- execution views (all accept bytes / StreamBuffer / IndexedBuffer)

    def run(self, data: Any):
        """Stage 2: stream ``data`` (raw bytes, a ``StreamBuffer``, or a
        reusable :class:`IndexedBuffer`) and return the matches."""
        return self.engine.run(self._coerce(data))

    def first(self, data: Any):
        return self.engine.first(self._coerce(data))

    def exists(self, data: Any) -> bool:
        return self.engine.exists(self._coerce(data))

    def run_with_paths(self, data: Any):
        return self.engine.run_with_paths(self._coerce(data))

    def trace_run(self, data: Any):
        return self.engine.trace_run(self._coerce(data))

    def run_records(self, stream: Any):
        return self.engine.run_records(stream)

    @property
    def last_stats(self):
        return self.engine.last_stats

    @property
    def path(self):
        return getattr(self.engine, "path", None)

    def __getattr__(self, name: str) -> Any:
        # Anything not overridden (limits, automaton, mode, ...) reads
        # through to the engine, keeping old callers working unchanged.
        # Dunders are excluded so protocol probes (copy/pickle) don't
        # recurse through a half-initialized wrapper.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)  # repro: ignore[RS002] -- the __getattr__ protocol requires AttributeError
        return getattr(self.__dict__["engine"], name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PreparedQuery({self.engine!r})"


def index(
    data: bytes | str | StreamBuffer,
    mode: str = "vector",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_dir: str | FsPath | None = None,
) -> IndexedBuffer:
    """Build a reusable stage-1 index over ``data`` (module-level verb;
    see :class:`IndexedBuffer`).  ``cache_dir`` routes through the
    persistent sidecar cache (:meth:`IndexedBuffer.load_or_build`)."""
    if cache_dir is not None and not isinstance(data, StreamBuffer):
        return IndexedBuffer.load_or_build(data, cache_dir, mode=mode, chunk_size=chunk_size)
    return IndexedBuffer(data, mode=mode, chunk_size=chunk_size)
