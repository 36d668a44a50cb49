"""Record-to-row extraction: several fields per record in one pass.

The most common JSON-analytics loop is "for every record, pull these
fields into a flat row".  :class:`Extractor` compiles the field queries
into one fused :class:`~repro.engine.multi.JsonSkiMulti` pass, so each
record is streamed once no matter how many fields are requested:

>>> from repro.extract import Extractor
>>> rows = Extractor({"id": "$.user.id", "text": "$.text"})
>>> rows.extract(b'{"user": {"id": 7}, "text": "hi"}')
{'id': 7, 'text': 'hi'}
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.engine.multi import JsonSkiMulti
from repro.jsonpath.ast import Path
from repro.resilience.recovery import drive_records
from repro.stream.records import RecordStream


class Extractor:
    """Extract named fields from records in one streaming pass each.

    Parameters
    ----------
    fields:
        Mapping of output column name to JSONPath.
    mode:
        ``'first'`` (default) — each column holds the first match (or
        ``default``); ``'list'`` — each column holds all matches.
    default:
        Value used in ``'first'`` mode when a query has no match.
    """

    def __init__(
        self,
        fields: dict[str, str | Path],
        mode: str = "first",
        default: Any = None,
    ) -> None:
        if not fields:
            raise ValueError("at least one field is required")
        if mode not in ("first", "list"):
            raise ValueError(f"mode must be 'first' or 'list', got {mode!r}")
        self.columns = list(fields)
        self.mode = mode
        self.default = default
        self._engine = JsonSkiMulti(list(fields.values()))

    def extract(self, record: bytes | str) -> dict[str, Any]:
        """One record → one row (a plain dict)."""
        return self._row(self._engine.run(record))

    def _row(self, results: list) -> dict[str, Any]:
        row: dict[str, Any] = {}
        for column, matches in zip(self.columns, results):
            if self.mode == "list":
                row[column] = matches.values()
            else:
                row[column] = matches[0].value() if len(matches) else self.default
        return row

    def extract_records(self, stream: RecordStream) -> Iterator[dict[str, Any]]:
        """Lazily extract a row per record of a stream."""
        for _, results, _ in drive_records(self._engine, stream):
            yield self._row(results)

    def extract_many(self, records: "RecordStream | list[bytes]") -> list[dict[str, Any]]:
        """Materialized form of :meth:`extract_records`."""
        if isinstance(records, RecordStream):
            return list(self.extract_records(records))
        return [self.extract(record) for record in records]
