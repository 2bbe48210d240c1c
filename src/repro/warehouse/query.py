"""Query layer over the warehouse: filters, sorting, and Pareto frontiers.

One text syntax serves the CLI (``repro warehouse query --where ...``) and
the HTTP API (``GET /v1/results?where=...``): a filter is ``NAME OP VALUE``
with ``OP`` one of ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.  ``NAME`` is
either a cell identity column (``digest``, ``cell``, ``grid``, ``scenario``,
``codec``, ``campaign``, ``run_dir``, ``spec_digest``, ``source``) or any
flattened metric leaf (``mse``, ``effective_bits``, ``params.bits``, ...).
``VALUE`` is parsed as JSON when possible (numbers compare numerically) and
as a bare string otherwise::

    effective_bits<4
    codec=prune
    params.bits>=6

Filtering happens in SQL (an ``EXISTS`` probe per metric filter, so the
``metrics_by_name`` index does the work); the matched cells are then
pivoted into flat row dicts — identity columns plus every metric leaf —
and sorted/paginated deterministically (ties break on digest).  A cell
without a filtered metric never matches that filter, including for ``!=``.

:func:`pareto_front` reduces any row set to its two-metric Pareto frontier
(minimizing by default, per-axis ``maximize`` flags), which is how "best
codec under 4 effective bits" style questions get their short answer.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from ..obs import trace as obs_trace
from ..obs.metrics import get_metrics

__all__ = [
    "CELL_FIELDS",
    "Filter",
    "QueryError",
    "cell_detail",
    "default_columns",
    "parse_filter",
    "pareto_front",
    "query_cells",
]

_QUERY_SECONDS = get_metrics().get("repro_warehouse_query_seconds")

#: Identity columns answered straight from ``cells``/``runs`` (name -> SQL).
CELL_FIELDS: dict[str, str] = {
    "digest": "c.digest",
    "cell": "c.cell",
    "grid": "c.grid",
    "scenario": "c.scenario",
    "codec": "c.codec",
    "campaign": "r.campaign",
    "run_dir": "r.run_dir",
    "spec_digest": "r.spec_digest",
    "source": "r.source",
}

#: Comparison operators, longest first so ``<=`` wins over ``<``.
_OPERATORS = ("<=", ">=", "!=", "=", "<", ">")

_NAME_PATTERN = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class QueryError(ValueError):
    """A filter expression or query option could not be understood."""


@dataclass(frozen=True)
class Filter:
    """One parsed ``NAME OP VALUE`` comparison."""

    name: str
    op: str
    value: Any

    def describe(self) -> str:
        """The filter back as its textual form (error messages, spans)."""
        return f"{self.name}{self.op}{json.dumps(self.value)}"


def parse_filter(text: str) -> Filter:
    """Parse one ``NAME OP VALUE`` expression into a :class:`Filter`.

    The value is JSON-decoded when possible, so ``bits=4`` compares
    numerically while ``codec=prune`` compares as text; quoting a number
    (``cell="4"``) forces a text comparison.
    """
    text = text.strip()
    for op in _OPERATORS:
        index = text.find(op)
        if index > 0:
            name, raw_value = text[:index].strip(), text[index + len(op):].strip()
            if not _NAME_PATTERN.match(name):
                raise QueryError(f"invalid column name {name!r} in filter {text!r}")
            if not raw_value:
                raise QueryError(f"missing value in filter {text!r}")
            try:
                value = json.loads(raw_value)
            except json.JSONDecodeError:
                value = raw_value
            if isinstance(value, (dict, list)):
                raise QueryError(
                    f"filter {text!r} compares against a JSON container; "
                    "only scalar values are comparable"
                )
            if isinstance(value, bool):
                value = int(value)  # metrics store booleans as 0/1
            return Filter(name, op, value)
    raise QueryError(
        f"cannot parse filter {text!r}; expected NAME OP VALUE with OP one of "
        f"{list(_OPERATORS)}"
    )


def parse_filters(texts: Iterable[str]) -> list[Filter]:
    """Parse several filter expressions (the CLI's repeated ``--where``)."""
    return [parse_filter(text) for text in texts]


def default_columns(filters: Sequence[Filter], sort: str | None) -> list[str]:
    """The presentation columns implied by a query: identity + referenced.

    Shared by the CLI's table output and ``GET /v1/results`` so both
    surfaces answer the same shape unless the caller asks for explicit
    columns: the stable identity set, then every metric named in a filter
    or the sort key, in first-use order.
    """
    columns = ["digest", "cell", "scenario", "codec"]
    for name in [flt.name for flt in filters] + ([sort] if sort else []):
        if name not in columns:
            columns.append(name)
    return columns


def _filter_clause(flt: Filter) -> tuple[str, list]:
    """One filter as ``(SQL condition, bind parameters)``."""
    if flt.op not in _OPERATORS:
        raise QueryError(f"unsupported operator {flt.op!r}")
    sql_op = "==" if flt.op == "=" else flt.op
    if flt.name in CELL_FIELDS:
        return f"{CELL_FIELDS[flt.name]} {sql_op} ?", [flt.value]
    if not _NAME_PATTERN.match(flt.name):
        raise QueryError(f"invalid column name {flt.name!r}")
    return (
        "EXISTS (SELECT 1 FROM metrics m WHERE m.digest = c.digest "
        f"AND m.name = ? AND m.value {sql_op} ?)",
        [flt.name, flt.value],
    )


def _sort_key(column: str):
    """Deterministic ordering over heterogeneous rows.

    Missing values sort last, numbers before text, ties break on digest —
    so pagination is stable whatever mix of cells a filter matches.
    """

    def key(row: dict):
        """Rank one row: (type class, numeric value, text value, digest)."""
        value = row.get(column)
        if value is None:
            return (2, 0, "", row.get("digest", ""))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return (1, 0, str(value), row.get("digest", ""))
        return (0, float(value), "", row.get("digest", ""))

    return key


def _pivot(conn: sqlite3.Connection, identity_rows: list[dict]) -> list[dict]:
    """Join each identity row with its flattened metric leaves.

    A result payload may carry leaves named like identity columns (a
    ``codec_compress`` record has its own ``digest`` and ``codec`` fields);
    identity wins, matching :func:`_filter_clause`, which also resolves
    those names to the identity columns.
    """
    rows_by_digest = {row["digest"]: dict(row) for row in identity_rows}
    digests = list(rows_by_digest)
    for start in range(0, len(digests), 500):  # SQLite bind-parameter limit
        chunk = digests[start:start + 500]
        placeholders = ",".join("?" * len(chunk))
        for digest, name, value in conn.execute(
            f"SELECT digest, name, value FROM metrics WHERE digest IN ({placeholders})",
            chunk,
        ):
            if name not in CELL_FIELDS:
                rows_by_digest[digest][name] = value
    return [rows_by_digest[digest] for digest in digests]


def query_cells(
    conn: sqlite3.Connection,
    filters: Sequence[Filter] = (),
    sort: str | None = None,
    descending: bool = False,
    offset: int = 0,
    limit: int | None = None,
    columns: Sequence[str] | None = None,
) -> tuple[list[dict], int]:
    """Run one warehouse query; returns ``(rows, total matched)``.

    ``rows`` are flat dicts (identity columns + metric leaves), sorted by
    ``sort`` (digest order when unset), windowed by ``offset``/``limit``
    *after* sorting, and restricted to ``columns`` when given (absent
    values become ``None`` so every row is rectangular).  ``total`` counts
    every match before the window — the HTTP pagination envelope's total.
    """
    if offset < 0:
        raise QueryError("offset must be >= 0")
    if limit is not None and limit < 0:
        raise QueryError("limit must be >= 0")
    started = time.perf_counter()
    with obs_trace.span(
        "warehouse.query",
        attrs={"filters": len(filters), "sort": sort or ""},
    ):
        conditions, parameters = [], []
        for flt in filters:
            clause, binds = _filter_clause(flt)
            conditions.append(clause)
            parameters.extend(binds)
        sql = (
            "SELECT c.digest, c.cell, c.grid, c.scenario, c.codec, "
            "r.campaign, r.run_dir, r.spec_digest, r.source "
            "FROM cells c JOIN runs r ON r.run_id = c.run_id"
        )
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        sql += " ORDER BY c.digest"
        identity_rows = [dict(row) for row in conn.execute(sql, parameters)]
        total = len(identity_rows)
        rows = _pivot(conn, identity_rows)
        if sort is not None:
            rows.sort(key=_sort_key(sort), reverse=descending)
        rows = rows[offset:] if limit is None else rows[offset:offset + limit]
        if columns is not None:
            rows = [{column: row.get(column) for column in columns} for row in rows]
    _QUERY_SECONDS.observe(time.perf_counter() - started)
    return rows, total


def cell_detail(conn: sqlite3.Connection, digest: str) -> dict | None:
    """The full record of one cell: identity, params, result, metric leaves.

    ``None`` when the digest is unknown.  This is what
    ``GET /v1/results/<digest>`` answers — params and result come back as
    the parsed JSON payloads the checkpoint carried.
    """
    row = conn.execute(
        "SELECT c.digest, c.cell, c.grid, c.scenario, c.codec, c.params, "
        "c.result, r.campaign, r.run_dir, r.spec_digest, r.source "
        "FROM cells c JOIN runs r ON r.run_id = c.run_id WHERE c.digest = ?",
        (digest,),
    ).fetchone()
    if row is None:
        return None
    record = dict(row)
    record["params"] = json.loads(record["params"])
    record["result"] = json.loads(record["result"])
    record["metrics"] = {
        name: value
        for name, value in conn.execute(
            "SELECT name, value FROM metrics WHERE digest = ? ORDER BY name",
            (digest,),
        )
    }
    return record


def pareto_front(
    rows: Iterable[dict],
    x: str,
    y: str,
    maximize_x: bool = False,
    maximize_y: bool = False,
) -> list[dict]:
    """The Pareto-optimal subset of ``rows`` over metric columns ``x``/``y``.

    Both axes minimize by default (bits and MSE are costs); flip either
    with the ``maximize`` flags.  Rows missing a numeric value on either
    axis are excluded.  The frontier comes back sorted along ``x`` in the
    preferred direction, ties broken on digest — a row is kept when no
    other row is at least as good on both axes and better on one.
    """

    def numeric(row: dict, name: str) -> float | None:
        """The row's value for ``name`` as a float, or None if non-numeric."""
        value = row.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value)

    candidates = []
    for row in rows:
        x_value, y_value = numeric(row, x), numeric(row, y)
        if x_value is None or y_value is None:
            continue
        cost_x = -x_value if maximize_x else x_value
        cost_y = -y_value if maximize_y else y_value
        candidates.append((cost_x, cost_y, row.get("digest", ""), row))

    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    frontier: list[dict] = []
    best_y = float("inf")
    for _cost_x, cost_y, _, row in candidates:
        if cost_y < best_y:
            frontier.append(row)
            best_y = cost_y
    return frontier
