"""Metric-label cardinality: label values must come from closed sets.

Prometheus-style metrics multiply storage by the cross product of their
label values; one f-string label built from user input turns a bounded
family into an unbounded one.  The repo's contract is that label values
are literals, enum-ish locals, or values collapsed onto a closed set (the
route-table pattern a request matched, else ``unrouted``; ``str(...)`` over
a closed set) — never string interpolation at the call site.

The checker inspects the keyword arguments of every ``.inc``/``.observe``/
``.set``/``.dec`` call (the ``**labels`` channel of the metrics facade) and
the operation argument of ``timed(...)`` (which becomes the ``operation``
label on ``repro_operation_seconds``), flagging f-strings, string
concatenation/``%`` formatting, and ``.format(...)`` calls.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..index import FileContext, SymbolIndex, call_name
from ..registry import Checker, register_checker

#: The metrics facade's mutator methods; their kwargs are label values.
METRIC_METHODS = {"inc", "observe", "set", "dec"}

#: Keyword arguments that are measurement values, not labels.
VALUE_KWARGS = {"amount", "value"}


def _is_interpolated(node: ast.expr) -> bool:
    """String built at the call site (unbounded label value)."""
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return any(
            isinstance(side, ast.JoinedStr)
            or (isinstance(side, ast.Constant) and isinstance(side.value, str))
            for side in (node.left, node.right)
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "format"
    return False


@register_checker
class MetricLabelsChecker(Checker):
    """Interpolated strings used as metric label values."""

    name = "metric-labels"
    description = (
        "metric label values (.inc/.observe/.set/.dec kwargs and the "
        "timed() operation name) must come from closed sets or collapse "
        "helpers, never f-strings or string formatting at the call site"
    )

    def check_file(self, ctx: FileContext, index: SymbolIndex) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in METRIC_METHODS:
                for kw in node.keywords:
                    if kw.arg is None or kw.arg in VALUE_KWARGS:
                        continue
                    if _is_interpolated(kw.value):
                        yield Finding(
                            path=str(ctx.path), line=node.lineno, checker=self.name,
                            message=(
                                f"label {kw.arg!r} on .{func.attr}() is built "
                                f"by string interpolation; label values must "
                                f"come from a closed set or a collapse helper"
                            ),
                        )
            elif call_name(func) in ("timed", "timing.timed"):
                if node.args and _is_interpolated(node.args[0]):
                    yield Finding(
                        path=str(ctx.path), line=node.lineno, checker=self.name,
                        message=(
                            "timed() operation name is built by string "
                            "interpolation; it becomes the 'operation' label "
                            "on repro_operation_seconds"
                        ),
                    )
