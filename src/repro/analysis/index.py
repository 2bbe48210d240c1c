"""Lightweight symbol/call index built once per analysis run.

The index is deliberately modest: it records every function and method
definition across the analyzed files together with the *textual* callees
each one invokes, and resolves calls conservatively — ``self.helper()``
to a method of the same class, a bare or dotted name to an indexed
function only when exactly one definition carries that name.  Ambiguous
names stay unresolved rather than guessed, so cross-module checkers
(lock-order, digest-purity) over-approximate reachability without
chasing phantom edges.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path


@dataclasses.dataclass
class FileContext:
    """One parsed source file plus everything checkers need alongside it."""

    path: Path
    module: str
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]]


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition and its outgoing calls."""

    qualname: str  # "<module>:<Class>.<name>" or "<module>:<name>"
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    calls: list[tuple[str, int]] = dataclasses.field(default_factory=list)


def call_name(func: ast.expr) -> str | None:
    """Dotted text of a call target (``a.b.c``, ``self.m``), else ``None``."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SymbolIndex:
    """Function definitions and conservative call resolution across files."""

    def __init__(self) -> None:
        self.files: list[FileContext] = []
        self.functions: dict[str, FunctionInfo] = {}
        self._by_name: dict[str, list[FunctionInfo]] = {}

    def add_file(self, ctx: FileContext) -> None:
        """Index every function/method definition in one parsed file."""
        self.files.append(ctx)
        self._walk(ctx, ctx.tree, cls=None)

    def _walk(self, ctx: FileContext, node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._walk(ctx, child, cls=child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, child, cls)
            else:
                self._walk(ctx, child, cls)

    def _add_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: str | None,
    ) -> None:
        qual = f"{ctx.module}:{cls + '.' if cls else ''}{node.name}"
        info = FunctionInfo(
            qualname=qual, module=ctx.module, cls=cls, name=node.name,
            node=node, ctx=ctx,
        )
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                name = call_name(sub.func)
                if name:
                    info.calls.append((name, sub.lineno))
        self.functions[qual] = info
        self._by_name.setdefault(node.name, []).append(info)

    def resolve(self, caller: FunctionInfo, callee: str) -> FunctionInfo | None:
        """Resolve a textual callee to a unique indexed definition, or None.

        ``self.x`` resolves within the caller's class; anything else only
        when the final name segment has exactly one definition repo-wide.
        """
        last = callee.rsplit(".", 1)[-1]
        if callee.startswith("self.") and caller.cls is not None:
            return self.functions.get(f"{caller.module}:{caller.cls}.{last}")
        candidates = self._by_name.get(last, [])
        if len(candidates) == 1:
            return candidates[0]
        return None
