#!/usr/bin/env python3
"""Generate the derived reference docs: docs/http-api.md and docs/cli.md.

Reference documentation that is *derived* cannot drift: ``docs/http-api.md``
is rendered from the committed ``API_SURFACE.json`` contract, each route
described by the ``doc`` of its row in the node's or the gateway's route
table (a surface route with no table row fails generation), and
``docs/cli.md`` is rendered by walking the live argparse tree plus the
scenario/codec registries.  CI runs
``--check`` so the committed files always match what the code would
generate:

    python scripts/gen_docs.py            # rewrite docs/http-api.md + docs/cli.md
    python scripts/gen_docs.py --check    # verify (CI); non-zero on drift

``--surface`` / ``--docs-dir`` point at alternative inputs/outputs (used by
the tests to prove the drift gate fails when the surface is mutated).
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SURFACE_PATH = REPO_ROOT / "API_SURFACE.json"
DOCS_DIR = REPO_ROOT / "docs"

sys.path.insert(0, str(REPO_ROOT / "src"))

HEADER = (
    "<!-- GENERATED by scripts/gen_docs.py — do not edit by hand; "
    "run `python scripts/gen_docs.py` to refresh. -->\n"
)


def _route_rows(surface_routes: list[str], routes) -> list[str]:
    """Table rows for the surface's routes, described by their table rows."""
    docs = {route.name: route.doc for route in routes}
    missing = [name for name in surface_routes if name not in docs]
    if missing:
        raise SystemExit(
            f"error: routes in API_SURFACE.json with no route table row: {missing}"
        )
    return [f"| `{name}` | {docs[name]} |" for name in surface_routes]


def generate_http_api(surface: dict) -> str:
    """Render docs/http-api.md from the API_SURFACE.json contract."""
    from repro.gateway.server import GatewayHandler
    from repro.service.server import NodeHandler

    lines = [
        HEADER,
        "# HTTP API (`/v1`)",
        "",
        f"API version: `{surface['api_version']}`. Every route lives under the "
        "`/v1` prefix; the table below is the versioned contract snapshotted "
        "in `API_SURFACE.json` (CI-gated by `scripts/check_api_surface.py`).",
        "",
        "| Route | Description |",
        "| --- | --- |",
    ]
    lines += _route_rows(surface["v1_routes"], NodeHandler.routes)

    gateway_routes = surface.get("gateway_routes", [])
    if gateway_routes:
        lines += [
            "",
            "## Gateway routes",
            "",
            "`repro gateway` fronts a fleet of `repro serve --register` nodes "
            "with consistent-hash routing, journal replication, and per-tenant "
            "quotas; see [docs/gateway.md](gateway.md). Its route table is "
            "snapshotted as `gateway_routes` in `API_SURFACE.json`.",
            "",
            "| Route | Description |",
            "| --- | --- |",
        ]
        lines += _route_rows(gateway_routes, GatewayHandler.routes)

    lines += [
        "",
        "## Conventions",
        "",
        "- Errors answer a JSON envelope `{\"error\": \"...\"}` with the "
        "appropriate status (400 bad request, 404 unknown id/digest, 409 "
        "conflict, 413 oversized body, 429 backpressure, 503 unavailable).",
        "- List endpoints paginate with `offset`/`limit` query parameters and "
        "answer `{\"<items>\": [...], \"total\": N, \"offset\": o, "
        "\"limit\": l}` where `total` counts every match before the window "
        "(`jobs` for `GET /v1/jobs`, `results` for `GET /v1/results`).",
        "- `POST` submissions answer 202 with the job record; add `?wait=S` "
        "to block up to `S` seconds for completion (200 with the result).",
        "- Unprefixed paths (`/health`, `/jobs`, ...) were removed; every "
        "route is `/v1`-only and anything else answers 404.",
        "",
        "## Scenarios",
        "",
        "Job `type` values accepted by `POST /v1/jobs`:",
        "",
    ]
    lines += [f"- `{name}`" for name in surface["scenarios"]]
    lines += [
        "",
        "## Codecs",
        "",
        "Compression backends accepted by `POST /v1/compress` (and the "
        "`codec_compress` scenario):",
        "",
        "| Codec | Version | Lossless | Parameters |",
        "| --- | --- | --- | --- |",
    ]
    for name in sorted(surface["codecs"]):
        schema = surface["codecs"][name]
        params = ", ".join(f"`{p}`" for p in schema["params"]) or "—"
        lines.append(
            f"| `{name}` | {schema['version']} | "
            f"{'yes' if schema['lossless'] else 'no'} | {params} |"
        )
    return "\n".join(lines) + "\n"


def _expand_help(action: argparse.Action) -> str:
    """An action's help text with argparse's ``%(default)s`` expanded."""
    if not action.help:
        return ""
    try:
        text = action.help % dict(vars(action), prog="repro")
    except (KeyError, TypeError, ValueError):
        text = action.help
    return " ".join(text.split())  # normalize whitespace for stable output


def _argument_rows(parser: argparse.ArgumentParser) -> list[tuple[str, str]]:
    """``(rendered argument, help)`` rows for one parser, positionals first."""
    rows = []
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        if action.option_strings:
            name = ", ".join(f"`{o}`" for o in action.option_strings)
            if action.metavar:
                name += f" `{action.metavar}`"
            elif not isinstance(
                action, (argparse._StoreTrueAction, argparse._StoreFalseAction)
            ):
                name += f" `{action.dest.upper()}`"
        else:
            name = f"`{action.metavar or action.dest}`"
        rows.append((name, _expand_help(action)))
    return rows


def _walk_commands(
    parser: argparse.ArgumentParser, path: str
) -> list[tuple[str, argparse.ArgumentParser]]:
    """Flatten the argparse tree into ``(command path, parser)`` leaves."""
    subactions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subactions:
        return [(path, parser)]
    commands = []
    for subaction in subactions:
        for name, child in subaction.choices.items():
            commands.extend(_walk_commands(child, f"{path} {name}".strip()))
    return commands


def _synopsis(parser: argparse.ArgumentParser) -> str:
    """``[--flag ...]`` usage of one parser's options, in declaration order."""
    parts = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            parts.append(f"[{flag}]")
        elif action.nargs == "+":
            parts.append(f"[{flag} ...]")
        else:
            parts.append(f"[{flag} N]")
    return " ".join(parts)


def generate_cli() -> str:
    """Render docs/cli.md by walking the live argparse tree and registries."""
    from repro.cli import _build_parser
    from repro.eval import EXPERIMENTS

    parser = _build_parser()
    (commands,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    lines = [
        HEADER,
        "# CLI reference (`repro` / `python -m repro.cli`)",
        "",
        "Generated from the argparse tree, so flags and defaults below are "
        "exactly what the installed code accepts.",
        "",
        "## Experiment commands",
        "",
        "Each regenerates one paper table/figure, and takes only the flags "
        "its experiment uses:",
        "",
        "| Command | Regenerates |",
        "| --- | --- |",
    ]
    lines += [
        f"| `repro {name} {_synopsis(commands.choices[name])}` | {helps[name]} |"
        for name in EXPERIMENTS
    ]
    lines.append("")
    grouped: dict[str, list[tuple[str, argparse.ArgumentParser]]] = {}
    for path, leaf in _walk_commands(parser, ""):
        root = path.split()[0] if path else ""
        if root in EXPERIMENTS:
            continue  # covered by the experiment-command summary above
        grouped.setdefault(root, []).append((path, leaf))

    for root in grouped:
        for path, leaf in grouped[root]:
            lines.append(f"## `repro {path}`")
            lines.append("")
            if leaf.description:
                lines.append(" ".join(str(leaf.description).split()))
                lines.append("")
            rows = _argument_rows(leaf)
            if rows:
                lines.append("| Argument | Description |")
                lines.append("| --- | --- |")
                for name, help_text in rows:
                    lines.append(f"| {name} | {help_text} |")
                lines.append("")

    from repro import codecs
    from repro.service.registry import build_default_registry

    lines += [
        "## Scenario registry",
        "",
        "Scenarios runnable through campaigns and the service "
        "(`repro campaign`, `POST /v1/jobs`):",
        "",
    ]
    lines += [f"- `{name}`" for name in build_default_registry().names()]
    lines += [
        "",
        "## Codec registry",
        "",
        "Codecs accepted by `repro codec run` and pipeline stages:",
        "",
        ", ".join(f"`{schema['name']}`" for schema in codecs.describe_codecs()),
    ]
    return "\n".join(lines) + "\n"


def generate_all(surface: dict) -> dict[str, str]:
    """Every generated doc as ``{filename: content}``."""
    return {
        "http-api.md": generate_http_api(surface),
        "cli.md": generate_cli(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed docs match what would be generated",
    )
    parser.add_argument(
        "--surface",
        default=str(SURFACE_PATH),
        metavar="PATH",
        help="API surface snapshot to render from (default: %(default)s)",
    )
    parser.add_argument(
        "--docs-dir",
        default=str(DOCS_DIR),
        metavar="DIR",
        help="directory holding the generated docs (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    surface_path = Path(args.surface)
    if not surface_path.is_file():
        print(f"error: no API surface at {surface_path}", file=sys.stderr)
        return 1
    surface = json.loads(surface_path.read_text())
    docs_dir = Path(args.docs_dir)
    generated = generate_all(surface)

    if not args.check:
        docs_dir.mkdir(parents=True, exist_ok=True)
        for name, content in generated.items():
            (docs_dir / name).write_text(content)
            print(f"wrote {docs_dir / name}")
        return 0

    failed = False
    for name, content in generated.items():
        path = docs_dir / name
        committed = path.read_text() if path.is_file() else ""
        if committed != content:
            failed = True
            print(f"drift: {path} does not match generated output", file=sys.stderr)
            diff = difflib.unified_diff(
                committed.splitlines(), content.splitlines(),
                fromfile=f"committed {name}", tofile=f"generated {name}", lineterm="",
            )
            for line in list(diff)[:40]:
                print(f"  {line}", file=sys.stderr)
    if failed:
        print(
            "\nRegenerate with: python scripts/gen_docs.py", file=sys.stderr
        )
        return 1
    print(f"docs OK: {', '.join(sorted(generated))} match the generated output")
    return 0


if __name__ == "__main__":
    sys.exit(main())
