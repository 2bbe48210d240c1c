"""The generated-docs drift gate works in both directions.

``scripts/gen_docs.py --check`` must pass against the committed docs (they
were generated by the same code) AND fail when the API surface it renders
from is mutated — otherwise the CI docs job would be a no-op.  The link
checker is held to the same standard: clean on the committed docs, non-zero
on a broken link.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gen_docs():
    return _load_script("gen_docs")


@pytest.fixture(scope="module")
def check_doc_links():
    return _load_script("check_doc_links")


class TestGenDocs:
    def test_committed_docs_match_generated_output(self, gen_docs):
        assert gen_docs.main(["--check"]) == 0

    def test_generation_into_fresh_dir_then_check_passes(self, gen_docs, tmp_path):
        docs_dir = tmp_path / "docs"
        assert gen_docs.main(["--docs-dir", str(docs_dir)]) == 0
        assert (docs_dir / "http-api.md").is_file()
        assert (docs_dir / "cli.md").is_file()
        assert gen_docs.main(["--check", "--docs-dir", str(docs_dir)]) == 0

    def test_mutated_surface_fails_the_check(self, gen_docs, tmp_path, capsys):
        # A version bump changes rendered content -> drift diff, exit 1.
        surface = json.loads((REPO_ROOT / "API_SURFACE.json").read_text())
        surface["api_version"] = "v999"
        mutated = tmp_path / "surface.json"
        mutated.write_text(json.dumps(surface))
        assert gen_docs.main(["--check", "--surface", str(mutated)]) == 1
        assert "drift" in capsys.readouterr().err

    def test_undocumented_route_fails_generation(self, gen_docs, tmp_path):
        # A surface route with no route-table row must fail loudly, not
        # render an empty description.
        surface = json.loads((REPO_ROOT / "API_SURFACE.json").read_text())
        surface["v1_routes"].append("GET /v1/frobnicate")
        mutated = tmp_path / "surface.json"
        mutated.write_text(json.dumps(surface))
        with pytest.raises(SystemExit, match="frobnicate"):
            gen_docs.main(["--check", "--surface", str(mutated)])

    def test_missing_surface_is_an_error(self, gen_docs, tmp_path):
        assert gen_docs.main(["--surface", str(tmp_path / "nope.json")]) == 1

    def test_every_v1_route_is_documented(self):
        from repro.gateway.server import GatewayHandler
        from repro.service.server import NodeHandler

        surface = json.loads((REPO_ROOT / "API_SURFACE.json").read_text())
        for key, handler in (("v1_routes", NodeHandler), ("gateway_routes", GatewayHandler)):
            documented = {route.name for route in handler.routes if route.doc.strip()}
            assert documented == set(surface[key])


class TestLinkChecker:
    def test_committed_docs_have_no_broken_links(self, check_doc_links):
        assert check_doc_links.main([]) == 0

    def test_broken_link_fails(self, check_doc_links, tmp_path, capsys):
        bad = tmp_path / "bad.md"
        bad.write_text("see [the missing page](missing.md)\n")
        assert check_doc_links.main([str(bad)]) == 1
        assert "missing.md" in capsys.readouterr().err

    def test_broken_anchor_fails(self, check_doc_links, tmp_path):
        target = tmp_path / "target.md"
        target.write_text("# Real Heading\n")
        bad = tmp_path / "bad.md"
        bad.write_text("[x](target.md#not-a-heading)\n")
        assert check_doc_links.main([str(bad)]) == 1

    def test_code_fences_and_external_links_are_ignored(
        self, check_doc_links, tmp_path
    ):
        ok = tmp_path / "ok.md"
        ok.write_text(
            "# Title\n"
            "[ext](https://example.com/x.md) [anchor](#title)\n"
            "```sh\nsubshell $(not a link.md)\n```\n"
        )
        assert check_doc_links.main([str(ok)]) == 0
