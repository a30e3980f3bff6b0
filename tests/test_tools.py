"""Tests for repository tooling (API doc generator, console scripts)."""

import importlib
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestApiDocGenerator:
    def test_generator_runs_and_output_is_current(self, tmp_path):
        """docs/API.md must match a fresh generation (no drift)."""
        target = REPO / "docs" / "API.md"
        before = target.read_text()
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "gen_api_doc.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        after = target.read_text()
        # Restore regardless, then compare.
        target.write_text(before)
        assert after == before, "docs/API.md is stale: run tools/gen_api_doc.py"

    def test_doc_covers_all_subpackages(self):
        text = (REPO / "docs" / "API.md").read_text()
        for section in ("repro.sim", "repro.osnt", "repro.oflops", "repro.testbed"):
            assert f"## `{section}`" in text


class TestConsoleScripts:
    def test_every_script_target_is_callable(self):
        """Each ``[project.scripts]`` entry names a callable that imports."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO / "pyproject.toml", "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts
        for name, target in scripts.items():
            module, _, attr = target.partition(":")
            assert callable(getattr(importlib.import_module(module), attr)), name
