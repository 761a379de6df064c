"""Documentation integrity: the docs reference things that exist."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"]
    )
    def test_present_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists()
        assert len(path.read_text()) > 500 or name == "pyproject.toml"


class TestReferencedArtifactsExist:
    def _referenced_paths(self, text):
        return set(re.findall(r"`((?:benchmarks|examples|src|tests)/[\w/.]+\.(?:py|md))`", text))

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_paths_resolve(self, doc):
        text = (ROOT / doc).read_text()
        for ref in self._referenced_paths(text):
            if "*" in ref:
                continue
            assert (ROOT / ref).exists(), f"{doc} references missing {ref}"

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_dotted_names_resolve(self, doc):
        """Every backticked ``repro.<dotted>`` name is a module or an
        attribute of one."""
        text = (ROOT / doc).read_text()
        for name in set(re.findall(r"`(repro(?:\.\w+)+)", text)):
            assert _resolves(name), f"{doc} names missing {name}"

    def test_design_experiment_index_covers_bench_files(self):
        """Every experiment row's bench target exists; every bench file
        is mentioned somewhere in the docs."""
        design = (ROOT / "DESIGN.md").read_text()
        readme = (ROOT / "README.md").read_text()
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        docs = design + readme + experiments
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            assert bench.name in docs or bench.stem in docs, (
                f"{bench.name} not referenced in any doc"
            )

    def test_examples_documented_in_readme(self):
        readme = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme or example.stem in readme, (
                f"{example.name} missing from README"
            )


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then look the
    rest up as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


class TestPaperNumbersQuoted:
    """EXPERIMENTS.md quotes the paper's headline values verbatim."""

    def test_headline_values(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for value in ("98.97", "99.45", "82.0", "2253", "1334", "1095", "59.1", "155"):
            assert value in text, value
