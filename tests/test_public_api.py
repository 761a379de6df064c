"""The public API surface: exports exist and __all__ is truthful."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = [
    "repro",
    "repro.netsim",
    "repro.tcp",
    "repro.protocols.ntp",
    "repro.protocols.dns",
    "repro.protocols.http",
    "repro.protocols.rtp",
    "repro.protocols.quic",
    "repro.geo",
    "repro.asmap",
    "repro.scenario",
    "repro.core",
    "repro.core.analysis",
    "repro.stats",
    "repro.reporting",
    "repro.runner",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} should define __all__"
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.{export} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted(name):
    """Sorted __all__ keeps diffs reviewable; enforce it."""
    module = importlib.import_module(name)
    entries = list(module.__all__)
    assert entries == sorted(entries), f"{name}.__all__ is not sorted"


def test_top_level_quickstart_names():
    import repro

    for needed in (
        "Study",
        "SyntheticInternet",
        "MeasurementApplication",
        "ECN",
        "probe_udp",
        "probe_tcp",
        "run_traceroute",
        "scaled_params",
        "default_params",
    ):
        assert needed in repro.__all__

    assert repro.__version__


def test_docstrings_on_public_classes():
    """Every exported class/function carries a docstring."""
    for name in PACKAGES:
        module = importlib.import_module(name)
        for export in module.__all__:
            obj = getattr(module, export)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name}.{export} lacks a docstring"


def test_entry_points_import_no_third_party_packages():
    """The package runs on the standard library alone: importing every
    entry point leaves networkx and numpy unloaded."""
    entry_points = "repro.study, repro.cli, repro.serve, repro.campaign, repro.runner.worker"
    code = (
        f"import sys, {entry_points}\n"
        "print(sorted({'networkx', 'numpy'} & set(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
