"""Package metadata: every console script must point at a callable."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")     # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def test_console_scripts_import_and_are_callable():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} = {target!r}"
