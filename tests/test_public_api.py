"""The public surface: every exported name resolves, removed names stay
removed, and the README's examples run as written."""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wracah

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = [wracah] + [importlib.import_module(f"wracah.{info.name}") for info in pkgutil.iter_modules(wracah.__path__)]
REMOVED = ["q_factorial_is_degenerate", "DegenerateFactorialError", "angular_indices", "rows_to_csv"]


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _block(heading: str, lang: str = "") -> str:
    """The first fenced block, in lang, after a README heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_are_exported_nowhere(module):
    for name in REMOVED:
        assert name not in getattr(module, "__all__", []), f"{module.__name__}.__all__ lists {name}"
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_readme_quick_start_runs():
    result = _run("-c", _block("## Library quick start", "python"))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "True" in lines
    assert "(-2.0, -1.0, 0.0, 1.0, 2.0)" in lines


@pytest.mark.parametrize(
    "line", [line for line in _block("## Command line").splitlines() if line.startswith("wracah ")]
)
def test_readme_command_line_runs(line):
    args = shlex.split(line.split("#", 1)[0])[1:]
    result = _run("-m", "wracah", *args)
    assert result.returncode == 0, (line, result.stderr)
