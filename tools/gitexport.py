"""Export a git revision's tree and import its solver, for tools that run a base revision beside the working tree."""

from __future__ import annotations

import importlib.util
import io
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> None:
    """Write the tree of a revision into a directory with git archive."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def load_package(src: Path, name: str):
    """Import the cubicmoment package under src/ as a top-level package called name."""
    init = src / "cubicmoment" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
