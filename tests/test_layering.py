"""Only the harness composes the pipeline: the decoder (``ctc``), the
summarizer (``cts``), the classifier (``lu``) and the corpus generator
(``synth``) import nothing from the package but the shared ``seqcore``
and ``_kernels``."""

import ast
import pathlib

import pytest

import ctsum

PACKAGE = pathlib.Path(ctsum.__file__).parent
ALLOWED = {"seqcore", "_kernels"}


def package_imports(path):
    """The package modules a source file imports, relatively or as ``ctsum``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ctsum":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ctsum":
                    found.add(parts[1] if len(parts) > 1 else "ctsum")
    return found


@pytest.mark.parametrize("module", ["ctc", "cts", "lu", "synth"])
def test_component_imports_only_shared_modules(module):
    assert package_imports(PACKAGE / f"{module}.py") <= ALLOWED


def test_checker_sees_relative_and_absolute_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy\nfrom . import _kernels, lu\nfrom .ctc import greedy_decode\n"
        "from ctsum.harness import STAGES\nimport ctsum.synth\nfrom .seqcore import Vocabulary\n"
    )
    assert package_imports(src) == {"_kernels", "lu", "ctc", "harness", "synth", "seqcore"}
