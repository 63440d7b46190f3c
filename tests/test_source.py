"""Every module compiles cleanly with warnings raised as errors.

Compiling from source here, rather than importing, catches warnings that
only the compiler emits (such as invalid escapes in docstrings), which an
import served from a cached .pyc would never show.
"""

import pathlib
import warnings

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "coulombw"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
