"""Run every docstring example in the library, and every ``python``
block of the README, as part of the suite.

These examples are the first code a reader copies; a refactor that
breaks one should fail here, not in a user's shell.
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro


def _all_modules():
    yield repro
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(module_info.name)


MODULES = list(_all_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.IGNORE_EXCEPTION_DETAIL,
        verbose=False,
    )
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module.__name__}"


def test_docstring_examples_exist_somewhere():
    """The library should carry a healthy number of runnable examples."""
    attempted = sum(
        doctest.testmod(
            module,
            optionflags=doctest.ELLIPSIS | doctest.IGNORE_EXCEPTION_DETAIL,
        ).attempted
        for module in MODULES
    )
    assert attempted >= 20


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each fenced block is self-contained: it runs in a fresh namespace."""
    exec(compile(README_BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_readme_python_blocks_exist():
    assert len(README_BLOCKS) >= 7
