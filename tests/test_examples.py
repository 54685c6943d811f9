"""Every shipped example still resolves its imports.

Each example guards its work behind ``if __name__ == "__main__"``, so
loading it under another name only runs the imports and definitions — an
example that imports a deleted or renamed name fails here instead of in
a reader's terminal.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_cleanly(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace.get("main"))
