import os
from pathlib import Path

import pytest

import cactus_mis
from cactus_mis import load_catalog

# Tests that run `python -m cactus_mis.cli` in a child process must import the
# same package as this process, also from a checkout that is not installed
# (pyproject's `pythonpath` only reaches this process).
_PACKAGE_ROOT = str(Path(cactus_mis.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()
