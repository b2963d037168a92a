import json
import os
import types
from importlib import resources
from pathlib import Path

import pytest

import cactus_mis
from cactus_mis.catalog import load_catalog

# Tests that run `python -m cactus_mis.cli` in a child process must import the
# same package as this process, also from a checkout that is not installed
# (pyproject's `pythonpath` only reaches this process).
_PACKAGE_ROOT = str(Path(cactus_mis.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session", autouse=True)
def _child_bytecode_cache(tmp_path_factory):
    """Child interpreters share compiled bytecode in a session temp dir.

    Without it, under PYTHONDONTWRITEBYTECODE each child compiles the package
    from source again. The prefix keeps the bytecode out of the source tree,
    and a child that sets PYTHONDONTWRITEBYTECODE itself still writes none.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPYCACHEPREFIX", str(tmp_path_factory.mktemp("pycache")))
        mp.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        yield


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def baseline():
    """The committed `verify --scope all` report, parsed once and shared.

    Its objects are read-only mappings, so no test can change what a later
    one reads; they compare equal to the dicts of a freshly parsed report.
    """
    text = resources.files("cactus_mis").joinpath("data/baseline_report.json").read_text(encoding="utf-8")
    return json.loads(text, object_hook=types.MappingProxyType)
