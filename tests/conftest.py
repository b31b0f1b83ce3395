import os
import random
from pathlib import Path

import pytest

from hetcomp import semantics

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

# CLI tests start child interpreters in other working directories, where a
# relative PYTHONPATH entry such as "src" no longer finds the package.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)


@pytest.fixture
def compiles(monkeypatch) -> list:
    """The nets compiled for a search, one entry per compile."""
    nets = []
    original = semantics._Compiled.__init__

    def counting(self, net):
        nets.append(net)
        original(self, net)

    monkeypatch.setattr(semantics._Compiled, "__init__", counting)
    return nets
