"""``tools/reference_corpus.py``: each family's argument lists run through
the CLI, and its digest depends on nothing but them."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "reference_corpus.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reference_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CORPUS = load_script()


@pytest.mark.parametrize("family", CORPUS.FAMILIES)
def test_two_items_hash_the_same_twice(family):
    runs = CORPUS.FAMILIES[family]()[:2]
    assert CORPUS.digest(runs) == CORPUS.digest(runs)
