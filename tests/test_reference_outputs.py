"""The listing of ``tools/reference_outputs.py``: every invocation parses and
resolves as the CLI would take it, so a mistyped entry fails here and not
only in a byte-identity diff."""

import importlib.util
from pathlib import Path

import pytest

from spin_transfer import cli

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INVOCATIONS = load_script().INVOCATIONS


def test_subdirectory_names_are_unique_and_sorted():
    names = [name for name, _ in INVOCATIONS]
    assert names == sorted(set(names))


@pytest.mark.parametrize("argv", [argv for _, argv in INVOCATIONS], ids=[n for n, _ in INVOCATIONS])
def test_invocation_parses_and_resolves(argv):
    args = cli.build_parser().parse_args(cli._join_flag_values(argv))
    cli._resolve(cli.COMMANDS[args.command], args)
