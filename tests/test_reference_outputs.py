"""``tools/reference_outputs.py``: every run of every family parses and
resolves as the CLI would take it, so a mistyped entry fails here and not
only in a byte-identity diff; a family's listing depends on nothing but its
runs; and the tool refuses a run that fails or warns, a non-empty OUTDIR
and bad usage."""

import importlib.util
import warnings
from pathlib import Path

import pytest

from spin_transfer import cli

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reference_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_script()


@pytest.mark.parametrize("family", TOOL.FAMILIES)
def test_run_names_are_unique_and_sorted(family):
    names = [name for name, _ in TOOL.FAMILIES[family]]
    assert names == sorted(set(names))


@pytest.mark.parametrize("family", TOOL.FAMILIES)
def test_every_run_parses_and_resolves(family):
    for _, argv in TOOL.FAMILIES[family]:
        args = cli.build_parser().parse_args(cli._join_flag_values(argv))
        cli._resolve(cli.COMMANDS[args.command], args)


@pytest.mark.parametrize("family", TOOL.FAMILIES)
def test_first_two_runs_list_the_same_twice(family, tmp_path):
    runs = TOOL.FAMILIES[family][:2]
    for side in ("a", "b"):
        TOOL.run_family(tmp_path / side, family, runs)
    listing = TOOL.listing(tmp_path / "a")
    assert listing == TOOL.listing(tmp_path / "b")
    assert f"{family}/stdout.txt" in {line.split("  ")[1] for line in listing}


def test_non_empty_outdir_exits_1(tmp_path, capsys):
    (tmp_path / "left.txt").write_text("", encoding="utf-8")
    assert TOOL.main([str(tmp_path)]) == 1
    assert "not empty" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [[], ["a", "b"]])
def test_bad_usage_exits_2(argv, capsys):
    assert TOOL.main(argv) == 2
    assert "usage:" in capsys.readouterr().err


def test_a_failing_run_exits_1_naming_it(tmp_path):
    with pytest.raises(SystemExit, match="fig2/bad: spin-transfer fig2 --t-points 1 exited 2"):
        TOOL.run_family(tmp_path, "fig2", [("bad", ["fig2", "--t-points", "1"])])


def test_a_run_that_warns_exits_1_naming_the_warning(tmp_path, monkeypatch):
    def warns(argv):
        warnings.warn("overflow encountered", RuntimeWarning)
        return 0

    monkeypatch.setattr(cli, "main", warns)
    with pytest.raises(SystemExit, match="exited 0\nRuntimeWarning: overflow encountered"):
        TOOL.run_family(tmp_path, "fig2", [("w", ["fig2"])])
