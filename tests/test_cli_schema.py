"""The command table as the CLI's contract: which flags and config keys each
command takes, how bad input is rejected, and fuzzing of the boundary."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_transfer.cli as cli
from spin_transfer.cli import (
    ANGLE_LIMIT,
    COARSE_LIMIT,
    COMMANDS,
    REFINEMENTS_LIMIT,
    SAMPLES_LIMIT,
    STEPS_LIMIT,
    T_POINTS_LIMIT,
    THETA_POINTS_LIMIT,
    ConfigError,
    main,
    parse_angle,
    parse_budget,
    parse_source_state,
)

#: A quick, non-default value for every setting in the table.
SAMPLE = {
    "seed": "3",
    "theta1": "pi/7",
    "theta2": "pi/5",
    "t_start": "0.5",
    "t_stop": "2",
    "t_points": "3",
    "theta_points": "2",
    "samples": "100",
    "budget": "4:1:2",
    "e0": "0.3",
    "sp": "B",
    "steps": "2",
    "mode": "mixed",
}


def names_of(command: str) -> list[str]:
    """The settings of ``command``'s schema besides --out."""
    return [s.name for s in COMMANDS[command].schema() if s.name != "out"]


ALL_SETTINGS = sorted({name for command in COMMANDS for name in names_of(command)})


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def fake_checks(seed=0):
    return {"seed": seed, "checks": [], "mandatory_passed": True}


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_sample_covers_every_setting():
    assert sorted(SAMPLE) == ALL_SETTINGS


def test_settable_pairs():
    # six commands; each takes --out, --seed and --config besides its own settings
    assert sum(len(c.settings) + 3 for c in COMMANDS.values()) == 37


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_setting_is_a_flag_and_a_config_key(command, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", fake_checks)
    suffix = COMMANDS[command].suffixes[0]
    names = names_of(command)
    by_flag = tmp_path / f"flag{suffix}"
    assert main([command, "--out", str(by_flag)] + [f"{flag(n)}={SAMPLE[n]}" for n in names]) == 0
    by_config = tmp_path / f"config{suffix}"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(by_config), **{n: SAMPLE[n] for n in names}}))
    assert main([command, "--config", str(cfg)]) == 0
    assert by_flag.read_bytes() == by_config.read_bytes()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_foreign_flags_and_config_keys_exit_2(command, tmp_path, capsys):
    out = str(tmp_path / f"x{COMMANDS[command].suffixes[0]}")
    foreign = [n for n in ALL_SETTINGS if n not in names_of(command)] + ["format"]
    cfg = tmp_path / "cfg.json"
    for name in foreign:
        code, err = run([command, flag(name), "1", "--out", out], capsys)
        assert code == 2 and flag(name) in err
        cfg.write_text(json.dumps({name: "1"}))
        code, err = run([command, "--config", str(cfg), "--out", out], capsys)
        assert code == 2 and repr(name) in err
    assert not Path(out).exists()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_wrong_out_suffix_exits_2(command, tmp_path, capsys):
    bad = ["x.txt", "x"] + ([] if ".csv" in COMMANDS[command].suffixes else ["x.csv"])
    for name in bad:
        code, err = run([command, "--out", str(tmp_path / name)], capsys)
        assert code == 2 and err.startswith("error: --out:")


def test_json_suffix_writes_json_table(tmp_path):
    out = tmp_path / "x.json"
    assert main(["iterate", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["header"] == ["step", "mode", "E_before", "E_after", "tp_theta", "tp_purity"]
    assert len(payload["rows"]) == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv,field",
    [
        (["maximize", "--theta1", "nan"], "--theta1"),
        (["maximize", "--budget", "20:2:nan"], "--budget"),
        (["maximize", "--theta1", "pi/0"], "--theta1"),
        (["fig2", "--theta1", "inf"], "--theta1"),
        (["fig2", "--t-start=-1e308", "--t-stop", "1e308"], "--t-start"),
        (["iterate", "--sp", "nan,1,1"], "--sp"),
        (["iterate", "--sp", "0,0,0"], "--sp"),
        (["iterate", "--steps", "2.5"], "--steps"),
        (["fig4", "--e0", "1.5"], "--e0"),
        (["fig3", "--seed", "-1"], "--seed"),
        (["iterate", "--sp", "1,-1,1"], "--sp"),
    ],
)
def test_bad_value_exits_2_naming_the_field(argv, field, tmp_path, capsys):
    out = tmp_path / f"x{COMMANDS[argv[0]].suffixes[0]}"
    code, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(f"error: {field}:")
    assert not out.exists()


@pytest.mark.parametrize(
    "command,name,over",
    [
        ("fig2", "t_points", str(T_POINTS_LIMIT + 1)),
        ("fig4", "theta_points", str(THETA_POINTS_LIMIT + 1)),
        ("fig3", "samples", str(SAMPLES_LIMIT + 1)),
        ("fig3", "budget", f"{COARSE_LIMIT + 1}:0:2"),
        ("maximize", "budget", str(10**9)),
        ("maximize", "budget", f"2:{REFINEMENTS_LIMIT + 1}:2"),
        ("iterate", "steps", str(STEPS_LIMIT + 1)),
        ("fig4", "steps", str(10**9)),
    ],
)
def test_work_size_over_its_limit_exits_2_naming_the_field(command, name, over, tmp_path, capsys):
    out = tmp_path / f"x{COMMANDS[command].suffixes[0]}"
    code, err = run([command, flag(name), over, "--out", str(out)], capsys)
    assert code == 2 and err.count("\n") == 1 and err.startswith(f"error: {flag(name)}:")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: over}))
    code, err = run([command, "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and err.count("\n") == 1 and err.startswith(f"error: config key {name!r}:")
    assert not out.exists()


def test_work_size_limits_are_accepted():
    settings_by_name = {s.name: s for c in COMMANDS.values() for s in c.settings}
    for name, limit in [
        ("t_points", T_POINTS_LIMIT),
        ("theta_points", THETA_POINTS_LIMIT),
        ("samples", SAMPLES_LIMIT),
        ("steps", STEPS_LIMIT),
    ]:
        assert settings_by_name[name].parse(str(limit)) == limit
    assert parse_budget(f"{COARSE_LIMIT}:0:2").coarse == COARSE_LIMIT
    assert parse_budget(f"2:{REFINEMENTS_LIMIT}:2").refinements == REFINEMENTS_LIMIT


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_command_line_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Command line") : text.index("```sh", text.index("## Command line"))]


def test_readme_command_table_matches_the_command_table():
    rows = re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|$", readme_command_line_section(), re.M)
    assert [name for name, _, _ in rows] == list(COMMANDS)
    for name, flags, suffixes in rows:
        assert re.findall(r"--[\w-]+", flags) == [s.flag for s in COMMANDS[name].settings], name
        assert tuple(re.findall(r"`(\.\w+)`", suffixes)) == COMMANDS[name].suffixes, name


def test_readme_ranges_are_the_cli_limits():
    """Each range in the README's exit-2 paragraph is its ``*_LIMIT``
    constant, and its parser takes both ends and refuses one beyond each."""
    section = readme_command_line_section()
    (angle_limit,) = re.findall(r"at most\s+(\S+)\s+in magnitude", section)
    assert float(angle_limit) == cli.ANGLE_LIMIT
    ranges = re.findall(r"`(--[\w-]+)` (\d+) to (\d+)", section)
    ranges += re.findall(r"(coarse|refinements) (\d+) to (\d+)", section)
    names = [f"{field.strip('-').replace('-', '_').upper()}_LIMIT" for field, _, _ in ranges]
    assert set(names) == {name for name in vars(cli) if name.endswith("_LIMIT")} - {"ANGLE_LIMIT"}
    assert re.findall(r"`cli\.(\w+_LIMIT)`", section) == names
    parsers = {s.flag: s.parse for c in COMMANDS.values() for s in c.settings}
    parsers["coarse"] = lambda n: parse_budget(f"{n}:0:2")
    parsers["refinements"] = lambda n: parse_budget(f"2:{n}:2")
    for name, (field, lo, hi) in zip(names, ranges):
        assert int(hi) == getattr(cli, name), name
        for accepted in (int(lo), int(hi)):
            parsers[field](str(accepted))
        for refused in (int(lo) - 1, int(hi) + 1):
            with pytest.raises(ConfigError):
                parsers[field](str(refused))


@pytest.mark.parametrize(
    "joined,spaced",
    [
        (["--theta1=-pi/6"], ["--theta1", "-pi/6"]),
        (["--t-start=-3pi/32"], ["--t-start", "-3pi/32"]),
    ],
)
def test_value_starting_with_a_dash_follows_its_flag(joined, spaced, tmp_path):
    written = []
    for i, argv in enumerate((joined, spaced)):
        out = tmp_path / f"{i}.csv"
        assert main(["fig2", *argv, "--t-points", "5", "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_flag_followed_by_a_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, err = run(["fig2", "--theta1", "--theta2", "1", "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error: argument --theta1:")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.1", "-pi/6"])
def test_abbreviated_flag_is_unrecognized(value, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, err = run(["fig2", "--t-sta", value, "--out", str(out)], capsys)
    assert code == 2 and err.startswith(f"error: unrecognized arguments: --t-sta {value}")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_source_amplitudes_are_a_direction(tmp_path):
    written = []
    for sp in ("A", "1e200,1e200,1e200"):
        out = tmp_path / "x.csv"
        assert main(["iterate", "--sp", sp, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_misspelled_config_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thetal": 0.5}))
    code, err = run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and "'thetal'" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), 1e400, [1, 2], True, "pi/0"])
def test_bad_config_value_names_the_key(value, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_points": value, "theta1": value}))
    code, err = run(["fig2", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2 and err.startswith("error: config key ")


@pytest.mark.parametrize("key", ["theta1", "theta2", "t_start", "t_stop"])
def test_a_json_true_is_not_an_angle(key, tmp_path, capsys):
    # each angle key alone: no other key's refusal can stand in for it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: True}))
    out = tmp_path / "x.csv"
    code, err = run(["fig2", "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 2 and err == f"error: config key {key!r}: cannot parse angle True\n"
    assert not out.exists()


# Parsers: any text either parses to a finite value or valid object, or is
# rejected with ConfigError (and never with a numpy warning).

PI_TEXT = st.from_regex(r"\A\s?-?\d{0,400}(\.\d{0,3})?\*?pi(/\s?\d{0,400}(\.\d{0,3})?)?\Z")
SHRINK = st.sampled_from([math.nan, math.inf, 1.0]) | st.floats()
BUDGET_TEXT = st.tuples(st.integers(-3, 99), st.integers(-3, 9), SHRINK).map(
    lambda b: f"{b[0]}:{b[1]}:{b[2]!r}"
)
TRIPLE_TEXT = st.lists(st.floats(), min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v)))
PARSE_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PARSE_SETTINGS
@given(st.one_of(st.text(), PI_TEXT, st.floats().map(repr)))
def test_parse_angle_is_total(text):
    try:
        value = parse_angle(text)
    except ConfigError:
        return
    assert math.isfinite(value) and abs(value) <= ANGLE_LIMIT


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PARSE_SETTINGS
@given(st.one_of(st.text(), st.from_regex(r"\A\d{1,4}(:\d{1,3})?\Z"), BUDGET_TEXT))
def test_parse_budget_is_total(text):
    try:
        budget = parse_budget(text)
    except ConfigError:
        return
    assert 2 <= budget.coarse <= COARSE_LIMIT
    assert 0 <= budget.refinements <= REFINEMENTS_LIMIT and 1.0 < budget.shrink < math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PARSE_SETTINGS
@given(st.one_of(st.text(), TRIPLE_TEXT, st.sampled_from(["a", " B ", "c"])))
def test_parse_source_state_is_total(text):
    try:
        state = parse_source_state(text)
    except ConfigError:
        return
    amps = state.amplitudes()
    assert np.all(np.isfinite(amps)) and abs(np.sum(amps**2) - 1.0) <= 1e-12


# main() on fuzzed flag values and config files: the exit code is 0 or 2, with
# no exception and no RuntimeWarning.  Sizes (grid points, samples, budget,
# steps) are drawn only from small values or non-numbers, and every size the
# draw leaves unset gets a small one, so that each example runs in
# milliseconds; verify is left out because its checks take a second.

EDGE_VALUES = [
    "nan", "inf", "-inf", "1e400", "-1e308", "pi/0", "pi/4", "-pi/6", "0", "1", "0.5",
    "100", "B", "1,1,0", "nan,1,1", "inf,1,1", "1e200,1e200,1e200", "4:1:2", "20:2:nan",
    "3:0:inf", "4:1:2:9", "mixed", "mixed-continuation", "pure-reset", "",
]  # fmt: skip
NON_DIGIT_TEXT = st.text(st.characters(exclude_categories=["Nd", "Cs"]), max_size=6)
FLAG_VALUES = st.one_of(
    st.sampled_from(EDGE_VALUES), st.integers(-3, 9).map(str), st.floats().map(repr), NON_DIGIT_TEXT
)
JSON_VALUES = st.one_of(
    FLAG_VALUES,
    st.integers(-3, 9),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.floats(-2, 2), max_size=4),
)
QUICK = {"t_points": "3", "theta_points": "2", "samples": "100", "budget": "4:1:2", "steps": "2"}
FUZZ_KEYS = st.sampled_from(ALL_SETTINGS + ["thetal", "format", "config"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_main_exits_0_or_2_on_fuzzed_input(data):
    def rarely() -> bool:
        return data.draw(st.sampled_from([False, False, False, True]))

    command = data.draw(st.sampled_from([c for c in COMMANDS if c != "verify"]))
    own = names_of(command)
    keys = data.draw(st.lists(st.sampled_from(own) | FUZZ_KEYS, max_size=3, unique=True))
    flags, config = {}, {}
    for key in keys:
        value = data.draw(st.just(SAMPLE.get(key, "1")) | FLAG_VALUES)
        if data.draw(st.booleans()):
            flags[key] = value
        else:
            config[key] = data.draw(st.just(value) | JSON_VALUES)
    if rarely():
        config[data.draw(st.text(max_size=4))] = data.draw(JSON_VALUES)
    config_text = data.draw(st.text(max_size=8)) if rarely() else json.dumps(config)
    suffix = data.draw(st.sampled_from([".txt", ""] if rarely() else COMMANDS[command].suffixes))
    quick = [n for n in QUICK if n in own and n not in keys]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(config_text)
        argv = [command, "--out", str(Path(tmp) / f"out{suffix}"), "--config", str(cfg)]
        argv += [f"{flag(n)}={v}" for n, v in flags.items()]
        argv += [f"{flag(n)}={QUICK[n]}" for n in quick]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 2)
