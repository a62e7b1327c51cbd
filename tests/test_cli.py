import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from spin_transfer.cli import (
    ConfigError,
    build_parser,
    main,
    parse_angle,
    parse_budget,
    parse_source_state,
    write_csv,
)
from spin_transfer.entanglement import _BLOCK, XStateCoeffs, negativity
from spin_transfer.qutritmax import SearchBudget
from spin_transfer.transfer import STATE_A, STATE_B, QubitPairState, evolve_reduced


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.25", 0.25),
            ("pi", np.pi),
            ("pi/4", np.pi / 4),
            ("3pi/32", 3 * np.pi / 32),
            ("2*pi/3", 2 * np.pi / 3),
            ("-pi/6", -np.pi / 6),
            (1.5, 1.5),
        ],
    )
    def test_angles(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_bad_angle(self):
        with pytest.raises(ConfigError):
            parse_angle("two pies")

    @pytest.mark.parametrize("text", ["pi/0", "3pi/0.0", "nan", "inf", "1e7", "1e400pi"])
    def test_zero_denominator_and_non_finite_angles(self, text):
        with pytest.raises(ConfigError):
            parse_angle(text)

    def test_source_states(self):
        assert parse_source_state("A") == STATE_A
        assert parse_source_state("b") == STATE_B
        custom = parse_source_state("1,1,0")
        assert custom.k0 == pytest.approx(np.sqrt(0.5))
        with pytest.raises(ConfigError):
            parse_source_state("1,2")

    def test_budget(self):
        b = parse_budget("40:2:4")
        assert (b.coarse, b.refinements, b.shrink) == (40, 2, 4.0)
        assert parse_budget("25").coarse == 25
        assert parse_budget("60") == SearchBudget()
        assert parse_budget("7") == SearchBudget(coarse=7)
        with pytest.raises(ConfigError):
            parse_budget("fast")


class TestFig2:
    def test_default_panel_structure(self, tmp_path):
        out = tmp_path / "f2.csv"
        assert main(["fig2", "--theta1", "0", "--theta2", "pi/4", "--t-points", "201",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "E12", "A", "B", "C", "D", "ReF", "ImF"]
        assert len(rows) == 201
        values = np.array([[float(v) for v in row] for row in rows])
        diag_sum = values[:, 2] + values[:, 3] + values[:, 4] + values[:, 5]
        assert np.abs(diag_sum - 1.0).max() < 1e-9
        peak_idx = int(np.argmax(values[:, 1]))
        assert values[peak_idx, 1] == pytest.approx(1.0, abs=1e-6)
        assert abs(values[peak_idx, 0] - np.pi) <= values[1, 0] - values[0, 0]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig2", "--theta1", "pi/6", "--theta2", "pi/4", "--t-points", "101"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "f2.json"
        assert main(["fig2", "--t-points", "11", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["header"][0] == "t"
        assert len(payload["rows"]) == 11

    def test_bad_grid_rejected(self, tmp_path):
        code = main(["fig2", "--t-points", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    # no shrink phase: a failing example is reported as drawn, since shrinking
    # one that scores three 399-point tables takes minutes
    @settings(
        derandomize=True,
        max_examples=30,
        deadline=None,
        database=None,
        phases=[Phase.explicit, Phase.generate],
    )
    @given(
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
        st.floats(-50.0, 50.0),
        st.floats(-50.0, 50.0),
        st.sampled_from([2, 3, 61, 399]),
    )
    @example(np.pi / 4, np.pi / 4, 0.0, 2 * np.pi, 61)  # E12 of 22 rows is -0.0
    @example(0.3, 1.1, -40.0, 45.0, 2 * _BLOCK + 5)  # three blocks of the stacked score
    def test_stacked_table_is_the_per_row_table(self, theta1, theta2, t_start, t_stop, points):
        """The CSV and JSON files are those of the per-row route: one
        ``evolve_reduced``, ``from_operator`` and ``negativity`` per time."""
        rows = fig2_rows_per_row(theta1, theta2, t_start, t_stop, points)
        header = ["t", "E12", "A", "B", "C", "D", "ReF", "ImF"]
        want = {
            ".csv": "\n".join([",".join(header)] + [",".join(map(format_value, r)) for r in rows]),
            ".json": json.dumps({"header": header, "rows": rows}, indent=2, sort_keys=True),
        }
        values = [theta1, theta2, t_start, t_stop]
        argv = ["fig2"] + [f"--{n}={v!r}" for n, v in zip(FIG2_ANGLES, values)]
        argv.append(f"--t-points={points}")
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, text in want.items():
                out = Path(tmp) / f"fig2{suffix}"
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv + ["--out", str(out)]) == 0
                assert out.read_text() == text + "\n"


FIG2_ANGLES = ("theta1", "theta2", "t-start", "t-stop")


def format_value(value):
    """The CSV rule of one value, as a function."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def fig2_rows_per_row(theta1, theta2, t_start, t_stop, points):
    """The fig2 table scored one row at a time."""
    tp, sp = QubitPairState(theta1), QubitPairState(theta2)
    rows = []
    for t in np.linspace(t_start, t_stop, points):
        rho = evolve_reduced(tp, sp, t)
        coeffs = XStateCoeffs.from_operator(rho)
        e12 = negativity(rho).value
        f = coeffs.f
        rows.append([float(t), e12, coeffs.a, coeffs.b, coeffs.c, coeffs.d, f.real, f.imag])
    return rows


def test_csv_value_format(tmp_path, capsys):
    """An int and a string as ``str``; a Python or numpy float to 12
    significant digits; -0.0 as ``-0``."""
    out = tmp_path / "t.csv"
    row = [3, "mixed", 0.1, np.float64(1 / 3), -0.0, np.float64(-0.0), 1e-20, 2.0**60]
    write_csv(out, ["a"], [row])
    assert out.read_text() == "a\n3,mixed,0.1,0.333333333333,-0,-0,1e-20,1.15292150461e+18\n"
    assert capsys.readouterr().out == f"wrote {out}\n"


class TestFig3:
    def test_outputs(self, tmp_path):
        out = tmp_path / "f3.csv"
        assert main(["fig3", "--samples", "150", "--budget", "20:1:5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["k0", "k1", "k2", "I1", "I2", "I1p", "I2p"]
        assert len(rows) == 150
        # distinguished states with their invariant table values come first
        assert [float(v) for v in rows[0][3:5]] == pytest.approx([1 / 3, 1 / 9], abs=1e-9)
        assert [float(v) for v in rows[1][3:5]] == pytest.approx([1 / 2, 1 / 4], abs=1e-9)
        assert [float(v) for v in rows[2][3:5]] == pytest.approx([1.0, 1.0], abs=1e-9)
        mheader, mrows = read_csv(tmp_path / "f3_maxima.csv")
        assert mheader[:2] == ["theta1", "E_max"]
        assert len(mrows) == 9

    def test_too_few_samples(self, tmp_path):
        assert main(["fig3", "--samples", "10", "--out", str(tmp_path / "f3.csv")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig3", "--samples", "120", "--budget", "16:1:5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a_maxima.csv").read_bytes() == (tmp_path / "b_maxima.csv").read_bytes()


class TestFig4:
    def test_columns_and_edge_values(self, tmp_path):
        out = tmp_path / "f4.csv"
        assert main(["fig4", "--theta-points", "9", "--budget", "24:2:5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["theta1", "E_initial", "E_A", "E_B", "E_max"]
        values = np.array([[float(v) for v in row] for row in rows])
        assert np.all(values[:, 4] >= values[:, 2] - 1e-12)  # max dominates the A curve
        last = values[-1]
        assert last[1] == pytest.approx(1.0, abs=1e-6)
        assert last[2] == pytest.approx(1.0, abs=1e-6)
        assert last[4] == pytest.approx(1.0, abs=1e-6)
        fold_header, fold_rows = read_csv(tmp_path / "f4_foldline.csv")
        assert fold_header[0] == "step"
        assert len(fold_rows) == 4
        assert float(fold_rows[-1][3]) >= 0.95


class TestIterate:
    def test_defaults_reach_high_entanglement(self, tmp_path):
        out = tmp_path / "it.csv"
        assert main(["iterate", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["step", "mode", "E_before", "E_after", "tp_theta", "tp_purity"]
        assert len(rows) == 4
        assert float(rows[-1][3]) >= 0.95

    def test_fixed_point_column(self, tmp_path):
        out = tmp_path / "it.csv"
        assert main(["iterate", "--e0", "1", "--steps", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(1.0, abs=1e-9)

    def test_mixed_mode_recorded(self, tmp_path):
        out = tmp_path / "it.csv"
        assert main(["iterate", "--mode", "mixed", "--steps", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row[1] == "mixed-continuation" for row in rows)
        assert rows[0][4] == ""  # no Schmidt angle snapshot in mixed mode
        assert float(rows[1][5]) < 1.0  # carried state is mixed

    def test_bad_e0(self, tmp_path):
        assert main(["iterate", "--e0", "1.5", "--out", str(tmp_path / "x.csv")]) == 2


class TestMaximize:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "mx.json"
        assert main(["maximize", "--theta1", "pi/4", "--budget", "24:2:5",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["e_max"] == pytest.approx(1.0, abs=1e-6)
        assert payload["invariants"]["I1"] == pytest.approx(1 / 3, abs=1e-3)
        assert payload["evaluations"] == 3 * 24 * 24 + 3  # grid rounds plus A, B, C seeds
        assert len(payload["argmax_k"]) == 3


class TestVerify:
    def test_report_and_exit_code(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mandatory_passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert any("propagator" in n for n in names)
        info = [c for c in report["checks"] if c["passed"] is None]
        assert len(info) == 1
        assert info[0]["max_deviation"] > 1e-2  # the transcription really is off mid-revival

    def test_mandatory_failure_exit_code(self, tmp_path, monkeypatch):
        import spin_transfer.cli as cli_module

        def failing_checks(seed=0):
            return {
                "seed": seed,
                "checks": [
                    {
                        "name": "synthetic failure",
                        "tolerance": 1e-10,
                        "max_deviation": 1.0,
                        "passed": False,
                        "mandatory": True,
                    }
                ],
                "mandatory_passed": False,
            }

        monkeypatch.setattr(cli_module, "run_checks", failing_checks)
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 3


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta1": "pi/6", "theta2": "pi/4", "t_points": 11}))
        out = tmp_path / "out.csv"
        assert main(["fig2", "--config", str(cfg), "--t-points", "21", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 21  # flag wins over the config file

    def test_config_values_used(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_points": 11}))
        out = tmp_path / "out.csv"
        assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 11

    def test_missing_config_file(self, tmp_path):
        assert main(["fig2", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    """A refused flag and another command between two identical fig2 runs
    leave the cached parser as it was: the second file is the first."""
    argv = ["fig2", "--theta1", "-pi/6", "--t-points", "11", "--out"]
    assert main(argv + [str(tmp_path / "first.csv")]) == 0
    assert main(["fig2", "--no-such-flag", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert main(["maximize", "--budget", "4:1:2", "--out", str(tmp_path / "m.json")]) == 0
    assert main(argv + [str(tmp_path / "second.csv")]) == 0
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert build_parser() is build_parser()


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    result = subprocess.run(
        [sys.executable, "-m", "spin_transfer.cli", "fig2", "--t-points", "11",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert out.exists()
    assert "wrote" in result.stdout


#: Runs each (command, out) pair of its arguments through ``main``, in order.
RUN_IN_ONE_PROCESS = """
import sys
from spin_transfer.cli import main
for command, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main([command, "--out", out]) == 0
"""


def test_files_do_not_depend_on_what_ran_before_in_the_process(tmp_path):
    # full_evolution keeps its last array across commands: iterate and verify
    # write the same bytes after each other, in either order, as alone
    outs = {"iterate": "i.csv", "verify": "v.json"}

    def run(folder: str, *commands: str) -> dict[str, bytes]:
        (tmp_path / folder).mkdir()
        paths = {c: tmp_path / folder / outs[c] for c in commands}
        argv = [str(a) for c in commands for a in (c, paths[c])]
        subprocess.run([sys.executable, "-c", RUN_IN_ONE_PROCESS, *argv], check=True,
                       capture_output=True)
        return {c: p.read_bytes() for c, p in paths.items()}

    alone = {**run("iterate", "iterate"), **run("verify", "verify")}
    assert run("iterate-verify", "iterate", "verify") == alone
    assert run("verify-iterate", "verify", "iterate") == alone
