"""Run the reference CLI invocations and a seeded corpus; print one sha256 per file written.

    python tools/reference_outputs.py OUTDIR

``FAMILIES`` maps each family to its runs, each a run name and a list of
``spin-transfer`` arguments:

- reference: the 15 named invocations ``01-fig2`` ... ``15-iterate`` (the
  figures, the staircases, the searches and ``verify``);
- fig2: 100 tables, ``--theta1`` and ``--theta2`` in [-3, 3], ``--t-start``
  and ``--t-stop`` in [-50, 50], 2 to 399 points;
- fig3: 8 region fills, ``--samples`` 100 to 450, ``--seed`` 0 to 7 and
  the budgets 4:2:3 to 11:2:3, the odd seeds to JSON;
- fig4: ``--theta-points`` 3, 5, 7 and 9, each with a 6-step staircase in
  both modes from a seeded source and ``--e0``, at the budgets 4:2:3 to
  11:2:3, 5 and 9 points to JSON;
- iterate: 300 sources, amplitudes the square roots of a Dirichlet draw,
  each with a uniform ``--e0`` and 12 steps, in both modes;
- maximize: 60 angles in [-3, 3], each at the budgets 60:3:5, 30:2:5,
  24:2:5 and 7:4:3;
- verify: ``--seed`` 2 to 5, the seeds the reference runs leave out.

Outside the reference family every file is a distinct check: no two runs
write the same bytes.  In the reference family, the default staircase is
both ``06-iterate`` and the ``_foldline`` file of ``04-fig4`` and
``05-fig4``.

The seeded runs are named by their zero-padded index (``000``, ...).  Every
seeded value is written from a Python float (``repr`` of a numpy float is
``np.float64(...)`` under numpy 2, which the CLI refuses).  A JSON table
holds each float's ``repr``, where a CSV table rounds it to 12 digits, so
the fig3 and fig4 runs written as JSON show a change in the last bit.

Every run goes in process through ``spin_transfer.cli.main``, imported from
the ``src`` next to this script's ``tools`` directory.  It runs in
``OUTDIR/<family>/<run>/`` with the command's default relative ``--out``
unless it names one, so the files (sibling ``_maxima`` and ``_foldline``
files included) do not depend on where OUTDIR is.  Its standard output and
standard error are captured and its warnings recorded, each one ("always").
A family's standard output goes to ``OUTDIR/<family>/stdout.txt``, each run's
after a ``$ spin-transfer <arguments>`` line.  The script prints one
``<sha256>  <path relative to OUTDIR>`` line per file, sorted by path, so
two source trees produce byte-identical outputs exactly when their listings
match, and a diff of the listings names the runs whose files moved.

To compare two commits, run this checkout's script on both trees: copy it
into the other tree's ``tools`` directory and run the copy, so one table of
runs measures both ``src`` trees and a run added to ``FAMILIES`` is run on
both sides:

    cp tools/reference_outputs.py ../base/tools/
    python ../base/tools/reference_outputs.py /tmp/old > old.txt
    python tools/reference_outputs.py /tmp/new > new.txt
    diff old.txt new.txt

The other tree's CLI must accept every run, so a run that uses a flag new in
this checkout can join the table only one commit after the flag.

It exits 1 if a run exits non-zero, writes anything to standard error or
warns, or if OUTDIR already holds files, and 2 without exactly one argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import warnings
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

#: (run name, CLI arguments); each runs with the command's default --out
#: unless it names one.
REFERENCE = [
    ("01-fig2", ["fig2"]),
    ("02-fig2", ["fig2", "--theta1", "pi/6", "--t-points", "101", "--out", "fig2.json"]),
    ("03-fig3", ["fig3"]),
    ("04-fig4", ["fig4"]),
    ("05-fig4", ["fig4", "--theta-points", "9", "--budget", "24:2:5"]),
    ("06-iterate", ["iterate"]),
    ("07-iterate", ["iterate", "--mode", "mixed", "--sp", "B", "--steps", "6"]),
    ("08-maximize", ["maximize", "--theta1", "pi/8"]),
    ("09-verify", ["verify"]),
    # the mixed staircase over 12 steps from a source other than A, B or C
    ("10-iterate", ["iterate", "--mode", "mixed", "--sp", "0.6,0.5,0.3", "--steps", "12"]),
    # its round 0 ties two columns on the top value, so this guards the tie order
    ("11-maximize", ["maximize", "--theta1", "-0.5", "--budget", "7:4:3"]),
    # a seed other than 09-verify's 0: its sampled X states pass through
    # negativity_xstate's checks
    ("12-verify", ["verify", "--seed", "1"]),
    # inputs outside the two fig2 runs above: its E12 column goes through
    # NegativityValue.from_raw
    ("13-fig2", ["fig2", "--theta1", "0.4", "--theta2", "1.1", "--t-points", "301"]),
    # a negative flag value, joined to its flag by cli._join_flag_values, and a
    # long qubit-source grid off 0..2pi
    ("14-fig2", ["fig2", "--t-start", "-pi/6", "--t-stop", "50", "--t-points", "997"]),
    # the pure-reset staircase from a source other than A, B or C; it is not
    # monotone (0.9535, then 0.9505)
    ("15-iterate", ["iterate", "--sp", "0.6,0.5,0.3", "--steps", "12", "--e0", "0.05"]),
]

MAXIMIZE_BUDGETS = ("60:3:5", "30:2:5", "24:2:5", "7:4:3")
MODES = ("pure-reset", "mixed")


def _value(x) -> str:
    return repr(float(x))


def fig2_runs() -> list[list[str]]:
    rng = np.random.default_rng(0)
    runs = []
    for _ in range(100):
        theta1, theta2 = rng.uniform(-3.0, 3.0, 2)
        t_start, t_stop = rng.uniform(-50.0, 50.0, 2)
        points = int(rng.integers(2, 400))
        runs.append(
            ["fig2", "--theta1", _value(theta1), "--theta2", _value(theta2)]
            + ["--t-start", _value(t_start), "--t-stop", _value(t_stop)]
            + ["--t-points", str(points)]
        )
    return runs


def fig3_runs() -> list[list[str]]:
    return [
        ["fig3", "--samples", str(100 + 50 * i), "--seed", str(i), "--budget", f"{4 + i}:2:3"]
        + (["--out", "fig3.json"] if i % 2 else [])
        for i in range(8)
    ]


def _source(rng: np.random.Generator) -> str:
    """A ``--sp`` value: the square roots of a Dirichlet draw."""
    return ",".join(_value(k) for k in np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))


def fig4_runs() -> list[list[str]]:
    rng = np.random.default_rng(3)
    runs = []
    for points in (3, 5, 7, 9):
        for mode in MODES:
            budget = f"{4 + len(runs)}:2:3"
            runs.append(
                ["fig4", "--theta-points", str(points), "--budget", budget, "--steps", "6"]
                + ["--mode", mode, "--sp", _source(rng), "--e0", _value(rng.uniform(0.0, 1.0))]
                + (["--out", "fig4.json"] if points in (5, 9) else [])
            )
    return runs


def iterate_runs() -> list[list[str]]:
    rng = np.random.default_rng(1)
    runs = []
    for _ in range(300):
        source = _source(rng)
        e0 = _value(rng.uniform(0.0, 1.0))
        for mode in MODES:
            runs.append(["iterate", "--sp", source, "--e0", e0, "--steps", "12", "--mode", mode])
    return runs


def maximize_runs() -> list[list[str]]:
    rng = np.random.default_rng(2)
    runs = []
    for theta1 in rng.uniform(-3.0, 3.0, 60):
        for budget in MAXIMIZE_BUDGETS:
            runs.append(["maximize", "--theta1", _value(theta1), "--budget", budget])
    return runs


def verify_runs() -> list[list[str]]:
    return [["verify", "--seed", str(seed)] for seed in range(2, 6)]


def _indexed(runs: list[list[str]]) -> list[tuple[str, list[str]]]:
    return [(f"{i:03d}", argv) for i, argv in enumerate(runs)]


#: family -> its (run name, CLI arguments) pairs, run in this order
FAMILIES = {
    "reference": REFERENCE,
    "fig2": _indexed(fig2_runs()),
    "fig3": _indexed(fig3_runs()),
    "fig4": _indexed(fig4_runs()),
    "iterate": _indexed(iterate_runs()),
    "maximize": _indexed(maximize_runs()),
    "verify": _indexed(verify_runs()),
}


def run_family(outdir: Path, family: str, runs: list[tuple[str, list[str]]]) -> None:
    """Run each of ``runs`` through ``cli.main`` in ``outdir/family/<run>/``
    and write the family's ``stdout.txt``; exit 1 naming the first run that
    exits non-zero, writes to standard error or warns."""
    from spin_transfer import cli

    home = os.getcwd()
    log = []
    try:
        for name, argv in runs:
            workdir = outdir / family / name
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    status = cli.main(argv)
            command = f"spin-transfer {' '.join(argv)}"
            if status != 0 or err.getvalue() or caught:
                warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
                sys.exit(f"{family}/{name}: {command} exited {status}\n{err.getvalue()}{warned}")
            log.append(f"$ {command}\n{out.getvalue()}")
    finally:
        os.chdir(home)
    (outdir / family / "stdout.txt").write_text("".join(log), encoding="utf-8")


def listing(outdir: Path) -> list[str]:
    """One ``<sha256>  <path>`` line per file under ``outdir``, sorted by path."""
    paths = {p.relative_to(outdir).as_posix(): p for p in outdir.rglob("*") if p.is_file()}
    return [f"{hashlib.sha256(paths[k].read_bytes()).hexdigest()}  {k}" for k in sorted(paths)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/reference_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 1
    for family, runs in FAMILIES.items():
        run_family(outdir, family, runs)
    print("\n".join(listing(outdir)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
