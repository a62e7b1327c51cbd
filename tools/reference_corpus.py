"""Hash the CLI's outputs over a seeded corpus of invocations, one sha256 per family.

    python tools/reference_corpus.py

Each family is a seeded list of ``spin-transfer`` argument lists:

- fig2: 100 tables, ``--theta1`` and ``--theta2`` in [-3, 3], ``--t-start``
  and ``--t-stop`` in [-50, 50], 2 to 399 points;
- iterate: 300 sources, amplitudes the square roots of a Dirichlet draw,
  each with a uniform ``--e0`` and 12 steps, in both modes;
- maximize: 60 angles in [-3, 3], each at the budgets 60:3:5, 30:2:5,
  24:2:5 and 7:4:3.

Every value is written from a Python float (``repr`` of a numpy float is
``np.float64(...)`` under numpy 2, which the CLI refuses).  Each argument
list runs in process through ``spin_transfer.cli.main``, in its own
subdirectory of a temporary directory with the command's default relative
``--out``, and with standard output captured.  A family's digest covers,
run by run, the arguments, the exit status, the standard output and the
name and bytes of every file written.  The script prints one
``<sha256>  <family>`` line per family, so two source trees produce
byte-identical outputs on the corpus exactly when their listings match.

``spin_transfer`` is imported from the ``src`` next to this script's
``tools`` directory.  To compare two commits, run this checkout's script on
both trees, as with ``reference_outputs.py``:

    cp tools/reference_corpus.py ../base/tools/
    python ../base/tools/reference_corpus.py > old.txt
    python tools/reference_corpus.py > new.txt
    diff old.txt new.txt

The script calls only ``cli.main``, so it runs on any tree whose CLI takes
these flags.  It exits with a message if a run exits non-zero or writes to
standard error (a warning, say).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

MAXIMIZE_BUDGETS = ("60:3:5", "30:2:5", "24:2:5", "7:4:3")


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


def iterate_runs() -> list[list[str]]:
    rng = np.random.default_rng(1)
    runs = []
    for _ in range(300):
        source = ",".join(_value(k) for k in np.sqrt(rng.dirichlet((1.0, 1.0, 1.0))))
        e0 = _value(rng.uniform(0.0, 1.0))
        for mode in ("pure-reset", "mixed"):
            runs.append(["iterate", "--sp", source, "--e0", e0, "--steps", "12", "--mode", mode])
    return runs


def maximize_runs() -> list[list[str]]:
    rng = np.random.default_rng(2)
    runs = []
    for theta1 in rng.uniform(-3.0, 3.0, 60):
        for budget in MAXIMIZE_BUDGETS:
            runs.append(["maximize", "--theta1", _value(theta1), "--budget", budget])
    return runs


#: family -> its argument lists
FAMILIES = {"fig2": fig2_runs, "iterate": iterate_runs, "maximize": maximize_runs}


def digest(runs: list[list[str]]) -> str:
    """sha256 of what ``cli.main`` prints and writes for each of ``runs``, in order."""
    from spin_transfer import cli

    total = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for i, argv in enumerate(runs):
                workdir = Path(tmp, str(i))
                workdir.mkdir()
                os.chdir(workdir)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli.main(argv)
                command = f"spin-transfer {' '.join(argv)}"
                if status != 0 or err.getvalue():
                    raise SystemExit(f"{command} exited {status}\n{err.getvalue()}")
                total.update(f"$ {command}\n{status}\n{out.getvalue()}".encode())
                for path in sorted(workdir.iterdir()):
                    data = path.read_bytes()
                    total.update(f"{path.name} {len(data)}\n".encode() + data)
        finally:
            os.chdir(home)
    return total.hexdigest()


def main() -> int:
    for name, runs in FAMILIES.items():
        print(f"{digest(runs())}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
