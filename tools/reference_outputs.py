"""Run the reference CLI invocations and print a sha256 line per file written.

    python tools/reference_outputs.py OUTDIR

Each invocation runs ``python -m spin_transfer.cli`` from this checkout's
``src`` in its own subdirectory of OUTDIR, with relative output paths, so
the files (sibling ``_maxima`` and ``_foldline`` files included) and the
captured standard output do not depend on where OUTDIR is.  Standard output
of every run goes to ``OUTDIR/stdout.txt``.  The script prints one
``<sha256>  <path relative to OUTDIR>`` line per file, sorted by path, so two
checkouts produce byte-identical outputs exactly when their listings match:

    python tools/reference_outputs.py /tmp/a > a.txt   # in one checkout
    python tools/reference_outputs.py /tmp/b > b.txt   # in the other
    diff a.txt b.txt

It exits 1 if an invocation fails or OUTDIR already holds files, and 2
without exactly one argument.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: (subdirectory, CLI arguments); each runs with the command's default --out
#: unless it names one.
INVOCATIONS = (
    ("01-fig2", ["fig2"]),
    ("02-fig2", ["fig2", "--theta1", "pi/6", "--t-points", "101", "--out", "fig2.json"]),
    ("03-fig3", ["fig3"]),
    ("04-fig4", ["fig4"]),
    ("05-fig4", ["fig4", "--theta-points", "9", "--budget", "24:2:5"]),
    ("06-iterate", ["iterate"]),
    ("07-iterate", ["iterate", "--mode", "mixed", "--sp", "B", "--steps", "6"]),
    ("08-maximize", ["maximize", "--theta1", "pi/8"]),
    ("09-verify", ["verify"]),
)


def run_all(outdir: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log = []
    for name, argv in INVOCATIONS:
        workdir = outdir / name
        workdir.mkdir()
        done = subprocess.run(
            [sys.executable, "-m", "spin_transfer.cli", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        command = f"spin-transfer {' '.join(argv)}"
        if done.returncode != 0:
            sys.exit(f"{name}: {command} exited {done.returncode}\n{done.stderr}")
        log.append(f"$ {command}\n{done.stdout}")
    (outdir / "stdout.txt").write_text("".join(log), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/reference_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 1
    run_all(outdir)
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(outdir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
