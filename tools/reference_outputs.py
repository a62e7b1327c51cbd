"""Run the reference CLI invocations and print a sha256 line per file written.

    python tools/reference_outputs.py OUTDIR

Each invocation runs ``python -m spin_transfer.cli`` from the ``src`` next
to this script's ``tools`` directory, in its own subdirectory of OUTDIR,
with relative output paths, so the files (sibling ``_maxima`` and
``_foldline`` files included) and the captured standard output do not depend
on where OUTDIR is.  Standard output of every run goes to
``OUTDIR/stdout.txt``.  The script prints one ``<sha256>  <path relative to
OUTDIR>`` line per file, sorted by path, so two source trees produce
byte-identical outputs exactly when their listings match.

To compare two commits, run this checkout's script on both trees: copy it
into the other tree's ``tools`` directory and run the copy, so one listing
of invocations measures both ``src`` trees and an entry added to
``INVOCATIONS`` is run on both sides:

    cp tools/reference_outputs.py ../base/tools/
    python ../base/tools/reference_outputs.py /tmp/old > old.txt
    python tools/reference_outputs.py /tmp/new > new.txt
    diff old.txt new.txt

The other tree's CLI must accept every invocation, so an invocation that
uses a flag new in this checkout can join the listing only one commit
after the flag.

It exits 1 if an invocation fails, writes anything to standard error (a
warning, say), or OUTDIR already holds files, and 2 without exactly one
argument.
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
        if done.stderr:
            sys.exit(f"{name}: {command} wrote to standard error\n{done.stderr}")
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
