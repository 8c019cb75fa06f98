"""Fresh-process start-up times of the README's commands, for two source trees.

    python3 tools/startup.py --parent DIR --change DIR [--repeats 11] \\
        [--only NAME,...]

``DIR`` is a source tree with ``src/ilekoop`` (a clone, or an unpacked
``git archive`` of a commit).  Every command runs as a new interpreter,
``python -c "from ilekoop.cli import main; main()" ARGS`` with ``DIR/src``
first on ``PYTHONPATH``, which is what the ``ilekoop`` entry point runs; the
time is the wall time of the whole process.  ``cli-import`` is the
benchmark's ``setup_s`` probe instead: ``import ilekoop.cli`` with no
arguments, timed inside the process as the probe times it.  Each tree works
in its own scratch directory holding the inputs the commands read:
``field.json`` and ``nf.json`` (written by that tree's ``family`` commands)
and ``pts.csv``.

Each command first runs once per tree untimed (it fills the file cache and
gives the reference output), then ``--repeats`` times per tree; repeat k
(counting from 1) runs the parent first when k is odd and the change first
otherwise, so a slow drift of the machine's speed favours neither side.
Every run's exit code, stdout, stderr and output files must equal the parent's
reference run; a mismatch is printed and the script exits 1.

It prints one line per command: each side's median and quartiles in ms and
the parent's median over the change's.  The interpreter's environment passes through unchanged: with
``PYTHONDONTWRITEBYTECODE`` set, every run compiles every module it imports,
and without it the first run caches bytecode under each tree's ``src/``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

GRID = "-1:1:101,-0.75:0.75:101"
CUBIC = ["family", "cubic", "--lambda", "2", "--c", "0.66666666666666663",
         "--k", "-0.33333333333333331", "--a00", "-2"]
TRANSFORMED = ["family", "transformed", "--lambda", "-1", "--coeffs", "-0.5"]
KEIG = ["keig-check", "--field", "field.json", "--g", "(x+y-1)^2", "--lambda", "2"]

#: name -> (arguments, output files).  The README's commands, plus --help,
#: a usage error (a missing required flag) and the import probe (no arguments).
COMMANDS = {
    "ile": (["ile", "--field", "saddle", "--grid", GRID, "--rate", "s1", "--out", "s1.csv",
             "--pgm", "s1.pgm", "--extract", "trench"], ("s1.csv", "s1.pgm")),
    "ftle": (["ftle", "--field", "saddle", "--time", "-0.05", "--step", "1e-3", "--grid", GRID,
              "--out", "ftle.csv"], ("ftle.csv",)),
    "family-cubic": (CUBIC, ()),
    "keig-check": (KEIG + ["--samples", "100"], ()),
    "keig-check-exact": (KEIG + ["--exact"], ()),
    "family-transformed": (TRANSFORMED, ()),
    "pullback": (["pullback", "--field", "nf.json", "--line", "1,0,0,1", "--h", "1",
                  "--lambda", "-1", "--points", "pts.csv", "--out", "phi.csv"], ("phi.csv",)),
    "carleman": (["carleman", "--lambda", "-1", "--c", "-1", "--x0", "1,0", "--time", "1"], ()),
    "series": (["series", "--target", "s1", "--N", "10", "--y", "0.5"], ()),
    "oned": (["oned", "--f", "x - x^3", "--xmin", "-1", "--xmax", "1", "--n", "201"], ()),
    "help": (["--help"], ()),
    "usage-error": (["family", "cubic", "--lambda", "2"], ()),
    "cli-import": (None, ()),
}

#: Points for ``pullback`` on both sides of its data line x = 1.
POINTS = "0.5,0.25\n0.75,-0.5\n1.5,0.1\n2,0.3\n"

MAIN = "from ilekoop.cli import main; main()"

#: The benchmark's setup_s probe (bench/run.py): it prints the seconds its
#: import of ilekoop.cli took.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ilekoop.cli; "
                "print(repr(time.perf_counter() - t))")


class Tree:
    """One source tree and its scratch directory of inputs."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root.resolve(), work
        if not (self.root / "src" / "ilekoop" / "cli.py").is_file():
            raise SystemExit(f"{root}: no src/ilekoop/cli.py")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), self.env.get("PYTHONPATH")) if p)
        work.mkdir()
        (work / "pts.csv").write_text(POINTS)
        for name, argv in (("field.json", CUBIC), ("nf.json", TRANSFORMED)):
            (work / name).write_text(self.run(argv, ())[1][1])

    def run(self, argv: list | None, outputs: tuple) -> tuple[float, tuple]:
        """Seconds and (exit code, stdout, stderr, output files) of one fresh
        process.  ``argv`` None runs ``IMPORT_PROBE``: the seconds are those
        it prints, and its stdout counts as empty."""
        for name in outputs:
            (self.work / name).unlink(missing_ok=True)
        command = [MAIN, *argv] if argv is not None else [IMPORT_PROBE]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", *command], cwd=self.work, env=self.env,
                              capture_output=True, text=True, timeout=300)
        seconds = time.perf_counter() - start
        if argv is None:
            return float(proc.stdout), (proc.returncode, "", proc.stderr, ())
        files = tuple((self.work / name).read_text() if (self.work / name).exists() else None
                      for name in outputs)
        return seconds, (proc.returncode, proc.stdout, proc.stderr, files)


def spread_ms(times: list[float]) -> dict:
    ms = [t * 1e3 for t in times]
    if len(ms) == 1:
        return {"median": ms[0], "q1": ms[0], "q3": ms[0]}
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--repeats", type=int, default=11)
    ap.add_argument("--only", help="comma-separated command names (default: all)")
    args = ap.parse_args(argv)
    names = args.only.split(",") if args.only else list(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown or args.repeats < 1:
        ap.error(f"unknown commands {unknown}" if unknown else "--repeats must be at least 1")

    mismatches = []
    times = {name: {"parent": [], "change": []} for name in names}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: Tree(getattr(args, side), Path(scratch) / side)
                 for side in ("parent", "change")}
        for name in names:
            argv, outputs = COMMANDS[name]
            reference = trees["parent"].run(argv, outputs)[1]
            if trees["change"].run(argv, outputs)[1] != reference:
                mismatches.append(f"{name}: change differs from parent")
            for k in range(1, args.repeats + 1):
                for side in ("parent", "change") if k % 2 else ("change", "parent"):
                    seconds, result = trees[side].run(argv, outputs)
                    times[name][side].append(seconds)
                    if result != reference:
                        mismatches.append(f"{name}: {side} repeat {k} differs from the reference")

    print(f"{'command':<20} {'parent ms (q1-q3)':>24} {'change ms (q1-q3)':>24} {'ratio':>6}")
    for name in names:
        parent, change = spread_ms(times[name]["parent"]), spread_ms(times[name]["change"])
        cells = [f"{s['median']:7.1f} ({s['q1']:.1f}-{s['q3']:.1f})" for s in (parent, change)]
        print(f"{name:<20} {cells[0]:>24} {cells[1]:>24} "
              f"{parent['median'] / change['median']:6.2f}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
