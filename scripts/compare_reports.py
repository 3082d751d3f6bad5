#!/usr/bin/env python3
"""Check that the working tree writes the same run files as a git revision.

Usage: python3 scripts/compare_reports.py REV

Exports REV with `git archive` into a temporary directory.  Runs `sample`,
`ablate-n`, `ablate-rho`, `study-window` and `compare-adjoint` on each of the
working tree's configs/default.json, configs/gram.json (the gram_style
loss) and configs/mlp.json (an MlpModel) at --seed 0 and --seed 3, once
with REV's source and once with the working tree's, each side with the
same relative --out, and then `plot` in every run directory.
Compares each report.json, report.csv, m_curve.csv, config.resolved.json
and SVG figure byte for byte, and each timing.json with every row's
wall_time_ns dropped.
Prints "N of M identical" plus, for each file that differs, the largest
absolute difference |x - y| and the largest relative difference
|x - y| / max(|x|, |y|) between the numbers it holds, where a pair whose
larger magnitude is below a roundoff floor of 1e-12 counts as 0 (an exact
solver's error of 0 on one side and 3e-16 on the other is no change of 1);
for a CSV file also each column whose cells differ, with how many do.  When
any file differs, ends with "worst numeric difference X in RUN/FILE; worst
relative difference R in RUN/FILE", the largest of each over all files (inf
for a file written on one side only or holding a different count of numbers).
Exits 1 on any difference.  The temporary directories are removed.

Every run has its own interpreter, with its own hash seed, so with REV set
to HEAD on an unmodified checkout (as CI runs it) the script checks that
two processes write the same bytes for the same config and seed.  Takes
about 40 s on a 2-core VM: 60 runs and 30 plots, writing 162 files a side.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = tuple(ROOT / "configs" / name for name in ("default.json", "gram.json", "mlp.json"))
COMMANDS = ("sample", "ablate-n", "ablate-rho", "study-window", "compare-adjoint")
SEEDS = (0, 3)
FILES = (
    "report.json", "report.csv", "m_curve.csv", "config.resolved.json", "timing.json",
    "loss_curves.svg", "m_curve.svg", "rho_curve.svg", "window_study.svg", "adjoint_comparison.svg",
)
_NUMBER = re.compile(rb"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
# Below this magnitude a number is roundoff, and its relative difference is taken as 0.
ROUNDOFF = 1e-12


def _run_all(src: Path, out: Path) -> None:
    """Every command on every config at every seed with the package in `src`, each into out/<config>-<command>-<seed>,
    then plotted there.

    --out is relative to out, so both sides write the same out_dir into config.resolved.json.
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    out.mkdir()
    for config in CONFIGS:
        for command in COMMANDS:
            for seed in SEEDS:
                run = f"{config.stem}-{command}-{seed}"
                for argv in ([command, "--config", str(config), "--seed", str(seed), "--out", run], ["plot", "--out", run]):
                    subprocess.run(
                        [sys.executable, "-m", "symguide.cli", *argv],
                        env=env, cwd=out, check=True, stdout=subprocess.DEVNULL,
                    )


def _compared_bytes(path: Path) -> bytes:
    """The file's bytes; for timing.json, its text with each row's wall_time_ns dropped."""
    if path.name != "timing.json":
        return path.read_bytes()
    obj = json.loads(path.read_text())
    rows = [{k: v for k, v in row.items() if k != "wall_time_ns"} for row in obj["rows"]]
    return json.dumps({**obj, "rows": rows}, sort_keys=True, indent=2).encode()


def _relative(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|), and 0 where x == y or max(|x|, |y|) is below ROUNDOFF."""
    scale = max(abs(x), abs(y))
    return 0.0 if x == y or scale < ROUNDOFF else abs(x - y) / scale


def _largest_differences(a: bytes, b: bytes) -> tuple[str, float, float]:
    """How the numbers of two files differ, with their largest absolute and relative differences (inf if counts differ)."""
    xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
    if len(xs) != len(ys):
        return f"{len(xs)} vs {len(ys)} numbers", math.inf, math.inf
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys)]
    largest = max((abs(x - y) for x, y in pairs), default=0.0)
    relative = max((_relative(x, y) for x, y in pairs), default=0.0)
    return f"largest numeric difference {largest!r}, largest relative difference {relative:.3g}", largest, relative


def _differing_columns(a: bytes, b: bytes) -> str:
    """Each CSV column whose cells differ, with the number of differing cells."""
    ra, rb = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    if not (ra and rb and ra[0] == rb[0] and len(ra) == len(rb)):
        return "headers or row counts differ"
    header = ra[0]
    counts = dict.fromkeys(header, 0)
    for row_a, row_b in zip(ra[1:], rb[1:]):
        for column, x, y in zip(header, row_a, row_b):
            counts[column] += x != y
    return ", ".join(f"{column} ({k} cells)" for column, k in counts.items() if k)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare_reports-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", argv[0]], check=True, stdout=subprocess.PIPE
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        _run_all(tmp / "rev" / "src", tmp / "rev-out")
        _run_all(ROOT / "src", tmp / "tree-out")
        same, differing, deltas = 0, [], []
        for run in sorted(p.name for p in (tmp / "rev-out").iterdir()):
            for name in FILES:
                a, b = tmp / "rev-out" / run / name, tmp / "tree-out" / run / name
                if not (a.exists() or b.exists()):
                    continue
                if not (a.exists() and b.exists()):
                    differing.append(f"{run}/{name}: written on one side only")
                    deltas.append((math.inf, math.inf, f"{run}/{name}"))
                elif _compared_bytes(a) == _compared_bytes(b):
                    same += 1
                else:
                    a, b = _compared_bytes(a), _compared_bytes(b)
                    text, largest, relative = _largest_differences(a, b)
                    deltas.append((largest, relative, f"{run}/{name}"))
                    line = f"{run}/{name}: {text}"
                    if name.endswith(".csv"):
                        line += f"; cells differ in {_differing_columns(a, b)}"
                    differing.append(line)
    print(f"{same} of {same + len(differing)} identical")
    for line in differing:
        print(f"  differs: {line}")
    if deltas:
        largest, _, where = max(deltas, key=lambda delta: delta[0])
        _, relative, where_relative = max(deltas, key=lambda delta: delta[1])
        print(f"worst numeric difference {largest!r} in {where}; "
              f"worst relative difference {relative:.3g} in {where_relative}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
