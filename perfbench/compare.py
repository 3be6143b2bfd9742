"""Sup-difference between the final fields of two benchmark records.

    python3 perfbench/compare.py RECORD_A RECORD_B

Each RECORD is a directory written by run.py (perfbench/out/<workload>-seed<N>-
trace<T>), for example one made on a parent commit and one on a change, with
the same workload and seed.  For every final field kept in both, prints
sup |a - b| over the field columns (every column but t, x and y) and exits 1
if the two records do not hold the same fields on the same nodes.
"""

from __future__ import annotations

import os
import sys


def read_field(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def sup_difference(path_a: str, path_b: str) -> float:
    head_a, rows_a = read_field(path_a)
    head_b, rows_b = read_field(path_b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        raise ValueError(f"{os.path.basename(path_a)}: fields differ in shape")
    coords = [i for i, name in enumerate(head_a) if name in ("t", "x", "y")]
    fields = [i for i in range(len(head_a)) if i not in coords]
    worst = 0.0
    for ra, rb in zip(rows_a, rows_b):
        if any(ra[i] != rb[i] for i in coords):
            raise ValueError(f"{os.path.basename(path_a)}: nodes or final time differ")
        worst = max(worst, max(abs(ra[i] - rb[i]) for i in fields))
    return worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    dirs = [os.path.join(d, "final") for d in argv]
    names = [sorted(os.listdir(d)) for d in dirs]
    if names[0] != names[1]:
        print(f"different fields kept: {names[0]} vs {names[1]}", file=sys.stderr)
        return 1
    try:
        for name in names[0]:
            diff = sup_difference(*(os.path.join(d, name) for d in dirs))
            print(f"{name[:-4]:<20} sup difference {diff:.3e}")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
