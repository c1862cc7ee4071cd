#!/usr/bin/env python3
"""Compare two directories written by tools/readme_examples.sh.

    python3 tools/compare_outputs.py DIR_A DIR_B

Both directories must hold the same files.  JSON files are compared key by
key, CSV files cell by cell, anything else as CSV text:

- keys, shapes (list lengths, row and column counts), integers and strings
  must be equal;
- real values, and the re/im parts of complex ones, must agree within
  1e-25 relative to max(1, |v|): the printed digits past quad_tol = 1e-30
  are quadrature noise, but a correct change moves none of them above
  that scale;
- every value under a *residual* field (a JSON key, a CSV column header or
  the first cell of a CSV row) gets its change from A to B printed in
  decades, and a residual that grew by more than one decade fails.

Exit status: 0 when B agrees with A, 1 when not, 2 on bad usage.
"""
from __future__ import annotations

import csv
import io
import json
import re
import sys
from pathlib import Path

from mpmath import mp

REL_TOL = mp.mpf("1e-25")
# residuals below this count as this: 256-bit round-off sits near 1e-77,
# so an exact zero that becomes round-off noise is not a change of decades
RESIDUAL_FLOOR = mp.mpf("1e-80")
MAX_DECADES_WORSE = 1

_INT = re.compile(r"[+-]?\d+\Z")
_REAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


def _value(v):
    """int, mpf, or the value itself (strings, booleans, None)."""
    if isinstance(v, float):
        return mp.mpf(v)
    if isinstance(v, str):
        if _INT.match(v):
            return int(v)
        if _REAL.match(v):
            return mp.mpf(v)
    return v


class Comparison:
    def __init__(self):
        self.problems = []
        self.residuals = []   # (where, a, b, decades)

    def leaf(self, a, b, where, residual):
        a, b = _value(a), _value(b)
        if type(a) is not type(b):
            self.problems.append(f"{where}: {a!r} vs {b!r}")
        elif isinstance(a, mp.mpf):
            if abs(a - b) > REL_TOL * max(1, abs(a), abs(b)):
                self.problems.append(
                    f"{where}: {mp.nstr(a, 30)} vs {mp.nstr(b, 30)}")
            if residual:
                decades = mp.log10(max(abs(b), RESIDUAL_FLOOR)
                                   / max(abs(a), RESIDUAL_FLOOR))
                self.residuals.append((where, a, b, decades))
                if decades > MAX_DECADES_WORSE:
                    self.problems.append(
                        f"{where}: residual worse by {mp.nstr(decades, 3)} decades")
        elif a != b:
            self.problems.append(f"{where}: {a!r} vs {b!r}")

    def tree(self, a, b, where, residual=False):
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.problems.append(f"{where}: keys {list(a)} vs {list(b)}")
                return
            for key in a:
                self.tree(a[key], b[key], f"{where}.{key}",
                          residual or "residual" in key)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.problems.append(f"{where}: length {len(a)} vs {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.tree(x, y, f"{where}[{i}]", residual)
        elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
            self.problems.append(f"{where}: {type(a).__name__} vs {type(b).__name__}")
        else:
            self.leaf(a, b, where, residual)

    def table(self, a, b, where):
        if [len(r) for r in a] != [len(r) for r in b]:
            self.problems.append(f"{where}: CSV shapes differ")
            return
        header = a[0] if a else []
        for r, (ra, rb) in enumerate(zip(a, b)):
            for c, (x, y) in enumerate(zip(ra, rb)):
                label = header[c] if c < len(header) else str(c)
                residual = "residual" in label or "residual" in ra[0]
                self.leaf(x, y, f"{where}[{r}][{label}]", residual)

    def file(self, pa: Path, pb: Path):
        ta, tb = pa.read_text(), pb.read_text()
        try:
            a, b = json.loads(ta), json.loads(tb)
        except ValueError:
            self.table(list(csv.reader(io.StringIO(ta))),
                       list(csv.reader(io.StringIO(tb))), pa.name)
        else:
            self.tree(a, b, pa.name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py DIR_A DIR_B", file=sys.stderr)
        return 2
    da, db = Path(argv[0]), Path(argv[1])
    names_a = sorted(p.name for p in da.iterdir() if p.is_file())
    names_b = sorted(p.name for p in db.iterdir() if p.is_file())
    cmp = Comparison()
    if names_a != names_b:
        cmp.problems.append(f"files differ: {names_a} vs {names_b}")
    with mp.workdps(100):
        for name in sorted(set(names_a) & set(names_b)):
            cmp.file(da / name, db / name)
        for where, a, b, decades in cmp.residuals:
            print(f"residual {where}: {mp.nstr(a, 5)} -> {mp.nstr(b, 5)}"
                  f" ({mp.nstr(decades, 3)} decades)")
    for line in cmp.problems:
        print(f"MISMATCH {line}")
    print(f"{len(cmp.problems)} mismatches, {len(cmp.residuals)} residuals compared")
    return 1 if cmp.problems else 0


if __name__ == "__main__":
    sys.exit(main())
