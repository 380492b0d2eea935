"""Golden copies of the pinned output files, and a first-divergence report.

tests/golden/ holds the file behind every SHA-256 pin: trace/<scenario>.<strategy>.csv
for test_trace_digests.DIGESTS and compare/<name> for
test_config_cli.COMPARE_DIGESTS. The digest stays the gate. When an output
no longer matches its pin, divergence() says how it moved against its golden
copy; the report is for reading only and adds no tolerance.
scripts/repin_digests.py rewrites the pins and the golden copies together.
"""

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
ROLE_COLUMNS = ("n_thn", "n_jhn")
_INTEGER = re.compile(r"-?\d+\Z")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_golden(scenario: str, strategy: str) -> Path:
    return GOLDEN / "trace" / f"{scenario}.{strategy}.csv"


def compare_golden(name: str) -> Path:
    return GOLDEN / "compare" / name


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _table(data: bytes):
    """(comment lines, column names, data rows) of a text output: lines
    starting with '#' are comments, cells split at commas when the first
    other line has one, else at tabs, else at whitespace, and that first
    line names the columns unless every cell of it is a number."""
    lines = data.decode().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    first = body[0] if body else ""
    sep = "," if "," in first else ("\t" if "\t" in first else None)
    rows = [line.split(sep) for line in body]
    names = []
    if rows and not all(_number(cell) is not None for cell in rows[0]):
        names = rows.pop(0)
    width = max([len(names)] + [len(row) for row in rows])
    names += [f"col{i}" for i in range(len(names), width)]
    return comments, names, rows


def _relative(old: str, new: str):
    """|new - old| / max(|old|, |new|) of two numeric cells; None when
    either is not a finite number."""
    a, b = _number(old), _number(new)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(b - a) / max(abs(a), abs(b))


@dataclass
class Divergence:
    """How an output moved against its golden copy."""

    rows: tuple                 # (golden, new) data row counts
    first_row: int | None       # index of the first differing data row
    first_label: str            # that row's first cell (a trace's slot)
    # moved column -> largest relative change (None: a non-numeric change)
    moved: dict
    integer_moved: list         # moved columns whose golden cells are all integers
    header_moved: bool          # column names or comment lines differ

    @property
    def identical(self) -> bool:
        return self.first_row is None and not self.header_moved

    def flags(self) -> str:
        roles = [c for c in ROLE_COLUMNS if c in self.moved]
        return (f"integer columns: {', '.join(self.integer_moved) or 'none'}; "
                f"outage: {'moved' if 'outage' in self.moved else 'held'}; "
                f"role counts: {', '.join(roles) or 'held'}")

    def columns(self) -> str:
        return ", ".join(f"{c} {'text' if r is None else f'{r:.2g}'}"
                         for c, r in self.moved.items())

    def describe(self) -> str:
        if self.identical:
            return "identical to the golden copy"
        parts = []
        if self.rows[0] != self.rows[1]:
            parts.append(f"rows {self.rows[0]} -> {self.rows[1]}")
        if self.header_moved:
            parts.append("header moved")
        if self.first_row is not None:
            parts.append(f"first divergence at data row {self.first_row} "
                         f"(first cell {self.first_label})")
            parts.append(f"moved columns (largest relative change): {self.columns()}")
        parts.append(self.flags())
        return "; ".join(parts)


def divergence(golden: bytes, new: bytes) -> Divergence:
    """Compare an output with its golden copy row by row and cell by cell."""
    old_comments, old_names, old_rows = _table(golden)
    new_comments, new_names, new_rows = _table(new)
    moved, first = {}, None
    for i in range(max(len(old_rows), len(new_rows))):
        old = old_rows[i] if i < len(old_rows) else []
        row = new_rows[i] if i < len(new_rows) else []
        if old == row:
            continue
        first = i if first is None else first
        for j in range(max(len(old), len(row))):
            a = old[j] if j < len(old) else ""
            b = row[j] if j < len(row) else ""
            if a == b:
                continue
            name = old_names[j] if j < len(old_names) else f"col{j}"
            change = _relative(a, b)
            if name not in moved:
                moved[name] = change
            elif change is None or moved[name] is None:
                moved[name] = None
            else:
                moved[name] = max(moved[name], change)
    integer = [name for name in moved if name in old_names and all(
        _INTEGER.match(row[old_names.index(name)])
        for row in old_rows if len(row) > old_names.index(name))]
    label = ""
    if first is not None:
        source = old_rows if first < len(old_rows) else new_rows
        label = source[first][0] if source[first] else ""
    return Divergence((len(old_rows), len(new_rows)), first, label, moved, integer,
                      old_names != new_names or old_comments != new_comments)
