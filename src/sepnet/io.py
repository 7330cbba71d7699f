"""Plain-text serialization: matrices and annotated CSV tables.

The matrix format is line-oriented: a first line with the local dimensions,
then one line per row with one ``re+imj`` token per entry (row-major).  Float
repr is used for the parts, so a write/read round trip is exact.
"""
from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np


def format_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    im_s = repr(im)
    if not im_s.startswith("-"):
        im_s = "+" + im_s
    return f"{re!r}{im_s}j"


def write_matrix(path, matrix: np.ndarray, dims) -> None:
    matrix = np.asarray(matrix)
    dims = tuple(int(d) for d in dims)
    if matrix.shape != (int(np.prod(dims)),) * 2:
        raise ValueError(f"matrix shape {matrix.shape} does not match dims {dims}")
    lines = [" ".join(str(d) for d in dims)]
    for row in matrix:
        lines.append(" ".join(format_complex(z) for z in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> tuple[np.ndarray, tuple[int, ...]]:
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty matrix file")
    dims = tuple(int(t) for t in lines[0].split())
    side = int(np.prod(dims))
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rows.append([complex(tok) for tok in line.split()])
    matrix = np.array(rows, dtype=complex)
    if matrix.shape != (side, side):
        raise ValueError(f"expected a {side}x{side} matrix, got {matrix.shape}")
    return matrix, dims


def write_table(path, comments: list[str], header: list[str], rows) -> None:
    """CSV with a leading '#' comment block recording configuration and seeds."""
    buf = _io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    Path(path).write_text(buf.getvalue())


def append_comments(path, comments: list[str]) -> None:
    with open(path, "a") as fh:
        for c in comments:
            fh.write(f"# {c}\n")


def read_table(path) -> tuple[list[str], list[str], list[list[str]]]:
    comments, data = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line.strip():
            data.append(line)
    rows = list(csv.reader(data))
    return comments, rows[0], rows[1:]
