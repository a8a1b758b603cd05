"""Line-oriented text format for complex matrices.

Layout::

    # optional comments anywhere
    dim 4
    1+0j            0.5-0.25j  ...
    ...

The first data line declares the dimension; each of the following ``d``
data lines holds ``d`` whitespace-separated entries written as Python
complex literals without parentheses (``re{+|-}im j``).  Entries are
emitted with 17 significant digits so a write/read round trip preserves
float64 values exactly.
"""

from __future__ import annotations

import cmath
import io
import os

import numpy as np

from .linalg import MAX_DIM, as_matrix

__all__ = [
    "MatrixFormatError",
    "format_complex",
    "write_matrix",
    "read_matrix",
    "matrix_to_string",
    "matrix_from_string",
]


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries line/field diagnostics."""


def format_complex(z: complex) -> str:
    """Render ``z`` as ``re{+|-}imj`` with 17 significant digits."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _parse_entry(token: str, line_no: int, field_no: int) -> complex:
    try:
        z = complex(token)
    except ValueError:
        raise MatrixFormatError(
            f"line {line_no}, field {field_no}: {token!r} is not a complex number"
        ) from None
    if not cmath.isfinite(z):
        raise MatrixFormatError(f"line {line_no}, field {field_no}: {token!r} is not finite")
    return z


def write_matrix(path_or_file, a, comments: list[str] | None = None) -> None:
    """Write matrix ``a`` to ``path_or_file`` (path string or text file)."""
    m = as_matrix(a)
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        for line in comments or []:
            fh.write(f"# {line}\n")
        fh.write(f"dim {m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(format_complex(z) for z in row) + "\n")
    finally:
        if own:
            fh.close()


def read_matrix(path_or_file) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`.

    Raises
    ------
    MatrixFormatError
        On any structural problem, with the offending line (and field)
        in the message.
    """
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "r") if own else path_or_file
    try:
        data_lines: list[tuple[int, str]] = []
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                data_lines.append((line_no, stripped))
    finally:
        if own:
            fh.close()

    if not data_lines:
        raise MatrixFormatError("no data lines found")
    head_no, head = data_lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "dim":
        raise MatrixFormatError(f"line {head_no}: expected 'dim <d>', got {head!r}")
    try:
        dim = int(parts[1])
    except ValueError:
        raise MatrixFormatError(
            f"line {head_no}: dimension {parts[1]!r} is not an integer"
        ) from None
    if dim < 1:
        raise MatrixFormatError(f"line {head_no}: dimension must be positive")
    if dim > MAX_DIM:
        raise MatrixFormatError(
            f"line {head_no}: dimension {dim} outside [1, {MAX_DIM}]"
        )
    rows = data_lines[1:]
    if len(rows) != dim:
        raise MatrixFormatError(
            f"expected {dim} matrix rows, found {len(rows)} data lines"
        )
    out = np.empty((dim, dim), dtype=complex)
    for i, (line_no, text) in enumerate(rows):
        tokens = text.split()
        if len(tokens) != dim:
            raise MatrixFormatError(
                f"line {line_no}: expected {dim} entries, found {len(tokens)}"
            )
        for j, token in enumerate(tokens):
            out[i, j] = _parse_entry(token, line_no, j + 1)
    return as_matrix(out)


def matrix_to_string(a, comments: list[str] | None = None) -> str:
    """Render a matrix to the text format as a string."""
    buf = io.StringIO()
    write_matrix(buf, a, comments)
    return buf.getvalue()


def matrix_from_string(text: str) -> np.ndarray:
    """Parse a matrix from a string in the text format."""
    return read_matrix(io.StringIO(text))
