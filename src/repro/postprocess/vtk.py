"""Legacy VTK export of :class:`~repro.postprocess.fields.ArrayField`.

The legacy ASCII ``RECTILINEAR_GRID`` format is the lowest common denominator
every visualization tool reads (ParaView, VisIt, PyVista, mayavi) without any
optional dependency on our side.  Point data comprises the von Mises scalar,
the displacement vector and the six Voigt stress components as scalars.

Values are streamed in fixed blocks of rows, each formatted by one
C-level ``%`` call and written in one ``write``; the text is byte-identical
to ``np.savetxt(fmt="%.17g")``, which formats and writes row by row in Python.

A minimal reader is provided so exports can be validated in tests/CI without
a VTK library; it reads exactly the subset the writer emits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.postprocess.fields import VOIGT_COMPONENTS, ArrayField
from repro.utils.validation import ValidationError

#: Number formatting used for coordinates and point data (lossless for float64).
_FMT = "%.17g"

#: Rows formatted per ``%`` call and per ``write``: enough to amortize the
#: per-call cost, few enough that one block's text stays small.
_BLOCK_ROWS = 2048

#: Title used when none is given; legacy VTK caps the header line at 256
#: characters including its newline.
_DEFAULT_TITLE = "repro field export"
_MAX_TITLE_CHARS = 255


def _flat_point_order(array: np.ndarray) -> np.ndarray:
    """Reorder ``(nx, ny, nz, ...)`` point data to VTK's x-fastest flat order."""
    # VTK iterates x fastest, then y, then z; our arrays are indexed [x, y, z].
    return np.ascontiguousarray(np.moveaxis(array, (0, 1, 2), (2, 1, 0))).reshape(
        array.shape[0] * array.shape[1] * array.shape[2], -1
    )


def _write_rows(handle: TextIO, values: np.ndarray) -> None:
    """Write a 2-D array exactly as ``np.savetxt(handle, values, fmt=_FMT)``."""
    row = " ".join([_FMT] * values.shape[1]) + "\n"
    for start in range(0, values.shape[0], _BLOCK_ROWS):
        block = values[start : start + _BLOCK_ROWS]
        handle.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def _header_title(title: str) -> str:
    """First line of ``title`` made ASCII, clipped to the legacy header limit."""
    lines = title.encode("ascii", "replace").decode("ascii").splitlines()
    line = lines[0] if lines else ""
    return line[:_MAX_TITLE_CHARS] if line.strip() else _DEFAULT_TITLE


def write_vtk_rectilinear(
    path: str | Path, field: ArrayField, title: str = _DEFAULT_TITLE
) -> Path:
    """Write an :class:`ArrayField` as a legacy ASCII VTK rectilinear grid.

    Non-ASCII characters of ``title`` become ``?``, only its first line is
    kept and it is clipped to 255 characters.  If writing fails, the partial
    file is removed before the error propagates.
    """
    path = Path(path)
    if path.suffix != ".vtk":
        path = path.with_suffix(path.suffix + ".vtk")
    path.parent.mkdir(parents=True, exist_ok=True)
    nx, ny, nz = field.shape
    header_title = _header_title(title)
    # Export stream, not a durable artifact: the VTK file is a regenerable
    # visualization export (rebuilt from the .npz bundle at any time) whose
    # size can reach hundreds of MB, so it is streamed in fixed row blocks
    # instead of being buffered for an atomic rename.  Readers that need
    # crash-safe artifacts use the checksummed .npz bundle next to it.
    try:
        # repro-lint: disable=REP001 -- export stream: regenerable visualization output, streamed to bound memory; the durable artifact is the .npz bundle
        with path.open("w", encoding="ascii") as handle:
            handle.write("# vtk DataFile Version 3.0\n")
            handle.write(f"{header_title}\n")
            handle.write("ASCII\n")
            handle.write("DATASET RECTILINEAR_GRID\n")
            handle.write(f"DIMENSIONS {nx} {ny} {nz}\n")
            for name, coords in (("X", field.x), ("Y", field.y), ("Z", field.z)):
                handle.write(f"{name}_COORDINATES {coords.size} double\n")
                _write_rows(handle, coords[None, :])
            handle.write(f"POINT_DATA {field.num_points}\n")
            handle.write("SCALARS von_mises double 1\n")
            handle.write("LOOKUP_TABLE default\n")
            _write_rows(handle, _flat_point_order(field.von_mises))
            handle.write("VECTORS displacement double\n")
            _write_rows(handle, _flat_point_order(field.displacement))
            for index, component in enumerate(VOIGT_COMPONENTS):
                handle.write(f"SCALARS stress_{component} double 1\n")
                handle.write("LOOKUP_TABLE default\n")
                _write_rows(handle, _flat_point_order(field.stress[..., index]))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def _read_values(lines: list[str], start: int, count: int) -> tuple[np.ndarray, int]:
    """Read ``count`` whitespace-separated floats starting at ``lines[start]``."""
    values: list[float] = []
    index = start
    while len(values) < count:
        if index >= len(lines):
            raise ValidationError(
                f"VTK file ended while reading values ({len(values)}/{count} read)"
            )
        values.extend(float(token) for token in lines[index].split())
        index += 1
    if len(values) != count:
        raise ValidationError(
            f"VTK value block has {len(values)} numbers, expected {count}"
        )
    return np.asarray(values, dtype=float), index


def read_vtk_rectilinear(path: str | Path) -> dict[str, Any]:
    """Parse a legacy VTK rectilinear grid written by :func:`write_vtk_rectilinear`.

    Returns
    -------
    dict
        ``{"dimensions": (nx, ny, nz), "coordinates": (x, y, z),
        "point_data": {name: array}}`` with point-data arrays shaped
        ``(nx, ny, nz)`` (scalars) or ``(nx, ny, nz, 3)`` (vectors) in this
        package's ``[x, y, z]`` index convention.
    """
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if len(lines) < 5 or not lines[0].startswith("# vtk DataFile"):
        raise ValidationError(f"{path} is not a legacy VTK file")
    if lines[2].strip() != "ASCII":
        raise ValidationError(f"only ASCII VTK files are supported, got {lines[2]!r}")
    if lines[3].split() != ["DATASET", "RECTILINEAR_GRID"]:
        raise ValidationError(f"expected a RECTILINEAR_GRID dataset, got {lines[3]!r}")
    tokens = lines[4].split()
    if len(tokens) != 4 or tokens[0] != "DIMENSIONS":
        raise ValidationError(f"expected DIMENSIONS, got {lines[4]!r}")
    nx, ny, nz = (int(token) for token in tokens[1:])
    num_points = nx * ny * nz

    coordinates: dict[str, np.ndarray] = {}
    index = 5
    for axis, size in (("X", nx), ("Y", ny), ("Z", nz)):
        header = lines[index].split()
        if len(header) != 3 or header[0] != f"{axis}_COORDINATES":
            raise ValidationError(
                f"expected {axis}_COORDINATES, got {lines[index]!r}"
            )
        if int(header[1]) != size:
            raise ValidationError(
                f"{axis}_COORDINATES has {header[1]} entries, expected {size}"
            )
        coordinates[axis], index = _read_values(lines, index + 1, size)

    if index >= len(lines) or lines[index].split()[:1] != ["POINT_DATA"]:
        raise ValidationError("expected a POINT_DATA section")
    declared = int(lines[index].split()[1])
    if declared != num_points:
        raise ValidationError(
            f"POINT_DATA declares {declared} points, dimensions give {num_points}"
        )
    index += 1

    point_data: dict[str, np.ndarray] = {}
    while index < len(lines):
        tokens = lines[index].split()
        if not tokens:
            index += 1
            continue
        if tokens[0] == "SCALARS":
            name = tokens[1]
            index += 1  # LOOKUP_TABLE line
            if index >= len(lines) or not lines[index].startswith("LOOKUP_TABLE"):
                raise ValidationError(f"SCALARS {name} is missing its LOOKUP_TABLE")
            values, index = _read_values(lines, index + 1, num_points)
            point_data[name] = values.reshape(nz, ny, nx).transpose(2, 1, 0)
        elif tokens[0] == "VECTORS":
            name = tokens[1]
            values, index = _read_values(lines, index + 1, 3 * num_points)
            point_data[name] = (
                values.reshape(nz, ny, nx, 3).transpose(2, 1, 0, 3)
            )
        else:
            raise ValidationError(f"unsupported VTK point-data attribute {tokens[0]!r}")

    return {
        "dimensions": (nx, ny, nz),
        "coordinates": (coordinates["X"], coordinates["Y"], coordinates["Z"]),
        "point_data": point_data,
    }


__all__ = ["write_vtk_rectilinear", "read_vtk_rectilinear"]
