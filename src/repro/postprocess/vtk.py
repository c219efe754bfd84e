"""Legacy VTK export of :class:`~repro.postprocess.fields.ArrayField`.

The legacy ``RECTILINEAR_GRID`` format is the lowest common denominator
every visualization tool reads (ParaView, VisIt, PyVista, mayavi) without any
optional dependency on our side.  Point data comprises the von Mises scalar,
the displacement vector and the six Voigt stress components as scalars.

Files are written in the legacy ``BINARY`` mode: the header lines are ASCII
text, and each coordinate and point-data array follows its header line as
one block of big-endian IEEE doubles (``>f8``) and a ``"\\n"``.  Every value
is stored bit for bit, and no float is formatted as text.

A minimal reader is provided so exports can be validated in tests/CI without
a VTK library; it reads exactly the subset the writer emits, in the
``BINARY`` mode and in the ``ASCII`` mode of files written before it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, BinaryIO

import numpy as np

from repro.postprocess.fields import VOIGT_COMPONENTS, ArrayField
from repro.utils.validation import ValidationError

#: Byte order and width of every binary value: legacy VTK is big-endian.
_BINARY_DTYPE = np.dtype(">f8")

#: Title used when none is given; legacy VTK caps the header line at 256
#: characters including its newline.
_DEFAULT_TITLE = "repro field export"
_MAX_TITLE_CHARS = 255


def _flat_point_order(array: np.ndarray) -> np.ndarray:
    """``(nx, ny, nz, ...)`` point data as a ``>f8`` copy in VTK's x-fastest order."""
    # VTK iterates x fastest, then y, then z; our arrays are indexed [x, y, z].
    # One cast makes the reordered, byte-swapped, C-contiguous copy.
    return np.moveaxis(array, (0, 1, 2), (2, 1, 0)).astype(_BINARY_DTYPE, order="C")


def _write_array(handle: BinaryIO, header: str, values: np.ndarray) -> None:
    """Write the ``header`` lines, then the C-contiguous ``>f8`` ``values`` and a newline."""
    handle.write(f"{header}\n".encode("ascii"))
    handle.write(values)  # the array's own buffer: no bytes copy
    handle.write(b"\n")


def _header_title(title: str) -> str:
    """First line of ``title`` made ASCII, clipped to the legacy header limit."""
    lines = title.encode("ascii", "replace").decode("ascii").splitlines()
    line = lines[0] if lines else ""
    return line[:_MAX_TITLE_CHARS] if line.strip() else _DEFAULT_TITLE


def write_vtk_rectilinear(
    path: str | Path, field: ArrayField, title: str = _DEFAULT_TITLE
) -> Path:
    """Write an :class:`ArrayField` as a legacy binary VTK rectilinear grid.

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
    # size can reach hundreds of MB, so it is written array by array instead
    # of being buffered for an atomic rename.  Readers that need crash-safe
    # artifacts use the checksummed .npz bundle next to it.
    try:
        # repro-lint: disable=REP001 -- export stream: regenerable visualization output, written array by array to bound memory; the durable artifact is the .npz bundle
        with path.open("wb") as handle:
            handle.write(
                f"# vtk DataFile Version 3.0\n{header_title}\nBINARY\n"
                f"DATASET RECTILINEAR_GRID\nDIMENSIONS {nx} {ny} {nz}\n".encode("ascii")
            )
            for name, coords in (("X", field.x), ("Y", field.y), ("Z", field.z)):
                _write_array(
                    handle,
                    f"{name}_COORDINATES {coords.size} double",
                    np.ascontiguousarray(coords, dtype=_BINARY_DTYPE),
                )
            handle.write(f"POINT_DATA {field.num_points}\n".encode("ascii"))
            _write_array(
                handle,
                "SCALARS von_mises double 1\nLOOKUP_TABLE default",
                _flat_point_order(field.von_mises),
            )
            _write_array(
                handle, "VECTORS displacement double", _flat_point_order(field.displacement)
            )
            for index, component in enumerate(VOIGT_COMPONENTS):
                _write_array(
                    handle,
                    f"SCALARS stress_{component} double 1\nLOOKUP_TABLE default",
                    _flat_point_order(field.stress[..., index]),
                )
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


class _Cursor:
    """Reads header lines and value blocks from a VTK file's bytes.

    A ``BINARY`` payload can hold any byte, ``b"\\n"`` included, so the file
    is never split into lines up front: each header line is found from the
    current offset, and each payload is taken by its byte count.
    """

    def __init__(self, data: bytes, path: str | Path):
        self.data = data
        self.path = path
        self.binary = False  # set once the mode line is read
        self.offset = 0

    def error(self, message: str) -> ValidationError:
        return ValidationError(f"{self.path}: {message}")

    def at_end(self) -> bool:
        return self.offset >= len(self.data)

    def raw_line(self, expected: str) -> bytes:
        """The next line, without its newline; ``expected`` names it in errors."""
        if self.at_end():
            raise self.error(f"file ended where {expected} was expected")
        end = self.data.find(b"\n", self.offset)
        if end < 0:
            end = len(self.data)
        raw = self.data[self.offset : end]
        self.offset = end + 1
        return raw

    def line(self, expected: str) -> str:
        """:meth:`raw_line` as ASCII text."""
        raw = self.raw_line(expected)
        try:
            return raw.decode("ascii")
        except UnicodeDecodeError:
            raise self.error(f"non-ASCII bytes where {expected} was expected") from None

    def keyword_line(self, keyword: str, num_tokens: int) -> list[str]:
        """The next non-blank line's tokens; it must start with ``keyword``."""
        tokens: list[str] = []
        while not tokens:
            tokens = self.line(keyword).split()
        if tokens[0] != keyword or len(tokens) != num_tokens:
            raise self.error(
                f"expected {num_tokens} tokens starting with {keyword}, "
                f"got {' '.join(tokens)!r}"
            )
        return tokens

    def integer(self, token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise self.error(f"{what} is not an integer: {token!r}") from None

    def values(self, count: int, what: str) -> np.ndarray:
        """The ``count`` float64 values of the block that holds ``what``."""
        if self.binary:
            end = self.offset + count * _BINARY_DTYPE.itemsize
            if end > len(self.data):
                raise self.error(
                    f"binary {what} block is truncated: {len(self.data) - self.offset} "
                    f"of {end - self.offset} bytes present"
                )
            values = np.frombuffer(self.data, _BINARY_DTYPE, count, self.offset)
            self.offset = end
            if self.data[end : end + 1] == b"\n":
                self.offset += 1
            return values.astype(np.float64)
        tokens: list[str] = []
        while len(tokens) < count:
            if self.at_end():
                raise self.error(
                    f"file ended while reading {what} ({len(tokens)}/{count} values read)"
                )
            tokens.extend(self.line(what).split())
        if len(tokens) != count:
            raise self.error(f"{what} block has {len(tokens)} numbers, expected {count}")
        try:
            return np.array([float(token) for token in tokens])
        except ValueError as error:
            raise self.error(f"{what} holds a value that is not a number ({error})") from None


def read_vtk_rectilinear(path: str | Path) -> dict[str, Any]:
    """Parse a legacy VTK rectilinear grid written by :func:`write_vtk_rectilinear`.

    Both the ``BINARY`` mode the writer emits and the ``ASCII`` mode of
    older exports are read; binary values come back bit for bit.  A
    malformed or truncated file raises :class:`ValidationError`.

    Returns
    -------
    dict
        ``{"dimensions": (nx, ny, nz), "coordinates": (x, y, z),
        "point_data": {name: array}}`` with point-data arrays shaped
        ``(nx, ny, nz)`` (scalars) or ``(nx, ny, nz, 3)`` (vectors) in this
        package's ``[x, y, z]`` index convention.
    """
    cursor = _Cursor(Path(path).read_bytes(), path)
    if not cursor.data.startswith(b"# vtk DataFile"):
        raise ValidationError(f"{path} is not a legacy VTK file")
    cursor.raw_line("the version line")
    cursor.raw_line("the title line")
    mode = cursor.line("ASCII or BINARY").strip()
    if mode not in ("ASCII", "BINARY"):
        raise cursor.error(f"expected ASCII or BINARY, got {mode!r}")
    cursor.binary = mode == "BINARY"
    dataset = cursor.line("DATASET RECTILINEAR_GRID").split()
    if dataset != ["DATASET", "RECTILINEAR_GRID"]:
        raise cursor.error(f"expected a RECTILINEAR_GRID dataset, got {' '.join(dataset)!r}")
    tokens = cursor.keyword_line("DIMENSIONS", 4)
    dimensions = tuple(cursor.integer(token, "DIMENSIONS") for token in tokens[1:])
    if min(dimensions) < 1:
        raise cursor.error(f"DIMENSIONS must be positive, got {dimensions}")
    nx, ny, nz = dimensions
    num_points = nx * ny * nz

    coordinates: dict[str, np.ndarray] = {}
    for axis, size in (("X", nx), ("Y", ny), ("Z", nz)):
        keyword = f"{axis}_COORDINATES"
        tokens = cursor.keyword_line(keyword, 3)
        declared = cursor.integer(tokens[1], keyword)
        if declared != size:
            raise cursor.error(f"{keyword} has {declared} entries, expected {size}")
        if tokens[2] != "double":
            raise cursor.error(f"{keyword} must be double, got {tokens[2]!r}")
        coordinates[axis] = cursor.values(size, keyword)

    tokens = cursor.keyword_line("POINT_DATA", 2)
    declared = cursor.integer(tokens[1], "POINT_DATA")
    if declared != num_points:
        raise cursor.error(
            f"POINT_DATA declares {declared} points, dimensions give {num_points}"
        )

    point_data: dict[str, np.ndarray] = {}
    while not cursor.at_end():
        tokens = cursor.line("a SCALARS or VECTORS section").split()
        if not tokens:
            continue
        if tokens[0] == "SCALARS" and len(tokens) in (3, 4):
            components = 1 if len(tokens) == 3 else cursor.integer(tokens[3], "SCALARS")
            if components != 1:
                raise cursor.error(f"SCALARS {tokens[1]} has {components} components")
            cursor.keyword_line("LOOKUP_TABLE", 2)
            shape: tuple[int, ...] = (nz, ny, nx)
        elif tokens[0] == "VECTORS" and len(tokens) == 3:
            shape = (nz, ny, nx, 3)
        else:
            raise cursor.error(f"unsupported VTK point-data section {' '.join(tokens)!r}")
        name, kind = tokens[1], tokens[2]
        if kind != "double":
            raise cursor.error(f"{tokens[0]} {name} must be double, got {kind!r}")
        values = cursor.values(int(np.prod(shape)), f"{tokens[0]} {name}")
        point_data[name] = values.reshape(shape).transpose(2, 1, 0, *range(3, len(shape)))

    return {
        "dimensions": (nx, ny, nz),
        "coordinates": (coordinates["X"], coordinates["Y"], coordinates["Z"]),
        "point_data": point_data,
    }


__all__ = ["write_vtk_rectilinear", "read_vtk_rectilinear"]
