"""Tests for the full-field post-processing subsystem (repro.postprocess)."""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.api import execute_cases
from repro.fem.fields import von_mises
from repro.geometry.array_layout import BlockKind, TSVArrayLayout
from repro.geometry.tsv import TSVGeometry
from repro.postprocess import (
    ArrayField,
    HotspotReport,
    TSVHotspot,
    analyze_hotspots,
    read_vtk_rectilinear,
    reconstruct_array_field,
    write_vtk_rectilinear,
)
from repro.postprocess import vtk as vtk_module
from repro.postprocess.fields import VOIGT_COMPONENTS
from repro.rom.global_stage import GlobalStage
from repro.rom.reconstruction import BlockFieldSampler, block_volume_points
from repro.rom.workflow import MoreStressSimulator
from repro.utils.validation import ValidationError

DELTA_T = -250.0


def assert_round_off_equal(actual, expected) -> None:
    """``actual`` matches ``expected`` to 1e-12 of the largest ``|expected|``.

    Two stress paths that evaluate the same linear map in a different
    summation order (a per-block fine field vs. a precomputed operator, or
    the mid-plane grid vs. a volumetric grid) agree to round-off, not bit
    for bit.
    """
    expected = np.asarray(expected)
    np.testing.assert_allclose(
        actual, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
    )


def oracle_field(solution, points_per_block, z_planes, restrict_to_tsv_region=True):
    """Per-block reference of :func:`reconstruct_array_field`.

    Each block's fine field comes from ``rom.reconstruct_displacement`` and
    is sampled with the point-wise kernel of :class:`BlockFieldSampler`, one
    block at a time.  Returns ``(displacement, stress, von_mises)`` on the
    field's ``(nx, ny, nz)`` grid.
    """
    layout = solution.layout
    region = layout.tsv_region() if restrict_to_tsv_region else None
    row_range, col_range = region or (slice(0, layout.rows), slice(0, layout.cols))
    rows = range(*row_range.indices(layout.rows))
    cols = range(*col_range.indices(layout.cols))
    p, q = points_per_block, z_planes
    shape = (len(cols) * p, len(rows) * p, q)
    displacement = np.empty(shape + (3,))
    stress = np.empty(shape + (6,))
    samplers = {}
    for out_row, row in enumerate(rows):
        for out_col, col in enumerate(cols):
            kind = layout.kind_at(row, col)
            rom = solution.roms[kind]
            if kind not in samplers:
                samplers[kind] = BlockFieldSampler(
                    rom, solution.materials, block_volume_points(rom, p, q)
                )
            u_fine = rom.reconstruct_displacement(
                solution.block_reduced_displacement(row, col), solution.delta_t
            )
            sx = slice(out_col * p, (out_col + 1) * p)
            sy = slice(out_row * p, (out_row + 1) * p)
            sampler = samplers[kind]
            displacement[sx, sy] = sampler.displacement_from_fine(u_fine).reshape(p, p, q, 3)
            stress[sx, sy] = sampler.stress_from_fine(u_fine, solution.delta_t).reshape(
                p, p, q, 6
            )
    return displacement, stress, von_mises(stress)


def assert_matches_oracle(field, solution, restrict_to_tsv_region=True) -> None:
    displacement, stress, vm = oracle_field(
        solution, field.points_per_block, field.z_planes, restrict_to_tsv_region
    )
    assert_round_off_equal(field.displacement, displacement)
    assert_round_off_equal(field.stress, stress)
    assert_round_off_equal(field.von_mises, vm)


def write_vtk_savetxt_oracle(
    path: Path, field: ArrayField, title: str = "repro field export"
) -> Path:
    """Reference VTK writer: the row-by-row ``np.savetxt`` implementation.

    :func:`write_vtk_rectilinear` must produce exactly these bytes for any
    ASCII title of at most 255 characters.
    """

    def flat(array):
        return np.ascontiguousarray(np.moveaxis(array, (0, 1, 2), (2, 1, 0))).reshape(
            field.num_points, -1
        )

    nx, ny, nz = field.shape
    with path.open("w", encoding="ascii") as handle:
        handle.write("# vtk DataFile Version 3.0\n")
        handle.write(f"{title.splitlines()[0] if title else 'repro field export'}\n")
        handle.write("ASCII\n")
        handle.write("DATASET RECTILINEAR_GRID\n")
        handle.write(f"DIMENSIONS {nx} {ny} {nz}\n")
        for name, coords in (("X", field.x), ("Y", field.y), ("Z", field.z)):
            handle.write(f"{name}_COORDINATES {coords.size} double\n")
            np.savetxt(handle, coords[None, :], fmt="%.17g")
        handle.write(f"POINT_DATA {field.num_points}\n")
        handle.write("SCALARS von_mises double 1\n")
        handle.write("LOOKUP_TABLE default\n")
        np.savetxt(handle, flat(field.von_mises), fmt="%.17g")
        handle.write("VECTORS displacement double\n")
        np.savetxt(handle, flat(field.displacement), fmt="%.17g")
        for index, component in enumerate(VOIGT_COMPONENTS):
            handle.write(f"SCALARS stress_{component} double 1\n")
            handle.write("LOOKUP_TABLE default\n")
            np.savetxt(handle, flat(field.stress[..., index]), fmt="%.17g")
    return path


def parse_binary_vtk(data: bytes) -> tuple[list[bytes], dict[str, np.ndarray]]:
    """Independent parser of a ``BINARY`` legacy VTK file.

    Returns the header lines (without their newlines) in file order and each
    array's raw ``>f8`` payload by name (``X``, ``Y``, ``Z`` and the
    point-data names), read at the byte offsets the headers give.  Every
    payload must end with one newline, and nothing may follow the last one.
    """
    headers: list[bytes] = []
    arrays: dict[str, np.ndarray] = {}
    offset, num_points, name = 0, 0, ""

    def next_words() -> list[bytes]:
        nonlocal offset
        end = data.index(b"\n", offset)
        headers.append(data[offset:end])
        offset = end + 1
        return headers[-1].split()

    for _ in range(5):  # version, title, mode, dataset, dimensions
        next_words()
    while offset < len(data):
        words = next_words()
        count = 0
        if words[0] in (b"X_COORDINATES", b"Y_COORDINATES", b"Z_COORDINATES"):
            name, count = words[0][:1].decode(), int(words[1])
        elif words[0] == b"POINT_DATA":
            num_points = int(words[1])
        elif words[0] == b"SCALARS":
            name = words[1].decode()
        elif words[0] == b"LOOKUP_TABLE":
            count = num_points
        else:
            assert words[0] == b"VECTORS", words
            name, count = words[1].decode(), 3 * num_points
        if count:
            arrays[name] = np.frombuffer(data, ">f8", count, offset)
            offset += 8 * count
            assert data[offset : offset + 1] == b"\n", name
            offset += 1
    return headers, arrays


def expected_vtk_headers(field: ArrayField, title: str) -> list[bytes]:
    """The header lines of ``field``'s binary VTK export with header ``title``."""
    nx, ny, nz = field.shape
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "BINARY",
        "DATASET RECTILINEAR_GRID",
        f"DIMENSIONS {nx} {ny} {nz}",
        f"X_COORDINATES {nx} double",
        f"Y_COORDINATES {ny} double",
        f"Z_COORDINATES {nz} double",
        f"POINT_DATA {field.num_points}",
        "SCALARS von_mises double 1",
        "LOOKUP_TABLE default",
        "VECTORS displacement double",
    ]
    for component in VOIGT_COMPONENTS:
        lines += [f"SCALARS stress_{component} double 1", "LOOKUP_TABLE default"]
    return [line.encode("ascii") for line in lines]


def expected_vtk_arrays(field: ArrayField) -> dict[str, np.ndarray]:
    """Every exported array of ``field`` flattened x fastest, as native doubles."""
    arrays = {"X": field.x, "Y": field.y, "Z": field.z}
    arrays["von_mises"] = field.von_mises.transpose(2, 1, 0).ravel()
    arrays["displacement"] = field.displacement.transpose(2, 1, 0, 3).ravel()
    for index, component in enumerate(VOIGT_COMPONENTS):
        arrays[f"stress_{component}"] = field.stress[..., index].transpose(2, 1, 0).ravel()
    return arrays


def assert_binary_vtk_matches(path: Path, field: ArrayField, title: str) -> None:
    """``path`` holds ``field`` bit for bit, under headers pinned byte for byte."""
    data = path.read_bytes()
    headers, arrays = parse_binary_vtk(data)
    assert headers == expected_vtk_headers(field, title)
    expected = expected_vtk_arrays(field)
    assert list(arrays) == list(expected)
    for name, values in expected.items():
        assert arrays[name].tobytes() == np.asarray(values, dtype=">f8").tobytes(), name
    num_values = sum(values.size for values in expected.values())
    header_bytes = sum(len(line) + 1 for line in headers)
    assert len(data) == header_bytes + 8 * num_values + len(expected)


def assert_bits_equal(actual, expected) -> None:
    """Equal float64 bit patterns: tells ``-0.0`` from ``0.0`` and NaNs apart."""
    np.testing.assert_array_equal(
        np.asarray(actual, dtype=np.float64).view(np.uint64),
        np.asarray(expected, dtype=np.float64).view(np.uint64),
    )


@pytest.fixture(scope="module")
def solution_2x2(rom_result_2x2):
    return rom_result_2x2.solution


@pytest.fixture(scope="module")
def field_2x2(solution_2x2):
    return reconstruct_array_field(solution_2x2, points_per_block=5, z_planes=3)


class TestReconstruction:
    def test_shapes_and_metadata(self, field_2x2):
        assert field_2x2.shape == (10, 10, 3)
        assert field_2x2.displacement.shape == (10, 10, 3, 3)
        assert field_2x2.stress.shape == (10, 10, 3, 6)
        assert field_2x2.block_rows == field_2x2.block_cols == 2
        assert field_2x2.tsv_mask.all()
        assert field_2x2.delta_t == -250.0
        assert np.isfinite(field_2x2.von_mises).all()
        assert np.isfinite(field_2x2.displacement).all()
        assert np.isfinite(field_2x2.stress).all()

    def test_midplane_bit_identical_to_reference_sampler(self, solution_2x2, field_2x2):
        # The mid-plane path samples a one-plane grid, the field a
        # three-plane one: the same points, summed in another order.
        reference = solution_2x2.von_mises_midplane_flat(5)
        assert_round_off_equal(field_2x2.midplane_von_mises_flat(), reference)
        blocks = field_2x2.midplane_von_mises_blocks()
        assert_round_off_equal(blocks, solution_2x2.von_mises_midplane(5))

    def test_repeated_reconstruction_bit_identical(self, solution_2x2, field_2x2):
        again = reconstruct_array_field(solution_2x2, points_per_block=5, z_planes=3)
        np.testing.assert_array_equal(again.von_mises, field_2x2.von_mises)
        np.testing.assert_array_equal(again.displacement, field_2x2.displacement)
        np.testing.assert_array_equal(again.stress, field_2x2.stress)

    def test_blocks_match_direct_sampler(self, solution_2x2, field_2x2):
        assert_matches_oracle(field_2x2, solution_2x2)

    def test_coordinates_span_the_layout(self, solution_2x2, field_2x2):
        pitch = solution_2x2.layout.tsv.pitch
        height = solution_2x2.layout.tsv.height
        assert field_2x2.x[0] == pytest.approx(0.5 / 5 * pitch)
        assert field_2x2.x[-1] == pytest.approx(2 * pitch - 0.5 / 5 * pitch)
        assert field_2x2.z[1] == pytest.approx(0.5 * height)
        # Strictly increasing grids (a rectilinear-grid requirement).
        assert np.all(np.diff(field_2x2.x) > 0)
        assert np.all(np.diff(field_2x2.y) > 0)
        assert np.all(np.diff(field_2x2.z) > 0)

    def test_single_plane_reconstruction(self, solution_2x2):
        field = reconstruct_array_field(solution_2x2, points_per_block=4, z_planes=1)
        assert field.shape == (8, 8, 1)
        np.testing.assert_array_equal(
            field.midplane_von_mises_flat(), solution_2x2.von_mises_midplane_flat(4)
        )

    def test_invalid_counts_rejected(self, solution_2x2):
        with pytest.raises(ValidationError):
            reconstruct_array_field(solution_2x2, points_per_block=0)
        with pytest.raises(ValidationError):
            reconstruct_array_field(solution_2x2, z_planes=0)

    @pytest.mark.parametrize("counts", [{"points_per_block": 2.5}, {"z_planes": 1.5}])
    def test_non_integer_counts_rejected(self, solution_2x2, counts):
        with pytest.raises(ValidationError, match="integer"):
            reconstruct_array_field(solution_2x2, **counts)

    def test_integral_float_counts_accepted(self, solution_2x2):
        field = reconstruct_array_field(solution_2x2, points_per_block=2.0, z_planes=2.0)
        assert field.shape == (4, 4, 2)
        assert field.points_per_block == 2 and isinstance(field.points_per_block, int)


class TestOperatorOracle:
    """Whole-array fields agree with the per-block oracle at 1e-12."""

    @staticmethod
    def _solve(rom_tsv_tiny, rom_dummy_tiny, materials, layout):
        roms = {BlockKind.TSV: rom_tsv_tiny, BlockKind.DUMMY: rom_dummy_tiny}
        return GlobalStage(roms, materials).solve_many(layout, [DELTA_T])[0]

    def test_mixed_layout_with_dummy_blocks(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15
    ):
        layout = TSVArrayLayout.with_dummy_ring(tsv15, rows=2, cols=1, ring_width=1)
        solution = self._solve(rom_tsv_tiny, rom_dummy_tiny, materials, layout)
        field = reconstruct_array_field(
            solution, points_per_block=3, z_planes=3, restrict_to_tsv_region=False
        )
        assert field.tsv_mask.shape == (4, 3) and not field.tsv_mask.all()
        assert_matches_oracle(field, solution, restrict_to_tsv_region=False)
        assert_round_off_equal(
            field.midplane_von_mises_blocks(),
            solution.von_mises_midplane(3, restrict_to_tsv_region=False),
        )

    def test_non_square_array(self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15):
        layout = TSVArrayLayout.full(tsv15, rows=3, cols=5)
        solution = self._solve(rom_tsv_tiny, rom_dummy_tiny, materials, layout)
        field = reconstruct_array_field(solution, points_per_block=2, z_planes=3)
        assert field.shape == (10, 6, 3)
        assert_matches_oracle(field, solution)
        assert_round_off_equal(
            field.midplane_von_mises_blocks(), solution.von_mises_midplane(2)
        )

    def test_more_blocks_of_one_kind_than_a_chunk(
        self, rom_tsv_tiny, rom_dummy_tiny, materials, tsv15
    ):
        layout = TSVArrayLayout.full(tsv15, rows=12, cols=12)
        assert layout.num_blocks > 128
        solution = self._solve(rom_tsv_tiny, rom_dummy_tiny, materials, layout)
        field = reconstruct_array_field(solution, points_per_block=2, z_planes=1)
        assert_matches_oracle(field, solution)
        assert_round_off_equal(
            field.midplane_von_mises_blocks(), solution.von_mises_midplane(2)
        )


class TestArrayFieldValidation:
    def test_even_z_planes_have_no_midplane(self, field_2x2):
        even = ArrayField(
            x=field_2x2.x,
            y=field_2x2.y,
            z=field_2x2.z[:2],
            displacement=field_2x2.displacement[:, :, :2],
            stress=field_2x2.stress[:, :, :2],
            von_mises=field_2x2.von_mises[:, :, :2],
            tsv_mask=field_2x2.tsv_mask,
            delta_t=field_2x2.delta_t,
            points_per_block=field_2x2.points_per_block,
            pitch=field_2x2.pitch,
        )
        with pytest.raises(ValidationError, match="odd"):
            even.midplane_index

    def test_shape_mismatches_rejected(self, field_2x2):
        with pytest.raises(ValidationError, match="von_mises"):
            ArrayField(
                x=field_2x2.x,
                y=field_2x2.y,
                z=field_2x2.z,
                displacement=field_2x2.displacement,
                stress=field_2x2.stress,
                von_mises=field_2x2.von_mises[:-1],
                tsv_mask=field_2x2.tsv_mask,
                delta_t=-250.0,
                points_per_block=5,
                pitch=field_2x2.pitch,
            )
        with pytest.raises(ValidationError, match="x has"):
            ArrayField(
                x=field_2x2.x[:-1],
                y=field_2x2.y,
                z=field_2x2.z,
                displacement=field_2x2.displacement,
                stress=field_2x2.stress,
                von_mises=field_2x2.von_mises,
                tsv_mask=field_2x2.tsv_mask,
                delta_t=-250.0,
                points_per_block=5,
                pitch=field_2x2.pitch,
            )


class TestNpzPersistence:
    def test_round_trip_is_lossless(self, field_2x2, tmp_path):
        path = field_2x2.save(tmp_path / "field")
        assert path.suffix == ".npz"
        reloaded = ArrayField.load(path)
        np.testing.assert_array_equal(reloaded.x, field_2x2.x)
        np.testing.assert_array_equal(reloaded.von_mises, field_2x2.von_mises)
        np.testing.assert_array_equal(reloaded.displacement, field_2x2.displacement)
        np.testing.assert_array_equal(reloaded.stress, field_2x2.stress)
        np.testing.assert_array_equal(reloaded.tsv_mask, field_2x2.tsv_mask)
        assert reloaded.delta_t == field_2x2.delta_t
        assert reloaded.points_per_block == field_2x2.points_per_block
        assert reloaded.pitch == field_2x2.pitch
        assert reloaded.summary() == field_2x2.summary()

    def test_version_mismatch_rejected(self, field_2x2, tmp_path, monkeypatch):
        import repro.postprocess.fields as fields_module

        monkeypatch.setattr(fields_module, "FIELD_SCHEMA_VERSION", 99)
        path = field_2x2.save(tmp_path / "future")
        monkeypatch.undo()
        with pytest.raises(ValidationError, match="version"):
            ArrayField.load(path)


class TestVTK:
    def test_round_trip_is_lossless(self, field_2x2, tmp_path):
        path = write_vtk_rectilinear(tmp_path / "field.vtk", field_2x2)
        parsed = read_vtk_rectilinear(path)
        assert parsed["dimensions"] == field_2x2.shape
        x, y, z = parsed["coordinates"]
        np.testing.assert_array_equal(x, field_2x2.x)
        np.testing.assert_array_equal(y, field_2x2.y)
        np.testing.assert_array_equal(z, field_2x2.z)
        np.testing.assert_array_equal(
            parsed["point_data"]["von_mises"], field_2x2.von_mises
        )
        np.testing.assert_array_equal(
            parsed["point_data"]["displacement"], field_2x2.displacement
        )
        for index, component in enumerate(("xx", "yy", "zz", "yz", "xz", "xy")):
            np.testing.assert_array_equal(
                parsed["point_data"][f"stress_{component}"],
                field_2x2.stress[..., index],
            )

    def test_vtk_point_order_is_x_fastest(self, field_2x2, tmp_path):
        # The VTK convention: point i + nx * (j + ny * k) is (x_i, y_j, z_k),
        # and a vector's three components are adjacent.
        path = write_vtk_rectilinear(tmp_path / "order.vtk", field_2x2)
        _, arrays = parse_binary_vtk(path.read_bytes())
        nx, ny, nz = field_2x2.shape
        for k in range(nz):
            for j in range(ny):
                for i in range(nx):
                    point = i + nx * (j + ny * k)
                    assert arrays["von_mises"][point] == field_2x2.von_mises[i, j, k]
                    for c in range(3):
                        assert (
                            arrays["displacement"][3 * point + c]
                            == field_2x2.displacement[i, j, k, c]
                        )

    def test_suffix_appended(self, field_2x2, tmp_path):
        path = write_vtk_rectilinear(tmp_path / "no_suffix", field_2x2)
        assert path.name == "no_suffix.vtk"

    def test_reader_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.vtk"
        bad.write_text("not a vtk file\n")
        with pytest.raises(ValidationError):
            read_vtk_rectilinear(bad)

    def test_title_is_ascii_safe(self, field_2x2, tmp_path):
        path = write_vtk_rectilinear(
            tmp_path / "umlaut.vtk", field_2x2, title="Wärme-sweep/abkühlen delta_t=-250"
        )
        assert_binary_vtk_matches(path, field_2x2, "W?rme-sweep/abk?hlen delta_t=-250")

    def test_long_title_clipped_to_header_limit(self, field_2x2, tmp_path):
        path = write_vtk_rectilinear(tmp_path / "long.vtk", field_2x2, title="t" * 400)
        assert path.read_bytes().split(b"\n")[1] == b"t" * 255
        assert_binary_vtk_matches(path, field_2x2, "t" * 255)

    @pytest.mark.parametrize(
        ("title", "header"),
        [
            ("first\nsecond", b"first"),
            ("", b"repro field export"),
            ("\nsecond", b"repro field export"),
            ("  \t", b"repro field export"),
        ],
    )
    def test_title_keeps_first_line_or_falls_back(self, field_2x2, tmp_path, title, header):
        path = write_vtk_rectilinear(tmp_path / "title.vtk", field_2x2, title=title)
        assert path.read_bytes().split(b"\n")[1] == header

    def test_failed_write_leaves_no_partial_file(self, field_2x2, tmp_path, monkeypatch):
        def broken(array):
            raise RuntimeError("injected")

        monkeypatch.setattr(vtk_module, "_flat_point_order", broken)
        with pytest.raises(RuntimeError, match="injected"):
            write_vtk_rectilinear(tmp_path / "partial.vtk", field_2x2)
        assert list(tmp_path.iterdir()) == []


def _column_field(values: np.ndarray) -> ArrayField:
    """A one-block, one-point-per-plane field: ``values.size`` points along z."""
    count = values.size
    return ArrayField(
        x=[-0.0],
        y=[1e300],
        z=np.arange(count, dtype=float),
        displacement=np.stack([values, -values, values[::-1]], axis=-1).reshape(1, 1, count, 3),
        stress=np.stack([values * k for k in range(1, 7)], axis=-1).reshape(1, 1, count, 6),
        von_mises=values.reshape(1, 1, count),
        tsv_mask=[[True]],
        delta_t=-250.0,
        points_per_block=1,
        pitch=10.0,
    )


class TestVTKBinaryLayout:
    """Binary exports hold every array bit for bit under pinned headers."""

    SPECIAL = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, 3.0, -7.0, 0.1, 1 / 3]
    )

    def test_header_bytes_pinned(self, tmp_path):
        path = write_vtk_rectilinear(
            tmp_path / "column.vtk", _column_field(np.arange(3.0)), title="sweep/c0 delta_t=-250"
        )
        data = path.read_bytes()
        headers = [line + b"\n" for line in parse_binary_vtk(data)[0]]
        assert b"".join(headers[:6]) == (
            b"# vtk DataFile Version 3.0\n"
            b"sweep/c0 delta_t=-250\n"
            b"BINARY\n"
            b"DATASET RECTILINEAR_GRID\n"
            b"DIMENSIONS 1 1 3\n"
            b"X_COORDINATES 1 double\n"
        )
        assert data.startswith(b"".join(headers[:6]) + struct.pack(">d", -0.0) + b"\n")
        assert b"".join(headers[6:]) == (
            b"Y_COORDINATES 1 double\n"
            b"Z_COORDINATES 3 double\n"
            b"POINT_DATA 3\n"
            b"SCALARS von_mises double 1\nLOOKUP_TABLE default\n"
            b"VECTORS displacement double\n"
            b"SCALARS stress_xx double 1\nLOOKUP_TABLE default\n"
            b"SCALARS stress_yy double 1\nLOOKUP_TABLE default\n"
            b"SCALARS stress_zz double 1\nLOOKUP_TABLE default\n"
            b"SCALARS stress_yz double 1\nLOOKUP_TABLE default\n"
            b"SCALARS stress_xz double 1\nLOOKUP_TABLE default\n"
            b"SCALARS stress_xy double 1\nLOOKUP_TABLE default\n"
        )
        assert data.endswith(b"LOOKUP_TABLE default\n" + struct.pack(">3d", 0.0, 6.0, 12.0) + b"\n")

    def test_special_values(self, tmp_path):
        field = _column_field(self.SPECIAL)
        path = write_vtk_rectilinear(tmp_path / "special.vtk", field)
        assert_binary_vtk_matches(path, field, "repro field export")
        parsed = read_vtk_rectilinear(path)
        assert_bits_equal(parsed["point_data"]["von_mises"], field.von_mises)
        assert_bits_equal(parsed["point_data"]["displacement"], field.displacement)
        assert_bits_equal(parsed["coordinates"][0], field.x)  # -0.0
        assert_bits_equal(parsed["coordinates"][1], field.y)  # 1e300

    @pytest.mark.parametrize("count", [2047, 2048, 2049])
    def test_sizes(self, tmp_path, count):
        rng = np.random.default_rng(count)
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-12, 12, count)
        values[: self.SPECIAL.size] = self.SPECIAL
        values[-self.SPECIAL.size :] = self.SPECIAL
        field = _column_field(values)
        path = write_vtk_rectilinear(tmp_path / "sizes.vtk", field)
        assert_binary_vtk_matches(path, field, "repro field export")
        parsed = read_vtk_rectilinear(path)
        for index, component in enumerate(VOIGT_COMPONENTS):
            assert_bits_equal(parsed["point_data"][f"stress_{component}"], field.stress[..., index])

    def test_reconstructed_field(self, field_2x2, tmp_path):
        title = "output-run/cooldown delta_t=-250"
        path = write_vtk_rectilinear(tmp_path / "field.vtk", field_2x2, title=title)
        assert_binary_vtk_matches(path, field_2x2, title)


class TestVTKReadsLegacyASCII:
    """ASCII exports of the ``np.savetxt`` writer still load, bit for bit."""

    def test_reconstructed_field(self, field_2x2, tmp_path):
        path = write_vtk_savetxt_oracle(tmp_path / "ascii.vtk", field_2x2)
        parsed = read_vtk_rectilinear(path)
        for axis, coords in zip((field_2x2.x, field_2x2.y, field_2x2.z), parsed["coordinates"]):
            assert_bits_equal(coords, axis)
        assert_bits_equal(parsed["point_data"]["von_mises"], field_2x2.von_mises)
        assert_bits_equal(parsed["point_data"]["displacement"], field_2x2.displacement)
        for index, component in enumerate(VOIGT_COMPONENTS):
            assert_bits_equal(
                parsed["point_data"][f"stress_{component}"], field_2x2.stress[..., index]
            )

    def test_special_values(self, tmp_path):
        # "%.17g" writes every NaN as "nan", so only the NaNs' bits are not kept.
        values = TestVTKBinaryLayout.SPECIAL
        field = _column_field(values)
        path = write_vtk_savetxt_oracle(tmp_path / "ascii.vtk", field)
        parsed = read_vtk_rectilinear(path)
        finite = ~np.isnan(values)
        assert_bits_equal(parsed["point_data"]["von_mises"].ravel()[finite], values[finite])
        assert np.isnan(parsed["point_data"]["von_mises"].ravel()[~finite]).all()
        assert_bits_equal(parsed["coordinates"][0], field.x)
        assert_bits_equal(parsed["coordinates"][1], field.y)


class TestVTKReaderRejectsMalformedFiles:
    """Every malformed file is a :class:`ValidationError` naming the problem."""

    @staticmethod
    def _export(tmp_path, mode: str) -> bytes:
        field = _column_field(np.array([1.0, 2.0, 3.0]))
        if mode == "ASCII":
            return write_vtk_savetxt_oracle(tmp_path / "ascii.vtk", field).read_bytes()
        return write_vtk_rectilinear(tmp_path / "binary.vtk", field).read_bytes()

    @staticmethod
    def _read(tmp_path, data: bytes, match: str) -> None:
        path = tmp_path / "malformed.vtk"
        path.write_bytes(data)
        with pytest.raises(ValidationError, match=match):
            read_vtk_rectilinear(path)

    def test_non_numeric_value_token(self, tmp_path):
        data = self._export(tmp_path, "ASCII")
        data = data.replace(b"LOOKUP_TABLE default\n1\n", b"LOOKUP_TABLE default\nabc\n", 1)
        self._read(tmp_path, data, "SCALARS von_mises holds a value that is not a number")

    @pytest.mark.parametrize("mode", ["ASCII", "BINARY"])
    def test_non_integer_dimension(self, tmp_path, mode):
        data = self._export(tmp_path, mode).replace(b"DIMENSIONS 1 1 3", b"DIMENSIONS 1 x 1")
        self._read(tmp_path, data, "DIMENSIONS is not an integer: 'x'")

    @pytest.mark.parametrize("mode", ["ASCII", "BINARY"])
    @pytest.mark.parametrize("dimensions", [b"-1 1 1", b"1 0 3"])
    def test_non_positive_dimension(self, tmp_path, mode, dimensions):
        data = self._export(tmp_path, mode).replace(b"1 1 3", dimensions, 1)
        self._read(tmp_path, data, "DIMENSIONS must be positive")

    @pytest.mark.parametrize("mode", ["ASCII", "BINARY"])
    def test_file_ends_after_dimensions(self, tmp_path, mode):
        data = self._export(tmp_path, mode)
        data = data[: data.index(b"X_COORDINATES")]
        self._read(tmp_path, data, "file ended where X_COORDINATES was expected")

    @pytest.mark.parametrize("mode", ["ASCII", "BINARY"])
    def test_point_data_without_count(self, tmp_path, mode):
        data = self._export(tmp_path, mode).replace(b"POINT_DATA 3", b"POINT_DATA")
        self._read(tmp_path, data, "starting with POINT_DATA, got 'POINT_DATA'")

    @pytest.mark.parametrize(
        "section",
        [b"X_COORDINATES 1 double\n", b"LOOKUP_TABLE default\n"],
        ids=["first-coordinates", "last-point-data"],
    )
    def test_truncated_binary_payload(self, tmp_path, section):
        data = self._export(tmp_path, "BINARY")
        cut = data.rindex(section) + len(section) + 5
        self._read(tmp_path, data[:cut], "block is truncated: 5 of (8|24) bytes present")


def _synthetic_field() -> ArrayField:
    """A 2x2-block field with a controlled von Mises distribution."""
    p, q, pitch, height = 4, 3, 10.0, 50.0
    nx = ny = 2 * p
    # cell-centred positions: block c spans [c*pitch, (c+1)*pitch)
    x = np.concatenate([(np.arange(p) + 0.5) / p * pitch + c * pitch for c in range(2)])
    y = x.copy()
    z = (np.arange(q) + 0.5) / q * height
    vm = np.zeros((nx, ny, q))
    # Block (0, 0): peak 100 at its centre-most point, on the mid plane.
    vm[1, 1, 1] = 100.0
    # Block (row 0, col 1): peak 80 at a corner point of the block, top plane.
    vm[p, 0, 2] = 80.0
    # Block (row 1, col 0): everything just below any threshold.
    vm[0:p, p : 2 * p, :] = 10.0
    # Block (1, 1) is a dummy: huge value that must be ignored.
    vm[p : 2 * p, p : 2 * p, :] = 500.0
    tsv_mask = np.array([[True, True], [True, False]])
    shape = (nx, ny, q)
    return ArrayField(
        x=x,
        y=y,
        z=z,
        displacement=np.zeros(shape + (3,)),
        stress=np.zeros(shape + (6,)),
        von_mises=vm,
        tsv_mask=tsv_mask,
        delta_t=-250.0,
        points_per_block=p,
        pitch=pitch,
    )


class TestHotspots:
    def test_peaks_locations_and_ordering(self):
        field = _synthetic_field()
        report = analyze_hotspots(field, threshold=50.0)
        assert report.num_tsvs == 3
        peaks = [(spot.row, spot.col, spot.peak_von_mises) for spot in report.hotspots]
        assert peaks == [(0, 0, 100.0), (0, 1, 80.0), (1, 0, 10.0)]
        top = report.hotspots[0]
        assert top.location == (float(field.x[1]), float(field.y[1]), float(field.z[1]))
        second = report.hotspots[1]
        assert second.location == (
            float(field.x[4]),
            float(field.y[0]),
            float(field.z[2]),
        )

    def test_dummy_blocks_excluded(self):
        field = _synthetic_field()
        report = analyze_hotspots(field, threshold=50.0)
        assert report.peak_von_mises == 100.0  # not the dummy block's 500

    def test_keep_out_radii(self):
        field = _synthetic_field()
        report = analyze_hotspots(field, threshold=50.0)
        by_block = {(spot.row, spot.col): spot for spot in report.hotspots}
        # Block (0, 0): the single point over threshold sits at (x[1], y[1]);
        # centre is (5, 5).
        dx = field.x[1] - 5.0
        assert by_block[(0, 0)].keep_out_radius == pytest.approx(
            np.hypot(dx, dx)
        )
        # Block (1, 0) never exceeds the threshold.
        assert by_block[(1, 0)].keep_out_radius == 0.0

    def test_default_threshold_is_fraction_of_tsv_peak(self):
        field = _synthetic_field()
        report = analyze_hotspots(field, threshold_fraction=0.5)
        assert report.threshold == pytest.approx(50.0)  # 0.5 * 100, dummy ignored

    def test_report_round_trip_and_table(self):
        field = _synthetic_field()
        report = analyze_hotspots(field, threshold=50.0)
        restored = HotspotReport.from_dict(report.to_dict())
        assert restored.hotspots == report.hotspots
        assert restored.threshold == report.threshold
        text = report.table(2).to_text()
        assert "100.0" in text and "80.0" in text
        assert "10.0" not in text  # beyond top-2
        assert len(report.table(2)) == 2

    def test_top_k_clamps_to_population(self):
        report = analyze_hotspots(_synthetic_field(), threshold=50.0)
        assert len(report.top(50)) == 3

    def test_no_tsv_blocks_rejected(self):
        field = _synthetic_field()
        field.tsv_mask = np.zeros_like(field.tsv_mask)
        with pytest.raises(ValidationError, match="no TSV"):
            analyze_hotspots(field)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValidationError):
            analyze_hotspots(_synthetic_field(), threshold_fraction=0.0)
        with pytest.raises(ValidationError):
            analyze_hotspots(_synthetic_field(), threshold_fraction=1.5)

    def test_sorting_is_deterministic_on_ties(self):
        spots = tuple(
            TSVHotspot(row=r, col=c, peak_von_mises=1.0, location=(0, 0, 0), keep_out_radius=0.0)
            for r, c in [(1, 1), (0, 1), (0, 0)]
        )
        report = HotspotReport(threshold=0.5, pitch=10.0, hotspots=spots)
        assert [(s.row, s.col) for s in report.hotspots] == [(0, 0), (0, 1), (1, 1)]


class TestMemoryBoundedLargeArray:
    """Acceptance: a >= 20x20 array reconstructs with O(one block) extra memory."""

    @pytest.fixture(scope="class")
    def large_result(self):
        simulator = MoreStressSimulator(
            TSVGeometry.paper_default(pitch=15.0),
            mesh_resolution="coarse",
            nodes_per_axis=(2, 2, 2),
        )
        layout = TSVArrayLayout.full(simulator.tsv, rows=20)
        return simulator, execute_cases(simulator, layout, [-250.0])[0]

    def test_peak_memory_bounded_by_one_block(self, large_result):
        simulator, result = large_result
        layout = result.solution.layout
        assert layout.num_blocks >= 400
        block_bytes = 8 * result.solution.roms[BlockKind.TSV].mesh.num_dofs

        tracemalloc.start()
        try:
            field = result.array_field(points_per_block=4, z_planes=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        output_bytes = (
            field.displacement.nbytes + field.stress.nbytes + field.von_mises.nbytes
        )
        naive_bytes = layout.num_blocks * block_bytes  # all fine fields at once
        # Streaming bound: the output grid plus a handful of block-sized
        # buffers — far below materializing every block's fine field.
        assert peak <= output_bytes + 64 * block_bytes
        assert peak < naive_bytes / 2
        assert naive_bytes > 4 * output_bytes  # the test actually discriminates

    def test_midplane_of_large_field_bit_identical(self, large_result):
        _, result = large_result
        field = result.array_field(points_per_block=4, z_planes=3)
        assert_round_off_equal(
            field.midplane_von_mises_flat(), result.von_mises_midplane_flat(4)
        )

    def test_hotspot_report_covers_every_tsv(self, large_result):
        _, result = large_result
        field = result.array_field(points_per_block=4, z_planes=3)
        report = analyze_hotspots(field)
        assert report.num_tsvs == 400
        for spot in report.top(5):
            x, y, z = spot.location
            assert 0 <= x <= field.x[-1] and 0 <= y <= field.y[-1]
            assert 0 <= z <= field.z[-1]
            assert spot.peak_von_mises > 0
