"""Tests for bandwidth selection, colormaps, image writers, and previews."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz.bandwidth import scaled_bandwidth, scott_bandwidth
from repro.viz.colormap import (
    COLORMAPS,
    _interp_colorize,
    _step_table,
    _StepTable,
    apply_colormap,
    colorize,
    normalize_grid,
)
from repro.viz.image import ascii_preview, write_pgm, write_ppm


class TestScottBandwidth:
    def test_formula(self, rng):
        xy = rng.normal(0, 10, (1000, 2))
        expected = 1000 ** (-1 / 6) * np.sqrt(
            (np.var(xy[:, 0]) + np.var(xy[:, 1])) / 2
        )
        assert scott_bandwidth(xy) == pytest.approx(expected)

    def test_scale_invariance(self, rng):
        """Scott's bandwidth scales linearly with the data's spread."""
        xy = rng.normal(0, 1, (500, 2))
        assert scott_bandwidth(xy * 10) == pytest.approx(10 * scott_bandwidth(xy))

    def test_shrinks_with_n(self, rng):
        xy = rng.normal(0, 5, (4000, 2))
        assert scott_bandwidth(xy) < scott_bandwidth(xy[:100]) * 1.2

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            scott_bandwidth(np.zeros((1, 2)))

    def test_coincident_points(self):
        with pytest.raises(ValueError, match="coincident"):
            scott_bandwidth(np.zeros((10, 2)))

    def test_scaled_bandwidth(self, rng):
        xy = rng.normal(0, 5, (200, 2))
        assert scaled_bandwidth(xy, 2.0) == pytest.approx(2 * scott_bandwidth(xy))
        with pytest.raises(ValueError):
            scaled_bandwidth(xy, 0.0)


class TestNormalizeGrid:
    def test_range(self, rng):
        grid = rng.uniform(0, 7, (20, 30))
        norm = normalize_grid(grid)
        assert norm.min() >= 0.0 and norm.max() <= 1.0

    def test_clipping_tames_outlier(self):
        grid = np.ones((30, 30))
        grid[0, 0] = 1e9  # one outlier among 900 cells, beyond the 99.5th pct
        norm = normalize_grid(grid)
        # the bulk of the map keeps contrast despite the outlier
        assert norm[5, 5] == pytest.approx(1.0)

    def test_all_zero(self):
        assert np.all(normalize_grid(np.zeros((4, 4))) == 0.0)

    def test_empty(self):
        assert normalize_grid(np.zeros((0, 0))).shape == (0, 0)


class TestColormap:
    def test_known_maps(self):
        assert {"heat", "viridis", "gray"} <= set(COLORMAPS)

    def test_output_shape_dtype(self, rng):
        grid = rng.uniform(0, 3, (8, 9))
        img = apply_colormap(grid, "heat")
        assert img.shape == (8, 9, 3)
        assert img.dtype == np.uint8

    def test_zero_maps_to_first_stop(self):
        img = apply_colormap(np.zeros((2, 2)), "gray")
        assert np.all(img == 0)

    def test_heat_low_is_light_high_is_dark_red(self):
        grid = np.array([[0.0, 100.0]])
        img = apply_colormap(grid, "heat")
        assert tuple(img[0, 0]) == (255, 255, 255)  # low density: white
        assert img[0, 1, 0] > img[0, 1, 2]  # high density: red-dominant

    def test_unknown_map(self):
        with pytest.raises(ValueError, match="unknown colormap"):
            apply_colormap(np.zeros((2, 2)), "jet")


class TestImageWriters:
    def test_ppm_layout(self, tmp_path):
        img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        data = path.read_bytes()
        assert data == b"P6\n3 2\n255\n" + img.tobytes()

    def test_ppm_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 3, 3), dtype=np.float64))
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 3), dtype=np.uint8))

    def test_pgm_layout(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + img.tobytes()

    def test_pgm_rejects_bad_input(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 3, 3), dtype=np.uint8))


class TestAsciiPreview:
    def test_dimensions(self, rng):
        text = ascii_preview(rng.uniform(0, 1, (100, 200)), width=40, height=10)
        lines = text.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 40 for line in lines)

    def test_small_grid_unchanged_dims(self):
        text = ascii_preview(np.ones((3, 5)), width=40, height=10)
        lines = text.split("\n")
        assert len(lines) == 3 and len(lines[0]) == 5

    def test_peak_gets_densest_char(self):
        grid = np.zeros((5, 5))
        grid[2, 2] = 1.0
        text = ascii_preview(grid, width=5, height=5)
        assert text.split("\n")[2][2] == "@"

    def test_zero_grid_is_blank(self):
        text = ascii_preview(np.zeros((4, 4)), width=4, height=4)
        assert set(text) <= {" ", "\n"}

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ascii_preview(np.zeros((2, 2, 2)))

    def test_empty(self):
        assert ascii_preview(np.zeros((0, 0))) == ""


class TestPNG:
    @staticmethod
    def _decode(data):
        """Minimal PNG reader (filter-0 truecolor only) for round-tripping."""
        import struct
        import zlib

        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        pos, idat, dims = 8, b"", None
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos:pos + 4])
            tag = data[pos + 4:pos + 8]
            payload = data[pos + 8:pos + 8 + length]
            if tag == b"IHDR":
                width, height, depth, color = struct.unpack(">IIBB", payload[:10])
                assert (depth, color) == (8, 2)  # 8-bit truecolor
                dims = (height, width)
            elif tag == b"IDAT":
                idat += payload
            pos += 12 + length
        height, width = dims
        raw = zlib.decompress(idat)
        stride = 1 + width * 3
        rows = []
        for y in range(height):
            row = raw[y * stride:(y + 1) * stride]
            assert row[0] == 0  # filter 0 scanlines
            rows.append(np.frombuffer(row[1:], np.uint8).reshape(width, 3))
        return np.stack(rows)

    def test_round_trip(self, rng):
        from repro.viz.image import encode_png

        rgb = rng.integers(0, 256, (13, 7, 3), dtype=np.uint8)
        np.testing.assert_array_equal(self._decode(encode_png(rgb)), rgb)

    def test_write_png(self, tmp_path, rng):
        from repro.viz.image import write_png

        rgb = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
        path = tmp_path / "tile.png"
        write_png(path, rgb)
        np.testing.assert_array_equal(self._decode(path.read_bytes()), rgb)

    def test_rejects_bad_input(self):
        from repro.viz.image import encode_png

        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            encode_png(np.zeros((4, 4, 3), dtype=np.float64))


class TestColorize:
    def test_matches_apply_colormap(self, rng):
        from repro.viz.colormap import colorize

        grid = rng.uniform(0.0, 5.0, (10, 8))
        via_colorize = colorize(normalize_grid(grid), "heat")
        np.testing.assert_array_equal(via_colorize, apply_colormap(grid, "heat"))

    def test_accepts_prenormalized_values(self):
        from repro.viz.colormap import colorize

        img = colorize(np.array([[0.0, 0.5, 1.0]]), "gray")
        assert img.shape == (1, 3, 3)
        assert img[0, 0, 0] < img[0, 1, 0] < img[0, 2, 0]

    def test_unknown_colormap(self):
        from repro.viz.colormap import colorize

        with pytest.raises(ValueError):
            colorize(np.zeros((2, 2)), "jet")


def _edge_probes(table: _StepTable) -> np.ndarray:
    """Every breakpoint with its 1-ulp neighbours, the ends of [0, 1], and
    values outside it."""
    bps = table.breakpoints
    return np.concatenate((
        bps, np.nextafter(bps, -1.0), np.nextafter(bps, 2.0),
        [0.0, -0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        [-1e300, -1.0, -1e-300, np.nextafter(1.0, 2.0), 2.0, 1e300],
        [np.inf, -np.inf],
    ))


@pytest.mark.parametrize("name", sorted(COLORMAPS))
class TestColorizeTable:
    """``colorize`` answers from a step table; the ``np.interp`` path it
    was built from (``_interp_colorize``) is the oracle."""

    def test_table_shape(self, name):
        table = _step_table(tuple(COLORMAPS[name]))
        steps = {"heat": 617, "viridis": 644, "gray": 255}[name]
        assert len(table.breakpoints) == steps
        assert np.all(np.diff(table.breakpoints) > 0)
        assert table.colors.shape == (steps + 1, 3)
        # the most breakpoints any bucket holds: one compare each per value
        assert len(table.thresholds) == (1 if name == "gray" else 2)

    def test_breakpoints_and_edges_match_reference(self, name):
        stops = COLORMAPS[name]
        probes = _edge_probes(_step_table(tuple(stops)))
        np.testing.assert_array_equal(
            colorize(probes, name), _interp_colorize(probes, stops)
        )

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    def test_unit_interval_draws_match_reference(self, name, values):
        norm = np.array(values).reshape(-1, 1)
        np.testing.assert_array_equal(
            colorize(norm, name), _interp_colorize(norm, COLORMAPS[name])
        )

    def test_nan_takes_the_zero_colour(self, name):
        out = colorize(np.array([[np.nan, 0.5], [0.0, np.nan]]), name)
        assert out.shape == (2, 2, 3) and out.dtype == np.uint8
        zero = _interp_colorize(np.array([0.0]), COLORMAPS[name])[0]
        assert (out[0, 0] == zero).all() and (out[1, 1] == zero).all()

    def test_a_dropped_breakpoint_is_caught(self, name):
        """The probes above see any missing step, wherever it is."""
        stops = COLORMAPS[name]
        table = _step_table(tuple(stops))
        probes = _edge_probes(table)
        want = _interp_colorize(probes, stops)
        for i in (0, len(table.breakpoints) // 2, len(table.breakpoints) - 1):
            bad = _StepTable.from_breakpoints(
                np.delete(table.breakpoints, i), stops
            )
            assert not np.array_equal(bad.lookup(probes), want)

    def test_apply_colormap_matches_reference(self, name, rng):
        grid = rng.gamma(0.5, 2.0, (40, 30))
        grid[:5] = 0.0
        grid[7, 7] = 1e6  # clipped by the 99.5th-percentile scale
        np.testing.assert_array_equal(
            apply_colormap(grid, name),
            _interp_colorize(normalize_grid(grid), COLORMAPS[name]),
        )
