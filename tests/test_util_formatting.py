"""Tests for repro.util.formatting."""

import pytest

from repro.util.formatting import format_bytes, format_seconds, format_table


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib(self):
        assert format_bytes(2048) == "2.00 KiB"

    def test_mib(self):
        assert format_bytes(3 * 1024**2) == "3.00 MiB"

    def test_gib(self):
        assert format_bytes(12 * 1024**3) == "12.00 GiB"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatSeconds:
    def test_seconds(self):
        assert format_seconds(2.5) == "2.500 s"

    def test_milliseconds(self):
        assert format_seconds(0.0123) == "12.300 ms"

    def test_microseconds(self):
        assert format_seconds(4.2e-5) == "42.0 us"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-0.1)


class TestFormatTable:
    def test_contains_headers_and_cells(self):
        text = format_table(["name", "value"], [["a", 1], ["b", 22]])
        assert "name" in text and "value" in text
        assert "a" in text and "22" in text

    def test_title_included(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_count_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_floats_rendered_compactly(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.1235" in text

    def test_alignment_produces_rectangular_output(self):
        text = format_table(["col", "n"], [["aaa", 1], ["b", 1000]])
        lines = [l for l in text.splitlines()]
        assert len({len(l) for l in lines}) == 1
