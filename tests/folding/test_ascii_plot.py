"""Tests for the terminal figure renderer."""

import pytest

from repro.folding.ascii_plot import (
    render_address_panel,
    render_counter_panel,
    render_figure,
    render_phase_strip,
)


class TestPhaseStrip:
    def test_major_labels_present(self, hpcg_figure):
        strip = render_phase_strip(hpcg_figure.phases, width=80)
        top = strip.splitlines()[0]
        for label in "ABCDE":
            assert label in top
        # Order preserved left to right.
        assert top.index("A") < top.index("B") < top.index("D") < top.index("E")

    def test_sublabels_on_second_row(self, hpcg_figure):
        strip = render_phase_strip(hpcg_figure.phases, width=80)
        bottom = strip.splitlines()[1]
        assert "a1" in bottom and "a2" in bottom

    def test_width_respected(self, hpcg_figure):
        strip = render_phase_strip(hpcg_figure.phases, width=50)
        assert all(len(line) <= 50 for line in strip.splitlines())


class TestAddressPanel:
    def test_contains_loads_and_stores(self, hpcg_report):
        panel = render_address_panel(hpcg_report, width=80, height=12)
        assert "·" in panel
        assert "#" in panel
        assert "load" in panel and "store" in panel

    def test_width_respected(self, hpcg_report):
        panel = render_address_panel(hpcg_report, width=60, height=8)
        body = [l for l in panel.splitlines() if not l.startswith(("addr", "upper", "lower", "·"))]
        assert all(len(line) <= 60 for line in body)

    def test_empty_report(self, hpcg_report):
        from repro.folding.address import AddressStream
        from repro.objects.registry import DataObjectRegistry

        empty = AddressStream(DataObjectRegistry(), None, capacity=None).result()
        assert empty.n == 0

        class Stub:
            addresses = empty

        assert render_address_panel(Stub()) == "(no samples)"


class TestCounterPanel:
    def test_contains_all_curves(self, hpcg_report):
        panel = render_counter_panel(hpcg_report, width=80)
        assert "MIPS" in panel
        for label in ("branches/i", "L1D miss/i", "L3 miss/i"):
            assert label in panel

    def test_sparkline_chars(self, hpcg_report):
        panel = render_counter_panel(hpcg_report, width=80)
        assert any(ch in panel for ch in "▁▂▃▄▅▆▇█")


class TestRenderFigure:
    def test_all_panels(self, hpcg_report, hpcg_figure):
        fig = render_figure(hpcg_report, hpcg_figure.phases, width=90)
        assert "code (phases)" in fig
        assert "addresses referenced" in fig
        assert "counters / MIPS" in fig
        assert fig.splitlines()[-1].startswith("0")

    def test_without_phases(self, hpcg_report):
        fig = render_figure(hpcg_report, phases=None, width=60)
        assert "code (phases)" not in fig
        assert "addresses referenced" in fig
