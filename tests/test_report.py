import json
from pathlib import Path

import numpy as np
import pytest

from seisgof.ensemble import (METRICS, PARAMETERS, CorrelationTable,
                              GroupedScores)
from seisgof.gof_anderson import QualityLevel
from seisgof.report import (QUALITY_COLORS, grouped_rows_from_csv,
                            render_correlation_svg, render_grouped_svg,
                            table_from_csv, write_correlations_csv,
                            write_grouped_csv, write_manifest)

DATA = Path(__file__).parent / "data"


def simple_table(component="ew"):
    r = np.array([[0.9, np.nan], [0.2, -0.8], [0.5, 0.1]])
    p = np.array([[0.01, np.nan], [0.7, 0.02], [0.03, 0.9]])
    return CorrelationTable(component=component, parameters=PARAMETERS,
                            metrics=("EG", "PG"), r=r, p=p, n=27)


class TestSvgRendering:
    def test_deterministic_bytes(self):
        table = simple_table()
        assert render_correlation_svg(table) == render_correlation_svg(table)

    def test_non_significant_cells_have_no_value_text(self):
        svg = render_correlation_svg(simple_table())
        assert "0.90" in svg      # significant cell is labeled
        assert "0.20" not in svg  # p = 0.7 cell is blank

    def test_three_quality_color_classes(self):
        rows = []
        for value, mean in ((40.0, 2.0), (45.0, 5.0), (50.0, 9.0)):
            rows.append(GroupedScores("ew", "strike", value, "EG",
                                      (mean,) * 3))
        svg = render_grouped_svg(rows, "ew")
        assert QUALITY_COLORS[QualityLevel.POOR] in svg
        assert QUALITY_COLORS[QualityLevel.FAIR] in svg
        assert QUALITY_COLORS[QualityLevel.EXCELLENT] in svg
        # exactly three legend classes
        assert svg.count("fair to good") == 1

    def test_fair_and_good_share_the_yellow_class(self):
        assert (QUALITY_COLORS[QualityLevel.FAIR]
                == QUALITY_COLORS[QualityLevel.GOOD])


class TestCsvRoundTrip:
    def test_correlation_table_round_trip(self, tmp_path):
        table = simple_table()
        path = write_correlations_csv(tmp_path / "corr.csv", table)
        back = table_from_csv(path, "ew")
        assert back.metrics == table.metrics
        assert back.n == 27
        assert np.array_equal(back.r, table.r, equal_nan=True)
        assert np.array_equal(back.p, table.p, equal_nan=True)

    def test_grouped_round_trip_preserves_means(self, tmp_path):
        rows = [GroupedScores("ew", "strike", 40.0, "EG", (1.0, 2.0, 3.0)),
                GroupedScores("ew", "strike", 45.0, "PG", (8.5, 9.0, 9.5))]
        path = write_grouped_csv(tmp_path / "grouped.csv", rows)
        back = grouped_rows_from_csv(path)
        assert [r.mean for r in back] == [2.0, 9.0]


class TestManifest:
    def test_timestamp_isolated(self, tmp_path):
        p1 = write_manifest(tmp_path / "m1.json", {"command": "x", "k": 1})
        p2 = write_manifest(tmp_path / "m2.json", {"command": "x", "k": 1})
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("generated_at")
        d2.pop("generated_at")
        assert d1 == d2


class TestGoldenFiles:
    """Byte-exact comparison against reviewed golden SVGs (planted fixture)."""

    @pytest.mark.parametrize("name", [
        "correlation_ew.svg", "correlation_ns.svg", "correlation_ud.svg",
        "grouped_ew.svg", "grouped_ns.svg", "grouped_ud.svg",
    ])
    def test_report_matches_golden(self, tmp_path, name):
        from seisgof.cli import cmd_report
        out = tmp_path / "report"
        assert cmd_report(DATA / "fixture_run", out) == 0
        assert (out / name).read_bytes() == (DATA / "golden" / name).read_bytes()

    def test_report_closes_the_files_it_reads(self, tmp_path):
        import gc
        import warnings

        from seisgof.cli import cmd_report
        # Recorded, not raised: an unclosed file warns from its finalizer,
        # where an "error" filter's exception is only printed.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cmd_report(DATA / "fixture_run", tmp_path / "report") == 0
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_fixture_heatmap_has_blank_cells(self, tmp_path):
        golden = (DATA / "golden" / "correlation_ew.svg").read_text()
        # blank cell styling: white fill with the light border, no text
        assert 'fill="#ffffff" stroke="#cccccc"' in golden
