"""Reporting / experiment-harness tests."""

import pytest

from repro.reporting import (
    arith_mean,
    format_census,
    format_coverage,
    format_figure4,
    format_speedup_figure,
    geomean,
    speedup_percent,
)
from repro.reporting.experiments import COVERAGE_CONFIGS


class TestStats:
    def test_geomean_basics(self):
        assert geomean([4.0]) == pytest.approx(4.0)
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 1.0

    def test_arith_mean(self):
        assert arith_mean([1, 2, 3]) == 2.0
        assert arith_mean([]) == 0.0

    def test_speedup_percent_matches_kejariwal_convention(self):
        assert speedup_percent(1.1818) == pytest.approx(18.18, abs=0.01)


class TestFormatting:
    def test_speedup_figure_renders(self):
        rows = {
            "doall:reduc0-dep0-fn0": {"specint2000": 1.1, "specint2006": 1.3},
            "helix:reduc1-dep1-fn2": {"specint2000": 4.6, "specint2006": 7.2},
        }
        text = format_speedup_figure(rows, "Fig. 2 test")
        assert "Fig. 2 test" in text
        assert "4.60x" in text
        assert "specint2006" in text

    def test_figure4_marks_winner(self):
        data = {
            "specfp2000/art_like": {"pdoall": 39.0, "helix": 28.0},
            "specint2000/gzip_like": {"pdoall": 1.4, "helix": 4.2},
        }
        text = format_figure4(data)
        lines = text.splitlines()
        art_line = [l for l in lines if "art_like" in l][0]
        gzip_line = [l for l in lines if "gzip_like" in l][0]
        assert art_line.rstrip().endswith("PDOALL")
        assert gzip_line.rstrip().endswith("HELIX")

    def test_coverage_renders_percent(self):
        rows = {"helix:reduc0-dep1-fn2": {"eembc": 92.5}}
        text = format_coverage(rows)
        assert "92.5%" in text

    def test_census_renders(self):
        rows = {"eembc": {"loops": 30, "computable_phis": 28,
                          "reduction_phis": 12, "noncomputable_phis": 4,
                          "loops_with_calls": 20, "loops_with_unsafe_calls": 0}}
        text = format_census(rows)
        assert "eembc" in text and "30" in text

    def test_census_header_separates_every_column(self):
        keys = ["loops", "computable_phis", "reduction_phis",
                "noncomputable_phis", "loops_with_calls",
                "loops_with_unsafe_calls"]
        text = format_census({"eembc": dict.fromkeys(keys, 1)})
        header, row = text.splitlines()[1:]
        assert header.split() == ["suite", *keys]
        assert len(row) == len(header)


class TestExperimentHarness:
    def test_coverage_configs_match_paper_figure5(self):
        names = [c.name for c in COVERAGE_CONFIGS]
        assert names == [
            "pdoall:reduc0-dep0-fn2",
            "helix:reduc0-dep0-fn2",
            "helix:reduc0-dep1-fn2",
        ]

    def test_table1_census_structure(self, runner):
        from repro.reporting import table1_census

        rows = table1_census(runner)
        assert set(rows) == {
            "specint2000", "specint2006", "eembc", "specfp2000", "specfp2006",
        }
        for totals in rows.values():
            assert totals["loops"] > 0
            assert totals["computable_phis"] > 0

    def test_figure2_rows_cover_all_configs(self, runner):
        from repro.core import paper_configurations
        from repro.reporting import figure2_nonnumeric

        rows = figure2_nonnumeric(runner)
        assert len(rows) == len(paper_configurations())
        for row in rows.values():
            assert set(row) == {"specint2000", "specint2006"}
            assert all(v >= 0.99 for v in row.values())


class TestDynamicCensus:
    def test_demo_program_classification(self):
        from repro.core import Loopapalooza
        from repro.reporting import dynamic_census_of

        lp = Loopapalooza(
            """
            int A[128]; int OUT[128];
            float S = 0.0;
            int main() {
              int i;
              float drift = 0.5;
              A[0] = 7;
              for (i = 1; i < 128; i = i + 1) {      // frequent memory LCD
                A[i] = (A[i-1] * 5 + i) & 1023;
              }
              for (i = 0; i < 128; i = i + 1) {      // predictable reg LCD
                OUT[i] = (int)(drift * 2.0);
                drift = drift + 0.25;
              }
              S = drift;
              return OUT[100];
            }
            """,
            "dyn_census",
        )
        census = dynamic_census_of(lp)
        by_loop = {entry.loop_id: entry for entry in census.values()}
        chain = by_loop["main.for.cond1"]
        assert chain.memory_class == "frequent"
        drift_loop = by_loop["main.for.cond5"]
        assert drift_loop.memory_class == "none"
        assert len(drift_loop.predictable_lcds) == 1
        assert not drift_loop.unpredictable_lcds

    def test_suite_census_shape(self, runner):
        from repro.reporting import format_dynamic_census, suite_dynamic_census

        totals = suite_dynamic_census(runner, "specint2000")
        assert totals["loops_frequent_mem"] > 0
        assert totals["unpredictable_reg_lcds"] > totals["predictable_reg_lcds"]
        text = format_dynamic_census({"specint2000": totals})
        assert "specint2000" in text
