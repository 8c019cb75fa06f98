"""The summary that tools/bench_pairs.py writes for alternating bench pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_summary_counts_wins_in_the_better_direction():
    parent, change = [1.0, 1.2, 1.1, 1.3, 0.9], [0.8, 0.9, 1.1, 0.7, 1.0]
    lower = bench_pairs.summarise(_pairs(parent, change, "wall_s"), {"wall_s": "lower"})["wall_s"]
    assert (lower["change_wins"], lower["ties"], lower["pairs"]) == (3, 1, 5)
    assert lower["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2, "iqr": 1.2 - 1.0}
    assert lower["median_change_ratio"] == 0.9 / 1.1
    assert lower["median_gap_exceeds_parent_iqr"] is True
    higher = bench_pairs.summarise(_pairs(parent, change, "ok"), {"ok": "higher"})["ok"]
    assert (higher["change_wins"], higher["ties"]) == (1, 1)


def test_family_summary_shows_which_family_moved():
    def side(ftle, ile):
        return {"families": {
            "ftle_grid": {"wall_s": ftle, "req_p50_ms": 10 * ftle, "req_p90_ms": 20 * ftle},
            "ile_grid": {"wall_s": ile, "req_p50_ms": 10 * ile, "req_p90_ms": 20 * ile}}}

    pairs = [{"parent": side(4.0 + k / 10, 1.5), "change": side(3.0 + k / 10, 1.5)}
             for k in range(5)]
    families = bench_pairs.summarise_families(pairs)
    assert set(families) == {"ftle_grid", "ile_grid"}
    for name in bench_pairs.FAMILY_METRICS:
        ftle, ile = families["ftle_grid"][name], families["ile_grid"][name]
        assert (ftle["change_wins"], ftle["median_gap_exceeds_parent_iqr"]) == (5, True)
        assert (ile["change_wins"], ile["ties"], ile["median_change_ratio"]) == (0, 5, 1.0)
    assert families["ftle_grid"]["wall_s"]["parent"]["median"] == 4.2
    assert families["ftle_grid"]["wall_s"]["change"]["median"] == 3.2


def test_peak_memory_is_fitted_against_the_pass_count():
    def side(passes, rss):
        return {"passes": passes, "peak_rss_mb": rss}

    parent_passes, change_passes = [100, 120, 130, 150], [180, 200, 230, 260]
    pairs = [{"parent": side(p, 38.0 + 0.045 * p), "change": side(c, 37.0 + 0.04 * c)}
             for p, c in zip(parent_passes, change_passes)]
    fit = bench_pairs.rss_fit(pairs)
    assert fit["parent"]["mb_per_pass"] == pytest.approx(0.045)
    assert fit["parent"]["mb_at_zero_passes"] == pytest.approx(38.0)
    assert fit["change"]["mb_per_pass"] == pytest.approx(0.04)
    assert fit["change"]["mb_at_zero_passes"] == pytest.approx(37.0)
    # one pass count on a side leaves its line undefined
    pairs[1]["change"] = pairs[2]["change"] = pairs[3]["change"] = pairs[0]["change"]
    assert bench_pairs.rss_fit(pairs)["change"] is None


def test_busy_layers_become_shares_of_the_traced_pass():
    def record(scale):
        metrics = {"flowmap.ftle_field.busy_ms": 180.0 * scale,
                   "strain.write_csv.busy_ms": 120.0 * scale,
                   "flowmap.ftle_field.nodes": 301150.0, "trace.overhead_ratio": 1.02}
        return {"traced_pass_walls_s": [0.62 * scale, 0.6 * scale, 0.9 * scale],
                "result": {"metrics": {name: {"value": v, "unit": "ms"}
                                       for name, v in metrics.items()}}}

    shares = bench_pairs.busy_shares(record(1.0))
    assert shares == {"flowmap.ftle_field.busy_ms": 180.0 / 620.0,
                      "strain.write_csv.busy_ms": 120.0 / 620.0}
    # drift that slows every layer and pass alike leaves the shares as they were
    assert bench_pairs.busy_shares(record(1.3)) == pytest.approx(shares)


def test_seed_ranges():
    assert bench_pairs._seeds("1-10") == list(range(1, 11))
    assert bench_pairs._seeds("6") == [6]


def test_src_lines_counts_python_files_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("pass\n")
    assert bench_pairs.src_lines(tmp_path) == 4
