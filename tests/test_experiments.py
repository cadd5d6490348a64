"""Tests for the experiment runners: every registered runner runs here through
``run_experiment``, and the paper shape it reproduces (the "Shape to
reproduce" of EXPERIMENTS.md) is asserted at the scale its test names."""

import ast
import pathlib

import numpy as np
import pytest

from repro.experiments.cache_shootout import HOTNESS_MODES, REACTIVE_POLICIES, TRACES
from repro.experiments.common import ALL_SYSTEMS, ExperimentResult, base_config, dataset_bundle
from repro.experiments.fault_tolerance import FAULT_SYSTEMS
from repro.experiments.memory_tiering import RESIDENT_FRACTIONS, SWEEP_BLOCK_ROWS
from repro.experiments.negative_sampling import NEG_ARMS, NEG_MODELS
from repro.experiments.registry import (
    EXPERIMENTS, get_experiment, list_experiments, run_experiment, run_experiments,
)
from repro.experiments.serving_scale import LOAD_POINTS
from repro.experiments.streaming_drift import STREAM_PROFILES, STREAM_SYSTEMS
from repro.kg.datasets import FB15K_SPEC, FREEBASE86M_SPEC, WN18_SPEC
from repro.models.base import MODEL_REGISTRY
from repro.serving.metrics import ServingReport

TINY = dict(scale=0.015, epochs=1, seed=0)

#: Column indices of ServingReport.as_row(), by header name.
P50, P99, HIT, REMOTE_MB = (
    ServingReport.headers().index(name)
    for name in ("p50 (ms)", "p99 (ms)", "hit ratio", "remote MB")
)


def assert_grid(result, num_rows):
    """``num_rows`` rows, each one cell per header."""
    assert len(result.rows) == num_rows
    assert all(len(row) == len(result.headers) for row in result.rows)


#: The experiments ``TestAccuracyRunners`` parametrizes over.
ACCURACY_TABLES = ["table3", "table4"]


def ids_run_here() -> set[str]:
    """Experiment ids this module passes to ``run_experiment`` as a literal."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(pathlib.Path(__file__).read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "run_experiment"
        and isinstance(node.args[0], ast.Constant)
    }


class TestRegistry:
    def test_all_paper_ids_present(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            "fig2", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig8c", "fig9",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("table99")

    def test_list_sorted(self):
        names = list_experiments()
        assert names == sorted(names)

    def test_every_registered_experiment_runs_in_this_module(self):
        assert ids_run_here() | set(ACCURACY_TABLES) == set(EXPERIMENTS)

    def test_run_experiments_pooled_equals_serial(self):
        names = ["table2", "ablation-negatives"]
        serial = run_experiments(names, TINY)
        pooled = run_experiments(names, TINY, jobs=2)
        assert [r.experiment_id for r in serial] == names
        assert [r.to_text() for r in pooled] == [r.to_text() for r in serial]


class TestCommon:
    def test_dataset_bundle_memoised(self):
        a = dataset_bundle("fb15k", scale=0.015, seed=0)
        b = dataset_bundle("fb15k", scale=0.015, seed=0)
        assert a is b

    def test_bundle_split_is_90_5_5(self):
        bundle = dataset_bundle("fb15k", scale=0.015, seed=0)
        n = bundle.graph.num_triples
        assert bundle.split.train.num_triples == round(0.9 * n)

    def test_base_config_paper_values(self):
        cfg = base_config()
        assert cfg.optimizer == "adagrad"
        assert cfg.lr == 0.1
        assert cfg.num_machines == 4

    def test_result_to_text(self):
        result = ExperimentResult(
            "t", "Title", ["a", "b"], [[1, 2.5]],
            notes="n", series={"s": [(1.0, 2.0)]},
        )
        text = result.to_text()
        assert "[t] Title" in text
        assert "series s" in text
        assert "note: n" in text


class TestMicrobenchRunners:
    def test_table1_comm_dominates(self):
        result = run_experiment("table1", **TINY)
        assert len(result.rows) == 3
        for row in result.rows:
            assert 0.0 < row[3] < 1.0  # comm fraction
        # The headline claim at any scale with 1 Gbps: comm share is large
        # (paper: >70% on Freebase-86m).
        assert max(row[3] for row in result.rows) > 0.4
        fractions = {row[0]: row[3] for row in result.rows}
        assert fractions["freebase86m-mini"] > 0.5

    def test_fig2_relation_skew_exceeds_entity(self):
        result = run_experiment("fig2", **TINY)
        for row in result.rows:
            assert row[2] > row[1]  # relation share > entity share
            # The top 1% of relations covers a large share (paper: ~36%
            # on FB15k).
            assert row[2] > 0.1

    def test_table2_counts(self):
        result = run_experiment("table2", **TINY)
        for row in result.rows:
            assert row[1] > 0 and row[2] > 0 and row[3] > 0

    def test_table2_full_scale_counts_match_specs(self):
        result = run_experiment("table2", scale=1.0)
        stats = {row[0]: row[1:] for row in result.rows}
        for spec in (FB15K_SPEC, WN18_SPEC, FREEBASE86M_SPEC):
            vertices, relations, edges = stats[spec.name]
            assert vertices == spec.num_entities
            assert relations == spec.num_relations
            assert edges == spec.num_triples


class TestAccuracyRunners:
    @pytest.mark.parametrize("name", ACCURACY_TABLES)
    def test_accuracy_table_shape(self, name):
        result = run_experiment(name, **TINY)
        assert len(result.rows) == 2 * len(ALL_SYSTEMS)  # two models
        for row in result.rows:
            assert 0.0 <= row[2] <= 1.0  # MRR
            assert row[5] > 0  # time
        # HET-KG is not slower than DGL-KE and PBG is slower than HET-KG;
        # on FB15k accuracy is also comparable across systems.
        pbg_slower_than = {"table3": "HET-KG-D", "table4": "HET-KG-C"}[name]
        for model in ("transe", "distmult"):
            rows = {r[0]: r for r in result.rows if r[1] == model}
            assert rows["HET-KG-C"][5] <= rows["DGL-KE"][5] * 1.05
            assert rows["PBG"][5] > rows[pbg_slower_than][5]
            if name == "table3":
                mrrs = [r[2] for r in rows.values()]
                assert max(mrrs) < 3 * min(mrrs) + 0.05

    def test_table5_single_model(self):
        result = run_experiment("table5", **TINY)
        assert len(result.rows) == len(ALL_SYSTEMS)
        assert all(row[1] == "transe" for row in result.rows)
        # HET-KG trains faster than the baselines on the large skewed graph.
        rows = {r[0]: r for r in result.rows}
        assert rows["HET-KG-D"][5] <= rows["DGL-KE"][5] * 1.05
        assert rows["PBG"][5] > rows["DGL-KE"][5]


class TestEfficiencyRunners:
    def test_fig5_series_monotone_time(self):
        result = run_experiment("fig5", scale=0.015, epochs=2, seed=0)
        for label, points in result.series.items():
            times = [t for t, _ in points]
            assert times == sorted(times)
        # HET-KG reaches its near-final accuracy before PBG, and every
        # system converges to a similar final MRR.
        rows = {r[0]: r for r in result.rows}
        assert rows["HET-KG-D"][3] < rows["PBG"][3]
        finals = [r[2] for r in result.rows]
        assert max(finals) < 3 * min(finals) + 0.05

    def test_fig6_speedups_start_at_one(self):
        result = run_experiment("fig6", scale=0.03, epochs=1, seed=0, worker_counts=(1, 2, 4, 8))
        for label, points in result.series.items():
            assert points[0][1] == pytest.approx(1.0)
        # Every system speeds up with more workers, and HET-KG's average
        # speedup beats PBG's (paper: PBG flattest, HET-KG ~30% above
        # DGL-KE).
        speedups = {row[0]: row[1:] for row in result.rows}
        for system, s in speedups.items():
            assert s[-1] > s[0]
        avg = {k: sum(v) / len(v) for k, v in speedups.items()}
        assert avg["HET-KG-D"] > avg["PBG"]
        assert avg["HET-KG-D"] >= avg["DGL-KE"] * 0.95

    def test_fig7_breakdown_sums(self):
        result = run_experiment("fig7", **TINY)
        for row in result.rows:
            assert row[4] == pytest.approx(row[2] + row[3], rel=1e-6)
        for dataset in {row[0] for row in result.rows}:
            rows = {r[1]: r for r in result.rows if r[0] == dataset}
            # The cache does not slow the math down...
            ratio = rows["HET-KG-C"][2] / rows["DGL-KE"][2]
            assert 0.9 < ratio < 1.15
            # ...HET-KG communicates less than DGL-KE, PBG the most.
            assert rows["HET-KG-C"][3] < rows["DGL-KE"][3]
            assert rows["PBG"][3] > rows["HET-KG-D"][3]


class TestCacheStudyRunners:
    def test_fig8a_hit_ratio_nondecreasing_in_capacity(self):
        result = run_experiment("fig8a", scale=0.03, epochs=1, seed=0, capacities=(32, 512))
        hits = [r[1] for r in result.rows]
        assert hits[1] >= hits[0]

    def test_fig8a_hit_ratio_rises_mrr_flat(self):
        result = run_experiment("fig8a", **TINY, capacities=(64, 256, 1024, 4096))
        hits = [row[1] for row in result.rows]
        assert hits == sorted(hits)
        assert hits[-1] > hits[0]
        mrrs = [row[2] for row in result.rows]
        assert max(mrrs) - min(mrrs) < 0.15

    def test_fig8b_time_falls_with_staleness(self):
        result = run_experiment("fig8b", scale=0.03, epochs=1, seed=0, staleness=(1, 16))
        times = [r[2] for r in result.rows]
        assert times[1] < times[0]

    def test_fig8b_time_monotone_over_staleness_sweep(self):
        result = run_experiment("fig8b", **TINY, staleness=(1, 2, 8, 32, 128), seeds=1)
        times = [row[2] for row in result.rows]
        assert times == sorted(times, reverse=True)
        assert all(0.0 <= row[1] <= 1.0 for row in result.rows)  # MRR

    def test_fig8c_extreme_ratios_not_best(self):
        result = run_experiment("fig8c", scale=0.05, epochs=1, seed=0, ratios=(0.0, 0.25, 1.0))
        hits = [r[1] for r in result.rows]
        assert hits[1] >= max(hits[0], hits[2]) - 0.02
        # The interior ratio beats both extremes (paper: peak near 25%).
        by_ratio = {row[0]: row[1] for row in result.rows}
        best_interior = max(v for k, v in by_ratio.items() if 0.0 < k < 1.0)
        assert best_interior >= by_ratio[0.0]
        assert best_interior > by_ratio[1.0]

    def test_fig9_produces_curves(self):
        result = run_experiment("fig9", scale=0.03, epochs=2, seed=0, seeds=2)
        assert len(result.series) == 2
        # Tight consistency converges at least as well as very loose.
        finals = {row[0]: row[1] for row in result.rows}
        assert finals[1] >= finals[128] - 0.02

    def test_table6_hetkg_beats_fifo_and_lru(self):
        result = run_experiment("table6", scale=0.03, seed=0)
        for row in result.rows:
            fifo, lru, lfu, importance, hetkg = row[1:]
            assert hetkg > fifo
            assert hetkg > lru
            # The paper's ordering: HET-KG > importance > LRU >= FIFO.
            assert hetkg > importance - 0.02
            assert importance > lru
            assert lru >= fifo

    def test_table7_two_variants_per_dataset(self):
        result = run_experiment("table7", **TINY)
        assert len(result.rows) == 4
        labels = {row[1] for row in result.rows}
        assert labels == {"HET-KG", "HET-KG-N"}
        for row in result.rows:
            assert 0.0 <= row[2] <= 1.0  # MRR
            assert row[5] > 0.0  # hit ratio

    def test_cache_shootout_grid(self):
        result = run_experiment("cache-shootout", **TINY)
        assert result.headers == ["trace", *REACTIVE_POLICIES, *HOTNESS_MODES]
        assert_grid(result, len(TRACES))
        assert [row[0] for row in result.rows] == list(TRACES)
        assert all(0.0 <= hit <= 1.0 for row in result.rows for hit in row[1:])


class TestAblationRunners:
    def test_partition_metis_cuts_less(self):
        result = run_experiment("ablation-partition", **TINY)
        by_dataset = {}
        for dataset, name, cut, *_ in result.rows:
            by_dataset.setdefault(dataset, {})[name] = cut
        for cuts in by_dataset.values():
            assert cuts["metis"] < cuts["random"]
        for dataset in by_dataset:
            rows = {r[1]: r for r in result.rows if r[0] == dataset}
            assert rows["metis"][4] <= rows["random"][4] * 1.05  # comm time

    def test_negatives_chunked_smaller_working_set(self):
        result = run_experiment("ablation-negatives", **TINY)
        uniques = {row[0]: row[1] for row in result.rows}
        assert uniques["chunked"] < uniques["independent"]

    def test_dps_window_rows(self):
        result = run_experiment("ablation-dps-window", **TINY)
        assert len(result.rows) == 4
        assert all(0 <= row[1] <= 1 for row in result.rows)

    def test_compression_cuts_remote_bytes(self):
        result = run_experiment("ablation-compression", **TINY)
        assert_grid(result, 3)
        by_codec = {row[0]: row for row in result.rows}
        # Remote bytes halve under fp16 and quarter under int8, and
        # training still works under compression.
        assert by_codec["fp16"][1] < 0.6 * by_codec["none"][1]
        assert by_codec["int8"][1] < 0.35 * by_codec["none"][1]
        assert all(0.0 <= row[4] <= 1.0 for row in result.rows)

    def test_model_zoo_every_model_engages_the_cache(self):
        result = run_experiment("ablation-model-zoo", **TINY)
        assert_grid(result, len(MODEL_REGISTRY))
        for model, mrr, h10, hit, time_s in result.rows:
            assert np.isfinite(mrr) and 0.0 <= mrr <= 1.0
            assert hit > 0.0
            assert time_s > 0.0

    def test_policies_extended_foresight_beats_reactive(self):
        result = run_experiment("ablation-policies-extended", **TINY)
        assert_grid(result, 3)
        for dataset, clock, twoq, arc, hetkg, belady in result.rows:
            # Foresight beats every reactive policy...
            assert hetkg > clock
            assert hetkg > twoq
            assert hetkg > arc
            # ...and Belady bounds the reactive ones (prefetching may
            # exceed it by avoiding cold misses).
            assert belady >= arc - 1e-9
            assert belady >= clock - 1e-9

    def test_negative_sampling_cached_arms_score_fewer(self):
        result = run_experiment("negative-sampling", **TINY)
        assert_grid(result, len(NEG_MODELS) * len(NEG_ARMS))
        scored = {(row[0], row[1]): row[4] for row in result.rows}
        for model in NEG_MODELS:
            assert scored[(model, "nscaching")] < scored[(model, "uniform")]
            assert scored[(model, "auto")] < scored[(model, "uniform")]


class TestServingRunners:
    def test_serving_cache_hot_set_pays(self):
        result = run_experiment("serving-cache", **TINY, num_queries=3000, fractions=(0.05, 0.2))
        assert result.headers == ServingReport.headers()
        assert_grid(result, 5)  # no-cache, then static and LRU per fraction
        by_label = {row[0]: row for row in result.rows}
        baseline = by_label["no-cache"]
        small, large = by_label["static@5%"], by_label["static@20%"]
        # Hit ratio grows with the hot set and is zero without a cache.
        assert baseline[HIT] == 0.0
        assert 0.0 < small[HIT] < large[HIT] <= 1.0
        # The cache pays for itself: less remote traffic, lower latency.
        assert large[REMOTE_MB] < baseline[REMOTE_MB]
        assert large[P99] < baseline[P99]
        assert large[P50] <= baseline[P50]

    def test_serving_batcher_rows(self):
        result = run_experiment("serving-batcher", **TINY)
        assert result.headers == ServingReport.headers()
        assert_grid(result, 4)
        assert [row[0] for row in result.rows] == [f"batch={b}" for b in (1, 4, 16, 64)]

    def test_serving_scale_rows(self):
        result = run_experiment("serving-scale", **TINY)
        assert result.headers == ServingReport.headers()
        # The load sweep, the fault-stressed point, then the two swaps.
        assert_grid(result, len(LOAD_POINTS) + 3)
        assert [row[0] for row in result.rows[-2:]] == ["swap+rewarm", "swap+cold"]


class TestRobustnessRunners:
    def test_fault_tolerance_ladder(self):
        result = run_experiment("fault-tolerance", **TINY)
        assert_grid(result, 3 * len(FAULT_SYSTEMS))  # three chaos levels
        assert len(result.series) == len(FAULT_SYSTEMS)

    def test_streaming_drift_adaptive_tracks_rotation(self):
        # Not TINY: at scale 0.015 and one epoch the runner's own check
        # fails (under rotation ADAPTIVE 0.987 < DPS 0.993).
        result = run_experiment("streaming-drift", scale=0.02, epochs=2)
        assert_grid(result, len(STREAM_PROFILES) * len(STREAM_SYSTEMS))
        hit = {(profile, system): ratio for profile, system, ratio, *_ in result.rows}
        # DGL-KE has no cache; every HET-KG variant beats it everywhere.
        for profile in STREAM_PROFILES:
            assert hit[(profile, "DGL-KE")] == 0.0
            for system in ("HET-KG-C", "HET-KG-D", "HET-KG-A"):
                assert hit[(profile, system)] > 0.0
        # Rotation is where the strategies separate.
        rotation = [hit[("rotation", system)] for system in ("HET-KG-A", "HET-KG-D", "HET-KG-C")]
        assert rotation == sorted(rotation, reverse=True)
        assert hit[("none", "HET-KG-C")] - hit[("rotation", "HET-KG-C")] > 0.02

    def test_memory_tiering_legs(self):
        result = run_experiment("memory-tiering", **TINY)
        # The gather curve, the block-size sweep, then two training rows.
        legs = ["gather"] * len(RESIDENT_FRACTIONS) + ["block-sweep"] * len(SWEEP_BLOCK_ROWS)
        assert_grid(result, len(legs) + 2)
        assert [row[0] for row in result.rows] == legs + ["train"] * 2
