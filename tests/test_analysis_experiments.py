"""Tests for the experiment harness — the shape criteria of DESIGN.md §4."""

import numpy as np
import pytest

from repro.analysis import (
    ExperimentConfig,
    build_workload,
    run_cluster_anecdotes,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_table1,
)
from repro.analysis import ablations
from repro.analysis.experiments import (
    EXPERIMENTS,
    MEASURED_ENGINES,
    run_measured_vs_modeled,
)
from repro.analysis.workload import traced
from repro.telemetry.core import MAIN_TRACK

#: Small but non-trivial config shared by every experiment test.
CONFIG = ExperimentConfig(scale=11, edge_factor=16, seed=1)


@pytest.fixture(scope="module")
def fig1():
    return run_fig1(CONFIG)


@pytest.fixture(scope="module")
def fig2():
    return run_fig2(CONFIG)


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(CONFIG)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(CONFIG)


@pytest.fixture(scope="module")
def table1():
    return run_table1(CONFIG)


class TestConfig:
    def test_extrapolation_factor(self):
        assert CONFIG.extrapolation_factor == 2 ** (24 - 11)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(processor_counts=())
        with pytest.raises(ValueError):
            ExperimentConfig(processor_counts=(0,))
        with pytest.raises(ValueError):
            ExperimentConfig(scale=25, paper_scale=24)
        with pytest.raises(ValueError, match="scale"):
            ExperimentConfig(scale=-3)
        with pytest.raises(ValueError, match="edge_factor"):
            ExperimentConfig(edge_factor=0)

    def test_workload_cached(self):
        a = build_workload(CONFIG)
        b = build_workload(CONFIG)
        assert a.graph is b.graph

    def test_workload_source_in_giant_component(self):
        wl = build_workload(CONFIG)
        from repro.graph.properties import reachable_from

        reached = reachable_from(wl.graph, wl.bfs_source)
        deg = wl.graph.degrees()
        assert reached.sum() > 0.5 * np.count_nonzero(deg > 0)


class TestMeasuredVsModeled:
    """The runtime beside the model: every engine runs the supersteps the
    model priced, one row each."""

    CONFIG = ExperimentConfig(scale=10, edge_factor=16, seed=1)

    @pytest.fixture(scope="class")
    def result(self):
        return run_measured_vs_modeled(self.CONFIG)

    @pytest.mark.parametrize("engine", list(MEASURED_ENGINES))
    @pytest.mark.parametrize("algorithm", ["cc", "bfs"])
    def test_engine_trace_equals_traced(self, result, algorithm, engine):
        modeled = traced(f"bsp_{algorithm}", self.CONFIG)
        trace, tel = result.measured[algorithm][engine]
        assert trace == modeled.trace
        steps = tel.spans_named("superstep", track=MAIN_TRACK)
        assert [s.superstep for s in steps] == list(
            range(modeled.num_supersteps)
        )

    def test_one_rendered_row_per_superstep(self, result):
        text = EXPERIMENTS["measured-vs-modeled"].render(result, False, False)
        tables = text.split("\n\n")[:-1]
        assert len(tables) == len(result.modeled) == 2
        for table, run in zip(tables, result.modeled.values()):
            # title, underline, header, rule; then the rows and a total.
            labels = [line.split()[0] for line in table.splitlines()[4:]]
            assert labels == [
                *map(str, range(run.num_supersteps)), "all"
            ]
            assert "reference" in table and "sharded W=2" in table

    @pytest.mark.parametrize("algorithm", ["cc", "bfs"])
    def test_placement_is_the_local_superstep_counter(self, result, algorithm):
        _, tel = result.measured[algorithm]["sharded W=2"]
        local = {
            c.superstep: c.value
            for c in tel.counters if c.name == "local_superstep"
        }
        placement = {
            row["superstep"]: row["placement"]
            for row in result.rows(algorithm)
        }
        assert "workers" in placement.values()
        assert placement == {
            i: ("-" if i not in local else
                "parent" if local[i] else "workers")
            for i in placement
        }

    def test_paper_scale_reprices_only_the_model(self, result):
        plain = result.rows("cc")
        scaled = result.rows("cc", paper_scale=True)
        assert [r["dense"] for r in plain] == [r["dense"] for r in scaled]
        assert sum(r["modeled"] for r in scaled) > sum(
            r["modeled"] for r in plain
        )


class TestFig1:
    def test_superstep_inflation(self, fig1):
        """BSP needs clearly more rounds than shared memory (paper 13/6)."""
        assert fig1.superstep_inflation >= 1.4

    def test_bsp_slower_total(self, fig1):
        # Band is wider than the paper's 4.1x because at this small test
        # scale the BSP superstep-overhead floor dominates; the scale-14
        # benchmark checks the tighter band.
        bsp, shm = fig1.totals_at(128)
        assert 2.0 <= bsp / shm <= 40.0

    def test_graphct_constant_work_per_iteration(self, fig1):
        """Fig. 1 right: per-iteration time is flat."""
        per_iter = list(fig1.graphct_times[128]["by_iteration"].values())
        assert max(per_iter) <= 1.2 * min(per_iter)

    def test_bsp_activity_collapses(self, fig1):
        """Fig. 1 left: first supersteps dominate, the tail is cheap."""
        per_ss = list(fig1.bsp_times[8]["by_iteration"].values())
        assert max(per_ss[:2]) > 2 * per_ss[-1]

    def test_heavy_supersteps_scale_paper_scale(self, fig1):
        """At paper-scale work, the heavy supersteps scale ~linearly."""
        by_p = fig1.bsp_times_paper_scale
        heavy0 = {p: by_p[p]["by_iteration"][0] for p in (8, 128)}
        assert heavy0[8] / heavy0[128] > 8  # >half of ideal 16x

    def test_graphct_linear_scaling_paper_scale(self, fig1):
        by_p = fig1.graphct_times_paper_scale
        t = {p: by_p[p]["total"] for p in (8, 128)}
        assert t[8] / t[128] > 10

    def test_light_supersteps_flat(self, fig1):
        """Small active sets stop scaling (paper: 'scalability reduces
        significantly')."""
        by_p = fig1.bsp_times
        last = max(by_p[8]["by_iteration"])
        tail = {p: by_p[p]["by_iteration"][last] for p in (8, 128)}
        assert tail[8] / tail[128] < 1.5


class TestFig2:
    def test_series_lengths_comparable(self, fig2):
        assert abs(len(fig2.bsp_messages) - len(fig2.frontier_sizes)) <= 1

    def test_messages_track_frontier_early(self, fig2):
        """Before the apex almost every message lands on a new vertex."""
        apex = int(np.argmax(fig2.frontier_sizes))
        # messages received at the apex level vs the apex frontier
        assert fig2.bsp_messages[apex - 1] <= 40 * fig2.frontier_sizes[apex]

    def test_messages_exceed_frontier_after_apex(self, fig2):
        assert fig2.peak_message_to_frontier_ratio > 10

    def test_messages_decline_at_tail(self, fig2):
        msgs = fig2.bsp_messages
        assert msgs[-1] <= 1
        apex = int(np.argmax(msgs))
        assert all(
            msgs[i] >= msgs[i + 1] for i in range(apex, len(msgs) - 1)
        )

    def test_bsp_and_graphct_agree_on_distances(self, fig2):
        assert np.array_equal(
            fig2.bsp_result.distances, fig2.graphct_result.distances
        )


class TestFig3:
    def test_levels_are_interior(self, fig3):
        assert 0 not in fig3.levels
        assert len(fig3.levels) >= 2

    def test_apex_level_scales_paper_scale(self, fig3):
        """The frontier-apex level scales near-linearly at paper scale."""
        best_bsp = max(
            fig3.speedup("bsp", lvl, paper_scale=True) for lvl in fig3.levels
        )
        best_shm = max(
            fig3.speedup("graphct", lvl, paper_scale=True)
            for lvl in fig3.levels
        )
        assert best_bsp > 8
        assert best_shm > 8

    def test_small_levels_flat(self, fig3):
        """First interior level is tiny: no speedup at miniature scale."""
        lvl = fig3.levels[0]
        assert fig3.speedup("graphct", lvl) < 2

    def test_bsp_levels_cost_more(self, fig3):
        for p in (8, 128):
            assert fig3.bsp_total[p] > fig3.graphct_total[p]

    def test_bsp_total_ratio_in_band(self, fig3):
        ratio = fig3.bsp_total[128] / fig3.graphct_total[128]
        assert 2.0 <= ratio <= 20.0


class TestFig4:
    def test_both_models_scale_linearly(self, fig4):
        """Fig. 4: both implementations scale ~linearly in P."""
        assert fig4.speedup("bsp", paper_scale=True) > 10
        assert fig4.speedup("graphct", paper_scale=True) > 10

    def test_bsp_slower(self, fig4):
        for p in (8, 128):
            assert fig4.bsp_times[p] > fig4.graphct_times[p]

    def test_write_blowup(self, fig4):
        assert fig4.write_ratio > 5

    def test_possible_exceeds_actual(self, fig4):
        assert fig4.bsp.possible_triangles > 2 * fig4.bsp.total_triangles

    def test_counts_agree_across_models(self, fig4):
        assert fig4.bsp.total_triangles == fig4.graphct.total_triangles


class TestTable1:
    def test_graphct_wins_every_row(self, table1):
        for row in table1.rows.values():
            assert row["ratio"] > 1.0

    def test_ratios_within_paper_band(self, table1):
        """'within a factor of 10' — 2-20x at experiment scale; the
        small test scale inflates the overhead-dominated CC row, so the
        upper bound here is looser (see test_bsp_slower_total)."""
        for row in table1.rows.values():
            assert 1.5 <= row["ratio"] <= 40.0

    def test_extrapolated_rows_present(self, table1):
        assert set(table1.extrapolated_rows) == set(table1.rows)
        for name in table1.rows:
            assert (
                table1.extrapolated_rows[name]["bsp"]
                > table1.rows[name]["bsp"]
            )

    def test_paper_reference_rows(self, table1):
        assert table1.paper_rows["connected_components"]["bsp"] == 5.40
        assert table1.paper_rows["triangle_counting"]["ratio"] == 9.4

    def test_max_ratio(self, table1):
        assert table1.max_ratio == max(
            r["ratio"] for r in table1.rows.values()
        )


class TestClusterAnecdotes:
    @pytest.fixture(scope="class")
    def anecdotes(self):
        return run_cluster_anecdotes(CONFIG)

    def test_all_within_order_of_magnitude(self, anecdotes):
        for name in anecdotes.rows:
            assert anecdotes.within_order_of_magnitude(name), name

    def test_sssp_scaling_goes_flat(self, anecdotes):
        """Kajdanowicz: flat from 30 to 85 machines."""
        assert 85 in anecdotes.sssp_flat_counts
        assert len(anecdotes.sssp_flat_counts) >= 3


def _sweep_claim(r):
    sweep = list(r["sweep"].values())
    return (
        all(ratio > 1.0 for row in sweep for ratio in row["ratios"].values())
        and sweep[-1]["write_ratio"] > sweep[0]["write_ratio"]
    )


def _density_claim(r):
    dense, *_, sparse = r["rows"].values()
    return (
        dense["clustering"] > 3 * sparse["clustering"]
        and dense["triangles"] > 3 * sparse["triangles"]
        and dense["messages_per_edge"] > sparse["messages_per_edge"]
    )


#: ``run_<name>`` → (smallest RMAT scale at which the claim holds, claim).
ABLATION_CLAIMS = {
    # A min-combiner collapses queue traffic > 5x; simulated time orders
    # plain BSP > combined BSP > half of GraphCT (barriers remain).
    "combiner": (8, lambda r: (
        5 * r["messages_combined"] < r["messages_plain"]
        and r["seconds"]["plain"] > r["seconds"]["combined"]
        > 0.5 * r["seconds"]["graphct"]
    )),
    # Hotspot serialization costs BSP at least what it costs GraphCT.
    "hotspot": (8, lambda r: (
        r["bsp"]["penalty"] >= r["graphct"]["penalty"]
        and r["graphct"]["penalty"] < 1.2
    )),
    "degree_ordering": (8, lambda r: (
        r["wedges_degree_order"] < r["wedges_id_order"]
    )),
    # GraphCT wins at every swept scale (here 6-9) and the triangle
    # write blow-up grows with scale.
    "scale_sweep": (10, _sweep_claim),
    # One fetch-and-add tail stops scaling; per-vertex tails and chunked
    # reservation do not.
    "queue_design": (9, lambda r: (
        r["speedups"]["single-tail"] < 2.0
        and r["speedups"]["per-vertex"] > 10
        and r["speedups"]["chunked"] > 10
        and r["seconds_at_pmax"]["single-tail"]
        > 5 * r["seconds_at_pmax"]["per-vertex"]
    )),
    # Degree-balanced placement fixes hash placement's edge imbalance
    # and recovers > 1.2x of distributed CC time.
    "partitioning": (9, lambda r: (
        r["edge_imbalance"]["hash"] > r["edge_imbalance"]["balanced"]
        and r["edge_imbalance"]["balanced"] < 1.1
        and r["cluster_seconds"]["hash"]
        > 1.2 * r["cluster_seconds"]["balanced"]
    )),
    "triangle_density": (8, _density_claim),
}


@pytest.mark.parametrize("name", sorted(ABLATION_CLAIMS))
def test_ablation_claim(name):
    scale, claim = ABLATION_CLAIMS[name]
    run = getattr(ablations, f"run_{name}")
    result = run(ExperimentConfig(scale=scale, edge_factor=16, seed=1))
    assert claim(result), result
