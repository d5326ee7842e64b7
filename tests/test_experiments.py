"""Experiment registry, results containers, and per-figure assertions.

Beyond "it runs", these tests pin the qualitative claims each paper
artifact makes (who wins, where crossovers fall).
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import DataTable, ExperimentResult, all_experiments, get, run
from repro.experiments.registry import _sort_key

ALL_IDS = [
    *(f"fig{i}" for i in (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                          17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30)),
    "table2",
    "table3",
    "table4",
    "table5",
    "eq1",
    "ext1",
    "ext2",
    "ext3",
    "ext4",
    "ext5",
    "ext6",
    "ext7",
    "ext8",
]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert sorted(all_experiments()) == sorted(ALL_IDS)

    def test_sort_order_figures_then_tables(self):
        ids = list(all_experiments())
        assert ids[0] == "fig1"
        assert ids[-1] == "ext8"
        assert ids.index("fig30") < ids.index("table2")
        assert ids.index("eq1") < ids.index("ext1")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get("fig99")

    def test_sort_key(self):
        assert _sort_key("fig2") < _sort_key("fig10")
        assert _sort_key("fig30") < _sort_key("table2")

    def test_specs_have_paper_artifacts(self):
        for spec in all_experiments().values():
            assert spec.paper_artifact.startswith(
                ("Figure", "Table", "Equation", "Extension")
            )


class TestResults:
    def test_datatable_validates_row_width(self):
        with pytest.raises(ValueError):
            DataTable("t", ("a", "b"), [(1,)])

    def test_datatable_column(self):
        t = DataTable("t", ("a", "b"), [(1, 2), (3, 4)])
        assert t.column("b") == [2, 4]

    def test_datatable_render_elides(self):
        t = DataTable("t", ("a",), [(i,) for i in range(100)])
        out = t.render(max_rows=10)
        assert "rows elided" in out

    def test_experiment_result_table_lookup(self):
        r = ExperimentResult("x", "t")
        r.add_table("one", ("c",), [(1,)])
        assert r.table("one").rows == [(1,)]
        with pytest.raises(KeyError):
            r.table("none")

    def test_write_csvs(self, tmp_path):
        r = ExperimentResult("expX", "t")
        r.add_table("one", ("c",), [(1,)])
        paths = r.write_csvs(tmp_path)
        assert paths[0].read_text() == "c\n1\n"
        assert paths[0].parent.name == "expX"

    def test_render_includes_notes(self):
        r = ExperimentResult("x", "t", notes=["hello"])
        assert "hello" in r.render()


@pytest.fixture(scope="module")
def quick_results():
    """Run every experiment once (quick mode) and cache the results."""
    return {exp_id: run(exp_id, quick=True) for exp_id in all_experiments()}


class TestEveryExperimentRuns:
    def test_all_quick_runs_produce_tables(self, quick_results):
        for exp_id, result in quick_results.items():
            assert result.tables, f"{exp_id} produced no tables"
            assert result.experiment_id == exp_id

    def test_all_tables_csv_serializable(self, quick_results):
        for result in quick_results.values():
            for table in result.tables:
                assert table.to_csv().count("\n") == len(table.rows) + 1


class TestFigureClaims:
    def test_fig1_knl_distribution_shift(self, quick_results):
        stats = quick_results["fig1"].table("stats_knl")
        medians = dict(zip(stats.column("mode"), stats.column("median")))
        assert medians["MCDRAM cache"] >= medians["DDR only"]

    def test_fig4_spectrum_ordering(self, quick_results):
        t = quick_results["fig4"].table("spectrum")
        ai = t.column("arithmetic_intensity")
        assert ai == sorted(ai)
        kernels = t.column("kernel")
        assert kernels[0] == "stream" and kernels[-1] == "gemm"

    def test_fig5_opm_lifts_bandwidth_bound_kernels(self, quick_results):
        t = quick_results["fig5"].table("attainable_broadwell")
        idx = t.column("kernel").index("stream")
        ddr = t.column("DDR3")[idx]
        edram = t.column("eDRAM")[idx]
        assert edram > 2.5 * ddr

    def test_fig6_multilevel_peaks(self, quick_results):
        notes = " ".join(quick_results["fig6"].notes)
        assert "cache peaks" in notes

    def test_fig7_gemm_bdw_peak_near_paper(self, quick_results):
        t = quick_results["fig7"].table("gflops")
        peak = max(t.column("w/ eDRAM"))
        assert 180 <= peak <= 236.8  # paper: 204.5-206.1

    def test_fig12_stream_edram_never_worse(self, quick_results):
        t = quick_results["fig12"].table("curves")
        on = np.array(t.column("w/_eDRAM"))
        off = np.array(t.column("w/o_eDRAM"))
        assert (on >= off * 0.999).all()

    def test_fig15_mcdram_rescues_bad_tiles(self, quick_results):
        t = quick_results["fig15"].table("gflops")
        cache = np.array(t.column("Cache"))
        ddr = np.array(t.column("DDR"))
        assert (cache >= ddr * 0.999).all()
        assert (cache > 1.1 * ddr).any()

    def test_fig23_stream_knl_mode_structure(self, quick_results):
        t = quick_results["fig23"].table("curves")
        fps = np.array(t.column("footprint_mb"))
        flat = np.array(t.column("Flat"))
        ddr = np.array(t.column("DDR"))
        in_cap = (fps > 500) & (fps < 16_000)
        past = fps > 17_000
        assert (flat[in_cap] > 2.0 * ddr[in_cap]).all()
        assert (flat[past] < ddr[past]).all()  # straddling cliff

    def test_fig26_power_increase_modest(self, quick_results):
        t = quick_results["fig26"].table("power")
        increases = [r for r in t.column("total_increase")]
        # Average increase in the paper: ~8.6%; ours within [0, 30%].
        assert 0.0 <= np.mean(increases) <= 0.30

    def test_fig27_ddr_power_reduction_cases(self, quick_results):
        notes = " ".join(quick_results["fig27"].notes)
        assert "reduces DDR power" in notes

    def test_table4_edram_never_degrades(self, quick_results):
        t = quick_results["table4"].table("summary")
        for row in t.rows:
            kernel, best_off, best_on = row[0], row[1], row[2]
            assert best_on >= best_off * 0.999, kernel
            max_speedup = row[6]
            assert max_speedup >= 0.999

    def test_table4_sparse_kernels_gain(self, quick_results):
        t = quick_results["table4"].table("summary")
        rows = {r[0]: r for r in t.rows}
        # Paper: sparse/medium kernels gain 10-30% on average.
        assert rows["SpMV"][5] > 1.1
        assert rows["Stencil"][5] > 1.2

    def test_table5_sign_structure(self, quick_results):
        t = quick_results["table5"].table("summary")
        rows = {r[0]: r for r in t.rows}
        # SpMV/Stream/Stencil/FFT gain clearly in every MCDRAM mode.
        for kernel in ("SpMV", "Stream", "Stencil", "FFT"):
            avg_speedups = [float(x) for x in rows[kernel][5].split("/")]
            assert max(avg_speedups) > 1.2, kernel
        # SpTRSV's flat-mode average speedup is the weakest of the sparse
        # kernels (latency-bound inversion).
        sptrsv_flat = float(rows["SpTRSV"][5].split("/")[0])
        spmv_flat = float(rows["SpMV"][5].split("/")[0])
        assert sptrsv_flat < spmv_flat

    def test_eq1_breakeven_signs(self, quick_results):
        t = quick_results["eq1"].table("edram_breakeven")
        for row in t.rows:
            kernel, p, w, ratio, saves = row
            assert (ratio < 1.0) == (saves == "yes")
            assert ratio == pytest.approx((1 + w) / (1 + p), rel=1e-6)

    def test_fig30_capacity_extends_region(self, quick_results):
        notes = " ".join(quick_results["fig30"].notes)
        assert "cap x4" in notes

    def test_fig9_effective_region_notes(self, quick_results):
        notes = " ".join(quick_results["fig9"].notes)
        assert "avg speedup" in notes

    def test_fig20_structure_table_populated(self, quick_results):
        t = quick_results["fig20"].table("structure")
        assert len(t.rows) > 3
        counts = t.column("count")
        assert sum(counts) > 0

    def test_ext8_frontiers_non_degenerate(self, quick_results):
        t = quick_results["ext8"].table("frontiers")
        assert len(t.rows) == 8
        for kernel, _global, _platform, distinct in t.rows:
            assert distinct >= 2, f"{kernel}: degenerate Pareto frontier"

    def test_ext8_every_config_priced(self, quick_results):
        t = quick_results["ext8"].table("pareto")
        assert len(t.rows) == 8 * 6  # 8 kernels x 6 configurations
        assert all(e > 0 for e in t.column("energy_j"))
        assert all(s > 0 for s in t.column("seconds"))
        # Each kernel has at least one point on the global frontier.
        by_kernel = {}
        for row in t.rows:
            by_kernel.setdefault(row[0], []).append(row[8])
        assert all(sum(flags) >= 1 for flags in by_kernel.values())


#: sha256 of ``result.render()`` for every quick run. Rendering rounds
#: every number, so a digest moves only when a printed value does; re-bless
#: one only with a CHANGES.md line naming the number that moved and why.
GOLDEN_RENDER_SHA256 = {
    "fig1": "67f05370df058b7453d6d3d87ee98be039868c17ebe1758260ddb1e209939619",
    "fig4": "d4c4292ced851f253bff57a190c8d9d8b8ff686ed3c2996349b750e4eff4a57b",
    "fig5": "6666fc8a9a3a2052b73dc38869f853ac7b2547ae5e5def93bbad5c20895ec310",
    "fig6": "75b5d9866d77ec974749e27c10cd938f562f35e0386be379fcd9684286323d38",
    "fig7": "7919037650c0c3a2c17cde7b8076affa1037a39e92339ae6383234e7e3d19d2a",
    "fig8": "bc0566ea914e3cd7e6c7b1359cfd2233eda553ab85fbb03cd0d784025753c708",
    "fig9": "445f0882421fc5c4611f850b041051111b6748850f7d24c218a902d898aff99b",
    "fig10": "964ac606d05adee03d8df7c0f8f029b55adcb2093fb8075e45be74bef16c2364",
    "fig11": "ef16f3d704543870edb27a9cb95e89051e6793777d463bc606215b67453d56e7",
    "fig12": "6cd1981348b979caeabf98d1d8888371a94fa536a33205fb73f515a8a3ade153",
    "fig13": "b51dfc1ba3d48df8939690196ca92d286b63adc45e0ab31e862699f46082511b",
    "fig14": "35743e918c79163227c6f9e3999a7371268bc4dc2e2108b65565efb75ab2dba4",
    "fig15": "658266c6ae45b52127030869e1a27556c36e4664a331167a25d8abd2aa6dc5d5",
    "fig16": "6cf1a4b76651f826c3cc4c5c4f8a35ce5e94dc937789f70d72645be53500d7a8",
    "fig17": "d94e1a3c77f9a4c6f86fddb90068f7d769bef1d0be97a6262a13058aa6a818b6",
    "fig18": "b47032e21d977c126ce80f9ad615d91be96fd9cdd67f47907b26f13b6a60028f",
    "fig19": "015323d58ead53d299d7c5463568e357059884116757a843e155900fbe03a104",
    "fig20": "0863634cd909ec1411080d2fc76aee675cbaffce58b1214e1def8d196869cbd9",
    "fig21": "83305dfe91b8a4c835425dd85990da4f108335de9467a5ecec72d81c9812f7d1",
    "fig22": "816a13788701150dad2c160cf1fc40848cb49ea0a18970e6c7f4f5e9e60725ba",
    "fig23": "c9d1c09edc0f7996fe28d8a87ce702bf8687b7a34007d87ef45a723de8c8723e",
    "fig24": "b6e5990cc1190e2eb480118793e06f907ed28d5486eb2b256759c672dc853a38",
    "fig25": "9af1ded27da110314c0d5719b45a3a01620f2f15161e864e32f19c571da5c5d9",
    "fig26": "3c9cc7c17b9bdf9096da9d385d52c33d9fdf29158fa1cdc115b25d75c3ebbdfc",
    "fig27": "ea0832de459901ad1c31adcf69548d740b948f105e245d22616f0c50e55d8aee",
    "fig28": "d66d041802962fed3612c167cdcd6ce04d42fb4ef38e5e4901903ea1f480cf0a",
    "fig29": "1d8dc6b6ae6902625ca8d23f54ecd55694f2596674f92a03d68bb3f438ebb10b",
    "fig30": "9c33d167dc1724b851e33935bca6a6d4953696af0bdc3f38a9e24e174f644f27",
    "table2": "d7a91ad573e54c92ebbf6b1d113e5d3e23cea3a8d6098861bec38477cdf5f9df",
    "table3": "78256d40e5104a38e48f6808ea4c1cef33283668cccf81ea2386d96ed4364de5",
    "table4": "586a09f0ab3c95faee6463e5fa84533fc06cd56c03f6efe867c89b35e16c25c1",
    "table5": "3b2bf165d8d0a11ad7d680859c57118956e1a4bb64a1a188e97952ae70583de1",
    "eq1": "95a6667460b260f10e1abb68ea75db8f7317ba9bae7ac520665abdb50972e589",
    "ext1": "32c5c1005aad5659b1ff769bf6c90238c0a3dacb3bfc7de94717de4a94f7b85e",
    "ext2": "6b311cf74295b1ed34e1950f3879eb76fb01eb1b2685f1700e39837c5cfe10e5",
    "ext3": "2c231dea0eb45145be14a967df73e767ef00f49892c77908d87c4fc1471e9c6a",
    "ext4": "e6da98c428d3593e60165ccdc7a05e53b78f6438f41c102ce9993164786bfaf5",
    "ext5": "5eaf06326ed824d33ff649bcee9c30798389211e20de7bb941c91903b3f3c497",
    "ext6": "1ed3c578c37c6bfdd230d32b228415e0e8b425408cb4887d01ad34e110c887c0",
    "ext7": "84599cc4097ced9b7dc8f1199280993f13aa9696d9d6a6f5987b018f351e982f",
    "ext8": "d511f6384632ab911954b29eb087d99c5dd108214b4f95fa95f97a36b838caa5",
}


class TestGoldenRenders:
    def test_every_quick_render_matches_golden(self, quick_results):
        digests = {
            exp_id: hashlib.sha256(result.render().encode()).hexdigest()
            for exp_id, result in quick_results.items()
        }
        assert digests == GOLDEN_RENDER_SHA256
