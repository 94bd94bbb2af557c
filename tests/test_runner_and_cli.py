"""Tests for the workload runner, report rendering, and the CLI."""

import pytest

from repro.core import IGuard
from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import fmt_overhead, render_table, title
from repro.workloads import get_workload, run_workload
from repro.workloads.base import Workload
from repro.workloads.runner import DetectorFactory, measured_overhead


class TestRunner:
    def test_native_run(self):
        result = run_workload(get_workload("b_reduce"), None, seeds=(1,))
        assert result.detector == "native"
        assert result.ran
        assert result.races == 0
        assert result.overhead == pytest.approx(1.0)

    def test_seed_union(self):
        w = get_workload("reduction")
        one = run_workload(w, IGuard, seeds=(1,))
        many = run_workload(w, IGuard, seeds=(1, 2, 3))
        assert many.races >= one.races

    def test_result_breakdown_keys(self):
        result = run_workload(get_workload("b_scan"), IGuard, seeds=(1,))
        assert set(result.breakdown) == {
            "native", "nvbit", "setup", "instrumentation", "detection", "misc"
        }

    def test_measured_overhead_helper(self):
        overhead = measured_overhead(get_workload("b_scan"), IGuard, seeds=(1,))
        assert overhead > 1.0

    def test_race_sites_are_sorted_tuples(self):
        result = run_workload(get_workload("1dconv"), IGuard, seeds=(1,))
        assert result.race_sites == tuple(sorted(result.race_sites))
        ip, race_type = result.race_sites[0]
        assert isinstance(ip, str) and race_type == "AS"

    def test_workload_type_tags(self):
        assert get_workload("conjugGMB").type_tags() == "CG (DR)"
        assert get_workload("uts").type_tags() == "AS, IL"
        assert get_workload("b_scan").type_tags() == ""

    def test_has_races(self):
        assert get_workload("uts").has_races
        assert not get_workload("b_scan").has_races


class TestDetectorFactory:
    def test_detector_factory_is_picklable(self):
        # Seed cells ship their factory to worker processes (workers > 1).
        import pickle

        clone = pickle.loads(pickle.dumps(DetectorFactory(IGuard)))
        assert clone.name == "iGUARD"
        assert isinstance(clone(), IGuard)

    def test_single_shard_is_still_accepted(self):
        factory = DetectorFactory(IGuard, shards=1)
        assert isinstance(factory(), IGuard)
        assert isinstance(factory(1), IGuard)

    @pytest.mark.parametrize("shards", [0, 2, 4])
    def test_other_shard_counts_are_rejected(self, shards):
        with pytest.raises(ConfigError):
            DetectorFactory(IGuard, shards=shards)
        with pytest.raises(ConfigError):
            DetectorFactory(IGuard)(shards)


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # aligned widths
        assert "longer" in lines[3]

    def test_render_table_header_separator(self):
        text = render_table(["col"], [["v"]])
        assert "-" in text.splitlines()[1]

    def test_fmt_overhead(self):
        assert fmt_overhead(5.04) == "5.0x"
        assert fmt_overhead(123.456) == "123.5x"

    def test_title_underline(self):
        assert title("abc").splitlines()[1] == "==="


class TestCLI:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "table1", "table4", "table5", "figure11", "figure12",
            "figure13", "figure14", "motivation",
        }

    def test_cli_runs_one(self, capsys):
        assert cli_main(["motivation"]) == 0
        out = capsys.readouterr().out
        assert "scoped fence" in out.lower()
        assert "[motivation completed" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            cli_main(["nonsense"])

    def test_modules_have_run_and_render(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)
            assert callable(module.main)
