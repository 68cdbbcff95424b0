"""Unit tests for the experiment registry and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.config import PAPER, QUICK
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments


class TestScales:
    def test_paper_matches_publication(self):
        assert PAPER.runs == 40
        assert PAPER.mapping_nodes == 300
        assert PAPER.mapping_target_edges == 2164
        assert PAPER.routing_nodes == 250
        assert PAPER.routing_gateways == 12
        assert PAPER.routing_population == 100
        assert PAPER.routing_steps == 300
        assert PAPER.routing_converged_after == 150
        assert PAPER.team_population == 15

    def test_quick_is_smaller_everywhere(self):
        assert QUICK.runs < PAPER.runs
        assert QUICK.mapping_nodes < PAPER.mapping_nodes
        assert QUICK.routing_nodes < PAPER.routing_nodes
        assert QUICK.routing_steps < PAPER.routing_steps

    def test_generator_configs(self):
        mapping = PAPER.mapping_generator_config()
        assert mapping.node_count == 300
        assert mapping.require_strong_connectivity
        routing = PAPER.routing_generator_config()
        assert routing.gateway_count == 12
        assert routing.mobile_fraction == 0.5


class TestRegistry:
    def test_all_figures_registered(self):
        for figure in range(1, 12):
            assert f"fig{figure}" in EXPERIMENTS

    def test_extension_and_ablations_registered(self):
        for experiment_id in ("ext1", "ext2", "abl1", "abl2", "abl3", "abl4"):
            assert experiment_id in EXPERIMENTS

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(ExperimentError, match="fig1"):
            get_experiment("fig99")

    def test_list_ordering(self):
        ids = [e.experiment_id for e in list_experiments()]
        assert ids[:3] == ["fig1", "fig2", "fig3"]
        assert ids.index("fig11") < ids.index("ext1") < ids.index("abl1")

    def test_scenarios_assigned(self):
        assert EXPERIMENTS["fig1"].scenario == "mapping"
        assert EXPERIMENTS["fig7"].scenario == "routing"


class TestCliParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.experiment == "fig1"
        assert not args.paper_scale
        assert args.seed == 2010

    def test_run_flags(self):
        args = build_parser().parse_args(
            ["run", "fig7", "--paper-scale", "--seed", "7", "--no-plot", "--quiet"]
        )
        assert args.paper_scale
        assert args.seed == 7
        assert args.no_plot
        assert args.quiet

    def test_output_dir_flags(self):
        args = build_parser().parse_args(
            ["run", "fig7", "--json-dir", "/tmp/a", "--svg-dir", "/tmp/b"]
        )
        assert args.json_dir == "/tmp/a"
        assert args.svg_dir == "/tmp/b"


class TestCliMain:
    def test_list_exit_code(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "ext1" in out

    def test_unknown_experiment_exit_code(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_command_round_trip(self, tmp_path, capsys):
        from repro.experiments.persistence import save_report
        from repro.experiments.report import ExperimentReport

        report = ExperimentReport("figY", "saved", "claim", columns=["a"])
        report.add_row("1")
        save_report(report, tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        assert "figY: saved" in capsys.readouterr().out

    def test_report_command_missing(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 1
        assert "no reports" in capsys.readouterr().err

    def test_report_command_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text("{broken")
        assert main(["report", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_progress_lines_carry_the_unit_label(self, capsys):
        assert main(["run", "fig7", "--runs", "2", "--no-plot"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if " run " in line]
        assert lines == ["  [fig7] [routing] run 1/2", "  [fig7] [routing] run 2/2"]

    @pytest.mark.parametrize("journalled", [False, True])
    def test_interrupt_exits_130_with_one_resume_line(
        self, monkeypatch, tmp_path, capsys, journalled
    ):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_command_run", interrupted)
        argv = ["run", "fig7"]
        if journalled:
            argv += ["--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 130
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("interrupted: ")
        if journalled:
            assert f"journalled under {tmp_path}" in err[0]
            assert "re-run the same command to resume" in err[0]
        else:
            assert "--checkpoint-dir" in err[0]
