"""Tests for the experiment registry and the CLI (incl. its --trace-dir files)."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.datasets import load_dataset
from repro.scenarios import SCENARIOS
from repro.training.config import TrainConfig
from repro.training.trace import EXPERIMENTS, get_experiment, list_experiments


class TestExperimentRegistry:
    def test_all_paper_experiments_registered(self):
        ids = set(EXPERIMENTS)
        expected = {"table2", "table3", "table4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "perfmodel"}
        assert expected <= ids

    def test_bench_targets_exist_on_disk(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for spec in list_experiments():
            assert (root / spec.bench_target).exists(), spec.bench_target

    def test_modules_are_importable(self):
        import importlib

        for spec in list_experiments():
            for module in spec.modules:
                importlib.import_module(module)

    def test_get_experiment(self):
        assert get_experiment("fig6").paper_reference == "Fig. 6"
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_is_sorted_and_stable(self):
        ids = [s.experiment_id for s in list_experiments()]
        assert ids == sorted(ids)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for command in ("datasets", "experiments"):
            assert parser.parse_args([command]).command == command
        args = parser.parse_args(["run", "--dataset", "arxiv", "--epochs", "1"])
        assert args.dataset == "arxiv" and args.epochs == 1

    def test_experiments_command(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "bench_fig6_training_time.py" in out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "arxiv" in out and "602" in out  # reddit's feature dim appears

    SMALL = ["--dataset", "arxiv", "--scale", "0.15", "--epochs", "1",
             "--machines", "2", "--trainers-per-machine", "1", "--batch-size", "64",
             "--fanouts", "4", "6", "--hidden-dim", "16"]

    def test_run_command_both_modes_with_traces(self, capsys, tmp_path):
        assert main(["run", "--mode", "both", "--trace-dir", str(tmp_path)] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "[baseline]" in out and "[prefetch]" in out and "improvement" in out
        baseline = json.loads((tmp_path / "cluster_uniform_baseline.json").read_text())
        prefetch = json.loads((tmp_path / "cluster_uniform.json").read_text())
        assert (baseline["mode"], prefetch["mode"]) == ("baseline", "prefetch")
        assert baseline["hit_rate"] is None and prefetch["hit_rate"] > 0
        assert len(prefetch["trainers"]) == 2

    def test_run_command_baseline_only(self, capsys):
        assert main(["run", "--mode", "baseline"] + self.SMALL) == 0
        out = capsys.readouterr().out
        assert "[baseline]" in out and "[prefetch]" not in out

    def test_bare_run_is_the_uniform_scenario(self, capsys):
        """No --mode: the scenario's own pipeline, one leg, no comparison."""
        assert main(["run", "--scale", "0.05", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenario 'uniform'" in out and "[prefetch] critical path" in out
        assert "[baseline]" not in out and "improvement" not in out

    def test_mode_both_matches_two_workload_runs(self, capsys):
        """`--mode both` is the comparison: baseline, then the scenario's pipeline, one workload."""
        assert main(["run", "--mode", "both", "--seed", "3"] + self.SMALL) == 0
        printed = re.search(r"improvement: (-?[0-9.]+)%", capsys.readouterr().out).group(1)
        workload = SCENARIOS.build("uniform").with_overrides(
            trainers_per_machine=1, fanouts=(4, 6)
        ).materialize(
            3,
            # The CLI's TrainConfig for these flags.
            train_config=TrainConfig(epochs=1, hidden_dim=16, seed=3),
            dataset=load_dataset("arxiv", scale=0.15, seed=3),
        )
        baseline = workload.run("baseline").report
        prefetch = workload.run().report
        assert printed == f"{prefetch.improvement_percent_vs(baseline):.1f}"

    def test_sweep_command(self, capsys):
        code = main([
            "sweep", "--dataset", "arxiv", "--scale", "0.15", "--epochs", "1",
            "--machines", "2", "--batch-size", "64",
            "--halo-fractions", "0.25", "--gammas", "0.995", "--deltas", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal:" in out


class TestAsyncEngineCLI:
    """CLI coverage for the event-driven backend and the scenario catalog."""

    def test_scenarios_markdown(self, capsys):
        assert main(["scenarios", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<!-- Generated by `repro scenarios --markdown`")
        assert "| `trainer-flaky` |" in out and "bounded-staleness(K=3)" in out

    def test_scenarios_plain_lists_execution(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "execution" in out and "async · local-sgd(H=4)" in out

    def test_engine_async_implies_cluster(self, capsys):
        code = main([
            "run", "--engine", "async", "--sync", "bounded-staleness",
            "--staleness", "2", "--scale", "0.05", "--epochs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'uniform'" in out
        assert "execution=async · bounded-staleness(K=2)" in out
        assert "async sync: policy bounded-staleness(K=2)" in out

    def test_sync_flag_alone_selects_async_backend(self, capsys):
        code = main([
            "run", "--sync", "local-sgd", "--sync-period", "2",
            "--scale", "0.05", "--epochs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "async sync: policy local-sgd(H=2)" in out

    def test_flaky_scenario_reports_failures(self, capsys):
        code = main([
            "run", "--cluster", "--scenario", "trainer-flaky",
            "--scale", "0.05", "--epochs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failures" in out and "downtime" in out

    TINY = ["--scale", "0.05", "--epochs", "1"]
    REMOVED = "was removed; 'vectorized' is the only"

    @pytest.mark.parametrize("argv, fragment", [
        (["run", "--engine", "lockstep", "--sync", "bounded-staleness"], "event-driven"),
        (["run", "--engine", "lockstep", "--sync", "local-sgd"],
         "the 'lockstep' engine does not take sync (got 'local-sgd')"),
        (["run", "--pipeline", "baseline", "--cache-tiers", "2"],
         "no effect on the 'baseline' pipeline"),
        (["run", "--cluster", "--pipeline", "static-cache", "--eviction", "lru"],
         "no effect on the 'static-cache' pipeline"),
        (["run", "--cluster", "--scenario", "steady-poisson", "--pipeline", "baseline",
          "--cache-tiers", "2"], "no effect on the 'baseline' pipeline"),
        (["run", "--staleness", "3"], "--sync bounded-staleness"),
        (["run", "--cluster", "--scenario", "async-staleness", "--sync-period", "2"],
         "--sync local-sgd"),
        # A ValueError under any command is misuse (exit 2), not a crash.
        (["explain", "--scale", "-1"], "scale must be > 0"),
        (["explain", "--scenario", "uniform", "--epochs", "0"], "epochs must be > 0"),
        (["sweep", "--epochs", "0"], "epochs must be > 0"),
        (["sweep", "--gammas", "2.0", "--scale", "0.05", "--epochs", "1"],
         "gamma must lie in the unit interval"),
        (["sweep", "--machines", "0"], "num_machines must be > 0"),
        # Knobs nothing would read are rejected like --staleness, not ignored.
        (["run", "--cluster", "--pipeline", "baseline", "--gamma", "0.9"],
         "--gamma has no effect on the 'baseline' pipeline"),
        (["run", "--mode", "baseline", "--halo-fraction", "0.5"],
         "--halo-fraction has no effect on the 'baseline' pipeline"),
        (["run", "--no-eviction", "--eviction-policy", "lru"],
         "--eviction-policy lru has no effect with --no-eviction"),
        (["run", "--scenario", "steady-poisson", "--mode", "both"],
         "'steady-poisson' is a serving workload"),
        (["run", "--mode", "prefetch", "--pipeline", "static-cache"],
         "--mode prefetch names the 'prefetch' pipeline"),
        (["run", "--sampler", "legacy"], REMOVED),
        (["run", "--sampler", "choice", "--cluster"], REMOVED),
        (["run", "--sampler", "loop", "--cluster", "--scenario", "hot-halo"], REMOVED),
        (["run", "--sampler", "reference", "--engine", "async"], REMOVED),
        (["run", "--sampler", "turbo"], "unknown neighbor sampler 'turbo'; valid names: vectorized"),
        (["tune", "--scenario", "uniform", "--axis", "sampler=legacy,vectorized"], REMOVED),
        # The process-pool flags and axes are gone.  argparse's own
        # unrecognised-argument exit (fragment None) prints usage, not one line.
        (["run", "--execution-backend", "process-pool"], None),
        (["run", "--cluster", "--workers", "2"], None),
        (["tune", "--scenario", "uniform", "--axis", "workers=1,2"],
         "unknown tuning axis 'workers'"),
        (["tune", "--scenario", "uniform", "--axis", "execution_backend=process-pool"],
         "unknown tuning axis 'execution_backend'"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_misuse_exits_2_with_one_line(self, capsys, argv, fragment):
        """Every rejected invocation: exit code 2, one ``error:`` line, no traceback."""
        argv = argv + (self.TINY if argv[0] == "run" else [])
        if fragment is None:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        else:
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        if fragment is not None:
            lines = captured.err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]

    @pytest.mark.parametrize("scenario", ["uniform", "async-staleness", "steady-poisson"])
    def test_cluster_flag_is_a_no_op(self, capsys, scenario):
        """--cluster is a hidden alias of nothing: stdout is byte-identical."""
        argv = ["run", "--scenario", scenario] + self.TINY
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--cluster"]) == 0
        assert capsys.readouterr().out == plain
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert "--cluster" not in capsys.readouterr().out

    def test_mode_both_accepts_prefetch_knobs(self, capsys):
        """With --mode both the knobs apply to the second leg."""
        assert main(["run", "--mode", "both", "--gamma", "0.9"] + self.TINY) == 0
        out = capsys.readouterr().out
        assert "[baseline]" in out and "[prefetch]" in out

    def test_preset_naming_a_removed_sampler_exits_2(self, capsys, tmp_path):
        committed = Path(__file__).parent.parent / "presets" / "throughput-straggler.json"
        payload = json.loads(committed.read_text())
        payload["overrides"]["sampler"] = "legacy"
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        assert main(["run", "--preset", str(stale)] + self.TINY) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and self.REMOVED in err and "\n" not in err

    @pytest.mark.parametrize("field, value", [
        ("execution_backend", "process-pool"), ("workers", 2),
    ])
    def test_preset_naming_a_removed_pool_field_exits_2(self, capsys, tmp_path, field, value):
        committed = Path(__file__).parent.parent / "presets" / "throughput-straggler.json"
        payload = json.loads(committed.read_text())
        payload["overrides"][field] = value
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        assert main(["run", "--preset", str(stale)] + self.TINY) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and f"unknown tuning axis {field!r}" in err
        assert "\n" not in err

    def test_staleness_applies_on_staleness_scenario(self, capsys):
        code = main([
            "run", "--cluster", "--scenario", "async-staleness",
            "--staleness", "4", "--scale", "0.05", "--epochs", "1",
        ])
        assert code == 0
        assert "bounded-staleness(K=4)" in capsys.readouterr().out
