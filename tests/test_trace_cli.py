"""Tests for the CLI (incl. its --trace-dir files)."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph.datasets import load_dataset
from repro.scenarios import SCENARIOS
from repro.training.config import TrainConfig


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        assert parser.parse_args(["datasets"]).command == "datasets"
        args = parser.parse_args(["run", "--dataset", "arxiv", "--epochs", "1"])
        assert args.dataset == "arxiv" and args.epochs == 1

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
            "run", "--scenario", "trainer-flaky",
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
        (["run", "--pipeline", "prefetch", "--cache-tiers", "2"],
         "no effect on the 'prefetch' pipeline; use pipeline 'tiered-cache'"),
        (["run", "--pipeline", "static-cache", "--eviction", "lru"],
         "no effect on the 'static-cache' pipeline"),
        (["run", "--scenario", "steady-poisson", "--pipeline", "baseline",
          "--cache-tiers", "2"], "no effect on the 'baseline' pipeline"),
        (["run", "--staleness", "3"], "--sync bounded-staleness"),
        (["run", "--scenario", "async-staleness", "--sync-period", "2"],
         "--sync local-sgd"),
        # A ValueError under any command is misuse (exit 2), not a crash.
        (["explain", "--scale", "-1"], "scale must be > 0"),
        (["explain", "--scenario", "uniform", "--epochs", "0"], "epochs must be > 0"),
        (["sweep", "--epochs", "0"], "epochs must be > 0"),
        (["sweep", "--gammas", "2.0", "--scale", "0.05", "--epochs", "1"],
         "gamma must lie in the unit interval"),
        (["sweep", "--machines", "0"], "num_machines must be > 0"),
        # Knobs nothing would read are rejected like --staleness, not ignored.
        (["run", "--pipeline", "baseline", "--gamma", "0.9"],
         "--gamma has no effect on the 'baseline' pipeline"),
        (["run", "--mode", "baseline", "--halo-fraction", "0.5"],
         "--halo-fraction has no effect on the 'baseline' pipeline"),
        (["run", "--no-eviction", "--eviction-policy", "lru"],
         "--eviction-policy lru has no effect with --no-eviction"),
        (["run", "--scenario", "steady-poisson", "--mode", "both"],
         "'steady-poisson' is a serving workload"),
        (["run", "--mode", "prefetch", "--pipeline", "static-cache"],
         "--mode prefetch names the 'prefetch' pipeline"),
        # The model flags configure training; a serving scenario never reads them.
        (["run", "--scenario", "steady-poisson", "--arch", "gat"],
         "--arch configures the trained model; scenario 'steady-poisson' is a serving workload"),
        (["run", "--scenario", "steady-poisson", "--hidden-dim", "32"],
         "--hidden-dim configures the trained model"),
        (["run", "--scenario", "flash-crowd-burst", "--evaluate"],
         "--evaluate configures the trained model"),
        # Cache flags edit the scenario's recipe, so CacheConfig's own check runs.
        (["run", "--scenario", "cache-churn", "--cache-tiers", "1"], "requires tiers=2"),
        (["tune", "--scenario", "uniform", "--axis", "dataset=mnist"],
         "axis 'dataset' takes one of arxiv, papers, products, reddit, got 'mnist'"),
        (["tune", "--scenario", "uniform", "--axis", "fanouts=4 six"],
         "axis 'fanouts' takes ints values, got '4 six'"),
        (["tune", "--scenario", "uniform", "--axis", "sampler=legacy,vectorized"], REMOVED),
        # The process-pool flags and axes are gone.  argparse's own
        # unrecognised-argument exit (fragment None) prints usage, not one line.
        (["run", "--execution-backend", "process-pool"], None),
        # --no-eviction is the one no-eviction switch; 'none' is not a policy.
        (["run", "--eviction-policy", "none"], None),
        (["run", "--workers", "2"], None),
        (["tune", "--scenario", "uniform", "--axis", "workers=1,2"],
         "unknown tuning axis 'workers'"),
        (["tune", "--scenario", "uniform", "--axis", "execution_backend=process-pool"],
         "unknown tuning axis 'execution_backend'"),
        # The experiment index lives in docs/PAPER_MAP.md and the paper-table
        # golden test; the sub-command that printed a third copy is gone.
        (["experiments"], None),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_misuse_exits_2_with_one_line(self, capsys, argv, fragment):
        """Every rejected invocation: exit code 2, one ``error:`` line, no traceback.

        A refusal of the invocation itself comes before any work: nothing is
        printed on stdout (no scenario header from a built cluster)."""
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
            assert captured.out == ""

    def test_eviction_policy_none_lists_the_registered_policies(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--eviction-policy", "none"] + self.TINY)
        assert exit_info.value.code == 2
        (error,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert "argument --eviction-policy: invalid choice: 'none'" in error
        choices = error.split("(choose from ")[1].rstrip(")").replace("'", "")
        assert choices.split(", ") == ["lru", "random", "score-threshold"]

    @pytest.mark.parametrize("scenario", ["uniform", "async-staleness", "steady-poisson"])
    def test_cluster_flag_is_gone(self, capsys, scenario):
        """--cluster, once a hidden no-op, is now an unrecognised argument."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--scenario", scenario, "--cluster"] + self.TINY)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --cluster" in captured.err

    @pytest.mark.parametrize("value", ["vectorized", "legacy"])
    def test_sampler_flag_is_gone(self, capsys, value):
        """--sampler, hidden since its knob went, is now an unrecognised argument,
        its one no-op value included; the knob itself still answers presets."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--sampler", value] + self.TINY)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --sampler {value}" in captured.err

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
            "run", "--scenario", "async-staleness",
            "--staleness", "4", "--scale", "0.05", "--epochs", "1",
        ])
        assert code == 0
        assert "bounded-staleness(K=4)" in capsys.readouterr().out


# A legal value per `repro run` knob flag: (argv tail, axis value, scenario).
# The staleness and sync-period flags need a recipe whose sync policy reads them.
RUN_FLAG_VALUES = {
    "--dataset": (["arxiv"], "arxiv", "uniform"),
    "--scale": (["0.5"], 0.5, "uniform"),
    "--pipeline": (["static-cache"], "static-cache", "uniform"),
    "--eviction-policy": (["lru"], "lru", "uniform"),
    "--rpc": (["batched"], "batched", "uniform"),
    "--cache-tiers": (["2"], 2, "uniform"),
    "--admission": (["always"], "always", "uniform"),
    "--eviction": (["clock"], "clock", "uniform"),
    "--adaptive-cache": ([], True, "steady-poisson"),
    "--engine": (["async"], "async", "uniform"),
    "--sync": (["local-sgd"], "local-sgd", "uniform"),
    "--staleness": (["3"], 3, "async-staleness"),
    "--sync-period": (["2"], 2, "congested-link"),
    "--backend": (["gpu"], "gpu", "uniform"),
    "--machines": (["3"], 3, "straggler-machine"),
    "--trainers-per-machine": (["1"], 1, "uniform"),
    "--batch-size": (["32"], 32, "uniform"),
    "--fanouts": (["4", "6"], (4, 6), "uniform"),
    "--epochs": (["2"], 2, "uniform"),
    "--halo-fraction": (["0.5"], 0.5, "uniform"),
    "--gamma": (["0.9"], 0.9, "uniform"),
    "--delta": (["4"], 4, "uniform"),
    "--no-eviction": ([], False, "uniform"),
}


class TestKnobTable:
    """One table, one meaning: a flag sets exactly what its axis sets."""

    def test_every_run_knob_flag_has_a_case(self):
        from repro.cli import KNOB_FLAGS
        assert sorted(RUN_FLAG_VALUES) == sorted(KNOB_FLAGS["run"])

    @pytest.mark.parametrize("flag", sorted(RUN_FLAG_VALUES))
    def test_flag_resolves_like_with_overrides(self, flag):
        from repro.cli import KNOB_FLAGS, _resolve_run_scenario
        tail, value, scenario = RUN_FLAG_VALUES[flag]
        args = build_parser().parse_args(["run", "--scenario", scenario, flag, *tail])
        axis = KNOB_FLAGS["run"][flag][0]
        resolved, knobs = _resolve_run_scenario(args)
        assert list(knobs) == [axis]
        assert resolved == SCENARIOS.build(scenario).with_overrides(**{axis: value})
        assert resolved != SCENARIOS.build(scenario)

    def test_no_axis_backed_flag_is_parsed_outside_the_table(self):
        from repro.cli import KNOB_FLAGS
        from repro.scenarios.knobs import AXES
        knob_dests = {spec.field for spec in AXES.values()} | {
            flag[2:].replace("-", "_") for rows in KNOB_FLAGS.values() for flag in rows
        }
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        for command, sub in commands.items():
            for action in sub._actions:
                if action.dest in knob_dests:
                    assert set(action.option_strings) <= set(KNOB_FLAGS.get(command, {})), (
                        f"repro {command} {action.option_strings} sets a knob outside KNOB_FLAGS"
                    )

    def test_preset_and_the_same_flags_print_the_same_run(self, capsys):
        """low-p99-serving is flash-crowd-burst + clock eviction + 4 workers."""
        tiny = ["--scale", "0.05"]
        assert main(["run", "--preset", "low-p99-serving", *tiny]) == 0
        header, _, preset_run = capsys.readouterr().out.partition("\n\n")
        assert header.startswith("preset 'low-p99-serving'")
        assert main(["run", "--scenario", "flash-crowd-burst", "--eviction", "clock",
                     "--trainers-per-machine", "4", *tiny]) == 0
        assert capsys.readouterr().out == preset_run
