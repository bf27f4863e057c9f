"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCli:
    def test_list_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_list_explicit(self, capsys):
        assert main(["list"]) == 0
        assert "table2" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "F-COO" in out

    def test_platform_table(self, capsys):
        assert main(["table3"]) == 0
        assert "Titan X" in capsys.readouterr().out

    def test_multiple_experiments(self, capsys):
        assert main(["table3", "table4"]) == 0
        out = capsys.readouterr().out
        assert "Titan X" in out and "brainq" in out

    def test_rank_option(self, capsys):
        assert main(["fig9", "--rank", "8"]) == 0
        assert "rank=8" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure42"])
        assert exc.value.code != 0
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_registry_covers_all_bench_artifacts(self):
        expected = {
            "table2", "table3", "table4", "table5",
            "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
            "streaming", "scaling", "serve",
        }
        assert set(EXPERIMENTS) == expected

    def test_serve_zero_jobs(self, capsys):
        assert main(["serve", "--jobs", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 submitted" in out
        assert "0 completed" in out

    def test_serve_chaos_run(self, capsys):
        assert main(
            ["serve", "--jobs", "20", "--nodes", "2", "--chaos-seed", "4"]
        ) == 0
        assert "node losses" in capsys.readouterr().out

    def test_serve_multinode_smoke(self, capsys):
        assert main(["serve", "--jobs", "10", "--nodes", "2"]) == 0
        assert "Serving report" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", [["--adaptive"], ["--autoscale", "1"]], ids=["adaptive", "autoscale"]
    )
    def test_deleted_serve_flag_is_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flag])
        assert exc.value.code != 0
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_chaos_seed_requires_multinode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--chaos-seed", "1"])
        assert exc.value.code != 0
        assert "--nodes >= 2" in capsys.readouterr().err

    def test_chaos_seed_requires_serve(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table2", "--chaos-seed", "1", "--nodes", "2"])
        assert exc.value.code != 0
        assert "serve" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig6b", "--rank", "0"],
            ["fig8", "--rank", "-1"],
            ["fig10", "--iterations", "0"],
            ["serve", "--jobs", "-5"],
            ["serve", "--seed", "-1"],
            ["serve", "--nodes", "2", "--chaos-seed", "-4"],
            ["serve", "--nodes", "-1"],
            ["scaling", "--nodes", "-2"],
            ["serve", "--nodes", "2", "--chaos-seed", "0", "--fail-node", "5"],
            ["serve", "--nodes", "2", "--chaos-seed", "0", "--fail-node", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_numeric_flag_is_a_usage_error(self, capsys, argv):
        # The last flag of `argv` has the bad value.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error:" in message and argv[-2] in message

    def test_fail_node_requires_chaos_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--nodes", "2", "--fail-node", "0"])
        assert exc.value.code != 0
        assert "--chaos-seed" in capsys.readouterr().err

    def test_serve_writes_metrics_and_events(self, capsys, tmp_path):
        metrics = tmp_path / "out.prom"
        events = tmp_path / "events.jsonl"
        assert main(
            [
                "serve", "--jobs", "10",
                "--metrics", str(metrics),
                "--events", str(events),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert str(metrics) in out and str(events) in out
        text = metrics.read_text()
        assert "# TYPE repro_serve_jobs_total counter" in text
        assert text.endswith("\n")
        lines = events.read_text().splitlines()
        assert lines
        import json

        from repro.obs.events import EVENT_SCHEMA_VERSION

        assert all(json.loads(line)["v"] == EVENT_SCHEMA_VERSION for line in lines)

    @pytest.mark.parametrize("flag", ["--metrics", "--events"])
    def test_telemetry_flags_require_serve(self, capsys, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["table2", flag, str(tmp_path / "x")])
        assert exc.value.code != 0
        assert "serve" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--metrics", "--events", "--trace"])
    def test_output_paths_validated_up_front(self, capsys, flag, tmp_path):
        bad = tmp_path / "missing-dir" / "out"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--jobs", "1", flag, str(bad)])
        assert exc.value.code != 0
        assert "cannot write" in capsys.readouterr().err
