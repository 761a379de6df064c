"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.study import Study


def archive_files(directory):
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["study", "--scale", "0.02"],
            ["report", "--study", "x"],
            ["discover"],
            ["traceroute"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDiscoverCommand:
    def test_runs_and_prints(self, capsys):
        assert main(["discover", "--scale", "0.02", "--seed", "3", "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "servers discovered" in out
        assert "..." in out  # more than the 5-line limit exists


class TestTracerouteCommand:
    def test_prints_hops(self, capsys):
        assert (
            main(
                [
                    "traceroute",
                    "--scale",
                    "0.02",
                    "--seed",
                    "3",
                    "--vantage",
                    "ec2-tokyo",
                    "--server",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "traceroute to ntp-" in out
        assert "ECT(0)" in out

    def test_unknown_vantage_fails(self, capsys):
        assert main(["traceroute", "--scale", "0.02", "--vantage", "nowhere"]) == 2

    def test_server_out_of_range_fails(self, capsys):
        assert (
            main(["traceroute", "--scale", "0.02", "--server", "99999"]) == 2
        )


class TestStudyAndReport:
    def test_study_writes_dataset_and_report(self, tmp_path, capsys):
        out_dir = tmp_path / "study"
        code = main(
            [
                "study",
                "--scale",
                "0.02",
                "--seed",
                "3",
                "--record",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        for name in (
            "manifest.json",
            "traces.json",
            "traceroutes.json",
            "summary.json",
            "traces.csv",
            "report.txt",
            "spans.json",
            "trace.json",
        ):
            assert (out_dir / name).exists(), name
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest == {"scale": 0.02, "seed": 3}
        spans = json.loads((out_dir / "spans.json").read_text())
        assert spans["format"] == "ecn-udp-spans/1"
        stdout = capsys.readouterr().out
        assert "Table 1" in stdout
        assert "Figure 6" in stdout

        # Re-analysing the saved study reproduces the report.
        capsys.readouterr()
        assert main(["report", "--study", str(out_dir)]) == 0
        reread = capsys.readouterr().out
        assert "Table 2" in reread

        # And --dashboard renders the run dashboard next to the data.
        assert main(["report", "--study", str(out_dir), "--dashboard"]) == 0
        dashboard = (out_dir / "dashboard.html").read_text()
        assert dashboard.startswith("<!DOCTYPE html>")
        assert "Phase timing" in dashboard

    def test_profile_requires_out(self, capsys):
        assert main(["study", "--scale", "0.02", "--profile"]) == 2
        assert "--profile needs --out" in capsys.readouterr().err


class TestOnePath:
    """``ecnudp study --out`` is ``Study.run(...).save(out)``, file for file."""

    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            (
                ["--quic", "--chaos", "default", "--metrics"],
                dict(quic=True, faults="default", collect_metrics=True),
            ),
            pytest.param(["--workers", "2"], dict(workers=2), marks=pytest.mark.slow),
        ],
    )
    def test_cli_archive_is_the_library_archive(self, tmp_path, capsys, flags, kwargs):
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        argv = ["study", "--scale", "0.002", "--seed", "3", "--out", str(cli_dir)]
        assert main([*argv, *flags]) == 0
        Study.run(scale=0.002, seed=3, **kwargs).save(lib_dir)
        cli, lib = archive_files(cli_dir), archive_files(lib_dir)
        assert sorted(cli) == sorted(lib)
        assert ("telemetry.json" in cli) == ("collect_metrics" in kwargs)
        for name in cli:
            # telemetry.json carries wall-clock timings: presence only.
            if name != "telemetry.json":
                assert cli[name] == lib[name], name


class TestExitCodes:
    """Validation failures exit 2 with a one-line stderr message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "--scale", "5"],
            ["study", "--scale", "0"],
            ["study", "--scale", "0.1", "--workers", "-1"],
            ["discover", "--scale", "-1"],
            ["validate", "--scale", "99"],
            ["report", "--study", "/nonexistent-study"],
            ["metrics", "--study", "/nonexistent-study"],
            ["serve", "--port", "-1"],
            ["serve", "--workers", "-1"],
            ["serve", "--queue-depth", "0"],
            ["serve", "--tenant-quota", "0"],
            ["serve", "--max-concurrent", "0"],
        ],
    )
    def test_invalid_input_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.strip()

    def test_report_missing_run_id_exits_2(self, tmp_path, capsys):
        assert main(["report", "--run-id", "ghost", "--dir", str(tmp_path)]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_report_corrupt_study_exits_2(self, tmp_path, capsys):
        study = tmp_path / "broken"
        study.mkdir()
        (study / "manifest.json").write_text("{nope")
        assert main(["report", "--study", str(study)]) == 2
        assert "cannot load study" in capsys.readouterr().err


class TestStudiesCommand:
    def test_lists_and_migrates(self, tmp_path, capsys):
        study = tmp_path / "legacy"
        study.mkdir()
        (study / "manifest.json").write_text(json.dumps({"scale": 0.01, "seed": 5}))
        assert main(["studies", "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "legacy" in captured.out
        assert "indexed 1 pre-index archive" in captured.err

        assert main(["studies", "--dir", str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["studies"]["legacy"]["seed"] == 5

    def test_empty_tree(self, tmp_path, capsys):
        assert main(["studies", "--dir", str(tmp_path)]) == 0
        assert "no studies indexed" in capsys.readouterr().out

    def test_corrupt_index_exits_2(self, tmp_path, capsys):
        (tmp_path / "index.json").write_text("{nope")
        assert main(["studies", "--dir", str(tmp_path)]) == 2
        assert "unreadable" in capsys.readouterr().err


class TestServeParser:
    def test_serve_and_studies_subcommands_exist(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0", "--workers", "1"])
        assert callable(serve.func)
        assert serve.queue_depth == 16 and serve.tenant_quota == 4
        studies = parser.parse_args(["studies", "--dir", "x", "--json"])
        assert callable(studies.func)

    def test_report_study_and_run_id_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["report", "--study", "x", "--run-id", "y"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])
