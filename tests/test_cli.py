"""CLI entry point."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "table5" in out and "eq1" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Arithmetic-intensity spectrum" in out
        assert "stream" in out

    def test_run_with_csv(self, tmp_path, capsys):
        assert main(["run", "fig4", "--csv-dir", str(tmp_path), "--quiet"]) == 0
        files = list(tmp_path.rglob("*.csv"))
        assert files, "no CSV written"
        assert files[0].parent.name == "fig4"

    def test_quiet_suppresses_render(self, tmp_path, capsys):
        main(["run", "fig4", "--quiet", "--csv-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert "spectrum" not in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err
        assert "valid ids:" in err and "fig6" in err

    def test_unknown_profile_exits_2(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "valid ids:" in capsys.readouterr().err

    def test_unknown_report_id_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "-o", str(out), "fig99"]) == 2
        assert not out.exists()
        assert "valid ids:" in capsys.readouterr().err

    def test_run_trace_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(["run", "fig6", "--quiet", "--trace", str(path)]) == 0
        types = [r["type"] for r in _read_jsonl(path)]
        assert "span" in types and "manifest" in types

    def test_profile_prints_breakdown(self, capsys):
        assert main(["profile", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "self_s" in out
        assert "stepping.curve" in out
        assert "manifest" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_energy_kernel_choices_are_demo_kernels(self):
        from repro.power.ledger import DEMO_KERNELS

        (sub,) = [
            a
            for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        (kernel,) = [
            a for a in sub.choices["energy"]._actions if a.dest == "kernel"
        ]
        assert kernel.choices == ("all", *DEMO_KERNELS)


def _read_jsonl(path):
    import json

    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
