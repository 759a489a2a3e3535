"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.runs == 5
        assert "iris" in args.datasets

    def test_figure5_base_size(self):
        args = build_parser().parse_args(["figure5", "--base-size", "1000"])
        assert args.base_size == 1000

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])


class TestExecution:
    def test_demo(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "UCPC" in out
        assert "F-measure" in out

    def test_table2_tiny(self, capsys):
        code = main(
            [
                "table2",
                "--datasets", "iris",
                "--families", "normal",
                "--algorithms", "UKM", "UCPC",
                "--runs", "1",
                "--max-objects", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "overall avg" in out

    def test_figure5_tiny(self, capsys):
        code = main(["figure5", "--base-size", "200", "--runs", "1"])
        assert code == 0
        assert "scalability" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--runs", "1",
                "--max-objects", "40",
                "--base-size", "200",
                "--output", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        text = out_file.read_text()
        assert "Table 2" in text
        assert "Figure 5" in text


def test_parser_setup_does_not_import_quadrature():
    """``scipy.integrate`` is needed only by the quadrature cross-checks,
    so building the CLI parser must not pay for importing it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, repro.cli; repro.cli.build_parser(); "
        "print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
