"""Smoke tests: the runnable examples and the CLI's planner surface."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "OK" in out and "MISMATCH" not in out

    def test_pim_model_comparison(self, capsys):
        run_example("pim_model_comparison.py")
        out = capsys.readouterr().out
        assert "Table 5.4" in out
        assert "UPMEM" in out and "LACC" in out

    def test_dpu_profiling_tour(self, capsys):
        run_example("dpu_profiling_tour.py")
        out = capsys.readouterr().out
        assert "12064" in out      # the fp division row
        assert "1049" in out       # the Eq. 3.4 worked example

    def test_design_space(self, capsys):
        run_example("design_space.py")
        out = capsys.readouterr().out
        assert "Pareto front" in out

    def test_ebnn_mnist(self, capsys):
        run_example("ebnn_mnist.py")
        out = capsys.readouterr().out
        assert "PIM == CPU baseline" in out

    def test_ebnn_training(self, capsys):
        run_example("ebnn_training.py")
        out = capsys.readouterr().out
        assert "train accuracy 100.0%" in out
        assert "identical to the host model: True" in out

    def test_deep_ebnn(self, capsys):
        run_example("deep_ebnn.py")
        out = capsys.readouterr().out
        assert "[-72, 72]" in out  # block 2's widened LUT range
        assert "generalizes to any depth" in out


class TestCliPlan:
    def test_plan_ebnn(self, capsys):
        from repro.cli import main

        assert main(["plan", "ebnn"]) == 0
        out = capsys.readouterr().out
        assert "multi-image-per-dpu" in out
        assert "16 tasklets" in out

    def test_plan_yolo_scaled(self, capsys):
        from repro.cli import main

        assert main(["plan", "yolov3", "--width-scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "gemm-row-per-dpu" in out
        assert "75 mapped stages" in out

    def test_plan_rejects_unknown_network(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["plan", "resnet"])

    def test_run_new_experiments(self, capsys):
        from repro.cli import main

        for experiment in ("energy_comparison", "future_multi_image_yolo"):
            assert main(["run", experiment]) == 0
        out = capsys.readouterr().out
        assert "EDP" in out
        assert "whole-image" in out.lower() or "whole" in out
