"""The demos in demos/ run end to end and tell the story they print."""

import importlib.util
import pathlib

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_end_to_end(capsys):
    out = run_demo("end_to_end", capsys)
    assert "tracked" in out and "3D-PCK@50mm (Total)" in out
    assert "wrote positions.csv and summary.json" in out


def test_smoothing_invariance(capsys):
    out = run_demo("smoothing_invariance", capsys)
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    naive = float(lines["worst deviation, naive position filtering"].split()[0])
    refit = float(lines["worst deviation, filtered-then-refit"].split()[0])
    assert naive > 1.0
    assert refit < 1e-9
