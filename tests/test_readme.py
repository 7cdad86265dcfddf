"""The README's configuration section states the config tree and the fixed
constants; these tests keep it in line with the code."""

import functools
import importlib
import json
import pathlib
import re

from mocapfuse.pipeline import PipelineConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# A stated constant: `module.NAME` = value (NAME may be a dotted path, such
# as a dataclass default `ik.IkSettings.residual_tol`).
STATED = re.compile(
    r"`(\w+)\.([\w.]+)`\s*=\s*([-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def configuration_section():
    text = README.read_text(encoding="utf-8")
    return text.split("## Configuration", 1)[1].split("\n## ", 1)[0]


def test_config_block_is_the_default_tree():
    block = configuration_section().split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == PipelineConfig().to_dict()


def test_stated_constants_match_the_code():
    stated = STATED.findall(README.read_text(encoding="utf-8"))
    for module, path, value in stated:
        owner = importlib.import_module(f"mocapfuse.{module}")
        actual = functools.reduce(getattr, path.split("."), owner)
        assert actual == float(value), \
            f"{module}.{path} is {actual}, README says {value}"
    names = {f"{module}.{path}" for module, path, _ in stated}
    assert {"ik.LAMBDA0", "ik.TRANSLATION_SCALE", "ik.ANCHOR",
            "ik.DECREASE_EPS", "tracker.TILT_THRESHOLD_DEG",
            "calib.UNDISTORT_ITERATIONS"} <= names
