"""The repository's pytest configuration, run on a scratch test file, and the
README against the keys the loader accepts and the configs the repo ships."""

import dataclasses
import importlib.util
import math
import re
import subprocess
import sys
import typing
from pathlib import Path

from spdelab import config

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    # with warnings as errors, a deprecation warning from the hypothesis
    # plugin's report hook ended the session at the first failing @given test
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_configuration_reference_names_every_key():
    # a section's keys are the fields of the dataclass that RunConfig holds it as
    reference = (ROOT / "README.md").read_text().split("## Configuration reference", 1)[1]
    reference = reference.split("\n## ", 1)[0]
    hints = typing.get_type_hints(config.RunConfig)
    missing = []
    for section in config._SECTION_PARSERS:
        [cls] = [t for t in (hints[section], *typing.get_args(hints[section]))
                 if dataclasses.is_dataclass(t)]
        missing += [f"{section}.{f.name}" for f in dataclasses.fields(cls)
                    if f"`{f.name}`" not in reference]
    assert missing == []


# the output comparison script, which owns the config -> command table that
# CI's shipped-config step reads too
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_readme_examples_name_exactly_the_shipped_configs():
    text = (ROOT / "README.md").read_text()
    block = text.split("Example configurations live in `configs/`:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    runs = re.findall(r"^spdelab (\S+) +--config configs/(\S+)\.json", block, re.M)
    names = [name for _, name in runs]
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
    assert sorted(names) == shipped
    for command, name in runs:
        assert command == compare_outputs.command_for(name), name


def _fabricated_trees(root):
    """A base and a head output tree: one byte changed, one column moved by
    1 ulp, one file missing, one file added, and two files that do not
    count: an identical one, and a manifest that differs."""
    base, head = root / "base", root / "head"
    for tree in (base, head):
        (tree / "run_a").mkdir(parents=True)
        (tree / "run_b").mkdir()
    times, mass = [0.0, 0.5, 1.0], [1.0, 0.75, 0.6]
    moved = [math.nextafter(m, math.inf) for m in mass]
    for tree, column in ((base, mass), (head, moved)):
        rows = "".join(f"{t!r},{m!r}\n" for t, m in zip(times, column))
        (tree / "run_a" / "series.csv").write_text("t,mass\n" + rows)
    (base / "run_a" / "verdicts.csv").write_text("mass,verdict\n0.5,tau_infinite\n")
    (head / "run_a" / "verdicts.csv").write_text("mass,verdict\n0.5,tau_infinitf\n")
    (base / "run_b" / "gone.csv").write_text("x\n1.0\n")
    (head / "run_b" / "new.csv").write_text("x\n1.0\n")
    for tree in (base, head):
        (tree / "run_b" / "same.json").write_text('{"c": 4.0}\n')
        (tree / "run_b" / "eigen_manifest.json").write_text(f'{{"at": "{tree.name}"}}\n')
    return base, head


def test_output_comparison_names_every_changed_file(tmp_path):
    base, head = _fabricated_trees(tmp_path)
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "compare", str(base),
         str(head)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 1, run.stderr
    ulp = max((math.nextafter(m, math.inf) - m) / m for m in (1.0, 0.75, 0.6))
    assert run.stdout.splitlines() == [
        "- `run_a/series.csv`: differs",
        f"  - column `mass`: largest relative change {ulp:.3g}",
        "- `run_a/verdicts.csv`: differs",
        "  - column `verdict`: 1 cells differ",
        "- `run_b/gone.csv`: missing",
        "- `run_b/new.csv`: added",
    ]
    same = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "compare", str(base),
         str(base)],
        capture_output=True, text=True, timeout=60,
    )
    assert (same.returncode, same.stdout) == (0, "")


def test_a_difference_is_named_by_its_config_and_file():
    # the workers-2 run is named by its config, blowup_mc
    path = "blowup_mc_workers_2/blowup.csv"
    assert compare_outputs.named(path, ["x", "blowup_mc moved: blowup.csv by 1e-16"])
    assert not compare_outputs.named(path, ["blowup_mc moved", "blowup.csv moved"])
    assert not compare_outputs.named(path, ["blowup_dichotomy: blowup.csv"])
