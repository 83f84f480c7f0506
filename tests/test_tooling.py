"""The repository's pytest configuration, run on a scratch test file, and the
README against the keys the loader accepts and the configs the repo ships."""

import dataclasses
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


# the command CI's shipped-config step runs each configs/<prefix>*.json under
SHIPPED_COMMANDS = {
    "eigen_": "eigen",
    "blowup_": "blowup",
    "simulate_": "simulate",
    "certify_": "certify",
    "heat_kernel": "heat-kernel",
}


def test_readme_examples_name_exactly_the_shipped_configs():
    text = (ROOT / "README.md").read_text()
    block = text.split("Example configurations live in `configs/`:", 1)[1]
    block = re.search(r"```sh\n(.*?)```", block, re.S).group(1)
    runs = re.findall(r"^spdelab (\S+) +--config configs/(\S+)\.json", block, re.M)
    names = [name for _, name in runs]
    shipped = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
    assert sorted(names) == shipped
    for command, name in runs:
        [expected] = [run for prefix, run in SHIPPED_COMMANDS.items() if name.startswith(prefix)]
        assert command == expected, name
