#!/usr/bin/env python3
"""Compare the output files of two checkouts of spdelab.

    python tools/compare_outputs.py compare BASE_TREE HEAD_TREE
    python tools/compare_outputs.py check BASE_CHECKOUT [HEAD_CHECKOUT] [--work DIR] [--summary FILE]

``compare`` reports every file of two output trees that differs, is missing
from the head or was added to it, manifests aside, with the largest relative
change in each numeric column, and exits 1 if any file differs. ``check``,
the one gate on output files, runs every shipped config under its command and
each of ``EXTRA_RUNS`` once on the base and twice, under ``-W error``, on
the head, into ``WORK/<pass>/<run>``, all with this interpreter, since
output bytes hold only within one numpy version. It exits 1 if a head run
exits nonzero or writes to stderr, a file differs between the two head
passes, the runs of a ``WORKER_PAIRS`` entry differ, or a file differs from
the base's and no line that the head's CHANGES.md adds to the base's names
the run's config and the file's name (only the config, for a run the base
has no directory of). ``--summary`` appends the report, in markdown, to a
file such as a CI job summary.

The script needs only the standard library.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

# the command each configs/<prefix>*.json runs under
COMMANDS = {
    "eigen_": "eigen",
    "blowup_": "blowup",
    "simulate_": "simulate",
    "certify_": "certify",
    "heat_kernel": "heat-kernel",
}
# runs past one per config, which runs at --workers 1: (run name, config
# name, extra arguments); 2^32 + 5 is a seed of two 32-bit words
EXTRA_RUNS = [
    ("blowup_mc_workers_2", "blowup_mc", ["--workers", "2"]),
    ("blowup_mc_workers_4", "blowup_mc", ["--workers", "4"]),
    ("blowup_mc_two_word_seed", "blowup_mc", ["--seed", "4294967301"]),
    ("blowup_mc_two_word_seed_workers_2", "blowup_mc", ["--seed", "4294967301", "--workers", "2"]),
]
# runs that differ only in --workers, so must write the same files
WORKER_PAIRS = [
    ("blowup_mc", "blowup_mc_workers_2"),
    ("blowup_mc", "blowup_mc_workers_4"),
    ("blowup_mc_two_word_seed", "blowup_mc_two_word_seed_workers_2"),
]

# runs one command of the checkout whose src is argv[1], and refuses to run
# any other installed copy of the package
_RUNNER = """\
import os, sys
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
import spdelab.cli
if not os.path.realpath(spdelab.cli.__file__).startswith(src + os.sep):
    sys.exit(f"imported {spdelab.cli.__file__}, not the checkout at {src}")
sys.exit(spdelab.cli.main(sys.argv[2:]))
"""


def command_for(config: str) -> str:
    """The command that runs the shipped config named ``config``."""
    name = Path(config).stem
    matches = [command for prefix, command in COMMANDS.items() if name.startswith(prefix)]
    if len(matches) != 1:
        raise SystemExit(f"no command runs configs/{name}.json")
    return matches[0]


def config_of(run: str) -> str:
    """The config name of a run directory."""
    return {extra: config for extra, config, _ in EXTRA_RUNS}.get(run, run)


def run_checkout(checkout: Path, out: Path, strict: bool = False) -> list[str]:
    """Run every run of ``checkout`` into out/<run>; return a line for each
    run that did not exit 0 or, if strict, ran under -W error and wrote to
    stderr."""
    configs = checkout / "configs"
    runs = [(path.stem, path.stem, []) for path in sorted(configs.glob("*.json"))]
    failed = []
    for run, config, extra in runs + EXTRA_RUNS:
        path = configs / f"{config}.json"
        argv = [command_for(config), "--config", str(path), "--out", str(out / run), *extra]
        flags = ["-W", "error"] if strict else []
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _RUNNER, str(checkout / "src"), *argv],
            cwd=checkout, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode or (strict and proc.stderr):
            failed.append(f"`{run}` exited {proc.returncode}: {proc.stderr.strip()[-300:]!r}")
    return failed


def output_files(tree: Path) -> dict[str, Path]:
    """Every file under tree but the manifests, keyed by its path in tree."""
    return {
        path.relative_to(tree).as_posix(): path
        for path in sorted(tree.rglob("*"))
        if path.is_file() and not path.name.endswith("_manifest.json")
    }


def _columns(path: Path) -> dict[str, list]:
    """A csv's columns, or a json object's entries as one-cell columns."""
    text = path.read_text()
    if path.suffix == ".json":
        return {key: [value] for key, value in json.loads(text).items()}
    header, *rows = list(csv.reader(text.splitlines())) or [[]]
    return {name: [row[i] if i < len(row) else "" for row in rows] for i, name in enumerate(header)}


def _number(cell):
    if isinstance(cell, bool):
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def describe_change(old: Path, new: Path) -> list[str]:
    """What changed between two versions of one output file, column by
    column: the largest relative change of a numeric column, the count of
    changed cells of any other."""
    try:
        before, after = _columns(old), _columns(new)
    except (ValueError, AttributeError):  # UnicodeDecodeError is a ValueError
        return ["bytes differ; not a csv or a json object"]
    notes = []
    rows_before = max(map(len, before.values()), default=0)
    rows_after = max(map(len, after.values()), default=0)
    if rows_before != rows_after:
        notes.append(f"rows {rows_before} -> {rows_after}")
    for name in [*before, *(k for k in after if k not in before)]:
        if name not in after or name not in before:
            notes.append(f"column `{name}` only in {'base' if name in before else 'head'}")
            continue
        pairs = list(zip(before[name], after[name]))
        numbers = [(_number(a), _number(b)) for a, b in pairs if a != "" or b != ""]
        if numbers and all(a is not None and b is not None for a, b in numbers):
            worst = max(_relative_change(a, b) for a, b in numbers)
            if worst > 0:
                notes.append(f"column `{name}`: largest relative change {worst:.3g}")
        else:
            changed = sum(a != b for a, b in pairs)
            if changed:
                notes.append(f"column `{name}`: {changed} cells differ")
    return notes or ["bytes differ; no value changed"]


def compare_trees(base: Path, head: Path) -> list[tuple[str, str, list[str]]]:
    """(path, status, notes) of each file that is missing, added or differs."""
    old, new = output_files(base), output_files(head)
    diffs = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            diffs.append((path, "missing", []))
        elif path not in old:
            diffs.append((path, "added", []))
        elif old[path].read_bytes() != new[path].read_bytes():
            diffs.append((path, "differs", describe_change(old[path], new[path])))
    return diffs


def added_lines(base_changes: Path, head_changes: Path) -> list[str]:
    """The lines of head_changes that base_changes does not have."""
    old = set(base_changes.read_text().splitlines()) if base_changes.exists() else set()
    return [line for line in head_changes.read_text().splitlines() if line not in old]


def named(path: str, lines: list[str], new_runs=()) -> bool:
    """Whether one of lines names both the run's config and the file, or
    only the config for a run in new_runs."""
    run, _, name = path.partition("/")
    config = config_of(run)
    file = "" if run in new_runs else Path(name).name
    return any(config in line and file in line for line in lines)


def report(diffs, lines=None, new_runs=()) -> list[str]:
    """Markdown lines, one per differing file; empty when none differs.
    With lines, each says whether the CHANGES.md lines name it."""
    out = []
    for path, status, notes in diffs:
        mark = "" if lines is None else ("; named in CHANGES.md" if named(path, lines, new_runs)
                                         else "; NOT named in CHANGES.md")
        out.append(f"- `{path}`: {status}{mark}" + "".join(f"\n  - {n}" for n in notes))
    return out


def _emit(lines: list[str], summary: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    sys.stdout.write(text)
    if summary:
        with open(summary, "a") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("compare", help="report the differences of two output trees")
    p.add_argument("base_tree", type=Path)
    p.add_argument("head_tree", type=Path)
    p = sub.add_parser("check", help="run both checkouts and compare their outputs")
    p.add_argument("base", type=Path)
    p.add_argument("head", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    p.add_argument("--work", type=Path, default=None,
                   help="an empty or new output root, default a new temp dir")
    p.add_argument("--summary", default=None, help="append the markdown report to this file")
    args = parser.parse_args(argv)

    if args.action == "compare":
        lines = report(compare_trees(args.base_tree, args.head_tree))
        _emit(lines, None)
        return 1 if lines else 0

    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    if work.exists() and any(work.iterdir()):
        parser.error(f"--work {work} is not empty; its old outputs would be compared")
    base, head = args.base.resolve(), args.head.resolve()
    failures = {"base": run_checkout(base, work / "base")}
    for side in ("head", "head_rerun"):
        failures[side] = run_checkout(head, work / side, strict=True)
    unstable = [(path, "not reproducible", notes)
                for path, _, notes in compare_trees(work / "head", work / "head_rerun")]
    for one, other in WORKER_PAIRS:
        pair = compare_trees(work / "head" / one, work / "head" / other)
        unstable += [(f"{other}/{path}", f"{status} against `{one}`", notes)
                     for path, status, notes in pair]
    diffs = compare_trees(work / "base", work / "head")
    lines = added_lines(base / "CHANGES.md", head / "CHANGES.md")
    new_runs = {run.name for run in (work / "head").glob("*")} - {
        run.name for run in (work / "base").glob("*")}
    out = ["### Output gate", ""]
    out += [f"- {side} run {line}" for side, failed in failures.items() for line in failed]
    out += report(unstable)
    out += report(diffs, lines, new_runs) or [f"No output file differs, manifests aside ({work})."]
    _emit(out, args.summary)
    unnamed = [path for path, _, _ in diffs if not named(path, lines, new_runs)]
    return 1 if unnamed or unstable or failures["head"] or failures["head_rerun"] else 0


if __name__ == "__main__":
    sys.exit(main())
