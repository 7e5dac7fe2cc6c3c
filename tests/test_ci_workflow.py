"""The CI workflow names only files and commands that exist.

``.github/workflows/ci.yml`` is read as plain text (CI installs only
``.[test]``, so there is no YAML parser to lean on).  Two hazards are
checked: a job that calls a script, bench or test file that has been
deleted or renamed, and a ``python -m repro ...`` line whose command
or flags the CLI no longer accepts.  Either would only surface as a red
CI run after the change that caused it had merged.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A repo path under one of the directories CI drives.
_PATH = re.compile(
    r"(?<![\w./-])((?:scripts|benchmarks|tests|perfbench)/[\w./-]*\w)"
)

#: A ``python [-X opt ...] -m repro`` invocation and everything after it.
_REPRO = re.compile(r"\bpython(?:\s+-X\s+\S+)*\s+-m\s+repro\b(.*)")

#: A shell token that ends the argument list handed to the CLI: a pipe,
#: a command separator or a redirection.
_SHELL_STOP = re.compile(r"\|\|?|&&|;|\d*>|&>")


def _workflow_text() -> str:
    # Join backslash continuations so one command is one line.
    return re.sub(r"\\\n\s*", " ", WORKFLOW.read_text())


def named_paths():
    return sorted(set(_PATH.findall(_workflow_text())))


def repro_invocations():
    commands = []
    for line in _workflow_text().splitlines():
        if line.lstrip().startswith("#"):
            continue
        match = _REPRO.search(line)
        if match is None:
            continue
        argv = []
        for token in shlex.split(match.group(1)):
            if _SHELL_STOP.match(token):
                break
            argv.append(token)
        commands.append(argv)
    return commands


def test_named_paths_exist():
    paths = named_paths()
    assert paths, f"no repo paths found in {WORKFLOW}"
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing, f"{WORKFLOW.name} names missing paths: {missing}"


def test_repro_invocations_parse():
    commands = repro_invocations()
    assert commands, f"no `python -m repro` invocations found in {WORKFLOW}"
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            command = " ".join(argv)
            pytest.fail(f"`python -m repro {command}` does not parse ({exc})")
