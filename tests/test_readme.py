"""The README's contract: its library-tour code, its transcripts and the flags it names."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from algstat import run
from algstat.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _transcripts():
    """(argv, expected stdout lines) for every `$ algstat ...` line."""
    lines = README.splitlines()
    out = []
    for k, line in enumerate(lines):
        if not line.startswith("$ algstat "):
            continue
        expected = []
        for follow in lines[k + 1:]:
            if not follow or follow.startswith("$ ") or follow.startswith("```"):
                break
            expected.append(follow)
        out.append((shlex.split(line[len("$ algstat "):]), expected))
    return out


def _python_blocks():
    """The source of every ```python block."""
    return re.findall(r"^```python\n(.*?)^```$", README, flags=re.S | re.M)


def _claim(source):
    """What a block ending in `print(...)  # value` says it prints last, or None."""
    last = source.rstrip().splitlines()[-1]
    claim = re.fullmatch(r"print\(.*\)\s+#\s*(\S+)", last)
    return claim and claim.group(1)


def _cli_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *sub.choices.values()]
    return {opt for p in parsers for a in p._actions for opt in a.option_strings}


TRANSCRIPTS = _transcripts()
PYTHON_BLOCKS = _python_blocks()


def test_readme_has_transcripts():
    assert len(TRANSCRIPTS) >= 6


@pytest.mark.parametrize(
    "argv, expected", TRANSCRIPTS, ids=[" ".join(argv[:2]) for argv, _ in TRANSCRIPTS]
)
def test_readme_transcript(capsys, argv, expected):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == expected


def test_readme_has_python_blocks():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("source", PYTHON_BLOCKS, ids=[f"block{k}" for k in range(len(PYTHON_BLOCKS))])
def test_readme_python_block(capsys, source):
    exec(compile(source, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out
    if _claim(source) is not None:
        assert out.splitlines()[-1] == _claim(source)


def test_readme_tour_claims_ml_degree():
    tour = next(b for b in PYTHON_BLOCKS if "ml_degree(a)" in b)
    assert _claim(tour) == "3"


def test_readme_flags_exist():
    # pip's own flags are not the CLI's
    named = {
        flag
        for line in README.splitlines()
        if "pip install" not in line
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", line)
    }
    assert named
    assert named <= _cli_flags(), sorted(named - _cli_flags())
