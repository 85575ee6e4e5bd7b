"""The README's examples run as written, and every module's __all__ resolves."""

import argparse
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import typent
from typent import cli, sampler

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

MODULES = [
    "closedform",
    "cli",
    "continuum",
    "core",
    "coulomb",
    "fixedpurity",
    "orthopoly",
    "sampler",
]


def _fenced_block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.DOTALL)
    assert match is not None, f"no {lang} block under {heading!r}"
    return match.group(1)


COMMANDS = [
    line
    for line in _fenced_block("Command line", "sh").splitlines()
    if line.startswith("typent ")
]


def test_readme_shows_every_subcommand():
    assert {shlex.split(line)[1] for line in COMMANDS} == set(cli._HANDLERS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, capsys):
    code = cli.main(shlex.split(line)[1:])
    err = capsys.readouterr().err
    assert code == 0, err


def test_readme_library_example_runs(capsys):
    exec(compile(_fenced_block("Library example", "python"), "README.md", "exec"), {})
    assert "+/-" in capsys.readouterr().out


def test_readme_layout_lists_exactly_the_modules():
    listed = [line.split()[0] for line in _fenced_block("Layout", "").splitlines()[1:]]
    package = Path(typent.__file__).resolve().parent
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_entries(name):
    module = importlib.import_module(f"typent.{name}")
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    namespace = {}
    exec(f"from typent.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports this typent."""
    env = dict(os.environ, PYTHONPATH=str(Path(typent.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_leaves_scipy_unloaded():
    """Every scipy module is imported on first use (LAPACK, quadrature,
    special functions), so importing typent loads none of them."""
    code = (
        "import sys, typent; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_python(code).strip() == "[]"


SAMPLE = ["sample", "--n", "4", "--m", "6", "--samples", "100", "--functional"]


@pytest.mark.parametrize(
    "argv, rc, lapack",
    [
        (SAMPLE + ["purity"], 0, False),
        (["density", "--kind", "mp"], 0, False),
        (["--help"], 0, False),
        (["sample", "--n", "0", "--m", "6"], 2, False),
        (SAMPLE + ["entropy"], 0, True),
    ],
)
def test_cli_loads_lapack_only_when_a_request_needs_it(argv, rc, lapack):
    """Closed-form purity, a continuum density, help and a usage error never
    load scipy.linalg; an entropy estimate diagonalizes, and loads it."""
    code = (
        "import contextlib, io, sys\n"
        "from typent import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(rc, 'scipy.linalg' in sys.modules)"
    )
    assert _fresh_python(code).split() == [str(rc), str(lapack)]


def test_functional_help_names_exactly_what_the_sampler_accepts():
    parser = cli._build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    option = next(
        a
        for a in commands.choices["sample"]._actions
        if "--functional" in a.option_strings
    )
    listed = option.help.split(";")[0].split(", ")
    with pytest.raises(ValueError) as err:
        sampler._functional("norm")
    expected = str(err.value).split("expected ", 1)[1].replace("or ", "")
    assert listed == expected.split(", ")
    for name in listed:
        for k in (1, 2, 3):
            sampler._functional(name.replace("(k)", f"({k})"))
