"""The README's examples run as written, and every module's __all__ resolves."""

import argparse
import importlib
import importlib.machinery
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import typent
from typent import cli, core, sampler

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
    """scipy's LAPACK module is loaded on first use, so importing typent
    loads no scipy module."""
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
        (["isopurity", "--n", "64", "--beta", "2"], 0, True),
        (["typical", "--n", "8", "--m", "11"], 0, True),
    ],
)
def test_cli_loads_lapack_only_when_a_request_needs_it(argv, rc, lapack):
    """Closed-form purity, a continuum density, help and a usage error never
    load scipy's LAPACK module; an entropy estimate (dsterf), an isopurity
    spectrum (dpteqr) and a typical spectrum with its Newton check (dpotrf)
    load it.  None of them imports the scipy.linalg package."""
    code = (
        "import contextlib, io, sys\n"
        "from typent import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    rc = cli.main({argv!r})\n"
        "print(rc, 'scipy.linalg._flapack' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    assert _fresh_python(code).split() == [str(rc), str(lapack), "False"]


@pytest.mark.parametrize(
    "call",
    [
        *(
            f"assert cli.main({argv!r}) == 0"
            for argv in [
                ["typical", "--n", "8", "--m", "11"],
                ["isopurity", "--n", "64", "--beta", "2"],
                ["isopurity", "--n", "4", "--scan", "20,400,10"],
                ["converge", "--n", "8,16", "--beta", "2"],
                ["density", "--kind", "semicircle", "--beta", "2"],
                ["table", "--n", "2", "--m", "3"],
                SAMPLE + ["entropy"],
                SAMPLE + ["purity"],
                ["sample", "--n", "4", "--m", "6", "--samples", "100", "--histogram-bins", "16"],
            ]
        ),
        "typent.tricomi_residual(typent.marchenko_pastur(), [0.5, 2.0, 3.5])",
        "typent.mean_moments(typent.BipartitionDims(8, 11))",
    ],
)
def test_no_request_loads_scipy_special_or_integrate(call):
    """scipy's compiled LAPACK module is the only scipy code that typent
    loads: every subcommand, the force-balance check and the ensemble
    moments run on closed forms and fixed rules."""
    code = (
        "import contextlib, io, sys\n"
        "import typent\n"
        "from typent import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    {call}\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.special', 'scipy.integrate'))))"
    )
    assert _fresh_python(code).strip() == "[]"


def test_lapack_module_is_shared_with_scipy_linalg_in_either_import_order():
    """typent first: a later `import scipy.linalg` adopts the module typent
    loaded and still works.  scipy.linalg first: typent reuses its module
    and loads no new scipy module."""
    typent_first = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "from typent import cli, core\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({SAMPLE + ['entropy']!r})\n"
        "loaded = sys.modules['scipy.linalg._flapack']\n"
        "import scipy.linalg, scipy.stats\n"
        "c, lower = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))\n"
        "print(scipy.linalg.lapack._flapack is loaded, core.lapack() is loaded,\n"
        "      c[0, 0] == 2.0, scipy.stats.norm.cdf(0.0) == 0.5)"
    )
    assert _fresh_python(typent_first).split() == ["True"] * 4
    scipy_first = (
        "import sys\n"
        "import scipy.linalg\n"
        "from typent import BipartitionDims, core, solve_saddle_numeric, typical_solution\n"
        "before = set(sys.modules)\n"
        "print(core.lapack() is scipy.linalg.lapack._flapack)\n"
        "typical_solution(BipartitionDims(8, 11))\n"
        "solve_saddle_numeric(BipartitionDims(8, 11))\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('scipy')))"
    )
    assert _fresh_python(scipy_first).split() == ["True", "[]"]


def test_lapack_loader_names_the_module_and_directory_it_did_not_find(monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(
        importlib.machinery.PathFinder, "find_spec", classmethod(lambda cls, *a, **k: None)
    )
    core.lapack.cache_clear()
    try:
        with pytest.raises(ImportError) as raised:
            core.lapack()
    finally:
        core.lapack.cache_clear()
    message = str(raised.value)
    assert "scipy.linalg._flapack" in message
    assert os.path.join(scipy.__path__[0], "linalg") in message


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
