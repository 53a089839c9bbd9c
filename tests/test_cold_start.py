"""A one-shot command in a fresh interpreter: the modules it loads and its exit 3.

Each case runs ``python -m shellsym.cli`` as a user would, in its own
interpreter.  A ``sitecustomize`` module prints the package's entries of
``sys.modules`` at exit (``-X importtime`` does not list a submodule that
``from . import name`` loads).  ``shellsym.cli`` itself runs as
``__main__``, so a second compile of it would show up as ``shellsym.cli``.
In-process tests cannot see either: by the time they run, every module is
loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

SYMBOL_LEVEL = {"shellsym", "shellsym.geometry", "shellsym.polymat", "shellsym.symbols"}
EXPLICIT = "theta = 0.5\nzeta = 2\n"
SITECUSTOMIZE = """import atexit, sys
atexit.register(lambda: print(*(m for m in sys.modules if m.split(".")[0] == "shellsym")))
"""


def _run(tmp_path, command, cfg_text, env=ENV):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    return subprocess.run(
        [sys.executable, "-m", "shellsym.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def _package_modules(tmp_path, command, cfg_text) -> set:
    """The package's modules in ``sys.modules`` when the command exits."""
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(site), ENV["PYTHONPATH"]]))
    proc = _run(tmp_path, command, cfg_text, env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


@pytest.mark.parametrize("command, cfg_text, loaded", [
    ("check-ellipticity", "", SYMBOL_LEVEL),
    ("check-ellipticity", "chart = sphere-cap\nchart_params = 2\n", SYMBOL_LEVEL),
    ("check-sl", "", SYMBOL_LEVEL),
    # the layer modes and theta, zeta read geometry alone, not symbols
    ("layer-modes", "", {"shellsym", "shellsym.geometry", "shellsym.layers"}),
    # theta and zeta set: the reduced layer alone
    ("solve-reduced", "N = 16\n" + EXPLICIT, {"shellsym", "shellsym.reduced"}),
    ("sensitivity", "N = 16\n" + EXPLICIT, {"shellsym", "shellsym.reduced"}),
    ("sweep-epsilon", "N = 16\n" + EXPLICIT, {"shellsym", "shellsym.reduced"}),
    ("rescale-demo", "N = 16\n" + EXPLICIT, {"shellsym", "shellsym.reduced"}),
    # theta unset: layers computes it, from geometry
    ("solve-reduced", "N = 16\nzeta = 2\n",
     {"shellsym", "shellsym.geometry", "shellsym.layers", "shellsym.reduced"}),
    # a table of at least _KERNEL_MIN distinct doubles loads the kernel, and
    # the kernel does not compile the front end a second time
    ("sensitivity", "N = 512\nd = 0.05\n" + EXPLICIT,
     {"shellsym", "shellsym.reduced", "shellsym._g17kernel"}),
])
def test_command_loads_only_the_modules_it_reads(tmp_path, command, cfg_text, loaded):
    assert _package_modules(tmp_path, command, cfg_text) == loaded


@pytest.mark.parametrize("command, cfg_text, message", [
    # layers.StructureError: no Jordan profile at the umbilic (ROADMAP item 12)
    ("layer-modes", "b_coeffs = 1,0,1\nelasticity = isotropic\n", "semisimple"),
    # reduced.KernelModeError: the smoothing symbol underflows (item 2)
    ("sensitivity", "d = 1\nN = 400\n" + EXPLICIT, "smoothing symbol vanishes"),
    # symbols.EllipticityError: a subnormal membrane determinant
    ("check-sl", "b_coeffs = 1e-160,0,1e-160\nelasticity = identity\n",
     "non-finite companion pencil"),
])
def test_numerical_failure_of_a_lazily_loaded_module_exits_3(tmp_path, command,
                                                             cfg_text, message):
    proc = _run(tmp_path, command, cfg_text)
    assert proc.returncode == 3, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines
    assert message in lines[0]
    assert not (tmp_path / "out.csv").exists()


ARGPARSE_MODULES = ("argparse", "gettext", "locale")
ARGPARSE_SITECUSTOMIZE = f"""import atexit, sys
atexit.register(lambda: print(*(m for m in {ARGPARSE_MODULES!r} if m in sys.modules)))
"""


def _argparse_modules(tmp_path, argv, cfg_text) -> set:
    """Which of argparse and its imports are in ``sys.modules`` when ``argv`` exits."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(ARGPARSE_SITECUSTOMIZE)
    env = dict(ENV, PYTHONPATH=os.pathsep.join([str(site), ENV["PYTHONPATH"]]))
    proc = subprocess.run(
        [sys.executable, "-m", "shellsym.cli", *(a.format(cfg=cfg) for a in argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "out.csv").exists()
    return set(proc.stdout.split())


@pytest.mark.parametrize("argv, cfg_text", [
    (["check-sl", "--config", "{cfg}"], ""),
    (["check-ellipticity", "--out", "out.csv", "--config", "{cfg}"], ""),
    (["solve-reduced", "--config", "{cfg}", "--out", "out.csv"], "N = 16\n" + EXPLICIT),
], ids=["check-sl", "check-ellipticity", "solve-reduced"])
def test_canonical_command_line_imports_no_argparse(tmp_path, argv, cfg_text):
    assert _argparse_modules(tmp_path, argv, cfg_text) == set()


def test_other_command_lines_go_through_argparse(tmp_path):
    assert "argparse" in _argparse_modules(tmp_path, ["check-sl", "--config={cfg}"], "")


def test_package_exports_resolve_lazily_to_their_submodule_objects():
    code = """
import importlib, sys
import shellsym
loaded = [m for m in sys.modules if m.startswith("shellsym.")]
assert not loaded, loaded
for name in shellsym.__all__:
    value = getattr(shellsym, name)
    if name in shellsym._SUBMODULES:
        assert value is sys.modules["shellsym." + name], name
    else:
        module = importlib.import_module("shellsym." + shellsym._EXPORTS[name])
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
assert set(shellsym.__all__) <= set(dir(shellsym))
namespace = {}
exec("from shellsym import *", namespace)
assert all(namespace[name] is getattr(shellsym, name) for name in shellsym.__all__)
try:
    shellsym.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("missing name resolved")
"""
    subprocess.run([sys.executable, "-c", code], env=ENV, check=True, timeout=60)
