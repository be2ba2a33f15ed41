"""SciPy is imported on first use, not at import time.

Each SciPy name the package calls is imported inside the one function that
calls it, so importing the package runs no SciPy import. These tests check
that importing the package, and commands that need only NumPy, load no
`scipy` module (in a fresh interpreter); that no module of the package
imports SciPy at module scope, and the function-level SciPy imports are
exactly the known call sites; and that driving each call site's public
function once loads its SciPy subpackage. Admitting a medium loads no
`numpy.random` either: only the superbarrier check's seeded sample does.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# (module, function) -> the SciPy names it imports
CALL_SITES = {
    ("barriers", "_brentq"): {("scipy.optimize", "brentq")},
    ("geometry", "xi_samples"): {("scipy.special", "ndtri")},
    ("homog1d", "traveling_wave_oracle"): {("scipy.integrate", "quad")},
    ("hs2d", "hausdorff"): {("scipy.spatial", "cKDTree")},
    ("timescale", "lambert_w0"): {("scipy.special", "lambertw")},
    ("timescale", "_rescale"): {("scipy.special", "wrightomega")},
}


def fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter with the checkout's src first."""
    prelude = ("import sys\n"
               "def scipy_loaded():\n"
               "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    out = fresh("import hele_homog\n"
                "print(scipy_loaded())\n"
                "import hele_homog.cli\n"
                "print(scipy_loaded())\n")
    assert out.split("\n") == ["[]", "[]", ""]


def test_numpy_only_commands_load_no_scipy():
    out = fresh("import contextlib, io\n"
                "from hele_homog.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    codes = [main(['medium', 'check', '--medium', 'builtin:pinning']),\n"
                "             main(['rq', 'curve', '--medium', 'builtin:pinning', '--qmin', '0.3',\n"
                "                   '--qmax', '1.5', '--samples', '4', '--T', '20'])]\n"
                "print(codes, scipy_loaded())\n")
    assert out == "[0, 0] []\n"


def test_flat_sim2d_loads_no_scipy_and_a_curved_one_no_fft():
    # the fast Poisson solve and the GMRES a curved front needs are NumPy
    # alone, so neither run loads any SciPy module
    out = fresh("import contextlib, io\n"
                "from hele_homog.cli import main\n"
                "def run(medium):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        return main(['sim2d', 'run', '--medium', medium, '--dim', '2',\n"
                "                     '--Lx', '4', '--Ly', '1', '--nx', '16', '--ny', '8',\n"
                "                     '--eps', '0.5', '--T', '0.05', '--h0', '1'])\n"
                "print(run('1'), scipy_loaded())\n"
                "print(run('1 + sin(pi*y)^2/2'), scipy_loaded())\n")
    assert out == "0 []\n0 []\n"


def test_admission_loads_no_numpy_random():
    # the contract samples fixed Kronecker points; only a sampler that takes
    # the user's seed loads NumPy's generator
    out = fresh("import contextlib, io\n"
                "from hele_homog.cli import main\n"
                "from hele_homog.medium import _admit, parse_medium\n"
                "def run(*argv):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        code = main(list(argv))\n"
                "    print(code, 'numpy.random' in sys.modules)\n"
                "run('medium', 'check', '--medium', 'builtin:pinning')\n"
                "run('rq', 'curve', '--medium', 'builtin:pinning', '--qmin', '0.3',\n"
                "    '--qmax', '1.5', '--samples', '4', '--T', '20')\n"
                "run('rq', 'candidates', '--medium', 'builtin:pinning', '--q', '0.75')\n"
                "for medium in ('1', '1 + sin(pi*y)^2/2'):\n"
                "    run('sim2d', 'run', '--medium', medium, '--dim', '2', '--Lx', '4',\n"
                "        '--Ly', '1', '--nx', '16', '--ny', '8', '--eps', '0.5', '--T', '0.05',\n"
                "        '--h0', '1')\n"
                "_admit(parse_medium('2 + sin(2*pi*(x3 - t))', 3), 3)\n"
                "print('numpy.random' in sys.modules)\n"
                "run('barrier', 'verify', '--kind', 'superbarrier', '--n', '2', '--M', '1.2',\n"
                "    '--mu', '1', '--chi0', '1', '--kappa', '0.01', '--t', '-0.1',\n"
                "    '--medium', '1', '--samples', '64')\n")
    assert out == "0 False\n" * 5 + "False\n0 True\n"


def _scipy_imports(tree: ast.Module):
    """(function name or None at module scope, module, name) of every import
    of a scipy module in tree; None also covers class bodies and if-blocks."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "scipy":
                found.extend((function, child.module, a.name) for a in child.names)
            elif isinstance(child, ast.Import):
                found.extend((function, a.name, None) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            visit(child, function)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_at_its_call_sites():
    found = {}
    for path in sorted((SRC / "hele_homog").glob("*.py")):
        for function, module, name in _scipy_imports(ast.parse(path.read_text())):
            assert function is not None, f"{path.name} imports {module} at module scope"
            found.setdefault((path.stem, function), set()).add((module, name))
    assert found == CALL_SITES


@pytest.mark.parametrize("setup, call, home", [
    ("from hele_homog.barriers import contracting_radius",
     "contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)", "scipy.optimize"),
    ("from hele_homog.geometry import cone_geometry, xi_samples",
     "xi_samples(cone_geometry([0.0, 0.0, -1.0], 1.0, 1.0, 2.0), 3)", "scipy.special"),
    ("from hele_homog.homog1d import harmonic_mean_oracle\n"
     "from hele_homog.medium import builtin_medium",
     "harmonic_mean_oracle(builtin_medium('static_sin'), 1.0)", "scipy.integrate"),
    ("from hele_homog.hs2d import hausdorff",
     "hausdorff([[0.0, 1.0]], [[0.5, 1.0]], period=1.0, axis=0)", "scipy.spatial"),
    ("from hele_homog.timescale import lambert_w0", "lambert_w0(0.5)", "scipy.special"),
    ("from hele_homog.timescale import SubScaling, f_sub",
     "f_sub(1.0, SubScaling(alpha=0.5, gamma=1.0, lam=0.25))", "scipy.special"),
], ids=["brentq", "ndtri", "quad", "cKDTree", "lambertw", "wrightomega"])
def test_each_call_site_loads_its_scipy_subpackage(setup, call, home):
    out = fresh(f"{setup}\n"
                f"print({home!r} in scipy_loaded())\n"
                f"value = {call}\n"
                f"print({home!r} in scipy_loaded(), value is not None)\n")
    assert out == "False\nTrue True\n"
