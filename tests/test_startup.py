"""SciPy is imported on first use, not at import time.

Every SciPy name the package calls is a module attribute bound to a
`hele_homog._lazy.lazy` stub, which imports the real object on its first call
and forwards every call to it. These tests check that importing the package,
and commands that need only NumPy, load no `scipy` module (in a fresh
interpreter), that each stub forwards to the very SciPy object, and that a
binding patched in before first use is the one called.
"""

import importlib
import math
import os
import pathlib
import pkgutil
import subprocess
import sys

import hele_homog
from hele_homog import barriers, geometry, homog1d, hs2d, timescale
from hele_homog._lazy import lazy
from hele_homog.barriers import contracting_radius
from hele_homog.geometry import cone_geometry, xi_samples
from hele_homog.homog1d import harmonic_mean_oracle
from hele_homog.hs2d import hausdorff
from hele_homog.medium import builtin_medium
from hele_homog.timescale import SubScaling, SuperScaling, f_sub, f_super

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# (module, attribute, SciPy module that holds the real object)
LAZY_NAMES = [
    (barriers, "brentq", "scipy.optimize"),
    (homog1d, "quad", "scipy.integrate"),
    (geometry, "ndtri", "scipy.special"),
    (timescale, "lambertw", "scipy.special"),
    (timescale, "wrightomega", "scipy.special"),
    (hs2d, "cKDTree", "scipy.spatial"),
]


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


def test_patch_before_first_use_is_called():
    # the stub is never called, so SciPy is never imported
    out = fresh("from types import SimpleNamespace\n"
                "from hele_homog import barriers\n"
                "from hele_homog.errors import NumericalError\n"
                "stub = barriers.brentq\n"
                "barriers.brentq = lambda f, a, b, **kw: (a, SimpleNamespace(converged=False))\n"
                "try:\n"
                "    barriers.contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)\n"
                "except NumericalError as exc:\n"
                "    print(exc)\n"
                "print(scipy_loaded())\n"
                "barriers.brentq = stub\n"
                "barriers.contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)\n"
                "import scipy.optimize\n"
                "print(barriers.brentq is stub, stub.__wrapped__ is scipy.optimize.brentq)\n")
    lines = out.split("\n")
    assert "did not converge" in lines[0]
    assert lines[1:] == ["[]", "True True", ""]


def test_stub_imports_on_first_call_and_forwards():
    stub = lazy("math", "hypot")
    assert not hasattr(stub, "__wrapped__")
    assert stub(3.0, 4.0) == 5.0
    assert stub.__wrapped__ is math.hypot
    assert stub(5.0, 12.0) == 13.0
    assert stub.__name__ == "hypot"


def test_every_lazy_name_forwards_to_the_scipy_object():
    stubs = [getattr(module, name) for module, name, _ in LAZY_NAMES]
    # first use of all 6 names, through the public functions that call them
    contracting_radius(2, 1.0, 1.0, lambda t: t, -0.1)  # brentq
    harmonic_mean_oracle(builtin_medium("static_sin"), 1.0)  # quad
    xi_samples(cone_geometry([0.0, 0.0, -1.0], 1.0, 1.0, 2.0), 3)  # ndtri
    f_sub(1.0, SubScaling(alpha=0.5, gamma=1.0, lam=0.25))  # wrightomega
    f_super(0.1, SuperScaling(alpha=1.2, gamma=1.0, lam=0.2))  # lambertw
    hausdorff([[0.0, 1.0]], [[0.5, 1.0]], period=1.0, axis=0)  # cKDTree
    for stub, (module, name, home) in zip(stubs, LAZY_NAMES):
        # the binding stays the stub; a misspelt spec fails here, not at a
        # user's first 2D step
        assert getattr(module, name) is stub
        assert stub.__wrapped__ is getattr(importlib.import_module(home), name), \
            f"{module.__name__}.{name}"


def test_lazy_names_lists_every_stub_in_the_package():
    # a binding whose last caller is deleted would otherwise stay behind
    # unnoticed, and the forwarding test above needs a public call per name
    code = lazy("m", "n").__code__
    found = set()
    for info in pkgutil.iter_modules(hele_homog.__path__, "hele_homog."):
        module = importlib.import_module(info.name)
        found |= {(module.__name__, name) for name, value in vars(module).items()
                  if getattr(value, "__code__", None) is code}
    assert found == {(module.__name__, name) for module, name, _ in LAZY_NAMES}
