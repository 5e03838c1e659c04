"""The package makes no BLAS call.

Every per-frame stage runs frame b on the frame-b worker thread while frame
a runs on the calling thread, one frame per core on a 2-core box.  A BLAS
call brings OpenBLAS's own thread pool into that: when both frame threads
call it at once, each asks for both cores.  The simulator's complex matrix
product did this, and a 12-target small-params frame pair took 0.100-0.109 s
with OpenBLAS's two threads against 0.059-0.061 s with one.  OpenBLAS's
threads also keep spinning for a while after a call: a small-params
``run_pipeline`` right after ``simulate_frame_pair`` took 67 ms, against
45 ms after a 0.3 s pause.  Elementwise numpy and the FFTs stay on the
thread that calls them.
"""

import ast
from pathlib import Path

import pytest

import tdmradar

# numpy (and scipy) functions and array methods that hand work to BLAS.
BLAS_NAMES = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}


def blas_uses(source: str) -> list:
    """(line, what) for every BLAS-backed call or import in ``source``: the
    ``@`` operator, a call of one of BLAS_NAMES as a function or a method,
    such a name imported, and anything of a ``linalg`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_NAMES:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "linalg" in a.name]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if "linalg" in f"{node.module}.{a.name}" or a.name in BLAS_NAMES]
    return found


@pytest.mark.parametrize("path", sorted(Path(tdmradar.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_makes_no_blas_call(path):
    assert blas_uses(path.read_text()) == []


def test_checker_finds_each_form():
    source = "\n".join([
        "import numpy as np",
        "import scipy.linalg",
        "from numpy import dot",
        "from numpy.linalg import norm",
        "a @ b",
        "a @= b",
        "np.matmul(a, b)",
        "a.dot(b)",
        "np.vdot(a, b)",
        "inner(a, b)",
        "np.tensordot(a, b)",
        "np.einsum('ij,jk', a, b)",
        "np.linalg.norm(a)",
        "inner = a - b",        # a variable that shares a name: not a call
        "np.multiply(a, b)",
    ])
    assert sorted(line for line, _ in blas_uses(source)) == list(range(2, 14))
