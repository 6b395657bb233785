"""Assertions, maps and child-process runs shared by the test modules."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fpcert
from fpcert.operators import (
    _affine,
    _bind,
    _DualLine,
    box_prox,
    l1_prox,
    l2_prox,
    soft_threshold,
)
from fpcert.problems import (
    ProblemSpec,
    analysis_l1_problem,
    build_operator,
    least_squares_problem,
    separable_smooth_l1_problem,
)

SRC = os.path.dirname(os.path.dirname(fpcert.__file__))

# a child's program: fpcert's command line on the child's arguments
CLI = "import sys\nfrom fpcert.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def assert_same_text(actual, expected):
    """``actual == expected``, failing with the first differing line rather
    than a full diff, which takes minutes on a trace of thousands of rows."""
    if actual == expected:
        return
    got, want = actual.splitlines(True), expected.splitlines(True)
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
             min(len(got), len(want)))
    pytest.fail(f"line {i}: {got[i:i + 1]!r} != {want[i:i + 1]!r} "
                f"({len(got)} vs {len(want)} lines)")


def start_child(args, threads=1, address_space=None, cwd=None, program=CLI):
    """Start ``program``, by default ``fpcert.cli`` on ``args``, in a child
    Python that imports fpcert from this checkout, with ``threads`` BLAS
    threads and, if ``address_space`` is given, that many bytes of address
    space.  Its stdout and stderr are piped as text."""
    limit = ("import resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, "
             f"({address_space}, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
             if address_space is not None else "")
    threads = str(threads)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    return subprocess.Popen([sys.executable, "-c", limit + program, *args], env=env,
                            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def run_child(args, **kwargs):
    """Run :func:`start_child` to its end: ``(exit code, stdout, stderr)``."""
    with start_child(args, **kwargs) as child:
        out, err = child.communicate(timeout=120)
    return child.returncode, out, err


def stage_maps(wrap=lambda prox: prox):
    """One ``_affine`` map for each kind of stage, by name, with its
    dimension: no stage, the soft threshold, block shrinkage, a box, and a
    prox family without ``bind`` (``user``), the last two as the primal-dual
    map's dual line too.  Each prox family is passed through ``wrap``
    before its map is built.  The matrices of the ``user`` maps have norm
    below 1, so those maps contract."""
    rng = np.random.default_rng(44)
    n, m = 5, 3
    separable = separable_smooth_l1_problem(rng.uniform(0.5, 2.0, n),
                                            rng.standard_normal(n), 0.3)
    least = least_squares_problem(rng.standard_normal((8, n)), rng.standard_normal(8))
    analysis = analysis_l1_problem(rng.standard_normal((8, n)), rng.standard_normal(8),
                                   0.5 * rng.standard_normal((m, n)) / np.sqrt(n), 0.3)

    def user(t, x):  # the l1 prox's arithmetic, without bind
        return soft_threshold(0.3 * t, x)

    def with_prox(problem, prox):
        prox = None if prox is None else wrap(prox)
        return build_operator(ProblemSpec(**{**vars(problem), "prox_g": prox}),
                              hint=None).fn

    lin = rng.standard_normal((n + m, n + m)) / (2.0 * np.sqrt(n + m))
    shift = rng.standard_normal(n + m)
    return {
        "stage_none_diagonal": (with_prox(separable, None), n),
        "stage_soft_matrix": (with_prox(least, l1_prox(0.3)), n),
        "stage_block_shrinkage": (with_prox(separable, l2_prox(0.3)), n),
        "stage_box": (with_prox(separable, box_prox(-1.0, 2.0)), n),
        "stage_user_family": (_affine(lin[:n, :n], shift[:n], _bind(wrap(user), 1.3)), n),
        "stage_dual_block_shrinkage": (with_prox(analysis, l2_prox(0.3)), n + m),
        "stage_dual_user_family": (
            _affine(lin, shift, _DualLine(n, 0.7, _bind(wrap(user), 1.0 / 0.7))), n + m),
    }
