"""Assertions and child-process runs shared by the test modules."""

import os
import subprocess
import sys

import pytest

import fpcert

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
