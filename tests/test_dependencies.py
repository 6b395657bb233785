"""fpcert depends on numpy alone: every module imports only the standard
library, numpy and fpcert itself.  Every name a module exports exists."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import fpcert

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fpcert"}
MODULES = sorted(Path(fpcert.__file__).parent.glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in a source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"metrics", "problems", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_fpcert(path):
    assert imported_roots(path) - ALLOWED == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "fpcert" if path.stem == "__init__" else f"fpcert.{path.stem}"
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ names missing {export!r}"


def row_norm_calls(source):
    """Lines that call ``np.linalg.norm`` with an axis, keyword or positional."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("linalg.norm")
        and (len(node.args) >= 3 or any(k.arg == "axis" for k in node.keywords))
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "metrics"],
                         ids=lambda p: p.name)
def test_row_norms_come_from_metrics(path):
    # one norm path: a stack's row norms come from metrics, whose rows
    # equal vector norms bit for bit; vector-only np.linalg.norm stays allowed
    assert row_norm_calls(path.read_text(encoding="utf-8")) == []


def test_row_norm_check_sees_axis_calls():
    source = ("import numpy as np\nnp.linalg.norm(x)\n"
              "np.linalg.norm(x, axis=-1)\nnumpy.linalg.norm(x, 2, 1)\n")
    assert row_norm_calls(source) == [3, 4]


def private_fpcert_imports(source):
    """Names starting with ``_`` that a source file imports from fpcert."""
    return [
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fpcert")
        for alias in node.names if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_name():
    # the front end reads the library's public tables, not its internals
    source = Path(fpcert.__file__).with_name("cli.py").read_text(encoding="utf-8")
    assert private_fpcert_imports(source) == []


def test_private_import_check_sees_relative_and_absolute_imports():
    source = ("from .certify import certify, _slacks\n"
              "from fpcert.metrics import _matvec\nfrom os import _exit\n")
    assert private_fpcert_imports(source) == ["_slacks", "_matvec"]


SPECTRAL = re.compile(r"(^|\.)linalg\.(svd|eig\w*|norm)$")


def spectral_calls(source):
    """(line, enclosing top-level definition or None) of each spectral call:
    ``linalg.svd``, ``linalg.eig*``, and ``linalg.norm`` with ord 2 given
    positionally or as ``ord=``."""
    calls = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            match = isinstance(node, ast.Call) and SPECTRAL.search(ast.unparse(node.func))
            if not match:
                continue
            if match.group(2) == "norm":
                ords = node.args[1:2] + [k.value for k in node.keywords if k.arg == "ord"]
                if not any(isinstance(o, ast.Constant) and o.value == 2 for o in ords):
                    continue
            calls.append((node.lineno, owner))
    return sorted(calls)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_spectral_constants_come_from_problem_constructors(path):
    # one source of spectral constants: a problem's constructor takes them
    # once and stores them on its ProblemSpec
    calls = spectral_calls(path.read_text(encoding="utf-8"))
    if path.stem == "problems":
        calls = [(line, owner) for line, owner in calls
                 if not (owner or "").endswith("_problem")]
    assert calls == []


def test_spectral_check_sees_svd_eig_and_ord_two_norms():
    source = ("import numpy as np\n"
              "def f(a):\n"
              "    np.linalg.norm(a)\n"
              "    np.linalg.norm(a, 2)\n"
              "    np.linalg.norm(a, ord=2)\n"
              "    np.linalg.norm(a, 1, axis=0)\n"
              "    return np.linalg.svd(a)\n"
              "w = numpy.linalg.eigvalsh(a)\n"
              "class C:\n"
              "    def g(self):\n"
              "        return linalg.eig(self.a)\n")
    assert spectral_calls(source) == [(4, "f"), (5, "f"), (7, "f"), (8, None),
                                      (11, "C")]


def _bare_bound(test):
    """Whether ``test`` compares a name or attribute with a numeric constant
    by ``<`` or ``<=`` alone, a test that NaN passes."""
    sides = [test.left, *test.comparators] if isinstance(test, ast.Compare) else []
    return (bool(sides) and all(isinstance(op, (ast.Lt, ast.LtE)) for op in test.ops)
            and any(isinstance(s, (ast.Name, ast.Attribute)) for s in sides)
            and any(isinstance(s, ast.Constant) and type(s.value) in (int, float)
                    for s in sides))


def _any_argument(test):
    """The argument of ``np.any(test)``, else ``test``."""
    if (isinstance(test, ast.Call) and isinstance(test.func, ast.Attribute)
            and test.func.attr == "any" and len(test.args) == 1):
        return test.args[0]
    return test


def nan_blind_guards(source):
    """Lines of each ``if`` that raises on a bare ``<``/``<=`` bound of a
    parameter or attribute, alone, in an ``or`` or inside ``np.any``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If)
                and any(isinstance(s, ast.Raise) for s in node.body)):
            continue
        test = node.test
        tests = (test.values if isinstance(test, ast.BoolOp)
                 and isinstance(test.op, ast.Or) else [test])
        if any(_bare_bound(_any_argument(t)) for t in tests):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numeric_parameters_are_bounded_by_check_number(path):
    # one range rule: metrics.check_number rejects NaN, which passes a bare
    # "x <= 0" guard
    assert nan_blind_guards(path.read_text(encoding="utf-8")) == []


def test_guard_check_sees_bare_bounds_alone_and_in_an_or():
    source = ("def f(x, n, self):\n"
              "    if x <= 0:\n"
              "        raise ValueError\n"
              "    if n < 1 or n > len(self.items):\n"
              "        raise ValueError\n"
              "    if self.dim < 1:\n"
              "        raise ValueError\n"
              "    if 0.5 <= x:\n"
              "        raise ValueError\n"
              "    if not 0 < x < 1:\n"
              "        raise ValueError\n"
              "    if x < 0:\n"
              "        return 0.0\n"
              "    if n < len(self.items) or x >= 1:\n"
              "        raise ValueError\n"
              "    if x < 0 and n < 1:\n"
              "        raise ValueError\n"
              "    if np.any(x < 0):\n"
              "        raise ValueError\n"
              "    if n > 2 or np.any(self.b <= 0.0):\n"
              "        raise ValueError\n"
              "    if not np.all(x >= 0):\n"
              "        raise ValueError\n"
              "    if np.any(x < 0) and n < 1:\n"
              "        raise ValueError\n")
    assert nan_blind_guards(source) == [2, 4, 6, 8, 18, 20]


def product_writes(source):
    """(line, enclosing top-level definition or None) of each call of
    ``os.makedirs`` or a ``reports.write_*`` writer."""
    return sorted(
        (node.lineno, getattr(top, "name", None))
        for top in ast.parse(source).body for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and re.fullmatch(r"os\.makedirs|reports\.write_\w+", ast.unparse(node.func))
    )


def test_cli_writes_products_in_one_place():
    # runners return their products; one writer makes the output directory
    # and writes them, so a usage error writes no product file
    source = Path(fpcert.__file__).with_name("cli.py").read_text(encoding="utf-8")
    assert [call for call in product_writes(source)
            if call[1] != "_write_products"] == []


def test_product_write_check_sees_makedirs_and_report_writers():
    source = ("import os\n"
              "def _write_products(config, products):\n"
              "    os.makedirs(config['output_dir'])\n"
              "def _run_region(config):\n"
              "    os.makedirs('out', exist_ok=True)\n"
              "    reports.write_region_csv('out/region.csv', grid)\n"
              "    return True, [('region.csv', reports.write_region_csv, grid)]\n"
              "reports.write_json('a.json', {})\n"
              "reports.dumps_json({})\n")
    assert product_writes(source) == [(3, "_write_products"), (5, "_run_region"),
                                      (6, "_run_region"), (8, None)]


def usage_error_handlers(source):
    """(line, enclosing top-level definition or None) of each ``except``
    handler with a ``raise`` of ``UsageError`` anywhere in its body."""
    def raised(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc is not None and re.fullmatch(r"(\w+\.)*UsageError", ast.unparse(exc))

    return sorted(
        (handler.lineno, getattr(top, "name", None))
        for top in ast.parse(source).body for handler in ast.walk(top)
        if isinstance(handler, ast.ExceptHandler)
        and any(isinstance(node, ast.Raise) and raised(node)
                for stmt in handler.body for node in ast.walk(stmt))
    )


def test_cli_turns_errors_into_usage_errors_in_one_place():
    # one rule: _field alone turns a library error into a usage error
    # naming the field; every other site runs its call inside _field
    source = Path(fpcert.__file__).with_name("cli.py").read_text(encoding="utf-8")
    assert [handler for handler in usage_error_handlers(source)
            if handler[1] != "_field"] == []


def test_usage_error_handler_check_sees_raises_in_handler_bodies():
    source = ("def _field(name):\n"
              "    try:\n"
              "        yield\n"
              "    except ValueError as err:\n"
              "        raise UsageError(f'{name}: {err}') from err\n"
              "def _read(path):\n"
              "    try:\n"
              "        return open(path)\n"
              "    except OSError:\n"
              "        if path:\n"
              "            raise cli.UsageError('cannot read')\n"
              "    except KeyError:\n"
              "        raise ValueError('missing')\n"
              "    except TypeError:\n"
              "        raise\n"
              "    raise UsageError('not in a handler')\n"
              "try:\n"
              "    pass\n"
              "except TypeError:\n"
              "    raise UsageError\n")
    assert usage_error_handlers(source) == [(4, "_field"), (9, "_read"), (19, None)]


WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def cli_calls(text):
    """Line numbers of each call of the ``fpcert`` command or of ``python -m
    fpcert.cli`` in a workflow's text, one entry per call; comment lines
    are skipped."""
    call = re.compile(r"(?<![\w./-])fpcert(\.cli)?(?![\w./-])")
    return [number for number, line in enumerate(text.splitlines(), 1)
            if not line.lstrip().startswith("#") for _ in call.finditer(line)]


def test_ci_runs_the_installed_cli_at_most_three_times():
    # tier-1 pins each CLI behaviour; CI adds one installed smoke run:
    # fpcert --help and an inline rates run twice, whose trace and sampled
    # checks must match byte for byte
    assert len(cli_calls(WORKFLOW.read_text(encoding="utf-8"))) <= 3


def test_cli_call_check_sees_commands_not_file_names():
    source = ("steps:\n"
              "  - run: pip install -e .\n"
              "  - run: |\n"
              "      # fpcert solve, in a comment\n"
              "      fpcert --help\n"
              "      OPENBLAS_NUM_THREADS=1 fpcert solve --config r.json --out fpcert-out\n"
              "      (cd a; fpcert region --config ../r.json & fpcert region)\n"
              "      python -m fpcert.cli rates --config fpcert.json\n"
              "      cmp src/fpcert/a.csv b.csv\n")
    assert cli_calls(source) == [5, 6, 7, 7, 8]
