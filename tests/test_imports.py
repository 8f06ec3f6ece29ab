"""Every name a package module imports is used by that module, every
parameter of a module-level function is read by that function, every
defaulted parameter of a called function is set by some call outside the
tests, every function and method of the package is called from outside the
tests, the command-line entry point loads no HTTP client until one sends,
and a whole offline run loads no numpy."""

from __future__ import annotations

import ast
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "litsurvey"
BENCH = PACKAGE.parent.parent / "bench"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that the module never reads;
    names listed in ``__all__`` count as read, ``__future__`` imports are
    compiler directives and are skipped."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.setdefault(bound, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\nprint(json)\n"
    assert unused_imports(source) == ["path (line 1)"]


#: (module, function, parameter) left unread on purpose, with the reason
UNREAD_ON_PURPOSE = {
    # The synthesis prompt's missing input: wiring it in changes prompts.
    ("analysis.py", "inter_cluster_analysis", "analyses"),
}


def unread_parameters(source: str) -> list[str]:
    """``function(parameter)`` for every parameter of a module-level
    function that the function body (nested functions included) never
    reads. The ``x`` on the right of ``x = x or Default()`` is not a read:
    that line only fills in a default nobody uses."""
    tree = ast.parse(source)
    found = []
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        defaulting = {
            id(node.value.values[0])
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.BoolOp)
            and isinstance(node.value.op, ast.Or)
            and isinstance(node.value.values[0], ast.Name)
            and node.value.values[0].id == node.targets[0].id
        }
        read = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in defaulting
        }
        found += [f"{fn.name}({p})" for p in params if p not in read]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_functions_read_every_parameter(module):
    allowed = {f"{fn}({p})" for mod, fn, p in UNREAD_ON_PURPOSE if mod == module}
    found = unread_parameters((PACKAGE / module).read_text(encoding="utf-8"))
    # Both ways: a new unread parameter fails, and so does a stale exemption.
    assert sorted(set(found) ^ allowed) == []


def test_scan_finds_an_unread_parameter():
    source = (
        "def f(a, cfg=None, *, log=None, **extra):\n"
        "    cfg = cfg or {}\n"
        "    log = log or []\n"
        "    log.append(a)\n"
        "    return lambda: extra\n"
        "class C:\n"
        "    def m(self, unused): pass\n"
    )
    assert unread_parameters(source) == ["f(cfg)"]


#: (module, function or Class.method, parameter) that only the tests set,
#: on purpose, with the reason
SET_BY_TESTS_ON_PURPOSE = {
    # Acceptance criterion 8 caps the pseudocode loop at exactly ten rounds.
    ("code_analysis.py", "run_pseudocode_loop", "max_rounds"),
    # The population variant of the paper's stability measure.
    ("evaluation.py", "coefficient_of_variation", "ddof"),
    # A small budget shows the memory compress without forty long rounds.
    ("refinement.py", "RefinementMemory.render", "budget"),
}


def _passed(sources: list[str]) -> dict[str, tuple[float, set]]:
    """function name -> (the most arguments any call of it passes by
    position, the keywords the calls pass); a call that spreads ``*`` or
    ``**`` passes every position, and the keyword None stands for every
    keyword."""
    passed: dict[str, tuple[float, set]] = {}
    for source in sources:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            positions, keywords = passed.get(name, (0, set()))
            keywords |= {k.arg for k in call.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            passed[name] = (math.inf if spread else max(positions, len(call.args)), keywords)
    return passed


def parameters_only_tests_set(package: dict[str, str], callers: list[str]) -> list[tuple]:
    """``(module, function, parameter)`` for every parameter with a default
    of a module-level function or a non-dunder method (as ``Class.method``)
    defined in ``package`` (module name -> source) that is called there or
    in ``callers``, but by no call that passes the parameter, by keyword or
    by position. A call is matched by the function's name alone; a
    function no call names is left to the scan for test-only functions."""
    passed = _passed([*package.values(), *callers])
    found = []
    for module, source in sorted(package.items()):
        tree = ast.parse(source)
        functions = [(None, fn) for fn in tree.body]
        functions += [(c, fn) for c in tree.body if isinstance(c, ast.ClassDef) for fn in c.body]
        for cls, fn in functions:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in passed or fn.name.startswith("__"):
                continue
            positions, keywords = passed[fn.name]
            args = fn.args
            # A method's first parameter is its instance, passed by no position.
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            shift = cls is not None and not static
            positional = args.posonlyargs + args.args
            defaulted = [
                (at - shift, a.arg)
                for at, a in enumerate(positional)
                if at >= len(positional) - len(args.defaults)
            ]
            defaulted += [
                (math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            name = fn.name if cls is None else f"{cls.name}.{fn.name}"
            found += [
                (module, name, param)
                for at, param in defaulted
                if at >= positions and param not in keywords and None not in keywords
            ]
    return found


def test_no_parameter_is_set_only_by_tests():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    found = parameters_only_tests_set(package, callers)
    # Both ways: a new test-only parameter fails, and so does a stale exemption.
    assert sorted(set(found) ^ SET_BY_TESTS_ON_PURPOSE) == []


def test_scan_finds_a_parameter_only_tests_set():
    package = {
        "a.py": (
            "def f(a, by_position=1, by_keyword=2, unset=3, *, flag=False, key=None): pass\n"
            "def spread(a, b=1): pass\n"
            "def uncalled(a, b=1): pass\n"
            "class C:\n"
            "    def __init__(self, size=1): pass\n"
            "    def m(self, first=1, second=2): pass\n"
            "    @staticmethod\n"
            "    def s(first=1, second=2): pass\n"
        ),
        "b.py": (
            "from a import C, f, spread\n"
            "f(0, 1)\n"
            "f(0, by_keyword=2, key=1)\n"
            "spread(*args)\n"
            "C().m(1)\n"
            "C.s(1)\n"
        ),
    }
    callers = ["from a import spread\nspread(0, **options)\n"]
    assert parameters_only_tests_set(package, callers) == [
        ("a.py", "f", "unset"),
        ("a.py", "f", "flag"),
        ("a.py", "C.m", "second"),
        ("a.py", "C.s", "second"),
    ]


#: (module, function or Class.method) that only the tests call, on purpose
TEST_ONLY_ON_PURPOSE = {
    # Inter-rater agreement for the human-judgment study (ROADMAP item 4).
    ("evaluation.py", "cohens_kappa"),
    ("evaluation.py", "fleiss_kappa"),
    ("evaluation.py", "RatingMatrix.from_labels"),
    # The scripted backend's query for tests that count matching prompts.
    ("scripted.py", "ScriptedTransport.calls_matching"),
}


def _read_names(source: str, string_words: bool) -> set[str]:
    """Every ``Name`` and ``Attribute`` the source reads; with
    ``string_words``, also every word of its string constants, such as the
    names in a table of functions to wrap."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif string_words and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def called_only_by_tests(package: dict[str, str], callers: list[str]) -> list[tuple[str, str]]:
    """``(module, name)`` for every module-level function without a
    decorator and every non-dunder method (as ``Class.method``) defined in
    ``package`` (module name -> source) whose name no package module reads,
    nor any of the ``callers`` sources, by name or in a string."""
    read = set().union(*(_read_names(source, False) for source in package.values()))
    read |= set().union(*(_read_names(source, True) for source in callers))
    found = []
    for module, source in sorted(package.items()):
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.decorator_list and node.name not in read:
                    found.append((module, node.name))
            elif isinstance(node, ast.ClassDef):
                found += [
                    (module, f"{node.name}.{method.name}")
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (method.name.startswith("__") and method.name.endswith("__"))
                    and method.name not in read
                ]
    return found


def test_no_function_is_called_only_by_tests():
    package = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in BENCH.glob("*.py")]
    # Both ways: newly test-only code fails, and so does a stale exemption.
    assert sorted(set(called_only_by_tests(package, callers)) ^ TEST_ONLY_ON_PURPOSE) == []


def test_scan_finds_a_function_only_tests_call():
    package = {
        "a.py": (
            "def used(): pass\n"
            "def orphan(): pass\n"
            "def traced(): pass\n"
            "@decorated\n"
            "def registered(): pass\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def method(self): pass\n"
            "    def lonely(self): pass\n"
        ),
        "b.py": "from a import C, used\nused()\nC().method()\n",
    }
    callers = ['TRACED = ("traced",)\n']
    assert called_only_by_tests(package, callers) == [("a.py", "orphan"), ("a.py", "C.lonely")]


def test_importing_the_cli_leaves_the_http_client_unloaded():
    # Offline runs (scripted backend, fixture source, hashed embeddings)
    # and --help never send over HTTP, so they do not pay for requests.
    code = "import sys, litsurvey.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


def test_a_generate_and_evaluate_run_loads_no_numpy(tmp_path):
    # The vector math is a few sums over 32-float lists: a run that
    # imported numpy for it would pay ~14 MiB and ~150 ms at start.
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import litsurvey.cli\n"
        "from e2e_fixture import make_config\n"
        "from litsurvey.pipeline import build_backends, evaluate_run, run_pipeline\n"
        "config = make_config(Path(sys.argv[1]))\n"
        "result = run_pipeline(config, backends=build_backends(config))\n"
        "evaluate_run(config, result.survey_path, backends=build_backends(config))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), str(TESTS)])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
    assert list(tmp_path.rglob("*.report.json"))
