"""Every name a package module imports is used by that module, every
parameter of a module-level function is read by that function, every
function and method of the package is called from outside the tests, the
command-line entry point loads no HTTP client until one sends, and a whole
offline run loads no numpy."""

from __future__ import annotations

import ast
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
