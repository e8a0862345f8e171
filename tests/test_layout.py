"""Import layering of the package: every import sits at module level, and
modules import only from layers below their own, in the order

    errors -> model -> routing -> fluid -> sim, stability -> cli

(`sim` and `stability` share a layer and do not import each other;
`__init__` and `__main__` sit on top).

The public API carries no option that the program never sets: every
defaulted parameter of a function, and every defaulted field of a dataclass,
that `fluidlob` or `fluidlob.cli` exports is passed, by keyword or by
position, by some call in `src/fluidlob` or `perfbench/` (tests excepted).

Nor does it carry dead private code: every private name defined at a
module's top level is used in `src/fluidlob` outside its own definition.

The test configuration in `pyproject.toml` reports a falsified Hypothesis
property as a failure with its example, not as an internal error.
"""

import ast
import inspect
import subprocess
import sys

import pytest

import fluidlob
from fluidlob import cli

from helpers import REPO

PACKAGE = REPO / "src" / "fluidlob"
LAYER = {
    "errors": 0,
    "model": 1,
    "routing": 2,
    "fluid": 3,
    "sim": 4,
    "stability": 4,
    "cli": 5,
    "__init__": 6,
    "__main__": 6,
}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_targets(node) -> list[str]:
    """Modules of the package that an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module:
            return [node.module.split(".")[0]]
        if node.level == 1:
            return [alias.name for alias in node.names]
        if node.level == 0 and (node.module or "").startswith("fluidlob."):
            return [node.module.split(".")[1]]
        return []
    return [
        alias.name.split(".")[1] for alias in node.names if alias.name.startswith("fluidlob.")
    ]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_module_level_and_point_down(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    top = set(tree.body)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        assert node in top, f"{module}.py:{node.lineno}: import inside a function or block"
        for target in _package_targets(node):
            assert LAYER[target] < LAYER[module], (
                f"{module}.py:{node.lineno}: imports {target}, which is not in a lower layer"
            )


def test_benchmark_generator_finds_its_package_functions():
    # perfbench/gen.py builds the certify inputs with these.
    for name in ("config_from_dict", "compute_bands", "solve_workload_star"):
        assert callable(getattr(fluidlob, name, None)), name


def _exported() -> dict:
    names = {name: getattr(fluidlob, name) for name in dir(fluidlob) if not name.startswith("_")}
    names.update((name, getattr(cli, name)) for name in cli.__all__)
    return {
        name: obj
        for name, obj in names.items()
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, Exception))
    }


def _defaulted(obj) -> list[tuple[str, int | None]]:
    """(name, position or None) of each parameter of `obj` that has a default."""
    params = inspect.signature(obj).parameters.values()
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return [
        (p.name, positional.index(p.name) if p.name in positional else None)
        for p in params
        if p.default is not p.empty
    ]


def _calls_by_name() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for path in [*PACKAGE.glob("*.py"), *(REPO / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **mapping
        return True
    if position is None:
        return False
    return position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_exported_option_has_a_caller():
    calls = _calls_by_name()
    unset = [
        f"{name}({param})"
        for name, obj in sorted(_exported().items())
        for param, position in _defaulted(obj)
        if not any(_passes(call, param, position) for call in calls.get(name, []))
    ]
    assert not unset, f"defaulted parameters that no caller in the program sets: {unset}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level statements that define a private (single underscore) name."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        defined.update((name, node) for name in names if name[:1] == "_" and name[:2] != "__")
    return defined


def test_every_private_name_is_used():
    # A name counts as used where its own module, or a module that imports
    # it from there, loads it outside its definition.
    trees = {module: ast.parse((PACKAGE / f"{module}.py").read_text()) for module in MODULES}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            readers = {
                other
                for other, other_tree in trees.items()
                for node in other_tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
                and any(alias.name == name for alias in node.names)
            }
            used = any(
                isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                and not (
                    reader == module and definition.lineno <= node.lineno <= definition.end_lineno
                )
                for reader in {module} | readers
                for node in ast.walk(trees[reader])
            )
            if not used:
                unused.append(f"{module}.{name}")
    assert not unused, f"private names that nothing in the program uses: {unused}"


def test_a_falsified_property_is_reported_under_the_repository_config(tmp_path):
    # Hypothesis's report imports libcst, whose import warns; under
    # `filterwarnings = ["error"]` alone that warning was an INTERNALERROR.
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None, derandomize=True)\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 3\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(REPO / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example" in done.stdout and "1 failed" in done.stdout
