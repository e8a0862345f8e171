"""Import layering of the package: every import sits at module level, and
modules import only from layers below their own, in the order

    errors -> model -> routing -> fluid -> sim, stability -> cli

(`sim` and `stability` share a layer and do not import each other;
`__init__` and `__main__` sit on top).
"""

import ast

import pytest

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
