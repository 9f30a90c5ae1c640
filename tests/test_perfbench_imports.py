"""Every name the benchmark imports from dafrelay resolves, also the imports made inside its functions.

The benchmark's smoke run reaches only some of its code paths, so a name deleted from the package
could break a benchmark path that no other check runs."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def dafrelay_imports():
    """(file, line, module, name) of every `from dafrelay... import name` and `import dafrelay...` in perfbench/."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dafrelay":
                yield from ((path.name, node.lineno, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, node.lineno, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "dafrelay")


def test_every_dafrelay_name_perfbench_imports_resolves():
    imports = list(dafrelay_imports())
    # make_reference.py imports inside its functions, which the benchmark's smoke run does not call
    assert any(name == "run_point_schemes" and file == "make_reference.py" for file, _, _, name in imports)
    missing = []
    for file, line, module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{file}:{line}: from {module} import {name}")
    assert missing == []
