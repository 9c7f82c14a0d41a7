"""Checks on the package source itself."""

import ast
import pathlib

import braidalg

SRC = pathlib.Path(braidalg.__file__).parent


def unused_imports(source):
    """Names a module imports (``__future__`` aside) that no expression of it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    # an attribute chain a.b.c starts with the Name a
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_stale_names():
    source = "from __future__ import annotations\nimport os.path\nfrom .tensor import flip, identity as ident\nident(os)\n"
    assert unused_imports(source) == ["flip"]


def test_no_module_imports_a_name_it_never_uses():
    found = {p.name: unused_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(found) >= 11
    assert not {name: names for name, names in found.items() if names}


def absolute_imports(source):
    """The top-level packages a module's absolute imports name, at any depth of the module."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_absolute_imports_sees_nested_and_from_imports():
    source = "from .x import y\nfrom dataclasses import dataclass\ndef f():\n    import os.path\n"
    assert absolute_imports(source) == {"dataclasses", "os"}


def test_no_module_imports_dataclasses():
    # importing it costs every process inspect, ast, dis and tokenize, and each class an exec'd __init__
    assert not [p.name for p in sorted(SRC.glob("*.py")) if "dataclasses" in absolute_imports(p.read_text())]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_module_reads(source):
    """Private names a module takes from a module it imports, dunders aside: ``alias._name`` reads
    of a module bound by ``import m`` or ``from pkg import m``, and ``from m import _name``."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:  # from . import io
                modules |= {alias.asname or alias.name for alias in node.names}
            origin = "." * node.level + (node.module or "")
            found += [f"from {origin} import {alias.name}" for alias in node.names if _is_private(alias.name)]
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _is_private(node.attr)
    ]
    return sorted(found)


def test_private_module_reads_skips_class_helpers_and_dunders():
    source = (
        "import os\nfrom . import io as bio\nfrom .linalg import SparseMatrix\n"
        "bio._load_object(os.__name__)\nSparseMatrix._from_sums()\nos._exit\n"
    )
    assert private_module_reads(source) == ["bio._load_object", "os._exit"]


def test_private_module_reads_sees_from_imports_of_private_names():
    source = (
        "from __future__ import annotations\nfrom .yd import YDModule, _check as check\n"
        "from . import _helpers\nfrom os import __name__\ndef f():\n    from ..hopf import _validate_table\n"
    )
    assert private_module_reads(source) == [
        "from . import _helpers",
        "from ..hopf import _validate_table",
        "from .yd import _check",
    ]


def test_no_module_reads_a_private_name_of_a_module_it_imported():
    found = {p.name: private_module_reads(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert not {name: reads for name, reads in found.items() if reads}


def raises_calling_first_failure(source):
    """Line numbers of the ``raise`` statements that call a ``first_failure`` method."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "first_failure"
            for call in ast.walk(node)
        )
    )


def test_raises_calling_first_failure_skips_other_reads():
    source = (
        "if not rep.passed:\n    raise ValueError(f'bad: {rep.first_failure()}')\n"
        "rep.add('x', ok, rep.first_failure().witness)\nraise KeyError(first_failure)\n"
        "raise AssertionError(str(rep.first_failure().name))\n"
    )
    assert raises_calling_first_failure(source) == [2, 5]


def test_every_failed_required_check_is_raised_through_require():
    # AxiomReport.require is the one place that turns a failed report into an exception
    found = {p.name: raises_calling_first_failure(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert not {name: lines for name, lines in found.items() if lines}


def caught_exceptions(source):
    """(enclosing function, exception name) for each exception an ``except`` clause names, at any
    depth; a bare ``except:`` names ``BaseException``, and a module-level clause has function None."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler):
                kinds = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                for kind in kinds:
                    name = "BaseException" if kind is None else ast.unparse(kind).rsplit(".", 1)[-1]
                    found.append((function, name))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_caught_exceptions_names_the_enclosing_function():
    source = (
        "try:\n    pass\nexcept OSError:\n    pass\n"
        "def main():\n    try:\n        run()\n    except (report.CheckFailed, KeyError) as e:\n"
        "        def inner():\n            try:\n                pass\n            except:\n                pass\n"
    )
    assert caught_exceptions(source) == [
        (None, "OSError"),
        ("main", "CheckFailed"),
        ("main", "KeyError"),
        ("inner", "BaseException"),
    ]


def test_only_main_turns_a_failed_required_check_into_an_exit_code():
    # a failed required check raises CheckFailed, and cli.main alone prints it and returns 1; a
    # command that caught it, or a broader class, or the library's own errors, would decide again
    caught = caught_exceptions((SRC / "cli.py").read_text())
    assert ("main", "CheckFailed") in caught
    swallowing = {"CheckFailed", "Exception", "BaseException"}
    assert not [(f, name) for f, name in caught if name in swallowing and f != "main"]
    assert not [(f, name) for f, name in caught if name in {"AssertionError", "ArithmeticError", "TypeError"}]


def test_every_require_call_passes_only_its_context():
    calls = [
        (p.name, node.lineno, len(node.args) + len(node.keywords))
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "require"
    ]
    assert len(calls) >= 10
    assert not [call for call in calls if call[2] != 1]


def _imported_module(node):
    """The module an import statement imports from, dots included: ``.hopf``, ``os.path``, or ``.io``
    for ``from . import io`` (one entry per name)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    dots = "." * node.level
    return [dots + node.module] if node.module else [dots + alias.name for alias in node.names]


def stale_function_imports(source):
    """(function, module) for each import inside a function from a module that the file already
    imports at module level, where it could be read directly."""
    tree = ast.parse(source)
    top = {m for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)) for m in _imported_module(node)}
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif function is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend((function, m) for m in _imported_module(child) if m in top)
            else:
                visit(child, function)

    visit(tree, None)
    return found


def test_stale_function_imports_skips_lazy_imports_of_other_modules():
    source = (
        "import os\nfrom . import io as bio\nfrom .hopf import Bialgebra\n"
        "def f():\n    from .hopf import dual_bialgebra\n    from .homology import coefficient_complex\n"
        "    import os.path\n    def g():\n        from .io import load\n        import os\n"
        "class C:\n    def m(self):\n        if True:\n            from .hopf import group_algebra\n"
    )
    assert stale_function_imports(source) == [("f", ".hopf"), ("g", ".io"), ("g", "os"), ("m", ".hopf")]


def test_no_function_imports_from_a_module_its_file_imports_at_module_level():
    # a module the file imports anyway costs nothing more to import at the top, where readers look
    found = {p.name: stale_function_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert not {name: imports for name, imports in found.items() if imports}


def top_level_names(source):
    """The names a module defines at its top level: its defs, classes and assignment targets, not its imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def imports_not_from_home(source, homes):
    """Each ``from .m import name``, at any depth, where ``name`` is not among ``homes[m]``, the top-level
    names of the sibling module m; ``from . import m`` names a module and is skipped."""
    return sorted(
        f"from .{node.module} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in homes.get(node.module, ())
    )


def test_imports_not_from_home_sees_nested_imports_and_skips_modules():
    names = top_level_names("import os\nfrom .tensor import flip\nA, (B, C) = 1, (2, 3)\nD: int = 4\n")
    assert names == {"A", "B", "C", "D"}
    source = (
        "from . import io\nfrom .tensor import flip, identity as ident\n"
        "def f():\n    from .hopf import Bialgebra, on_tensor\n"
    )
    homes = {"tensor": {"flip", "identity", "on_tensor"}, "hopf": {"Bialgebra", "flip"}}
    assert imports_not_from_home(source, homes) == ["from .hopf import on_tensor"]


def test_every_module_imports_each_name_from_the_module_that_defines_it():
    # a name taken through a module that only imports it ties the reader to that module's imports
    homes = {p.stem: top_level_names(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    found = {p.name: imports_not_from_home(p.read_text(), homes) for p in sorted(SRC.glob("*.py"))}
    assert len(found) >= 11
    assert not {name: imports for name, imports in found.items() if imports}


def attribute_assignments(source, attr):
    """(enclosing ``Class.function`` or function, line) for each statement that assigns an attribute
    named ``attr``, at any depth and inside unpacking; a module-level statement has scope None."""
    found = []

    def visit(node, scope, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope, f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, f"{prefix}{child.name}.")
                continue
            targets = child.targets if isinstance(child, ast.Assign) else []
            if isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                if any(isinstance(t, ast.Attribute) and t.attr == attr for t in ast.walk(target)):
                    found.append((scope, child.lineno))
            visit(child, scope, prefix)

    visit(ast.parse(source), None, "")
    return found


def test_attribute_assignments_names_the_enclosing_method():
    source = (
        "c.report = 1\nclass C:\n    def __init__(self):\n        self.report = None\n        self.other = 2\n"
        "    def m(self):\n        def inner():\n            x.report += 1\n        a, (b, o.report) = 1, (2, 3)\n"
        "def f(c):\n    c.report: int = 3\n    report = c.report\n"
    )
    assert attribute_assignments(source, "report") == [
        (None, 1),
        ("C.__init__", 4),
        ("C.m.inner", 8),
        ("C.m", 9),
        ("f", 11),
    ]


def test_only_the_complex_constructor_sets_its_bicomplex_report():
    # GradedComplex.__init__ verifies every complex it builds, so no caller keeps a separate verdict
    found = {p.name: attribute_assignments(p.read_text(), "bicomplex_report") for p in sorted(SRC.glob("*.py"))}
    assigned = [(name, scope) for name, where in found.items() for scope, _ in where]
    assert assigned == [("homology.py", "GradedComplex.__init__")]
