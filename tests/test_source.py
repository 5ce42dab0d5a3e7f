"""Rules on the package source itself."""

import ast
import importlib
import re
from collections import Counter
from functools import reduce
from pathlib import Path

import bethelab


def test_no_assert_statements_in_the_package():
    """Guards must survive `python -O`, which strips assert statements."""
    root = Path(bethelab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names(tree):
    """Every identifier a module uses: names, attributes, imported names,
    and the parts of "module:qualname" strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            mod, sep, qualname = node.value.partition(":")
            if sep and mod.isidentifier():
                yield from qualname.split(".")


def _statements(bench=True):
    """(path, node, names) for each top-level statement of the package
    and, with bench, the benchmark, and the package's root."""
    root = Path(bethelab.__file__).parent
    paths = sorted(root.rglob("*.py"))
    if bench:
        paths += sorted((root.parent.parent / "perfbench").glob("*.py"))
    return [(path, node, set(_names(node))) for path in paths
            for node in ast.parse(path.read_text()).body], root


def _unused(units, defs, root):
    """The package's definitions among defs that no unit names, outside
    their own unit."""
    users = Counter(name for *_, names in units for name in names)
    return [f"{path.name}:{node.name}" for path, node, names in defs
            if path.parent == root
            and users[node.name] == (node.name in names)]


def test_every_module_level_definition_has_a_user():
    """A function or class of the package that nothing in the package or
    the benchmark names, outside its own body, is dead code or a
    test-only helper."""
    statements, root = _statements()
    defs = [s for s in statements
            if isinstance(s[1], (ast.FunctionDef, ast.ClassDef))]
    assert _unused(statements, defs, root) == []


def test_only_the_listed_definitions_live_on_outside_users():
    """The package's functions and classes that no package module names,
    outside their own body, live on only because the benchmark or the
    tests call them.  These six are known; any other fails here."""
    statements, root = _statements(bench=False)
    defs = [s for s in statements
            if isinstance(s[1], (ast.FunctionDef, ast.ClassDef))]
    assert sorted(_unused(statements, defs, root)) == [
        "aba.py:asymptotic_check",
        "asm.py:asm_to_dwbc",
        "asm.py:dwbc_to_asm",
        "asm.py:generate_asms",
        "asm.py:vertex_count_audit",
        "field.py:laurent_interpolate",
    ], "only these wait for ROADMAP item 2, which moves them out of src"


def test_every_method_has_a_user():
    """The same for a class's methods other than dunders: each class body
    statement is a unit of its own, so a method that only its own body
    names has no user."""
    statements, root = _statements()
    units = [s for s in statements if not isinstance(s[1], ast.ClassDef)]
    methods = []
    for path, node, _ in statements:
        if isinstance(node, ast.ClassDef):
            header = node.bases + node.keywords + node.decorator_list
            units.append((path, node, {n for h in header for n in _names(h)}))
            members = [(path, item, set(_names(item))) for item in node.body]
            units += members
            methods += [m for m in members if isinstance(m[1], ast.FunctionDef)
                        and not m[1].name.startswith("__")]
    assert _unused(units, methods, root) == []


def test_one_zero_divisor_error():
    """Every "zero divisor at these parameters" is one class, raised from
    `field` up and reported with exit 3; RedundantFactorZero refines it."""
    root = Path(bethelab.__file__).parent
    found = [f"{path.stem}.{node.name}" for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and "ZeroDivisionError" in {n for b in node.bases
                                         for n in _names(b)}]
    assert found == ["field.PoleEncountered"]


def test_spinchain_writes_its_own_rho():
    """`spinchain` holds rho as its own table, not derived from the gauged
    r12 of `rmatrix`, whose gauge it then need not know."""
    root = Path(bethelab.__file__).parent
    names = set(_names(ast.parse((root / "spinchain.py").read_text())))
    assert "r12" not in names


def test_spinchain_codes_no_keys():
    """`spinchain` holds no shift operator, so it codes no keys and packs
    no ints itself: its operators are `aba`'s one int-coded kernel
    (`sweeps` for beta, `apply_gates` for the N bonds of H) and its
    packing is `field`'s."""
    root = Path(bethelab.__file__).parent
    tree = ast.parse((root / "spinchain.py").read_text())
    shifts = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.LShift, ast.RShift))]
    assert shifts == []
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {("bethelab.aba", "sweeps"), ("bethelab.aba", "apply_gates"),
            ("bethelab.field", "pack"),
            ("bethelab.field", "unpack")} <= imported


def _imported_modules(tree):
    """The full names of the modules that a module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "bethelab":
            yield from (f"bethelab.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module


def test_only_the_front_end_imports_spinchain():
    """`spinchain` sits on top of `aba` and `asm`: the determinants and
    the layers below them must not reach up into it."""
    root = Path(bethelab.__file__).parent
    importers = [path.stem for path in sorted(root.glob("*.py"))
                 if "bethelab.spinchain"
                 in set(_imported_modules(ast.parse(path.read_text())))]
    assert importers == ["cli"]


def test_determinant_modules_name_no_scalar():
    """The R-matrices, the determinants, the DWBC oracle, the dense
    helpers, the spin chain and the front end compute on rationals and
    ints: only values that can carry s or i are Scalars.  So only `field`,
    `aba` (whose ModelParams holds the units s and i and reads a spectral
    parameter as a rational) and the package's re-export name Scalar."""
    root = Path(bethelab.__file__).parent
    modules = sorted(path.stem for path in root.glob("*.py"))
    assert {"rmatrix", "linalg", "detform", "asm", "spinchain",
            "cli"} <= set(modules)
    found = [name for name in modules
             if name not in ("field", "aba", "__init__")
             and "Scalar" in set(_names(ast.parse(
                 (root / f"{name}.py").read_text())))]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    """A name with a leading underscore belongs to its module: what
    another module needs is public."""
    root = Path(bethelab.__file__).parent
    found = [f"{path.stem}:{alias.name}"
             for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.module or "").startswith("bethelab")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_imports_a_name_another_module_imported():
    """A package name is imported from the module that defines it: no
    module passes on what it imported itself from another package module,
    so each name has one home."""
    root = Path(bethelab.__file__).parent

    def package_imports(path):
        """(module, name, local name) of a module's imports from the
        package."""
        return [(node.module, alias.name, alias.asname or alias.name)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("bethelab")
                for alias in node.names]

    paths = {f"bethelab.{path.stem}": path for path in root.glob("*.py")}
    paths["bethelab"] = paths.pop("bethelab.__init__")
    found = [f"{path.stem}:{name} from {module}"
             for path in sorted(paths.values())
             for module, name, _ in package_imports(path)
             if name in {local for *_, local
                         in package_imports(paths[module])}]
    assert found == []


def test_dotted_names_in_the_docs_resolve():
    """Every backticked `module.name` or `module.Class.attr` of a package
    module, in the README and in the package's docstrings, names a live
    attribute: a renamed or deleted definition leaves no stale mention."""
    root = Path(bethelab.__file__).parent
    modules = {path.stem: importlib.import_module(f"bethelab.{path.stem}")
               for path in root.glob("*.py") if path.stem != "__init__"}
    assert len(modules) == 8
    pattern = re.compile(r"`(%s)((?:\.\w+)+)`" % "|".join(modules))
    texts = [("README.md", (root.parent.parent / "README.md").read_text())]
    texts += [(path.name, ast.get_docstring(node))
              for path in sorted(root.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
              and ast.get_docstring(node)]

    def resolves(module, attrs):
        try:
            reduce(getattr, attrs.split(".")[1:], modules[module])
        except AttributeError:
            return False
        return True

    found = [(where, module, attrs) for where, text in texts
             for module, attrs in pattern.findall(text)]
    assert len(found) >= 15
    assert [f"{where}: {module}{attrs}" for where, module, attrs in found
            if not resolves(module, attrs)] == []
