"""Rules on the package source itself, read from its syntax trees."""

import ast
from pathlib import Path

import pytest

import stablelab

_PACKAGE = Path(stablelab.__file__).parent
_TREES = {
    path.relative_to(_PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(_PACKAGE.rglob("*.py"))
}


@pytest.mark.parametrize("module", _TREES)
def test_no_assert_statements(module):
    """`python -O` strips assert statements, so a certificate raises instead."""
    asserts = [node.lineno for node in ast.walk(_TREES[module]) if isinstance(node, ast.Assert)]
    assert not asserts, f"{module}: assert on lines {asserts}"


@pytest.mark.parametrize("module", _TREES)
def test_no_memoizing_decorators(module):
    """Shared values are built once per run by a suite and passed in, so no
    function keeps a process-wide memo."""
    memoized = [
        node.name
        for node in ast.walk(_TREES[module])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        if "cache" in ast.unparse(decorator)
    ]
    assert not memoized, f"{module}: memoized {memoized}"


def _imported(module: str) -> list[str]:
    """The modules named by the import statements of a package module."""
    imported = []
    for node in ast.walk(_TREES[module]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    return imported


@pytest.mark.parametrize("module", _TREES)
def test_no_mpmath_imports(module):
    """Class polynomials are built in integer ball arithmetic, so mpmath is a
    test oracle only and no verifier process loads it."""
    assert not [name for name in _imported(module) if name.split(".")[0] == "mpmath"], module


@pytest.mark.parametrize("module", [name for name in _TREES if name != "checks/__init__.py"])
def test_only_check_is_a_dataclass(module):
    """Records are NamedTuples; one that validates its fields subclasses a
    NamedTuple and checks them in ``__new__``.  `checks.Check` stays a frozen
    dataclass because perfbench's tracer rebuilds it with
    ``dataclasses.replace``; no other module imports `dataclasses`."""
    assert "dataclasses" not in _imported(module), module


@pytest.mark.parametrize("module", _TREES)
def test_no_record_is_built_past_its_validation(module):
    """`_make` and `_replace` build a NamedTuple without calling its
    ``__new__``, so they would skip a validating record's checks."""
    calls = [
        node.lineno
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.Attribute) and node.attr in {"_make", "_replace"}
    ]
    assert not calls, f"{module}: _make or _replace on lines {calls}"


def _is_pow_mod(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "pow" and len(node.args) == 3


def _is_square_mod(node: ast.AST) -> bool:
    """x * x % p, x ** 2 % p or pow(x, 2, p)."""
    if _is_pow_mod(node):
        return ast.unparse(node.args[1]) == "2"
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)):
        return False
    square = node.left
    return isinstance(square, ast.BinOp) and (
        isinstance(square.op, ast.Mult) and ast.dump(square.left) == ast.dump(square.right)
        or isinstance(square.op, ast.Pow) and ast.unparse(square.right) == "2"
    )


@pytest.mark.parametrize("module", [name for name in _TREES if name != "__init__.py"])
def test_quadratic_residuosity_is_decided_only_by_legendre_symbol(module):
    """`stablelab.legendre_symbol` is the one quadratic character: no other
    module runs Euler's criterion, a three-argument pow to a (p - 1) // 2
    exponent, or collects the squares mod p to test membership."""
    lines = [
        node.lineno
        for node in ast.walk(_TREES[module])
        if _is_pow_mod(node)
        and isinstance(node.args[1], ast.BinOp)
        and isinstance(node.args[1].op, ast.FloorDiv)
        and ast.unparse(node.args[1].right) == "2"
        or isinstance(node, (ast.SetComp, ast.ListComp, ast.GeneratorExp))
        and _is_square_mod(node.elt)
    ]
    assert not lines, f"{module}: decides quadratic residuosity on lines {lines}"


_HERE = Path(__file__).parent
#: the tests and demos, which read the package from outside
_USERS = [
    ast.parse(path.read_text(encoding="utf-8"))
    for path in [*_HERE.glob("*.py"), *(_HERE.parent / "demos").glob("*.py")]
]


def _names_read(trees) -> set[str]:
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_exactmath_export_has_a_reader():
    """Each public function or class an ``exactmath`` module defines is read
    outside that module, by another package module, a test or a demo, so no
    dead kernel routine stays."""
    users = _names_read(_USERS)
    unread = {}
    for module, tree in _TREES.items():
        if module.startswith("exactmath/"):
            defined = {
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            }
            others = _names_read(other for name, other in _TREES.items() if name != module)
            unread[module] = sorted(defined - others - users)
    assert {"exactmath/kernel.py", "exactmath/poly.py", "exactmath/valuation.py"} <= set(unread)
    assert not any(unread.values()), f"defined but read nowhere else: {unread}"


def _record_fields() -> dict[str, tuple[str, ...]]:
    """Record name -> fields, for every NamedTuple class in the package: the
    annotated names of a class body on a ``NamedTuple`` base, and the field
    list of a functional ``NamedTuple("Name", [...])`` base."""
    records = {}
    for tree in _TREES.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id == "NamedTuple":
                    records[node.name] = tuple(
                        item.target.id
                        for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    )
                elif isinstance(base, ast.Call) and ast.unparse(base.func) == "NamedTuple":
                    records[node.name] = tuple(field.elts[0].value for field in base.args[1].elts)
    return records


def test_every_record_field_has_a_reader():
    """Each field of a NamedTuple record is read as an attribute somewhere in
    the package, so a certificate returns only what a check or another
    certificate reads."""
    records = _record_fields()
    assert {"AlgebraParams", "ClassPolynomial", "ImageCertificate", "RationalMap"} <= set(records)
    read = {
        node.attr
        for tree in _TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unread = {
        f"{record}.{field}"
        for record, fields in records.items()
        for field in fields
        if field not in read
    }
    assert not unread, f"fields that nothing reads: {sorted(unread)}"


def test_every_module_constant_has_a_reader():
    """Each name a module-level assignment binds is read as a name or an
    attribute somewhere in the package, so no table or constant stays that
    no run reads."""
    assigned = {
        (module, target.id)
        for module, tree in _TREES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for bound in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for target in ast.walk(bound)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
    }
    assert ("cli.py", "SUITE_NAMES") in assigned and ("sslab.py", "t") in assigned
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in _TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    unread = sorted(f"{module}: {name}" for module, name in assigned if name not in read)
    assert not unread, f"module constants that nothing reads: {unread}"


_CHECKS = [name for name in _TREES if name.startswith("checks/")]


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_leave_certificate_failures_to_run_suite(module):
    """A check's status is spelled only by `cli.run_suite`: a check returns
    its pass details or raises CertificateError, so a module of the checks
    package has no try statement, no string constant naming a status and
    reads no status of a layer record.  `CongruenceResult.passed` is a
    measured root valuation compared with the conjecture's bound, so the cm
    suite reads it.  The one try is in `checks.once`, which keeps a
    builder's exception only to raise it again to every reader."""
    tree = _TREES[module]
    memo = [
        node
        for node in ast.walk(tree)
        if module == "checks/__init__.py" and isinstance(node, ast.FunctionDef) and node.name == "once"
    ]
    kept = {id(node) for fn in memo for node in ast.walk(fn)}
    tries = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Try, ast.TryStar)) and id(node) not in kept
    ]
    statuses = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("pass", "fail", "skipped")
    ]
    verdicts = {"status"} if module == "checks/cm.py" else {"status", "passed"}
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in verdicts
    ]
    assert not tries, f"{module}: try on lines {tries}"
    assert not statuses, f"{module}: spells a status on lines {statuses}"
    assert not reads, f"{module}: reads a record status on lines {reads}"


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_do_not_reword_a_layer_verdict(module):
    """A layer certificate raises CertificateError with its own reason, so no
    check tests a call's truth with ``if not <call>:`` to raise a fixed
    message in its place."""
    verdicts = [
        node.lineno
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not)
        and isinstance(node.test.operand, ast.Call)
    ]
    assert not verdicts, f"{module}: `if not <call>:` on lines {verdicts}"


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_do_no_valuation_arithmetic(module):
    """Suite modules read certificates; the valuation pieces, envelopes and
    minima behind them are computed in the layers."""
    kernel = {
        "affine", "param_valuations", "valuation_levels", "min_valuation", "pieces_in",
        "dominant_piece",
    }
    imported = {
        alias.name
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & kernel, f"{module} imports {sorted(imported & kernel)}"


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_pass_no_none_placeholder(module):
    """A certificate takes only the values its claim reads, so no check
    passes a ``None`` literal to fill a parameter that another claim reads."""
    nones = [
        node.lineno
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.Call)
        for arg in (*node.args, *(keyword.value for keyword in node.keywords))
        if isinstance(arg, ast.Constant) and arg.value is None
    ]
    assert not nones, f"{module}: None passed to a call on lines {nones}"


def _valued_symbol_names() -> set[str]:
    return {
        node.args[0].value
        for tree in _TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "ValuedSymbol"
        and isinstance(node.args[0], ast.Constant)
    }


@pytest.mark.parametrize("module", _TREES)
def test_no_dict_literal_states_a_symbol_valuation(module):
    """Each symbol's valuation is stated once, in its ValuedSymbol, and read
    through `symbol_valuations`, which certifies it against its rule; so no
    dict literal uses a symbol's name as a key."""
    names = _valued_symbol_names()
    assert {"r", "sqrt15", "alpha_eq4", "beta_eq4", "alpha_eq6", "beta_eq6"} <= names
    keyed = [
        (node.lineno, key.value)
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.Dict)
        for key in node.keys
        if isinstance(key, ast.Constant) and key.value in names
    ]
    assert not keyed, f"{module}: symbol names as dict keys {keyed}"


def _pieces_in_one_variable(node: ast.AST) -> bool:
    """A call ``param_valuations(f, {}, {var: w}, p)``: f valued in one variable."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func).split(".")[-1] == "param_valuations"
        and len(node.args) >= 3
        and isinstance(node.args[1], ast.Dict) and not node.args[1].keys
        and isinstance(node.args[2], ast.Dict) and len(node.args[2].keys) == 1
    )


@pytest.mark.parametrize("module", _TREES)
def test_pieces_in_one_variable_are_built_only_by_pieces_in(module):
    """The valuation pieces of f in lambda = v(var) have one home,
    `exactmath.valuation.pieces_in`, which the cell, circle and polygon
    rules read."""
    calls = [
        (getattr(top, "name", None), node.lineno)
        for top in _TREES[module].body
        for node in ast.walk(top)
        if _pieces_in_one_variable(node)
    ]
    if module == "exactmath/valuation.py":
        calls = [(name, line) for name, line in calls if name != "pieces_in"]
    assert not calls, f"{module}: pieces in one variable built at {calls}"


def test_valuation_imports_nothing_from_resultant():
    """A field valuation is the monomial rule's point case, not a norm
    computed through a resultant."""
    imported = [
        node.lineno
        for node in ast.walk(_TREES["exactmath/valuation.py"])
        if isinstance(node, ast.ImportFrom)
        and (
            (node.module or "").split(".")[-1] == "resultant"
            or any(alias.name == "resultant" for alias in node.names)
        )
    ]
    assert not imported, f"imports from exactmath.resultant on lines {imported}"


def _exactmath_modules_imported(module: str) -> set[str]:
    """The ``exactmath`` modules that the import statements of a package
    module name, the package itself as ``exactmath``."""
    named = set()
    for node in ast.walk(_TREES[module]):
        if isinstance(node, ast.Import):
            named |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            named |= {(node.module or "").split(".")[-1]} | {alias.name for alias in node.names}
    return named & {"exactmath", "kernel", "poly", "valuation", "polygon", "resultant"}


def test_exactmath_package_imports_none_of_its_modules():
    """`exactmath/__init__.py` binds no name, and every importer names the
    module that defines each name, so a process loads only the layers it
    calls."""
    init = [
        node.lineno
        for node in ast.walk(_TREES["exactmath/__init__.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not init, f"exactmath/__init__.py imports on lines {init}"
    from_package = [
        (module, node.lineno)
        for module, tree in _TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exactmath"
    ]
    assert not from_package, f"names imported from the exactmath package at {from_package}"


def test_kernel_imports_no_other_exactmath_module():
    """`exactmath.kernel` is the leaf of the kit: the integer and rational
    layer that every other module of it stands on."""
    assert not _exactmath_modules_imported("exactmath/kernel.py")


@pytest.mark.parametrize("module", ["exactmath/polygon.py", "exactmath/resultant.py", "cmlab.py"])
def test_the_class_polynomial_path_imports_nothing_symbolic(module):
    """The cm path runs on integers and rationals, so its modules import
    nothing from the symbolic polynomials of `poly` or from `valuation`."""
    symbolic = _exactmath_modules_imported(module) & {"poly", "valuation"}
    assert not symbolic, f"{module} imports from {sorted(symbolic)}"


def test_settings_come_from_the_command_line_alone():
    """`verify` has one input path, its command line: no module parses JSON,
    and a file is opened only by `cli.main`, to write the report, and by
    `cmlab.ClassPolyCache`, which checks every entry it reads back."""
    parsers, openers = [], set()
    for module, tree in _TREES.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    names = {alias.name for alias in node.names}
                    parsers += [(module, node.lineno)] if names & {"load", "loads"} else []
                if not isinstance(node, ast.Call):
                    continue
                called = ast.unparse(node.func)
                if called in {"json.load", "json.loads"}:
                    parsers.append((module, node.lineno))
                if called.split(".")[-1] == "open":
                    openers.add((module, getattr(top, "name", None)))
    assert not parsers, f"JSON parsed at {parsers}"
    assert openers == {("cli.py", "main"), ("cmlab.py", "ClassPolyCache")}, openers
