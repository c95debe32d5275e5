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


def test_every_exactmath_export_has_a_reader():
    """Each name the imports of ``exactmath/__init__.py`` bind is read in a
    package module other than that one, so no dead kernel routine stays
    exported."""
    exported = {
        alias.asname or alias.name
        for node in _TREES["exactmath/__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {"symbol_valuations", "field_valuation", "min_valuation"} <= exported
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in _TREES.items()
        if module != "exactmath/__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unread = exported - read
    assert not unread, f"exported but never read: {sorted(unread)}"


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
def test_checks_do_no_valuation_arithmetic(module):
    """Suite modules read certificates; the valuation pieces, envelopes and
    minima behind them are computed in the layers."""
    kernel = {"affine", "param_valuations", "valuation_levels", "envelope_min", "min_valuation"}
    imported = {
        alias.name
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & kernel, f"{module} imports {sorted(imported & kernel)}"


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
