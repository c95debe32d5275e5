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


@pytest.mark.parametrize("module", _TREES)
def test_no_mpmath_imports(module):
    """Class polynomials are built in integer ball arithmetic, so mpmath is a
    test oracle only and no verifier process loads it."""
    imported = []
    for node in ast.walk(_TREES[module]):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "mpmath"], module


def test_exactmath_all_lists_every_public_name_it_binds():
    """A name dropped from an import list must leave ``__all__`` too."""
    import stablelab.exactmath

    bound = set()
    for node in _TREES["exactmath/__init__.py"].body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    public = {name for name in bound if not name.startswith("_")}
    assert sorted(stablelab.exactmath.__all__) == sorted(public)


#: Test-oracle entry points that nothing in the package calls; they stay
#: exported until they move under tests/.
_ORACLE_EXPORTS = {"resultant_coeffs", "interpolate_integer_polynomial"}


def test_every_exactmath_export_has_a_reader():
    """Each name ``exactmath`` exports is read in a package module other than
    ``exactmath/__init__.py``, so no dead kernel routine stays exported."""
    import stablelab.exactmath

    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for module, tree in _TREES.items()
        if module != "exactmath/__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unread = set(stablelab.exactmath.__all__) - read - _ORACLE_EXPORTS
    assert not unread, f"exported but never read: {sorted(unread)}"


_CHECKS = [name for name in _TREES if name.startswith("checks/")]


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_leave_certificate_failures_to_run_suite(module):
    """A failed certificate reaches the report only through `cli.run_suite`:
    a suite module has no try statement, raises no CertificateError and
    reads no status of a layer record.  `CongruenceResult.passed` is a
    measured root valuation compared with the conjecture's bound, so the cm
    suite reads it."""
    tree = _TREES[module]
    tries = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Try, ast.TryStar))]
    raises = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "CertificateError" in ast.unparse(node)
    ]
    verdicts = {"status"} if module == "checks/cm.py" else {"status", "passed"}
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in verdicts
    ]
    assert not tries, f"{module}: try on lines {tries}"
    assert not raises, f"{module}: raises CertificateError on lines {raises}"
    assert not reads, f"{module}: reads a record status on lines {reads}"


@pytest.mark.parametrize("module", _CHECKS)
def test_checks_do_no_valuation_arithmetic(module):
    """Suite modules read certificates; the valuation pieces, envelopes and
    minima behind them are computed in the layers."""
    kernel = {"affine", "param_valuations", "envelope_min", "min_valuation"}
    imported = {
        alias.name
        for node in ast.walk(_TREES[module])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & kernel, f"{module} imports {sorted(imported & kernel)}"
