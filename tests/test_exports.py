"""The package's public surface is the concatenation of the module lists."""

import ast
import importlib
import os
import pkgutil

import proxycause
from proxycause import anm, core, experiments, independence, proxy_image, proxy_text, rcc

# In the order the package concatenates them.
MODULES = (core, independence, anm, rcc, proxy_image, proxy_text, experiments)


def test_package_exports_are_the_module_lists():
    # every library module but the command line states a list
    names = {m.name for m in pkgutil.iter_modules(proxycause.__path__)}
    assert names == {m.__name__.rsplit(".", 1)[1] for m in MODULES} | {"cli"}
    assert proxycause.__all__ == [name for module in MODULES for name in module.__all__]


def test_package_exports_have_no_duplicates():
    assert len(set(proxycause.__all__)) == len(proxycause.__all__)


def test_every_export_resolves_on_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(proxycause, name) is getattr(module, name), name


def test_every_benchmark_wrap_resolves_on_the_library():
    """Each (module, attribute) row of the benchmark tracer's WRAPS table,
    read from perfbench/layers.py without importing it, names an attribute
    the library module has; dropping a wrapped name fails here."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]
    ]
    rows = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert len(rows) >= 20
    for module, attribute in rows:
        assert hasattr(importlib.import_module(module), attribute), (module, attribute)
