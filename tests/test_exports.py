"""The package's public surface is the concatenation of the module lists."""

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
