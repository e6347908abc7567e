"""Every functools cache that a `qgames` module holds is bounded, so a long-running process
does not grow with the number of distinct inputs it sees."""

import importlib
import inspect
import pkgutil

import qgames

# caches the scan must find, so a scan that finds none cannot pass
KNOWN = {"qgames.eisert._probs", "qgames.catalog._scalar_table", "qgames.cli._gamma_axis",
         "qgames.cli.build_parser", "qgames.oracle._spin_and_bond_sums"}


def module_caches():
    """(qualified name, cache) of every `cache_info`-bearing value at the top level of the
    package and each of its modules."""
    modules = [qgames, *(importlib.import_module(f"qgames.{m.name}")
                         for m in pkgutil.iter_modules(qgames.__path__))]
    return {f"{module.__name__}.{name}": value for module in modules
            for name, value in vars(module).items() if hasattr(value, "cache_info")}


def test_every_module_cache_has_a_maxsize_or_takes_no_arguments():
    caches = module_caches()
    assert KNOWN <= caches.keys()
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None
                 and inspect.signature(cache.__wrapped__).parameters]
    assert unbounded == []
