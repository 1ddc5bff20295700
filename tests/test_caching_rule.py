"""The package's one caching rule (``semigroups.MEMO_BOUND``): a cache is
state on the object that owns it, or a pure ``lru_cache`` bounded at
``MEMO_BOUND`` on immutable inputs."""

import functools
import importlib
import inspect
import pkgutil

import resemi
from resemi.semigroups import MEMO_BOUND

# The memos exempt from the bound: none.
UNBOUNDED = set()


def _modules():
    return [importlib.import_module(f"resemi.{info.name}")
            for info in pkgutil.iter_modules(resemi.__path__)]


def _defined(module):
    """(name, object) for each attribute that ``module`` defines itself, and
    for each attribute of the classes it defines, by ``Class.attr``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                yield f"{name}.{attr}", getattr(value, "__func__", value)


def test_every_memo_is_bounded_at_memo_bound():
    memos = {(module.__name__, name): obj.cache_parameters()["maxsize"]
             for module in _modules() for name, obj in _defined(module)
             if hasattr(obj, "cache_parameters")}
    assert UNBOUNDED <= memos.keys()
    assert {key: bound for key, bound in memos.items()
            if key not in UNBOUNDED and bound != MEMO_BOUND} == {}
    # the ten kernel and record memos of the linear family, and the seeded
    # closure memo and the subsemigroup lists of the sweep
    assert len(memos) - len(UNBOUNDED) == 12


def test_no_class_uses_cached_property():
    found = [(module.__name__, name) for module in _modules() for name, obj in _defined(module)
             if isinstance(obj, functools.cached_property)]
    assert found == []
