"""Scalar reference implementations: the oracles the fast kernels must match.

Every production kernel in ``repro`` works on whole batches or whole
candidate sets at once and is pinned bit for bit to a plain per-row,
per-candidate or per-threshold formulation.  Those formulations live here,
outside the package, and serve two purposes:

* the parity tests (``tests/test_training_vectorized.py``,
  ``tests/test_baselines_vectorized.py``, ``tests/test_serving.py``, ...)
  train a production model and its oracle side by side and compare them
  bitwise;
* the kernel benchmarks (``benchmarks/bench_training.py``,
  ``bench_baselines.py``, ``bench_serving_throughput.py``) time the oracle
  as the denominator of their speedup gates.

Most oracles are subclasses of a production class that override its fast
methods with the reference loops.  They are declared with :func:`overrides`,
which checks at import time that each overridden method still exists on the
production class and is really replaced, so a parity test can never
silently compare a path with itself.  Run the benchmarks from the
repository root with ``PYTHONPATH=src:.`` so ``tests.oracles`` imports.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

_T = TypeVar("_T", bound=type)


def overrides(production: type, *names: str) -> Callable[[_T], _T]:
    """Class decorator: the oracle replaces each named method of ``production``.

    Raises ``TypeError`` at class creation when the oracle does not derive
    from ``production``, when ``production`` no longer has one of the
    methods (the override would be dead code), or when the oracle resolves
    the name to the production function itself.
    """

    def check(oracle: _T) -> _T:
        if not issubclass(oracle, production):
            raise TypeError(f"{oracle.__name__} must subclass {production.__name__}")
        for name in names:
            if not callable(getattr(production, name, None)):
                raise TypeError(
                    f"{production.__name__}.{name} does not exist; the "
                    f"{oracle.__name__} override would never run"
                )
            if _function(oracle, name) is _function(production, name):
                raise TypeError(
                    f"{oracle.__name__}.{name} is the production method of "
                    f"{production.__name__}"
                )
        oracle.__oracle_of__ = (production, names)
        return oracle

    return check


def _function(cls: type, name: str) -> object:
    """The function behind ``cls.name`` (unwrapping static/class methods)."""
    for klass in cls.__mro__:
        if name in vars(klass):
            attribute = vars(klass)[name]
            return getattr(attribute, "__func__", attribute)
    raise AttributeError(name)
