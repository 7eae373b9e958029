"""The oracle guard: a parity test can never compare a path with itself."""

import pytest

import tests.oracles.dmt
import tests.oracles.ensembles
import tests.oracles.trees
from tests.oracles import overrides


class _Production:
    def fast(self):
        return "batched"

    @staticmethod
    def kernel():
        return "batched"


def test_override_of_a_live_method_is_accepted():
    @overrides(_Production, "fast", "kernel")
    class Oracle(_Production):
        def fast(self):
            return "per-row"

        @staticmethod
        def kernel():
            return "per-row"

    assert Oracle().fast() == "per-row"


def test_inherited_production_method_is_rejected():
    with pytest.raises(TypeError, match="is the production method"):

        @overrides(_Production, "fast", "kernel")
        class Oracle(_Production):
            def fast(self):
                return "per-row"


def test_override_of_a_removed_method_is_rejected():
    with pytest.raises(TypeError, match="does not exist"):

        @overrides(_Production, "renamed")
        class Oracle(_Production):
            def renamed(self):
                return "per-row"


def test_every_reference_class_is_declared_with_overrides():
    for module in (tests.oracles.dmt, tests.oracles.trees, tests.oracles.ensembles):
        oracles = [
            value
            for name, value in vars(module).items()
            if name.startswith("Reference") and isinstance(value, type)
        ]
        assert oracles
        for oracle in oracles:
            production, names = vars(oracle)["__oracle_of__"]
            assert production.__module__.startswith("repro.")
            assert names
