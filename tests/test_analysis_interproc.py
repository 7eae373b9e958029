"""Tests for the interprocedural layer of repro-lint.

Covers the call graph (inheritance dispatch, re-exports, aliased
imports), the dataflow engine's fixpoint, the three checker families it
powers (LCK race detection, PUR kernel purity, CPY copy discipline) with
at least one fixture-proven true positive and true negative per rule,
and the pinned ``kernel_manifest.json`` workflow.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import Finding, discover, run
from repro.analysis.callgraph import build_call_graph
from repro.analysis.dataflow import build_dataflow
from repro.analysis.manifest_gen import (
    collect_manifest,
    render_manifest,
    write_manifest,
)


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Materialise ``{'repro/layer/mod.py': source}`` under a tmp root."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def findings_for(
    tmp_path: Path, files: dict[str, str], prefix: str
) -> list[Finding]:
    """Project findings filtered to one rule family (``LCK``/``PUR``/...)."""
    findings = run(discover(make_tree(tmp_path, files)))
    return [f for f in findings if f.rule.startswith(prefix)]


# A minimal stream base: the purity pass locates kernels structurally by
# the ``SeededStream``/``Stream`` name in the ancestry, so fixtures need
# no real package.
_STREAM_BASE = (
    "class SeededStream:\n"
    "    def _generate(self, start, count):\n"
    "        raise NotImplementedError\n"
)


# --------------------------------------------------------------- call graph


class TestCallGraph:
    def test_inheritance_dispatch(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/core/shapes.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                    "    def step(self):\n"
                    "        return 0\n"
                    "class Child(Base):\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
            },
        )
        graph = build_call_graph(discover(root))
        base = "repro.core.shapes.Base"
        child = "repro.core.shapes.Child"
        # The method table resolves through the MRO: Child inherits run.
        assert graph.method_table[child]["run"] == f"{base}.run"
        assert graph.method_table[child]["step"] == f"{child}.step"
        # Virtual dispatch: self.step() inside Base.run may land on the
        # override too.
        (site,) = graph.calls[f"{base}.run"]
        assert site.on_self
        assert site.targets == (f"{base}.step", f"{child}.step")

    def test_reexport_and_constructor_typed_attr(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/pkg/__init__.py": "from repro.pkg.impl import Thing\n",
                "repro/pkg/impl.py": (
                    "class Thing:\n"
                    "    def go(self):\n"
                    "        return 42\n"
                ),
                "repro/serving/user.py": (
                    "from repro.pkg import Thing\n"
                    "class Holder:\n"
                    "    def __init__(self):\n"
                    "        self.thing = Thing()\n"
                    "    def use(self):\n"
                    "        return self.thing.go()\n"
                ),
            },
        )
        graph = build_call_graph(discover(root))
        impl = "repro.pkg.impl.Thing"
        # The package alias canonicalises to the defining module ...
        assert graph.reexports["repro.pkg.Thing"] == impl
        # ... so the constructor-typed attribute and the call through it
        # both resolve to the real class.
        assert graph.attr_types[("repro.serving.user.Holder", "thing")] == impl
        sites = graph.calls["repro.serving.user.Holder.use"]
        resolved = [s for s in sites if s.targets]
        assert resolved and resolved[0].targets == (f"{impl}.go",)

    def test_aliased_imports(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/utils/toolbox.py": (
                    "def helper():\n"
                    "    return 7\n"
                ),
                "repro/core/caller.py": (
                    "import time\n"
                    "from repro.utils.toolbox import helper as h\n"
                    "def work():\n"
                    "    time.sleep(0)\n"
                    "    return h()\n"
                ),
            },
        )
        graph = build_call_graph(discover(root))
        sites = graph.calls["repro.core.caller.work"]
        raws = {s.raw: s for s in sites}
        # An aliased in-tree function resolves through the import table.
        assert raws["repro.utils.toolbox.helper"].targets == (
            "repro.utils.toolbox.helper",
        )
        # An unresolved stdlib call keeps its dotted spelling.
        assert raws["time.sleep"].targets == ()

    def test_singleton_method_resolution(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/telemetry/reg.py": (
                    "class Registry:\n"
                    "    def bump(self):\n"
                    "        return 1\n"
                    "HUB = Registry()\n"
                ),
                "repro/core/use.py": (
                    "from repro.telemetry.reg import HUB\n"
                    "def tick():\n"
                    "    HUB.bump()\n"
                ),
            },
        )
        graph = build_call_graph(discover(root))
        (site,) = graph.calls["repro.core.use.tick"]
        assert site.targets == ("repro.telemetry.reg.Registry.bump",)


# ------------------------------------------------------------ lock checker


class TestLockDiscipline:
    def test_lck001_unguarded_read_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/hub.py": (
                    "import threading\n"
                    "class Hub:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._state = {}\n"
                    "    def write(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._state[key] = value\n"
                    "    def peek(self, key):\n"
                    "        return self._state.get(key)\n"
                ),
            },
            "LCK",
        )
        assert [f.rule for f in findings] == ["LCK001"]
        assert "peek" in findings[0].message

    def test_lck001_guarded_helper_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/hub.py": (
                    "import threading\n"
                    "class Hub:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._state = {}\n"
                    "    def _store(self, key, value):\n"
                    "        self._state[key] = value\n"
                    "    def write(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._store(key, value)\n"
                    "    def peek(self, key):\n"
                    "        with self._lock:\n"
                    "            return self._state.get(key)\n"
                ),
            },
            "LCK",
        )
        assert findings == []

    def test_lck002_abba_order_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/pair.py": (
                    "import threading\n"
                    "class Pair:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "        self._x = 0\n"
                    "    def forward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                self._x += 1\n"
                    "    def backward(self):\n"
                    "        with self._b:\n"
                    "            with self._a:\n"
                    "                self._x -= 1\n"
                ),
            },
            "LCK",
        )
        assert "LCK002" in {f.rule for f in findings}

    def test_lck002_consistent_order_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/pair.py": (
                    "import threading\n"
                    "class Pair:\n"
                    "    def __init__(self):\n"
                    "        self._a = threading.Lock()\n"
                    "        self._b = threading.Lock()\n"
                    "        self._x = 0\n"
                    "    def forward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                self._x += 1\n"
                    "    def backward(self):\n"
                    "        with self._a:\n"
                    "            with self._b:\n"
                    "                self._x -= 1\n"
                ),
            },
            "LCK",
        )
        assert "LCK002" not in {f.rule for f in findings}

    def test_lck003_blocking_under_lock_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/slow.py": (
                    "import threading\n"
                    "import time\n"
                    "class Slow:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._n = 0\n"
                    "    def nap(self):\n"
                    "        with self._lock:\n"
                    "            time.sleep(0.1)\n"
                    "            self._n += 1\n"
                    "    def read(self):\n"
                    "        with self._lock:\n"
                    "            return self._n\n"
                ),
            },
            "LCK",
        )
        assert "LCK003" in {f.rule for f in findings}

    def test_lck003_blocking_outside_lock_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/slow.py": (
                    "import threading\n"
                    "import time\n"
                    "class Slow:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._n = 0\n"
                    "    def nap(self):\n"
                    "        time.sleep(0.1)\n"
                    "        with self._lock:\n"
                    "            self._n += 1\n"
                    "    def read(self):\n"
                    "        with self._lock:\n"
                    "            return self._n\n"
                ),
            },
            "LCK",
        )
        assert "LCK003" not in {f.rule for f in findings}

    def test_lck003_transitive_blocking_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/deep.py": (
                    "import threading\n"
                    "import time\n"
                    "def _flush():\n"
                    "    time.sleep(0.1)\n"
                    "class Deep:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._n = 0\n"
                    "    def save(self):\n"
                    "        with self._lock:\n"
                    "            self._n += 1\n"
                    "            _flush()\n"
                    "    def read(self):\n"
                    "        with self._lock:\n"
                    "            return self._n\n"
                ),
            },
            "LCK",
        )
        blocking = [f for f in findings if f.rule == "LCK003"]
        assert blocking and "_flush" in blocking[0].message


# ---------------------------------------------------------- purity checker


class TestKernelPurity:
    def test_pur001_nontransient_self_write_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Impure(SeededStream):\n"
                    "    def __init__(self):\n"
                    "        self.count = 0\n"
                    "    def _generate(self, start, count):\n"
                    "        self.count += 1\n"
                    "        return None\n"
                ),
            },
            "PUR",
        )
        assert [f.rule for f in findings] == ["PUR001"]
        assert "count" in findings[0].message

    def test_pur001_transient_cache_write_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Cached(SeededStream):\n"
                    "    _repro_transient = ('_cache',)\n"
                    "    def __init__(self):\n"
                    "        self._cache = None\n"
                    "    def _init_transient(self):\n"
                    "        self._cache = None\n"
                    "    def _generate(self, start, count):\n"
                    "        self._cache = (start, count)\n"
                    "        return None\n"
                ),
            },
            "PUR",
        )
        assert findings == []

    def test_pur002_impure_helper_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Leaky(SeededStream):\n"
                    "    def __init__(self):\n"
                    "        self._hits = 0\n"
                    "    def _bump(self):\n"
                    "        self._hits += 1\n"
                    "    def _generate(self, start, count):\n"
                    "        self._bump()\n"
                    "        return None\n"
                ),
            },
            "PUR",
        )
        assert [f.rule for f in findings] == ["PUR002"]
        assert "_bump" in findings[0].message

    def test_pur002_transient_helper_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Tidy(SeededStream):\n"
                    "    _repro_transient = ('_cache',)\n"
                    "    def __init__(self):\n"
                    "        self._cache = None\n"
                    "    def _init_transient(self):\n"
                    "        self._cache = None\n"
                    "    def _refresh(self, block):\n"
                    "        self._cache = block\n"
                    "    def _generate(self, start, count):\n"
                    "        self._refresh(start)\n"
                    "        return None\n"
                ),
            },
            "PUR",
        )
        assert findings == []


# ------------------------------------------------------------ copy checker


class TestCopyDiscipline:
    def test_cpy001_redundant_param_validation_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/score.py": (
                    "import numpy as np\n"
                    "def score(model, X):\n"
                    "    X = np.asarray(X, dtype=float)\n"
                    "    return model.predict(X)\n"
                ),
            },
            "CPY",
        )
        assert [f.rule for f in findings] == ["CPY001"]
        assert "'X'" in findings[0].message

    def test_cpy001_param_with_raw_array_use_ok(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/serving/score.py": (
                    "import numpy as np\n"
                    "def score(X):\n"
                    "    X = np.asarray(X, dtype=float)\n"
                    "    return X.mean()\n"
                ),
            },
            "CPY",
        )
        assert findings == []

    def test_cpy001_fresh_revalidation_flagged(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/evaluation/fold.py": (
                    "import numpy as np\n"
                    "def widen(rows):\n"
                    "    fresh = np.array(rows, dtype=float)\n"
                    "    again = np.asarray(fresh)\n"
                    "    return again\n"
                ),
            },
            "CPY",
        )
        assert [f.rule for f in findings] == ["CPY001"]
        assert "freshly-owned" in findings[0].message

    def test_cpy001_cold_layer_exempt(self, tmp_path):
        findings = findings_for(
            tmp_path,
            {
                "repro/core/score.py": (
                    "import numpy as np\n"
                    "def score(model, X):\n"
                    "    X = np.asarray(X, dtype=float)\n"
                    "    return model.predict(X)\n"
                ),
            },
            "CPY",
        )
        assert findings == []


# ------------------------------------------------------- dataflow fixpoint


class TestDataflowFixpoint:
    def test_lock_facts_propagate_through_helpers(self, tmp_path):
        """A lock acquired two calls deep is visible at the entry point."""
        root = make_tree(
            tmp_path,
            {
                "repro/serving/deep.py": (
                    "import threading\n"
                    "class Deep:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._n = 0\n"
                    "    def _inner(self):\n"
                    "        with self._lock:\n"
                    "            self._n += 1\n"
                    "    def _mid(self):\n"
                    "        self._inner()\n"
                    "    def outer(self):\n"
                    "        self._mid()\n"
                ),
            },
        )
        project = discover(root)
        engine = build_dataflow(project)
        outer = engine.facts["repro.serving.deep.Deep.outer"]
        assert any("_lock" in token for token in outer.locks)
        assert "_n" in outer.writes_self

    def test_summaries_deterministic_across_builds(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/serving/a.py": (
                    "class A:\n"
                    "    def f(self):\n"
                    "        self.x = 1\n"
                    "        return self.g()\n"
                    "    def g(self):\n"
                    "        return self.x\n"
                ),
            },
        )
        project = discover(root)
        first = build_dataflow(project)
        second = build_dataflow(project)
        assert sorted(first.facts) == sorted(second.facts)
        for qualname in first.facts:
            assert first.facts[qualname] == second.facts[qualname]


# ----------------------------------------------------------------- manifest


class TestKernelManifest:
    def test_collect_manifest_structure(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Clean(SeededStream):\n"
                    "    def _generate(self, start, count):\n"
                    "        return (start, count)\n"
                    "class Dirty(SeededStream):\n"
                    "    def __init__(self):\n"
                    "        self.n = 0\n"
                    "    def _generate(self, start, count):\n"
                    "        self.n += 1\n"
                    "        return None\n"
                ),
            },
        )
        manifest = collect_manifest(discover(root))
        assert manifest["version"] == 1
        assert "repro.streams.gen.Clean._generate" in manifest["generate_kernels"]
        # Impure kernels are excluded, not listed with a caveat.
        assert (
            "repro.streams.gen.Dirty._generate"
            not in manifest["generate_kernels"]
        )

    def test_write_manifest_roundtrip(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "repro/streams/gen.py": (
                    _STREAM_BASE
                    + "class Clean(SeededStream):\n"
                    "    def _generate(self, start, count):\n"
                    "        return (start, count)\n"
                ),
            },
        )
        project = discover(root)
        out = tmp_path / "manifest.json"
        write_manifest(project, out)
        assert json.loads(out.read_text()) == collect_manifest(project)

    def test_checked_in_manifest_is_current(self):
        """The pinned kernel_manifest.json matches the live tree (CI gate)."""
        project = discover()
        pinned = Path(project.root).parent / "kernel_manifest.json"
        assert pinned.exists(), "kernel_manifest.json missing at the repo root"
        assert pinned.read_text(encoding="utf-8") == render_manifest(
            collect_manifest(project)
        )

    def test_live_stream_kernels_all_certified(self):
        """Every concrete stream's ``_generate`` certifies as pure."""
        manifest = collect_manifest(discover())
        kernels = set(manifest["generate_kernels"])
        assert "repro.streams.base.ArrayStream._generate" in kernels
        assert "repro.streams.scenarios.ScenarioPipeline._generate" in kernels
        assert "repro.streams.base.SeededStream._generate" in kernels
