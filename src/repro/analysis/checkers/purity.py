"""PUR -- purity certification of the stream kernels.

A stream kernel -- ``_generate`` / ``_generate_block`` on a concrete
``SeededStream`` subclass -- must be replayable: the chunk-invariance
contract of the stream core regenerates any block on demand, so a kernel
that scribbles on ``self``, a global, or a caller's array changes what a
replay returns.  Allowed self-state is exactly the ``_repro_transient``
declaration (replay caches); everything else must stay untouched.  Arrays
obtained from a wrapped stream (``peek_rows``/``_source``/``_block``) are
*borrowed* -- mutating one without an intervening ``.copy()`` corrupts the
upstream cache.  The pass uses the interprocedural dataflow facts.

``PUR001`` flags direct impurity in the kernel body; ``PUR002`` flags
impurity reached through a callee.  The certified kernels are pinned in
``kernel_manifest.json`` (``--regen-manifest``), so a kernel silently
losing its certification shows up as a reviewed diff.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.core import Checker, Finding, Project, Rule
from repro.analysis.checkers.persistence import _ancestors, is_abstract

if TYPE_CHECKING:  # deferred: dataflow imports callgraph, which imports
    from repro.analysis.dataflow import DataflowEngine  # this package

#: The stream base classes kernels hang off: ``Stream`` is the root
#: contract (``ArrayStream``/``ScenarioPipeline`` subclass it directly),
#: ``SeededStream`` covers fixture trees that fake only the seeded base.
#: Matching is structural (by name anywhere in the ancestry) so fixture
#: trees can exercise the pass without the real package.
STREAM_BASES = frozenset({"Stream", "SeededStream"})

#: Names of the stream kernel entry points.
STREAM_KERNELS = ("_generate", "_generate_block")


def _short(qualname: str) -> str:
    return ".".join(qualname.rsplit(".", 2)[-2:])


def _is_stream_class(cls: str, engine: DataflowEngine) -> bool:
    if cls.rsplit(".", 1)[-1] in STREAM_BASES:
        return True
    return any(
        base.rsplit(".", 1)[-1] in STREAM_BASES
        for base in _ancestors(cls, engine.graph.class_graph)
    )


def discover_stream_kernels(engine: DataflowEngine) -> tuple[str, ...]:
    """Defining qualnames of every live ``_generate``/``_generate_block``.

    "Live" means reachable from a concrete (instantiable) stream class;
    a kernel inherited by several concrete subclasses appears once, under
    the class that defines it.
    """
    kernels: set[str] = set()
    for cls in sorted(engine.graph.class_graph):
        if not _is_stream_class(cls, engine):
            continue
        if is_abstract(cls, engine.graph.class_graph):
            continue
        table = engine.graph.method_table.get(cls, {})
        for name in STREAM_KERNELS:
            defining = table.get(name)
            if defining is not None and defining in engine.graph.functions:
                kernels.add(defining)
    return tuple(sorted(kernels))


def kernel_findings(engine: DataflowEngine, qualname: str) -> list[Finding]:
    """PUR001/PUR002 findings for one kernel function."""
    from repro.analysis.dataflow import transient_of

    fn = engine.graph.functions[qualname]
    summary = engine.summaries[qualname]
    allowed = (
        transient_of(fn.cls, engine.graph) if fn.cls is not None else frozenset()
    )
    findings: list[Finding] = []

    def emit(rule: str, line: int, col: int, message: str) -> None:
        findings.append(
            Finding(
                path=fn.module.rel,
                line=line,
                col=col,
                rule=rule,
                message=message,
            )
        )

    for access in summary.accesses:
        if access.kind != "write" or access.attr in allowed:
            continue
        emit(
            "PUR001",
            access.line,
            access.col,
            f"kernel {_short(qualname)} mutates non-transient self "
            f"state '{access.attr}' (declare it in _repro_transient "
            "or hoist the mutation out of the kernel)",
        )
    for name in sorted(summary.writes_globals):
        emit(
            "PUR001",
            fn.node.lineno,
            fn.node.col_offset,
            f"kernel {_short(qualname)} mutates module-level state "
            f"'{name}'",
        )
    for name in sorted(summary.mutated_params):
        emit(
            "PUR001",
            fn.node.lineno,
            fn.node.col_offset,
            f"kernel {_short(qualname)} mutates caller argument '{name}' "
            "in place",
        )
    for mutation in summary.borrow_mutations:
        emit(
            "PUR001",
            mutation.line,
            mutation.col,
            f"kernel {_short(qualname)} mutates borrowed array "
            f"'{mutation.name}' without copying it first",
        )
    # Transitive impurity: a call whose closure adds effects the direct
    # scan above did not already report.
    for call in summary.calls:
        culprits: set[str] = set()
        for target in call.site.targets:
            facts = engine.facts.get(target)
            if facts is None:
                continue
            if call.site.on_self:
                # ``impure_writes_self`` is already filtered against each
                # *writer's own* transient declaration, so a subclass
                # cache write deep in a dispatch chain is not impurity.
                extra = facts.impure_writes_self - allowed - summary.writes_self
                if extra:
                    culprits.add(
                        f"self state {', '.join(sorted(extra))!s} via "
                        f"{_short(target)}"
                    )
            extra_globals = facts.writes_globals - summary.writes_globals
            if extra_globals:
                culprits.add(
                    f"module state {', '.join(sorted(extra_globals))!s} "
                    f"via {_short(target)}"
                )
            for caller_name, callee_param in engine.map_args(call, target):
                if callee_param not in facts.mutated_params:
                    continue
                for binding in call.args:
                    if binding.name != caller_name:
                        continue
                    if (
                        binding.is_param
                        and caller_name not in summary.mutated_params
                    ):
                        culprits.add(
                            f"caller argument '{caller_name}' via "
                            f"{_short(target)}"
                        )
                    if binding.is_borrowed:
                        culprits.add(
                            f"borrowed array '{caller_name}' via "
                            f"{_short(target)}"
                        )
        for culprit in sorted(culprits):
            emit(
                "PUR002",
                call.line,
                call.col,
                f"kernel {_short(qualname)} transitively mutates "
                f"{culprit}",
            )
    findings.sort(key=lambda f: (f.line, f.col, f.rule, f.message))
    return findings


def certified_kernels(engine: DataflowEngine) -> tuple[str, ...]:
    """Stream kernels with zero PUR findings."""
    return tuple(
        qualname
        for qualname in discover_stream_kernels(engine)
        if not kernel_findings(engine, qualname)
    )


class KernelPurityChecker(Checker):
    name = "kernel-purity"
    rules = (
        Rule(
            "PUR001",
            "kernel mutates non-transient self state, globals, or caller arrays",
            "the chunk-invariance contract regenerates stream blocks on "
            "demand, so a replayed kernel must be pure modulo its "
            "_repro_transient caches",
        ),
        Rule(
            "PUR002",
            "kernel reaches impure state mutation through a callee",
            "purity is a whole-call-tree property; a pure-looking kernel "
            "delegating to an impure helper is still inadmissible",
        ),
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.dataflow import shared_engine

        engine = shared_engine(project)
        for qualname in discover_stream_kernels(engine):
            yield from kernel_findings(engine, qualname)
