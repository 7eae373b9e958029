"""Generator for the pinned certified-kernel manifest.

``python -m repro.analysis --regen-manifest`` runs the PUR purity pass
over the live tree and rewrites ``kernel_manifest.json`` at the repo root
with every stream kernel (``_generate``/``_generate_block``) that
certifies pure.  Like the metric inventory, the manifest is a checked-in,
reviewed artefact (CI diffs it for currency), so a kernel silently
falling out of certification is a reviewed change, not an accident.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.checkers.purity import certified_kernels
from repro.analysis.core import Project
from repro.analysis.dataflow import shared_engine

MANIFEST_VERSION = 1


def collect_manifest(project: Project) -> dict[str, object]:
    """The manifest payload: certified kernels, sorted, plus a version."""
    return {
        "version": MANIFEST_VERSION,
        "generate_kernels": list(certified_kernels(shared_engine(project))),
    }


def render_manifest(manifest: dict[str, object]) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def default_manifest_path(project: Project) -> Path:
    """``kernel_manifest.json`` at the repo root (the parent of ``src``)."""
    return project.root.parent / "kernel_manifest.json"


def write_manifest(project: Project, path: Path | None = None) -> Path:
    if path is None:
        path = default_manifest_path(project)
    path.write_text(render_manifest(collect_manifest(project)), encoding="utf-8")
    return path
