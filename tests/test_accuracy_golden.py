"""Golden pins on the accuracy-path artifacts (fig5, fig9, ablations).

Each digest is the sha256 of the ``--fast`` artifact's rows (as sorted
JSON) and its printed table -- the fields a result consumer reads.  The
values were recorded from the per-head accuracy path, before it was
stacked over heads, so they guard that every later reformulation of
the policies and the transformer stays byte-identical.
"""

import hashlib
import json

import pytest

from repro.experiments import registry
from repro.runtime.artifacts import build_artifact

GOLDEN_ARTIFACTS = {
    "fig5": "2b6e6b7c5c3b1e313f64fa1491933b590ba15e75ae15d86a100306caa63606f6",
    "fig9": "89f6aa9f0c562fc573f6a0f3f0a95518cc9b506df9c7d54aa586f49af17c1e74",
    "ablations": "2fb2766c711a79ec5f8cc520bb08a932201d417d097afcd2557fe83ac0c8bda4",
}


def artifact_sha256(name: str) -> str:
    kwargs, module = registry.resolve(name, fast=True)
    artifact = build_artifact(name, kwargs, module)
    h = hashlib.sha256()
    h.update(json.dumps(artifact.rows, sort_keys=True).encode())
    h.update(b"\0")
    h.update(artifact.table.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_ARTIFACTS))
def test_fast_artifact_is_byte_identical(name):
    assert artifact_sha256(name) == GOLDEN_ARTIFACTS[name]
