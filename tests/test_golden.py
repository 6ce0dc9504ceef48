"""Golden check: the nine reference bundles, byte for byte.

``reproduce_figures`` at reduced N writes 54 artifact files; their sha256
values must match ``golden_manifest.json``.  ``report.json`` embeds the
numpy and scipy versions, so the manifest records them and the test
skips when they differ.

Regenerating the manifest is a deliberate step, taken only when a change
is meant to alter the artifacts:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from semispec import reproduce_figures

MANIFEST = Path(__file__).with_name("golden_manifest.json")
GOLDEN_N = 12


def _versions():
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _artifact_hashes(root):
    reproduce_figures(root, N=GOLDEN_N)
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_reference_bundles_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != _versions():
        pytest.skip(f"manifest made with {manifest['versions']}, "
                    f"running {_versions()}")
    assert manifest["N"] == GOLDEN_N
    hashes = _artifact_hashes(tmp_path)
    assert len(hashes) == 54
    changed = sorted(name for name in hashes.keys() | manifest["files"].keys()
                     if hashes.get(name) != manifest["files"].get(name))
    assert not changed, f"artifacts differ from the manifest: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = _artifact_hashes(Path(tmp))
    MANIFEST.write_text(json.dumps(
        {"N": GOLDEN_N, "versions": _versions(), "files": files},
        sort_keys=True, indent=2) + "\n")
    print(f"wrote {MANIFEST} ({len(files)} files)")
