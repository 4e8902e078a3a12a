"""Byte identity of the CLI's outputs against ``tests/output_manifest.json``.

The manifest holds the SHA-256 of every output file of a fast subset of
``tools/compare_outputs.py``'s configs, each run's exit code and its first
stderr line (``tools/output_manifest.py`` writes it and says what the subset
covers).  A change that moves a byte fails here; one that moves bytes on
purpose regenerates the manifest in the same diff.  Hashes made with another
numpy or on another platform are not compared: the test fails and names the
regeneration command instead of passing.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from output_manifest import MANIFEST, REGENERATE, environment, run_subset  # noqa: E402


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    if manifest["environment"] != environment():
        pytest.fail(f"the manifest was made under {manifest['environment']}, this run is {environment()}: "
                    f"check that no output moved (tools/compare_outputs.py), then run `{REGENERATE}`")
    runs = run_subset(tmp_path)
    assert sorted(runs) == sorted(manifest["runs"])
    moved = []
    for name, run in runs.items():
        want = manifest["runs"][name]
        moved += [f"{name}: {key} {want[key]!r} -> {run[key]!r}" for key in ("exit", "stderr") if run[key] != want[key]]
        files, wanted = run["files"], want["files"]
        moved += [f"{name}/{path}: {wanted.get(path)} -> {files.get(path)}"
                  for path in sorted(files.keys() | wanted.keys()) if files.get(path) != wanted.get(path)]
    assert not moved, "\n".join(moved + [f"if the move is meant, run `{REGENERATE}` and list it in CHANGES.md"])
