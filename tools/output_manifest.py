"""Write tests/output_manifest.json: the SHA-256 of every output file of a
fast subset of ``tools/compare_outputs.py``'s configs, with each run's exit
code and first stderr line.

    python3 tools/output_manifest.py

The subset (``SUBSET``) runs in-process through ``chaoslab.cli.main``, in
``CONFIGS`` order, in about 10 s on a 2-vCPU VM.  It covers every command and
kernel type, orders 1 to 3, beta1 != 0, two workers, ``verify`` with its
refinement check on, and each config that exits non-zero by design.  The
configs themselves are ``compare_outputs.CONFIGS``, the one list both tools
read.  The manifest records numpy's version, the platform and the CPU's SIMD
targets, since the bytes may move with each; ``tests/test_output_manifest.py``
fails when they differ from the running ones, naming this command, rather
than compare hashes made elsewhere.  A change that moves output bytes on purpose reruns this command
in the same diff and lists the entries it changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare_outputs import CONFIGS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.json"
REGENERATE = "python3 tools/output_manifest.py"

SUBSET = (
    "expand-tensors", "expand-counterexample", "expand-total-12",
    "verify-rosenblatt", "verify-fbm-filter", "verify-hermite-3", "verify-custom-filter-levels", "verify-zero-2",
    "simulate-rosenblatt", "simulate-rosenblatt-w2", "report-paths",
    "report-inline", "report-hermite-3", "report-lp-overflow",
    "fuzz-12", "fuzz-inequalities",
    "simulate-fbm", "simulate-hermite", "simulate-hermite-t2", "simulate-custom", "simulate-custom-filter",
    "simulate-custom-1", "simulate-fbm-deep", "simulate-zero-1", "simulate-zero-2", "simulate-negative-scale",
)


def environment():
    """What the bytes may depend on besides the code: numpy's version, the
    platform, and the SIMD targets numpy dispatches to on this CPU (its
    vectorized math may round differently on each)."""
    from numpy._core import _multiarray_umath as umath

    simd = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}", "simd": simd}


def run_subset(work):
    """{name: {"exit", "stderr" (its first line), "files" ({path under the
    config's out dir: SHA-256})}} for the configs of ``SUBSET``, each run by
    ``cli.main`` with ``work`` (which must exist) as the working directory."""
    from chaoslab import cli

    runs = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        write_inputs(Path("."))
        for name, command, cfg, *workers in CONFIGS:
            if name not in SUBSET:
                continue
            Path(f"{name}.json").write_text(json.dumps(cfg))
            argv = [command, "--config", f"{name}.json", "--out-dir", f"out/{name}"]
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv + [f"--workers={n}" for n in workers])
            out = Path("out") / name
            files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.rglob("*")) if p.is_file()}
            runs[name] = {"exit": code, "stderr": (stderr.getvalue().splitlines() or [""])[0], "files": files}
    finally:
        os.chdir(cwd)
    return runs


def main():
    with tempfile.TemporaryDirectory(prefix="output-manifest-") as work:
        runs = run_subset(work)
    text = json.dumps({"environment": environment(), "runs": runs}, indent=1, sort_keys=True)
    MANIFEST.write_text(text + "\n")
    print(f"{MANIFEST}: {sum(len(r['files']) for r in runs.values())} files of {len(runs)} configs")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
