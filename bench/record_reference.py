"""Record the outcome digest of every pool entry of every workload.

    python3 bench/record_reference.py

Writes reference.json next to this file.  Run it only at a commit whose
outcomes are the reference: the benchmark fails any op whose outcome differs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from run import BENCH, RUN_DIR, SRC, _git_commit  # sets the BLAS environment

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def main() -> int:
    tmp = RUN_DIR / f"record-{os.getpid()}"
    digests = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            w = cls()
            (tmp / "inputs").mkdir(parents=True, exist_ok=True)
            pool = w.build(tmp / "inputs")
            digests[name] = {}
            for i, inp in enumerate(pool):
                out = tmp / "out"
                out.mkdir()
                digests[name][str(i)] = workloads.digest(w.outcome(w.op(inp, out), out))
                shutil.rmtree(out)
            print(f"{name}: {len(pool)} entries", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc = {"commit": _git_commit(), "digests": digests}
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
