"""Record reference.json: the outputs of every item variant any seed can draw.

    python3 perfbench/make_reference.py

Run it on the commit whose outputs are the reference; later commits are
checked against the file it writes.  Oracle items need no reference (they
are checked against the closed forms).  BLAS threads are pinned as in a
pass, so dense results round the same way.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import SRC, THREADS, WORKDIR

os.environ.update(THREADS)  # before numpy is imported
sys.path.insert(0, SRC)

import worker  # noqa: E402
from checks import REFERENCE  # noqa: E402
from workloads import WORKLOADS, item_key, item_variants, nominal, with_cli_argv  # noqa: E402


def main() -> int:
    ref: dict = {}
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        for workload in WORKLOADS:
            for nominal_item in nominal(workload):
                if nominal_item["op"] == "oracle":
                    continue
                for item in item_variants(nominal_item):
                    if item["op"] == "cli":
                        out = worker.run_item(with_cli_argv(item, worker.ROOT, workdir))
                        if out["rc"] != 0:
                            raise SystemExit(f"{item_key(item)} exited {out['rc']}")
                        out = {"sha256": out["sha256"]}
                    else:
                        out = worker.run_item(item)
                    ref[item_key(item)] = out
                    print(item_key(item), file=sys.stderr)
    finally:
        shutil.rmtree(workdir)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
