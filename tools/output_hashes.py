"""Print the sha256 of every output file of one pass of every benchmark op.

Runs each workload of ``bench/workloads.py`` once per workload seed, through
``bench/worker.py`` (imported and not changed), in a temporary directory, and
prints one line per ``results.jsonl`` and ``.tsv`` file:

    <workload>-<seed>/<op>/<file> <sha256>

Run it on two trees and diff the outputs: no difference means that every op
wrote byte-identical results. From the root of a checkout:

    python3 tools/output_hashes.py            # workload seeds 1, 2 and 3
    python3 tools/output_hashes.py 4 5        # other seeds
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)] or [1, 2, 3]
    sys.path.insert(0, str(ROOT / "bench"))
    import worker
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                out = Path(tmp) / f"{name}-{seed}"
                cli, cfgdir, cfgs = worker.setup(name, seed, out)
                worker.run_pass(cli, name, cfgdir, cfgs, out / "pass")
                for path in sorted((out / "pass").glob("*/*")):
                    if path.name == "results.jsonl" or path.suffix == ".tsv":
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{name}-{seed}/{path.parent.name}/{path.name} {digest}",
                              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
