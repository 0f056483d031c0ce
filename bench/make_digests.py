"""Record the reference SHA-256 digests of every file the CLI workloads write.

    python3 bench/make_digests.py

Run it from the root of a checkout of the commit whose outputs are the
reference; it rewrites bench/digests.json.  A later commit must reproduce
these bytes exactly, so regenerate only when an output change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workdir = workloads.ROOT / ".bench_out" / "digests"
    digests = {}
    try:
        for cls in (workloads.ColdCli, workloads.Export):
            w = cls(digests={})
            table = digests[w.name] = {}
            for kind in w.kinds:
                op = w.draw(kind, None)
                opdir = workloads.fresh_dir(workdir / "op")
                argv = op.params["argv"] + ["--out", str(opdir / op.params["out"])]
                if workloads.package("cli").main(argv) != 0:
                    raise SystemExit(f"{kind} failed")
                table[kind] = {p.name: workloads.sha256(p) for p in sorted(opdir.iterdir())}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
