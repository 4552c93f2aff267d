"""Record the digests of the scan workload's output in scan_digests.json.

    python3 perfbench/record_scan_digests.py

A digest is the sha256 of the CSV that `scan` prints without --timing, for
`scan --m 3` and for `scan --m 5 --budget 200 --seed k` with k below
SCAN_SEEDS.  The benchmark fails a scan whose bytes differ from these, so
rerun this only when a change is meant to alter scan's output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
from workloads import SCAN_DIGESTS, SCAN_SEEDS, Op, execute, scan_key_argv


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.import_library()
    commands = [("scan", "--m", "3")]
    commands += [("scan", "--m", "5", "--budget", "200", "--seed", str(k))
                 for k in range(SCAN_SEEDS)]
    digests = {}
    for argv in commands:
        res = execute(lib, Op("scan", 0, argv))
        if res.rc != 0 or res.error is not None:
            print(f"{' '.join(argv)}: exit {res.rc} {res.error or ''}", file=sys.stderr)
            return 1
        digests[scan_key_argv(argv)] = hashlib.sha256(res.out.encode()).hexdigest()
        print(f"{scan_key_argv(argv)}: {res.out.count(chr(10)) - 1} rows")
    SCAN_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
