"""Set-up cost in a fresh interpreter: `import fuzzychip` plus one warm-up
operation of a workload. run.py starts this script several times per run
and reports the median as setup_s.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR

prints one JSON object: {"setup_s": ..., "ref_s": ..., "exit": ...}, where
ref_s is the median reference-loop time (hostspeed.py) around the set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

from env import bootstrap
from hostspeed import time_reference

REF_SAMPLES = 10


def main(argv: list[str]) -> int:
    name, seed, work = argv[0], int(argv[1]), Path(argv[2])
    refs = [time_reference() for _ in range(REF_SAMPLES)]
    t0 = time.perf_counter()
    bootstrap()
    import_s = time.perf_counter() - t0

    import fuzzychip.cli
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, work)
    wl.setup_files()
    op = wl.warm_op()
    with contextlib.redirect_stdout(io.StringIO()):
        t1 = time.perf_counter()
        code = fuzzychip.cli.main(op.argv)
        warm_s = time.perf_counter() - t1
    refs += [time_reference() for _ in range(REF_SAMPLES)]
    print(json.dumps({"setup_s": import_s + warm_s, "ref_s": statistics.median(refs),
                      "exit": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
