"""Write one workload's channel files; the set-up step of the benchmark.

    python3 perfbench/make_inputs.py WORKLOAD SEED OUT_DIR

run.py starts this script as a fresh process and times it from start to
exit, so ``setup_s`` covers interpreter start, ``import loccap``, the
generators and ``save_channel``.  It prints {file stem: sha256} as JSON.
"""

import json
import sys
from pathlib import Path

import workloads


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    workloads.import_loccap()
    from loccap import channel_model as cm
    hashes = workloads.write_inputs(workload, seed, out_dir, cm)
    print(json.dumps(hashes, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
