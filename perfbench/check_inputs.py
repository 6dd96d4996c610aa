"""Check that the generated inputs do not depend on the hash seed.

    python3 perfbench/check_inputs.py

Run from the root of a checkout.  For every workload and a few seeds, the
inputs (rows, query texts, parameters, update batches) are generated in two
interpreters with different ``PYTHONHASHSEED`` values and their digests are
compared; a run prints the same digest as ``inputs_digest``.  Exits 1 when
any pair differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE = (
    "import sys; sys.path[:0] = [sys.argv[1], 'src']; "
    "from workloads import WORKLOADS; "
    "print(WORKLOADS[sys.argv[2]](int(sys.argv[3])).digest())"
)


def digest(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(HERE), workload, str(seed)],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, "src")
    from workloads import WORKLOADS

    differ = 0
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            first, second = digest(workload, seed, "0"), digest(workload, seed, "4242")
            same = first == second
            differ += not same
            print(f"{workload:12s} seed {seed}: {first} {second} {'same' if same else 'DIFFER'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
