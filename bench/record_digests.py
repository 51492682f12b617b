"""Record the expected report digests of every benchmark workload.

    python3 bench/record_digests.py

For each workload and each sweep seed in the benchmark's pool, stores the
SHA-256 of the `emit_csv` bytes of that seed's sweep in bench/digests.json.
The benchmark counts a run as failed when its digest differs. Re-record only
in a change that sets out to alter the simulator's results, and say so.
"""

from __future__ import annotations

import json

from run import load_simulator


def main() -> int:
    load_simulator()
    from workloads import DIGESTS, POOL, WORKLOADS, seed_digests, sweep_pass

    recorded = {}
    for name, wl in WORKLOADS.items():
        digests = {}
        for seed in range(POOL):
            digests.update(seed_digests(sweep_pass(wl, [seed])))
        recorded[name] = {str(seed): digest for seed, digest in digests.items()}
        print(f"{name}: {POOL} seeds recorded")
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
