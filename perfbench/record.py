"""Record the reference digests and tier counts that ``run.py`` checks.

Run from the repository root on a commit whose outputs are trusted::

    python3 perfbench/record.py --count 64

For every workload and input seed ``0 .. count-1`` it runs one traced
repetition and stores the sha256 digests of its outputs (job results,
event logs, batch makespans) in ``reference.json``, together with the
workload's tier iteration counts, which must not depend on the seed.
``run.py`` maps any ``--seed`` onto these input seeds.  A serve-durable
recording must equal the serve-burst one of the same seed: the journal
adds records, never decisions.  Re-record only when a change is meant to
alter trajectories.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=64, help="input seeds")
    args = parser.parse_args(argv)
    scratch_root = run.prepare_environment()
    from workloads import WORKLOADS

    seeds = range(args.count)
    recorded = {}
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=scratch_root))
    try:
        for name, cls in WORKLOADS.items():
            digests, tiers = {}, None
            for seed in seeds:
                workload = cls(seed, scratch)
                workload.setup()
                sample = run.timed_rep(workload, traced=True)
                if sample.result.problems or sample.result.failed:
                    print(f"{name} seed {seed}: {sample.result}", file=sys.stderr)
                    return 1
                seed_tiers = run.observed_tiers(sample)
                if tiers is not None and seed_tiers != tiers:
                    print(
                        f"{name}: tier counts depend on the seed "
                        f"({tiers} vs {seed_tiers} at seed {seed})",
                        file=sys.stderr,
                    )
                    return 1
                tiers = seed_tiers
                digests[str(seed)] = sample.result.digests
                print(f"{name} seed {seed}: {sample.wall_s:.2f}s", flush=True)
            recorded[name] = {"tiers": tiers, "digests": digests}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if recorded["serve-durable"]["digests"] != recorded["serve-burst"]["digests"]:
        print("journaled storm diverged from the unjournaled one", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(
        json.dumps({"workloads": recorded}, indent=1) + "\n"
    )
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
