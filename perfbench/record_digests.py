"""Record the reference digests that ``paper_cold`` checks its outputs against.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/record_digests.py 0-24 1009

For every seed it runs one cold pass of the ``paper_cold`` experiments and
stores the ``stable_digest`` of each experiment's ``json_payload`` in
``perfbench/paper_digests.json`` (existing seeds are replaced).  Re-record
only when a change is *meant* to alter simulated results; a change that only
speeds the program up must reproduce these digests exactly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import paper_digests, paper_pass

PATH = Path(__file__).resolve().parent / "paper_digests.json"


def parse_seeds(arguments: list[str]) -> list[int]:
    seeds = []
    for argument in arguments:
        low, _, high = argument.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    from repro.core import clear_memo

    seeds = parse_seeds(sys.argv[1:])
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    recorded = json.loads(PATH.read_text()) if PATH.is_file() else {"digests": {}}
    for seed in seeds:
        clear_memo()
        digests = paper_digests(paper_pass(seed)["results"])
        if None in digests.values():
            print(f"seed {seed}: an experiment failed; not recorded", file=sys.stderr)
            return 1
        recorded["digests"][str(seed)] = digests
        recorded["digests"] = dict(sorted(recorded["digests"].items(), key=lambda kv: int(kv[0])))
        PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
