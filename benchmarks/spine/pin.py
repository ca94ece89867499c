"""``python -m benchmarks.spine.pin RESULT.json``: pin a result document's
simulated statistics as ``reference.json``.

For maintainers, after resizing a workload or after a change that is
*meant* to alter simulated behaviour: run the benchmark at the default
seed, read the new statistics, then pin them.  The document must be
correct apart from the stale pins (no failed operation, every repetition
agreeing with the first, rows identical across the sweep executors).
"""

from __future__ import annotations

import json
import sys

from benchmarks.spine import spec
from benchmarks.spine.measure import REFERENCE_PATH


def reference_of(doc: dict) -> dict:
    """The pins a result document implies; refuses one that cannot be
    trusted."""
    if doc["seed"] != spec.DEFAULT_SEED:
        raise ValueError(f"pins are for seed {spec.DEFAULT_SEED}, "
                         f"the document has seed {doc['seed']}")
    for name, entry in doc["workloads"].items():
        stale = [p for p in entry["problems"] if "reference.json" in p]
        if entry["failed"] or len(stale) != len(entry["problems"]):
            raise ValueError(f"{name}: {entry['problems'] or 'failed operations'}")
    return {
        "seed": doc["seed"],
        "core": doc["core"]["variant"],
        "sizes": doc["sizes"],
        "workloads": {n: e["sim"] for n, e in doc["workloads"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        reference = reference_of(doc)
    except ValueError as exc:
        print(f"pin: {exc}", file=sys.stderr)
        return 1
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(reference['workloads'])} workloads to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
