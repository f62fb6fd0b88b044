"""Golden digests of the workloads' modeled outputs.

A digest is the SHA-256 of an output's canonical JSON (a JSON round
trip, then sorted keys and no whitespace), so it matches the digest of
the same output loaded back from a checked-in artifact.

``golden.json`` maps workload -> seed -> output key -> digest.  The
seed ``"*"`` holds outputs that do not depend on ``--seed`` (the table
cells, the micro calls, the fleet's calibrated costs); the fleet cells
are recorded at seeds 0 and 1.  Regenerate it, only when a change means
to move modeled outputs, with::

    python perf/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")

#: Seeds whose seed-dependent outputs are recorded.
RECORDED_SEEDS = (0, 1)


def canonical(value: Any) -> str:
    """The canonical JSON text of ``value``: tuples become lists and
    keys become strings exactly as they would in a written artifact."""
    return json.dumps(json.loads(json.dumps(value)), sort_keys=True,
                      separators=(",", ":"))


def digest(value: Any) -> str:
    """SHA-256 of :func:`canonical`."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def load() -> Dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as stream:
        return json.load(stream)


def expected(golden: Dict[str, Any], workload: str,
             seed: int) -> Dict[str, str]:
    """The recorded digests that apply to ``workload`` at ``seed``."""
    entry = golden.get(workload, {})
    return {**entry.get("*", {}), **entry.get(str(seed), {})}


def record() -> Dict[str, Any]:
    """Run one round of every workload at each recorded seed and write
    the digests.  Refuses outputs that disagree across seeds where they
    should not, or across operations of one key."""
    from run import run_child
    from workloads import WORKLOADS

    golden: Dict[str, Any] = {}
    for name in WORKLOADS:
        seeds: Dict[str, Dict[str, str]] = {}
        for seed in RECORDED_SEEDS:
            child = run_child(name, seed, "run", rounds=1)
            for op in child["rounds"][0]["ops"]:
                if op["error"] or op["failed"]:
                    raise RuntimeError(f"{name} seed {seed}: {op['id']} "
                                       f"failed: {op['error']}")
                for key, value in op["digests"].items():
                    scope = "*" if key in op["any_seed"] else str(seed)
                    known = seeds.setdefault(scope, {}).setdefault(key, value)
                    if known != value:
                        raise RuntimeError(f"{name}: {key} has two outputs")
        golden[name] = seeds
    with open(GOLDEN_PATH, "w", encoding="utf-8") as stream:
        json.dump(golden, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return golden


if __name__ == "__main__":
    record()
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
