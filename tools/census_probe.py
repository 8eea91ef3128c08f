"""Count and time the census enumeration, order by order.

    python3 tools/census_probe.py [--max-n 8]

Calls ``enumerate_connected(n, 5)`` for n = 1 up to ``--max-n`` in
ascending order, so each order's parents are already cached and its time
is its own.  Wrappers on the names ``enumerate_connected`` calls them by
count and time the canonical-deletion tests and the canonical labellings
(``_canonical_masks``, the one labelling of each kept child).  Prints one
JSON line: per order the seconds (wall clock, one process, unpinned), the
deletion tests and their seconds, the labellings and their seconds, and
the classes found.  The wrappers' own cost is in the order's seconds.

Standard library only; ``gallai`` is imported from ``src`` next to this
directory, so the script measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gallai.census as census  # noqa: E402

COUNTED = {"_is_canonical_deletion": "deletion_tests", "_canonical_masks": "labellings"}


def probe(max_n: int) -> dict:
    counts = dict.fromkeys(COUNTED, 0)
    seconds = dict.fromkeys(COUNTED, 0.0)
    originals = {name: getattr(census, name) for name in COUNTED}
    clock = time.perf_counter

    def counting(name):
        fn = originals[name]

        def counted(*args, **kwargs):
            counts[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start

        return counted

    for name in COUNTED:
        setattr(census, name, counting(name))
    census._census_cache.clear()
    orders = {}
    try:
        for n in range(1, max_n + 1):
            for name in COUNTED:
                counts[name] = 0
                seconds[name] = 0.0
            start = clock()
            classes = len(census.enumerate_connected(n, 5))
            orders[n] = {"seconds": round(clock() - start, 4)}
            for name, key in COUNTED.items():
                orders[n][key] = counts[name]
                orders[n][f"{key}_seconds"] = round(seconds[name], 4)
            orders[n]["classes"] = classes
    finally:
        for name, fn in originals.items():
            setattr(census, name, fn)
    return {
        "python": platform.python_version(),
        "total_seconds": round(sum(o["seconds"] for o in orders.values()), 4),
        "orders": orders,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=census.ENUMERATION_LIMIT)
    args = parser.parse_args()
    print(json.dumps(probe(args.max_n)))


if __name__ == "__main__":
    main()
