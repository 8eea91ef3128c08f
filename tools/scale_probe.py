"""Time ``solve`` on a few large generated graphs, and its layers.

    python3 tools/scale_probe.py [--seed 801]

Solves, once each, paths of n = 1000 to 8000, random max-degree-5 graphs
of n = 800 to 3200, 4-regular graphs of n = 400 and 1600, a caterpillar of
n = 1600 and cubic graphs of n = 2400 to 9600, drawn by the generators of
``perfbench/gen.py``, each from its own stream seeded by the seed and the
input's name.  Wrappers on the names ``gallai.solver`` calls them by add
up the time spent in ``reduce``, in ``detect``, in the structure check
``check_structure`` and in the exact search ``cover_with_paths``; wrappers
on the detectors that ``detect`` runs, and on ``Graph.bridges``, split
``detect`` by configuration.  A callback in ``gc.callbacks`` adds up the
cyclic garbage collector's pauses, and each wrapper leaves out the pauses
that fall inside its calls, so a layer is charged with its own work only.
Prints one JSON line: per input its n, m and the seconds of ``solve``
(wall clock, pauses included), ``reduce``, ``detect``, each of
``detect_c1`` to ``detect_c5`` (``c1_s`` to ``c5_s``), ``Graph.bridges``
(``bridges_s``, part of ``c2_s``), the structure check (``structure_s``),
the search (``search_s``) and the collector's pauses during ``solve``
(``gc_s``); wall clock, one process, unpinned.

Standard library only; ``gallai`` is imported from ``src`` next to this
directory, so the script measures the checkout it sits in.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)
import gallai.reductions  # noqa: E402
import gallai.solver  # noqa: E402
from gallai import Graph, solve  # noqa: E402

# (name, family, n): the probe's inputs, smallest first in each family
INPUTS = (
    [("path", n) for n in (1000, 2000, 4000, 8000)]
    + [("maxdeg5", n) for n in (800, 1600, 3200)]
    + [("regular4", n) for n in (400, 1600)]
    + [("caterpillar", 1600)]
    + [("regular3", n) for n in (2400, 4800, 9600)]
)
MAKERS = {
    "path": gen.path,
    "maxdeg5": gen.random_max_degree5,
    "regular4": lambda rng, n: gen.random_regular(rng, n, 4),
    "caterpillar": gen.caterpillar,
    "regular3": lambda rng, n: gen.random_regular(rng, n, 3),
}


class Collector:
    """Adds up the seconds of the cyclic garbage collector's passes; a
    callback for ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


class Clock:
    """Adds up the seconds spent in the wrapped functions, less the
    collector's passes that fall inside them."""

    def __init__(self, collector: Collector) -> None:
        self.collector = collector
        self.seconds = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start, paused = time.perf_counter(), self.collector.seconds
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start - (
                    self.collector.seconds - paused
                )

        return timed


def probe(seed: int) -> dict:
    collector = Collector()
    layers = ("reduce", "detect", "check_structure", "cover_with_paths")
    clocks = {name: Clock(collector) for name in layers}
    originals = {name: getattr(gallai.solver, name) for name in clocks}
    for name, clock in clocks.items():
        setattr(gallai.solver, name, clock.wrap(originals[name]))
    detectors = gallai.reductions._DETECTORS
    detector_clocks = [Clock(collector) for _ in detectors]
    gallai.reductions._DETECTORS = tuple(
        clock.wrap(fn) for clock, fn in zip(detector_clocks, detectors)
    )
    bridges, bridges_clock = Graph.bridges, Clock(collector)
    Graph.bridges = bridges_clock.wrap(bridges)
    every_clock = [*clocks.values(), *detector_clocks, bridges_clock]
    gc.callbacks.append(collector)
    runs = {}
    try:
        for family, n in INPUTS:
            name = f"{family}-{n}"
            size, edges = MAKERS[family](random.Random(f"{seed}:{name}"), n)
            g = Graph.from_edges(size, edges)
            gc.collect()
            for clock in every_clock:
                clock.seconds = 0.0
            collector.seconds = 0.0
            start = time.perf_counter()
            solve(g)
            runs[name] = {
                "n": g.n,
                "m": g.m,
                "solve_s": round(time.perf_counter() - start, 4),
                "reduce_s": round(clocks["reduce"].seconds, 4),
                "detect_s": round(clocks["detect"].seconds, 4),
                **{
                    f"c{k}_s": round(clock.seconds, 4)
                    for k, clock in enumerate(detector_clocks, 1)
                },
                "bridges_s": round(bridges_clock.seconds, 4),
                "structure_s": round(clocks["check_structure"].seconds, 4),
                "search_s": round(clocks["cover_with_paths"].seconds, 4),
                "gc_s": round(collector.seconds, 4),
            }
    finally:
        gc.callbacks.remove(collector)
        for name, fn in originals.items():
            setattr(gallai.solver, name, fn)
        gallai.reductions._DETECTORS = detectors
        Graph.bridges = bridges
    return {"seed": seed, "python": platform.python_version(), "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=801)
    args = parser.parse_args()
    print(json.dumps(probe(args.seed)))


if __name__ == "__main__":
    main()
