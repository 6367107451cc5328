"""One cold set-up in a fresh interpreter, timed between reference-kernel runs.

Usage: ``python3 setup_probe.py <src dir> <inputs dir>``. Imports evplant from
``<src dir>``, parses every ``*.cfg``/``*.csv`` pair in ``<inputs dir>`` with
the program's own parsers and loads the parameter set once, then prints one
JSON object with the raw seconds and the kernel timings around them.

NumPy is imported before the clock starts: its ~0.14 s import is the same on
every commit and would hide a set-up regression of evplant's own inside it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from refkernel import kernel


def _kernel_s() -> float:
    """Median of three timed kernel runs: one run in a fresh process is jumpy."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def main(src: str, inputs: str) -> None:
    configs = sorted(Path(inputs).glob("*.cfg"))
    import numpy  # noqa: F401  (see module docstring)

    kernel()  # warm the kernel's own code first
    k_before = _kernel_s()
    t0 = perf_counter()
    sys.path.insert(0, src)
    from evplant.params import load_parameter_set
    from evplant.scenario import ScenarioProfile, load_config

    config = None
    for path in configs:
        config = load_config(path)
        ScenarioProfile.from_csv(path.with_suffix(".csv"))
    load_parameter_set(config.data_dir)
    raw_s = perf_counter() - t0
    k_after = _kernel_s()
    print(json.dumps({"raw_s": raw_s, "k_before": k_before, "k_after": k_after}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
