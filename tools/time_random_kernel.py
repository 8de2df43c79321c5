"""Time the random-winner kernel alone, once per prize count.

    PYTHONPATH=src python3 tools/time_random_kernel.py

Each timing consumes ``drawing.winner_blocks`` for ``DRAWS`` random-mechanism
drawings of ``k`` winners from ``ACCOUNTS`` accounts, from a fresh generator,
and gathers nothing. The script prints one JSON line: the numpy version, the
settings and, per prize count in ``PRIZE_COUNTS``, the median of ``REPEAT``
timings in seconds (``k1000_s``, ...) and the median of the minor page faults
the process made during each timing (``k1000_minflt``, ...), which tell a
timing that paid for fresh memory from one that did not. Per prize count it
also reports the traced peak, in MiB, of one untimed ``drawing.payouts`` pass
over the same drawings (``k1000_peak_mib``, ...), taken under
``tracemalloc`` after the timings so that they stay as they were. Before
timing, the script sets up its process as a plsim run does
(``experiments.prepare_engine_process``: the allocator, and no OpenSSL), so a
timing measures the kernel, not whether the C library's default thresholds
happened to hand its arrays back to the OS; its timings then compare across
checkouts: run it alternately with each one's ``src`` on ``PYTHONPATH``.
"""

import json
import resource
import statistics
import time
import tracemalloc

import numpy as np

from plsim.drawing import PrizeSchedule, payouts, winner_blocks
from plsim.experiments import prepare_engine_process
from plsim.pareto import ParetoParams
from plsim.population import generate

ACCOUNTS = 100_000
DRAWS = 10_000
REPEAT = 5
PRIZE_COUNTS = (1000, 500, 100, 10)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_mib(pop, sched) -> float:
    """Traced peak of one ``payouts`` pass over ``DRAWS`` drawings."""
    tracemalloc.start()
    try:
        payouts(pop, sched, "random", np.random.default_rng(1), DRAWS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main():
    prepare_engine_process()
    pop = generate(ParetoParams(1.04, 150.0), ACCOUNTS, 0)
    record = {"numpy": np.__version__, "accounts": ACCOUNTS,
              "draws": DRAWS, "repeat": REPEAT}
    for k in PRIZE_COUNTS:
        sched = PrizeSchedule(k, 1.0)
        times, faults = [], []
        for _ in range(REPEAT):
            rng = np.random.default_rng(1)
            before = minor_faults()
            start = time.perf_counter()
            for _ in winner_blocks(pop, sched, "random", rng, DRAWS):
                pass
            times.append(time.perf_counter() - start)
            faults.append(minor_faults() - before)
        record[f"k{k}_s"] = statistics.median(times)
        record[f"k{k}_minflt"] = statistics.median(faults)
        record[f"k{k}_peak_mib"] = round(peak_mib(pop, sched), 3)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
