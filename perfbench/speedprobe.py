"""How fast the measuring core runs, sampled beside the program.

On a shared host the same work takes a varying number of CPU seconds:
for seconds to minutes at a time the core runs up to two times slower
(a busy neighbour on the same physical core, for one), and a whole
benchmark run can fall inside such a spell.  So while a measurement runs,
a probe process pinned to the same CPU runs a fixed pure-Python loop
(:func:`probe_loop`, a few milliseconds) every ``PERIOD_S`` and records
its CPU seconds; the benchmark then reports the program's CPU seconds
in *reference seconds*:

    reference seconds = CPU seconds × REFERENCE_S ÷ mean probe CPU seconds

A program change that costs more instructions makes the reference
seconds longer by the same factor; a spell that slows the core slows the
probe alike and cancels.  The probe takes about a tenth of the core and
does not touch ``repro``; its time does not count as the program's CPU
time.

:func:`start` pins the calling process to one CPU and starts
``python3 -m perfbench.speedprobe`` there; the probe samples until its
standard input closes, then prints the samples as one JSON list and
exits.  :func:`stop` closes it and waits for it.  Processes the caller
starts afterwards inherit the pinning, so they share the probed CPU.
"""

from __future__ import annotations

import json
import os
import random
import select
import statistics
import subprocess
import sys
from time import process_time
from typing import List

#: about the median CPU seconds of one :func:`probe_loop` on the reference
#: core: a 2-vCPU KVM guest on an Intel Xeon (Sapphire Rapids, 2.0 GHz
#: nominal).  It only fixes the unit; any constant would do.
REFERENCE_S = 0.004
#: seconds between the starts of two probe loops.
PERIOD_S = 0.04


def probe_loop() -> float:
    """The fixed reference work: dict, list, float and sort operations."""
    rng = random.Random(1)
    table = {}
    values: List[float] = []
    total = 0.0
    for index in range(3000):
        key = rng.randrange(4096)
        table[key] = table.get(key, 0) + index
        values.append((key * 0.5) ** 0.5)
        if len(values) == 500:
            values.sort()
            total += values[250]
            values.clear()
    return total + len(table)


def time_probe() -> float:
    """CPU seconds of one :func:`probe_loop`."""
    started = process_time()
    probe_loop()
    return process_time() - started


def start(cwd: str) -> subprocess.Popen:
    """Pin this process to one CPU and start the probe beside it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the probe inherits the affinity
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.speedprobe"],
        cwd=cwd,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def stop(probe: subprocess.Popen) -> List[float]:
    """Close the probe's input, wait for it to end, return its samples."""
    try:
        output, __ = probe.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.wait()
        raise
    if probe.returncode != 0:
        raise RuntimeError(f"speed probe exited with code {probe.returncode}")
    return json.loads(output)


def scale(samples: List[float]) -> float:
    """Reference seconds per CPU second while ``samples`` were taken."""
    return REFERENCE_S / statistics.fmean(samples)


def main() -> None:
    samples: List[float] = []
    while True:
        samples.append(time_probe())
        readable, __, __ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.read(1):
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    main()
