"""Fixed reference work whose run time gauges the host's current speed.

``run.py`` runs this script as a child process between the timed
invocations, with the same interpreter and environment, and scales the
timed figures by how long it took.  It imports nothing from ``lapspec``,
so no change to the program can move it; it only follows the speed of
the host.  Its parts mirror what the CLI spends time on: interpreter
start-up and ``import numpy``, then work: a bit-matrix scan in 2^15-code
chunks like the exact enumerations, and a scalar Python loop like the CML
stepping.  It prints a checksum, which lets the caller confirm the work
was done, and the seconds the work took; the rest of its wall time is
start-up.
"""

import time

import numpy as np

N_BITS = 16
CHUNK = 1 << 15
CHUNKS = 32
LOOP_STEPS = 150_000


def main() -> None:
    t0 = time.perf_counter()
    w = np.add.outer(np.arange(N_BITS), np.arange(N_BITS)) % 5 + 1.0
    shifts = np.arange(N_BITS, dtype=np.int64)
    best = 0.0
    for start in range(0, CHUNKS * CHUNK, CHUNK):
        codes = np.arange(start, start + CHUNK, dtype=np.int64)
        memb = ((codes[:, None] >> shifts) & 1).astype(float)
        internal = ((memb @ w) * memb).sum(axis=1)
        best = max(best, float((internal / (1.0 + memb.sum(axis=1))).max()))
    x, acc = 0.3, 0.0
    for _ in range(LOOP_STEPS):
        x = 3.9 * x * (1.0 - x)
        acc += x
    print(f"{best:.6f} {acc:.6f} {time.perf_counter() - t0!r}")


if __name__ == "__main__":
    main()
