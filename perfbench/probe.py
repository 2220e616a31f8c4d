"""Host-speed probe: a fixed job shaped like one short invocation.

It starts an interpreter, imports numpy and mpmath, and runs a fixed
pure-Python loop and a fixed numpy loop; it runs no smalldivlab code, so
its time moves only with the speed of the host.  ``run.py`` times it
between passes and scales its timings by it.
"""

import mpmath  # noqa: F401  (imported for its cost, like the package does)
import numpy as np

total = 0
for i in range(300_000):
    total += i * i % 7
a = np.arange(200_000.0)
for _ in range(20):
    a = np.sqrt(a * a + 1.0)
