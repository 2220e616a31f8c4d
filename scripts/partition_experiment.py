#!/usr/bin/env python3
"""Partitioned small-divisor sums over a delta grid for one frequency.

Prints per-class box sums, the unclassified oracle total, and the margins
against the three closed-form majorants (margin factor mu = 1.25).

Usage: python3 scripts/partition_experiment.py [freq] [Q]
       e.g. python3 scripts/partition_experiment.py "surd:[;2]" 200
"""

import math
import sys

from smalldivlab.bounds import _away_leading, _brjuno_box_bound, _const_type_leading
from smalldivlab.contfrac import expand, parse_frequency
from smalldivlab.smalldiv import box_sum, partition_sums

MU = 1.25


def main():
    freq = sys.argv[1] if len(sys.argv) > 1 else "golden"
    Q = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    cf = expand(parse_frequency(freq), 64)
    omega = cf.omega_float()
    print(f"frequency {freq}: omega ~ {omega:.12f}, box Q = {Q}")
    header = (
        f"{'delta':>7} {'away':>12} {'const':>12} {'brjuno':>12} {'k0-part':>10} "
        f"{'oracle rel':>10} {'m_away':>9} {'m_const':>9} {'m_brj':>9}"
    )
    print(header)
    for delta in (0.05, 0.1, 0.2, 0.3):
        sums = partition_sums(cf, delta, Q)
        oracle = box_sum(cf, delta, Q)
        rel = abs(sums.total - oracle) / oracle
        away_bound = (
            MU * _away_leading(omega) * math.log(1 / delta) / delta
            if delta * math.e < 1
            else float("nan")
        )
        const_bound = _const_type_leading(omega, MU) / delta**2
        brj_bound = _brjuno_box_bound(cf, delta, MU)
        print(
            f"{delta:>7} {sums.away:>12.4f} {sums.const_type:>12.4f} "
            f"{sums.brjuno:>12.4f} {sums.brjuno_k0:>10.4f} {rel:>10.2e} "
            f"{away_bound - sums.away:>9.2f} {const_bound - sums.const_type:>9.2f} "
            f"{brj_bound - sums.brjuno:>9.2f}"
        )


if __name__ == "__main__":
    main()
