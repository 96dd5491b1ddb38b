#!/usr/bin/env python3
"""Reproduce the headline numbers on the small-graph menagerie.

For each base graph: theta of the base and of its Mycielskian by SDP, the
closed-form prediction, the fractional chromatic numbers with the exact
x + 1/x law, the finite-power capacity lower bounds, and the verdict of
`certify`, which solves theta of the base and checks both certificate
directions.  Everything is desk scale; the whole run takes a fraction of a
second.  Exits 1 when the certificates of any base graph fail.

    python scripts/mycielski_menagerie.py
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from myctheta import (
    capacity_lower_bound,
    certify,
    complete_graph,
    cycle_graph,
    extended_clique,
    fractional_chromatic,
    lpu_formula,
    mycielskian,
    theta_bar,
)

BASES = [
    ("K2", complete_graph(2)),
    ("K3", complete_graph(3)),
    ("K4", complete_graph(4)),
    ("C5", cycle_graph(5)),
    ("C7", cycle_graph(7)),
]


def main() -> int:
    start = time.time()
    print(f"{'G':4s} {'theta(G)':>12s} {'theta(M(G))':>12s} {'formula':>12s} "
          f"{'gap':>9s} {'chi_f(G)':>9s} {'chi_f(M(G))':>11s} {'cert':>5s}")
    failed = []
    for name, g in BASES:
        doc, ok = certify(g, tol=1e-7)
        lifted = theta_bar(mycielskian(g, 2), tol=1e-7)
        predicted = doc["m_formula"]
        chi_f = fractional_chromatic(g).value
        chi_f_m = fractional_chromatic(mycielskian(g, 2)).value
        assert chi_f_m == lpu_formula(chi_f)
        if not ok:
            failed.append(name)
        print(
            f"{name:4s} {doc['theta']:12.8f} {lifted.value:12.8f} {predicted:12.8f} "
            f"{abs(lifted.value - predicted):9.2e} {str(chi_f):>9s} "
            f"{str(chi_f_m):>11s} {'ok' if ok else 'FAIL':>5s}"
        )

    print()
    for n in (2, 3):
        ec = extended_clique(n)
        print(
            f"clique of size {n}^{n}+1 = {len(ec.vertices)} over M(K{n}): "
            f"capacity lower bound {ec.bound:.6f} > {n}"
        )
    bound = capacity_lower_bound(cycle_graph(5), 2)
    print(f"omega(C5^2)^(1/2) = {bound.value:.6f} (exact clique {bound.clique.size})")
    print(f"sqrt(5)           = {math.sqrt(5):.6f}")
    print(f"\ntotal time {time.time() - start:.1f} s")
    if failed:
        print(f"certificate checks failed on {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
