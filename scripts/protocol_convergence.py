"""Convergence study of the classical entropy-conversion protocol.

Runs the bit-flip pair p = (0.7, 0.3) -> q = (0.3, 0.7) (equal entropy,
different energy ordering) for growing copy numbers and prints how the
total-variation distance of the protocol output to q^(x)n falls, along
with the bound terms that control it.

Usage: python scripts/protocol_convergence.py [max_n] [ancilla_bits]

The reports are also written, as JSON, to out/protocol_convergence.json
under the current directory.
"""

import json
import sys
from pathlib import Path

from thermocone import Distribution, run_entropy_protocol


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    ancilla_bits = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    p = Distribution((0.7, 0.3))
    q = Distribution((0.3, 0.7))
    print(f"{'n':>3} {'distance':>10} {'map_dist':>10} {'P_typ':>8} {'l1_bound':>10} {'items':>9}")
    reports = []
    for n in range(4, max_n + 1, 2):
        rep = run_entropy_protocol(p, q, n, ancilla_bits=ancilla_bits)
        reports.append(rep.to_json())
        print(
            f"{n:>3} {rep.distance:>10.6f} {rep.map_distance:>10.2e} "
            f"{rep.p_typ_source:>8.4f} {rep.l1_bound:>10.2e} {rep.enumerated_items:>9}"
        )
    path = Path("out") / "protocol_convergence.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reports, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
