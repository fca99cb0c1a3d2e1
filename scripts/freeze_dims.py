"""Regenerate the frozen subspace-dimension fixtures.

Runs the basis constructions for every (n, label) pair the test suite relies
on and rewrites src/curvkit/fixtures/subspace_dims.json.  The test suite
re-runs the same constructions and fails if the frozen numbers drift.
"""

import json
from pathlib import Path

from curvkit.core import standard_complex_structure, standard_quaternion_triple
from curvkit.spaces import (SV_CUTOFF, curvature_space_basis, hyperkahler_subspace,
                            kahler_subspace)

SEED_PROTOCOL = "numpy.random.default_rng(seed).standard_normal(dim) * scale"

OUT = Path(__file__).resolve().parent.parent / "src" / "curvkit" / "fixtures" / "subspace_dims.json"


def main() -> None:
    rows = []
    for n in range(4, 9):
        rows.append({"n": n, "label": "generic",
                     "dimension": curvature_space_basis(n).dimension,
                     "constraint_cutoff": SV_CUTOFF, "seed_protocol": SEED_PROTOCOL})
    for n in (4, 6, 8, 10):
        rows.append({"n": n, "label": "kahler",
                     "dimension": kahler_subspace(standard_complex_structure(n)).dimension,
                     "constraint_cutoff": SV_CUTOFF, "seed_protocol": SEED_PROTOCOL})
    rows.append({"n": 8, "label": "hyperkahler",
                 "dimension": hyperkahler_subspace(standard_quaternion_triple(8)).dimension,
                 "constraint_cutoff": SV_CUTOFF, "seed_protocol": SEED_PROTOCOL})

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(rows, indent=2) + "\n")
    for row in rows:
        print(f"{row['label']:>12}  n={row['n']}  dim={row['dimension']}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
