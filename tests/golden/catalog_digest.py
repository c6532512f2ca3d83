"""sha256 over the compact-Weyl catalogs of the larger supported groups.

Prints the sha256 of the window string of every element of W^theta and of
the compact-side subgroup K, group by group, for the groups of `GROUPS`:
each has |W^theta| past the 720 the tier-1 golden corpus reaches, or is an
SO(odd,odd) or SO(1,q) edge case.  With `--check` it also compares the
digest against `EXPECTED` (recorded before the catalog was last
reimplemented) and exits 1 when they differ.  It takes several seconds,
so it is not part of the tier-1 suite:

    PYTHONPATH=src python tests/golden/catalog_digest.py --check
"""

from __future__ import annotations

import hashlib
import sys

from cohoparam.weyl import compact_weyl_catalog

GROUPS = (
    "U(4,4)", "U(5,3)", "Sp(12,R)", "SO(6,7)", "SO(5,8)", "SO(4,8)",
    "SO(6,6)", "GL(12,R)", "SL(12,R)", "GL(8,C)", "SO(1,3)", "SO(3,3)",
    "SO(1,5)", "SO(5,1)",
)
EXPECTED = "a3b381db607578c46bcfad11987153580ab77a950ed84bd156d16dc75b4dd450"


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for group in GROUPS:
        cat = compact_weyl_catalog(group)
        for name, elems in (("W^theta", cat.w_theta), ("K", cat.k_weyl)):
            h.update(f"{group} {name} {len(elems)}\n".encode())
            h.update("".join(f"{w}\n" for w in elems).encode())
            count += len(elems)
    return count, h.hexdigest()


if __name__ == "__main__":
    count, value = digest()
    print(f"{len(GROUPS)} catalogs: {count} elements, sha256 {value}")
    if "--check" in sys.argv[1:]:
        ok = value == EXPECTED
        print("matches the recorded digest" if ok else f"expected {EXPECTED}")
        sys.exit(0 if ok else 1)
