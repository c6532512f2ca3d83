"""sha256 over the packets of the weight-zero parameters of larger groups.

Prints the sha256 of `packet(group, c).to_json()` (as sorted-key JSON, one
line each) for every parameter of `enumerate_cohomological(group)` at the
zero weight, for the groups of `GROUPS`.  Each has |W^theta| past the 720
the tier-1 golden corpus reaches.  With `--check` it also compares the
digest against `EXPECTED` (recorded before the double cosets were last
reimplemented) and exits 1 when they differ.  It takes a few seconds, so
it is not part of the tier-1 suite:

    PYTHONPATH=src python tests/golden/packet_digest.py --check
"""

from __future__ import annotations

import hashlib
import json
import sys

from cohoparam.packets import packet
from cohoparam.params import enumerate_cohomological

GROUPS = ("U(4,3)", "Sp(10,R)", "SO(4,7)")
EXPECTED = "7d82778d101d116f71a09f6a88848beed211653991eb9f61cf04a87369fd060e"


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for group in GROUPS:
        for c in enumerate_cohomological(group):
            payload = json.dumps(packet(group, c).to_json(), sort_keys=True)
            h.update(payload.encode() + b"\n")
            count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    count, value = digest()
    print(f"{len(GROUPS)} groups: {count} packets, sha256 {value}")
    if "--check" in sys.argv[1:]:
        ok = value == EXPECTED
        print("matches the recorded digest" if ok else f"expected {EXPECTED}")
        sys.exit(0 if ok else 1)
