"""sha256 over the standard-representation images of Sp(32,R).

Prints the sha256 of every `standard_rep_parameter(c).text()`, one text per
line, for the 65,536 parameters of `enumerate_cohomological("Sp(32,R)")`
at the zero weight.  With `--check` it also compares the digest against
`EXPECTED` (recorded before the images were last reimplemented) and exits
1 when they differ.  It takes several seconds, so it is not part of the
tier-1 suite:

    PYTHONPATH=src python tests/golden/sp32_digest.py --check
"""

from __future__ import annotations

import hashlib
import sys

from cohoparam.params import enumerate_cohomological, standard_rep_parameter

GROUP = "Sp(32,R)"
EXPECTED = "fe00dfce5d255310efbb2077bdf8c646508be8725e71deee07538e4e68e99928"


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    params = enumerate_cohomological(GROUP)
    for c in params:
        h.update(standard_rep_parameter(c).text().encode() + b"\n")
    return len(params), h.hexdigest()


if __name__ == "__main__":
    count, value = digest()
    print(f"{GROUP}: {count} images, sha256 {value}")
    if "--check" in sys.argv[1:]:
        ok = value == EXPECTED
        print("matches the recorded digest" if ok else f"expected {EXPECTED}")
        sys.exit(0 if ok else 1)
