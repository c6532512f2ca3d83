"""sha256 over the standard-representation images of larger groups.

Prints the sha256 of every `standard_rep_parameter(c).text()` and
`str(c.inf_char)` (tab-separated, one line per parameter) for every
parameter of `enumerate_cohomological(group, lam)`, for each group of
`GROUPS`, at the zero weight and at the two weights of
`record.nonzero_weights`.  The groups cover every family and are past the
rank-6 cut of the tier-1 `enumerate` corpus.  With `--check` it also
compares the digest against `EXPECTED` (recorded before the images were
last reimplemented) and exits 1 when they differ.  It takes a few
seconds, so it is not part of the tier-1 suite:

    PYTHONPATH=src python tests/golden/image_digest.py --check
"""

from __future__ import annotations

import hashlib
import sys

from cohoparam.halfint import HalfIntVector
from cohoparam.params import enumerate_cohomological, standard_rep_parameter
from record import nonzero_weights

GROUPS = (
    "GL(12,R)", "GL(17,R)", "SL(11,R)", "SL(16,R)", "GL(6,C)", "GL(9,C)",
    "U(5,5)", "U(4,7)", "U(7,7)", "Sp(16,R)", "Sp(22,R)", "SO(8,9)",
    "SO(5,16)", "SO(6,6)", "SO(9,9)", "SO(4,6)", "SO(7,9)", "SO(5,7)",
)
EXPECTED = "f06b46200df79d6fd5bf6265d950e60396503b88c0495ab757ecf45737b69f8f"


def digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for group in GROUPS:
        for weight in (None, *nonzero_weights(group)):
            lam = None if weight is None else HalfIntVector.parse(weight)
            for c in enumerate_cohomological(group, lam):
                line = f"{standard_rep_parameter(c).text()}\t{c.inf_char}\n"
                h.update(line.encode())
                count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    count, value = digest()
    print(f"{len(GROUPS)} groups: {count} images, sha256 {value}")
    if "--check" in sys.argv[1:]:
        ok = value == EXPECTED
        print("matches the recorded digest" if ok else f"expected {EXPECTED}")
        sys.exit(0 if ok else 1)
