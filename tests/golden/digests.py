"""sha256 digests of outputs of groups past the tier-1 golden corpus.

Each digest hashes one kind of output over larger groups than the CLI
corpora of `record.py` reach; `EXPECTED` holds its value, recorded before
that output was last reimplemented:

* ``sp32``: every `standard_rep_parameter(c).text()`, one text per line,
  for the 65,536 parameters of `enumerate_cohomological("Sp(32,R)")` at
  the zero weight;
* ``catalog``: the window string of every element of W^theta and of the
  compact-side subgroup K, group by group, for `CATALOG_GROUPS`: each has
  |W^theta| past the 720 the tier-1 golden corpus reaches, or is an
  SO(odd,odd) or SO(1,q) edge case;
* ``packet``: `packet(group, c).to_json()` (as sorted-key JSON, one line
  each) for every parameter of `enumerate_cohomological(group)` at the
  zero weight, for `PACKET_GROUPS`, each with |W^theta| past 720;
* ``image``: `standard_rep_parameter(c).text()` and `str(c.inf_char)`
  (tab-separated, one line per parameter) for every parameter of
  `enumerate_cohomological(group, lam)`, for `IMAGE_GROUPS` at the zero
  weight and at the two weights of `record.nonzero_weights`; the groups
  cover every family and are past the rank-6 cut of the tier-1
  `enumerate` corpus.

Each named digest (all four when none is named) prints its count and
value; with `--check` it is also compared against `EXPECTED`, and the
script exits 1 when any differs.  Each takes several seconds, so they are
not part of the tier-1 suite:

    PYTHONPATH=src python tests/golden/digests.py --check sp32 catalog packet image
"""

from __future__ import annotations

import hashlib
import json
import sys

from cohoparam.halfint import HalfIntVector
from cohoparam.packets import packet
from cohoparam.params import enumerate_cohomological, standard_rep_parameter
from cohoparam.weyl import compact_weyl_catalog
from record import nonzero_weights

SP32_GROUP = "Sp(32,R)"
CATALOG_GROUPS = (
    "U(4,4)", "U(5,3)", "Sp(12,R)", "SO(6,7)", "SO(5,8)", "SO(4,8)",
    "SO(6,6)", "GL(12,R)", "SL(12,R)", "GL(8,C)", "SO(1,3)", "SO(3,3)",
    "SO(1,5)", "SO(5,1)",
)
PACKET_GROUPS = ("U(4,3)", "Sp(10,R)", "SO(4,7)")
IMAGE_GROUPS = (
    "GL(12,R)", "GL(17,R)", "SL(11,R)", "SL(16,R)", "GL(6,C)", "GL(9,C)",
    "U(5,5)", "U(4,7)", "U(7,7)", "Sp(16,R)", "Sp(22,R)", "SO(8,9)",
    "SO(5,16)", "SO(6,6)", "SO(9,9)", "SO(4,6)", "SO(7,9)", "SO(5,7)",
)
EXPECTED = {
    "sp32": "fe00dfce5d255310efbb2077bdf8c646508be8725e71deee07538e4e68e99928",
    "catalog": "a3b381db607578c46bcfad11987153580ab77a950ed84bd156d16dc75b4dd450",
    "packet": "7d82778d101d116f71a09f6a88848beed211653991eb9f61cf04a87369fd060e",
    "image": "f06b46200df79d6fd5bf6265d950e60396503b88c0495ab757ecf45737b69f8f",
}


def sp32() -> tuple[str, str]:
    h = hashlib.sha256()
    params = enumerate_cohomological(SP32_GROUP)
    for c in params:
        h.update(standard_rep_parameter(c).text().encode() + b"\n")
    return f"{SP32_GROUP}: {len(params)} images", h.hexdigest()


def catalog() -> tuple[str, str]:
    h = hashlib.sha256()
    count = 0
    for group in CATALOG_GROUPS:
        cat = compact_weyl_catalog(group)
        for name, elems in (("W^theta", cat.w_theta), ("K", cat.k_weyl)):
            h.update(f"{group} {name} {len(elems)}\n".encode())
            h.update("".join(f"{w}\n" for w in elems).encode())
            count += len(elems)
    return f"{len(CATALOG_GROUPS)} catalogs: {count} elements", h.hexdigest()


def packets() -> tuple[str, str]:
    h = hashlib.sha256()
    count = 0
    for group in PACKET_GROUPS:
        for c in enumerate_cohomological(group):
            payload = json.dumps(packet(group, c).to_json(), sort_keys=True)
            h.update(payload.encode() + b"\n")
            count += 1
    return f"{len(PACKET_GROUPS)} groups: {count} packets", h.hexdigest()


def images() -> tuple[str, str]:
    h = hashlib.sha256()
    count = 0
    for group in IMAGE_GROUPS:
        for weight in (None, *nonzero_weights(group)):
            lam = None if weight is None else HalfIntVector.parse(weight)
            for c in enumerate_cohomological(group, lam):
                line = f"{standard_rep_parameter(c).text()}\t{c.inf_char}\n"
                h.update(line.encode())
                count += 1
    return f"{len(IMAGE_GROUPS)} groups: {count} images", h.hexdigest()


DIGESTS = {"sp32": sp32, "catalog": catalog, "packet": packets, "image": images}


if __name__ == "__main__":
    args = sys.argv[1:]
    check = "--check" in args
    names = [a for a in args if a != "--check"] or list(DIGESTS)
    unknown = [a for a in names if a not in DIGESTS]
    if unknown:
        sys.exit(f"unknown digest {unknown[0]!r}; choose from {', '.join(DIGESTS)}")
    ok = True
    for name in names:
        summary, value = DIGESTS[name]()
        print(f"{summary}, sha256 {value}")
        if check:
            match = value == EXPECTED[name]
            print("matches the recorded digest" if match else f"expected {EXPECTED[name]}")
            ok = ok and match
    sys.exit(0 if ok else 1)
