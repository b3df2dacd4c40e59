"""Reference instances shipped with the package.

Six linear blocking sets with verified structural claims, covering both
planar (k = 1) and higher (k = 2) blocking indices over fields with prime
and proper prime-power subfield orders.  Every instance is rebuilt
deterministically from its family and parameters, so the shipped data
files can always be regenerated and compared byte for byte.
"""

from __future__ import annotations

import importlib.resources
import os

from . import formats
from .linearsets import LinearSetWitness, build_family_witness

_COMMON_CLAIMS = {
    "blocking": True,
    "small": True,
    "minimal": True,
    "linear": True,
    "redei": True,
    "exponent": 1,
}

CATALOGUE = (
    {
        "name": "baer_pg2_9",
        "family": "subgeometry",
        "params": {"q": 9, "p0": 3, "n": 2},
        "k": 1,
        "p0": 3,
        "slow": False,
    },
    {
        "name": "cone_pg3_49",
        "family": "cone",
        "params": {"q": 49, "p0": 7, "n": 3, "base_m": 2},
        "k": 2,
        "p0": 7,
        "slow": True,
    },
    {
        "name": "cone_pg3_9",
        "family": "cone",
        "params": {"q": 9, "p0": 3, "n": 3, "base_m": 2},
        "k": 2,
        "p0": 3,
        "slow": False,
    },
    {
        "name": "rank4_pg2_27",
        "family": "random_rank_r",
        "params": {"q": 27, "n": 2, "r": 4, "seed": 1},
        "k": 1,
        "p0": 3,
        "slow": False,
    },
    {
        "name": "subgeom_pg2_49",
        "family": "subgeometry",
        "params": {"q": 49, "p0": 7, "n": 2},
        "k": 1,
        "p0": 7,
        "slow": False,
    },
    {
        "name": "subplane_pg3_49",
        "family": "subgeometry",
        "params": {"q": 49, "p0": 7, "n": 3, "m": 2},
        "k": 1,
        "p0": 7,
        "slow": False,
    },
)

NAMES = tuple(e["name"] for e in CATALOGUE)


def entry(name: str) -> dict:
    for e in CATALOGUE:
        if e["name"] == name:
            return e
    from .errors import NotFoundError
    raise NotFoundError(f"no catalogue entry named {name!r}, "
                        f"have {sorted(NAMES)}")


def build_witness(name: str) -> LinearSetWitness:
    e = entry(name)
    return build_family_witness(e["family"], **e["params"])


def metadata(name: str, witness: LinearSetWitness = None) -> dict:
    e = entry(name)
    if witness is None:
        witness = build_witness(name)
    return {
        "name": e["name"],
        "family": e["family"],
        "params": dict(e["params"]),
        "k": e["k"],
        "p0": e["p0"],
        "slow": e["slow"],
        "claims": dict(_COMMON_CLAIMS),
        "witness": formats.witness_to_dict(witness),
    }


def write_instance(directory: str, name: str) -> tuple:
    """Regenerate one instance under directory; returns (pts, meta) paths."""
    witness = build_witness(name)
    path = os.path.join(directory, name + ".pts")
    formats.write_pointset(path, witness.points,
                           meta=metadata(name, witness))
    return path, formats.meta_path(path)


def shipped_dir() -> str:
    return str(importlib.resources.files(__package__) / "data" / "catalogue")


def load_shipped(names=None):
    """Shipped instances as harness Instance records, sorted by name."""
    from . import harness
    return harness.load_catalogue(shipped_dir(), names)
