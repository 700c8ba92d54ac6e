"""Self-contained certificate documents for every positive claim.

A certificate bundles the coloring it talks about with a typed payload
that an independent checker (prover.verify_certificate) can re-validate
with the embedder's primitives, the split count (`coloring.split_counting`)
and the constructive validators.  Types:

* witness-coloring — a host coloring avoiding both forbidden structures;
* embedding        — a single monochromatic structure placement;
* pair-set         — bichromatic pairs and a pairwise-disjointness claim;
* join-trace       — a list of (edge, color) facts plus a result placement;
* configuration    — a two-edge bridge configuration (see `constructive`).

`meta` carries the producing operation's name and the seed.  The checker
never reads it, so a certificate whose meta holds more keys, as older
versions wrote, still checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .coloring import TwoColoring, decoding
from .core import atomic_write, read_json

CERT_TYPES = ("witness-coloring", "embedding", "pair-set", "join-trace",
              "configuration")


@dataclass(frozen=True)
class Certificate:
    type: str
    coloring: TwoColoring
    payload: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.type not in CERT_TYPES:
            raise ValueError(f"malformed-certificate: unknown type {self.type!r}")
        if not isinstance(self.coloring, TwoColoring):
            raise ValueError("malformed-certificate: coloring missing")
        if not (isinstance(self.payload, dict) and isinstance(self.meta, dict)):
            raise ValueError("malformed-certificate: payload and meta must be objects")

    def to_json_obj(self, explicit_coloring: bool = False) -> dict:
        return {
            "type": self.type,
            "coloring": self.coloring.to_json_obj(explicit=explicit_coloring),
            "payload": self.payload,
            "meta": self.meta,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Certificate":
        with decoding("certificate"):
            return cls(obj["type"], TwoColoring.from_json_obj(obj["coloring"]),
                       obj["payload"], obj.get("meta", {}))

    def save(self, path, explicit_coloring: bool = False) -> None:
        """One line of JSON, encoded in full before `path` is touched."""
        atomic_write(path, json.dumps(self.to_json_obj(explicit_coloring)) + "\n")

    @classmethod
    def load(cls, path) -> "Certificate":
        return cls.from_json_obj(read_json(path))


def make_certificate(type_: str, coloring: TwoColoring, payload: dict, *,
                     lemma: str, seed: Optional[int] = None) -> Certificate:
    meta = {"lemma": lemma, "seed": seed}
    return Certificate(type_, coloring, payload, meta)
