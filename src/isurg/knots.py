"""Knot descriptors, the torus-knot constructor, and catalog ingestion.

A descriptor records the data the surgery formulas need: Seifert genus g,
maximal self-linking number, and (optionally) a known positive L-space
surgery slope.  Catalog entries are trusted to describe instanton L-space
knots; verifying that is a caller obligation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from typing import Optional


class CatalogError(ValueError):
    """Raised when a catalog document fails to parse or validate."""


@dataclass(frozen=True)
class KnotDescriptor:
    name: str
    genus: int
    max_self_linking: int
    lspace_slope: Optional[int] = None
    lens_surgery: bool = False

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        if self.lspace_slope is not None:
            if self.lspace_slope < 1:
                raise ValueError("lspace_slope must be a positive integer")
            if self.max_self_linking != 2 * self.genus - 1:
                raise ValueError(
                    "max_self_linking must equal 2*genus - 1 = "
                    f"{2 * self.genus - 1} when lspace_slope is set, "
                    f"got {self.max_self_linking}"
                )


def torus_knot(p: int, q: int) -> KnotDescriptor:
    """Descriptor for the positive torus knot T(p, q).

    Genus is (p-1)(q-1)/2 and the classical lens-space surgery slope is
    pq - 1.  Symmetric in p and q.
    """
    p, q = min(p, q), max(p, q)
    if p < 2 or q < 2:
        raise ValueError("torus knot parameters must both be >= 2")
    if gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p},{q})")
    g = (p - 1) * (q - 1) // 2
    return KnotDescriptor(
        name=f"T({p},{q})",
        genus=g,
        max_self_linking=2 * g - 1,
        lspace_slope=p * q - 1,
        lens_surgery=True,
    )


# Catalog documents are JSON: {"knots": [{...}, ...]} with per-entry keys
# name, genus, max_self_linking, lspace_slope (optional), lens_surgery
# (optional, default false).  dump_catalog/load_catalog round-trip.

_REQUIRED = ("name", "genus", "max_self_linking")
_OPTIONAL = ("lspace_slope", "lens_surgery")
_INTEGERS = ("genus", "max_self_linking", "lspace_slope")


def load_catalog(source: str) -> list:
    """Parse and validate a catalog document; returns KnotDescriptor list."""
    try:
        doc = json.loads(source)
    except ValueError as e:  # JSONDecodeError, or an int too long to convert
        raise CatalogError(f"catalog is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("knots"), list):
        raise CatalogError('catalog must be an object with a "knots" list')
    out = []
    for i, entry in enumerate(doc["knots"]):
        if not isinstance(entry, dict):
            raise CatalogError(f"knots[{i}]: entry must be an object")
        for key in _REQUIRED:
            if key not in entry:
                raise CatalogError(f"knots[{i}]: missing required key {key!r}")
        unknown = set(entry) - set(_REQUIRED) - set(_OPTIONAL)
        if unknown:
            raise CatalogError(f"knots[{i}]: unknown keys {sorted(unknown)}")
        for key in _INTEGERS:
            value = entry.get(key)
            # A JSON true is a bool, which Python counts as an int; a null
            # lspace_slope means none, as an absent one does.
            if type(value) is not int and (value is not None or key in _REQUIRED):
                raise CatalogError(
                    f"knots[{i}] ({entry.get('name', '?')}): {key} must be an "
                    f"integer, got {json.dumps(value)[:40]}"
                )
        try:
            out.append(
                KnotDescriptor(
                    name=entry["name"],
                    genus=entry["genus"],
                    max_self_linking=entry["max_self_linking"],
                    lspace_slope=entry.get("lspace_slope"),
                    lens_surgery=bool(entry.get("lens_surgery", False)),
                )
            )
        except ValueError as e:
            raise CatalogError(f"knots[{i}] ({entry.get('name', '?')}): {e}") from e
    return out


def dump_catalog(knots) -> str:
    """Serialize descriptors back to catalog text (round-trip stable)."""
    entries = []
    for k in knots:
        e = {
            "name": k.name,
            "genus": k.genus,
            "max_self_linking": k.max_self_linking,
        }
        if k.lspace_slope is not None:
            e["lspace_slope"] = k.lspace_slope
        if k.lens_surgery:
            e["lens_surgery"] = True
        entries.append(e)
    return json.dumps({"knots": entries}, indent=2) + "\n"
