"""Knot descriptors, the torus-knot constructor, and catalog ingestion.

A descriptor records the data the surgery formulas need: Seifert genus g,
maximal self-linking number, and (optionally) a known positive L-space
surgery slope.  Catalog entries are trusted to describe instanton L-space
knots; verifying that is a caller obligation.
"""

from __future__ import annotations

import json
from collections import namedtuple
from math import gcd


class CatalogError(ValueError):
    """Raised when a catalog document fails to parse or validate."""


class KnotDescriptor(namedtuple("KnotDescriptor", "name genus max_self_linking lspace_slope lens_surgery",
                                defaults=(None, False))):
    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
        return self


def torus_knot(p: int, q: int) -> KnotDescriptor:
    """Descriptor for the positive torus knot T(p, q).

    Genus is (p-1)(q-1)/2 and the classical lens-space surgery slope is
    pq - 1.  Symmetric in p and q.
    """
    p, q = min(p, q), max(p, q)
    if p < 2 or q < 2:
        raise ValueError("torus knot parameters must both be >= 2")
    if gcd(p, q) != 1:
        raise ValueError("torus knot parameters must be coprime")
    g = (p - 1) * (q - 1) // 2
    return KnotDescriptor(
        name=f"T({p},{q})",
        genus=g,
        max_self_linking=2 * g - 1,
        lspace_slope=p * q - 1,
        lens_surgery=True,
    )


# Catalog documents are JSON: {"knots": [{...}, ...]}.  An entry's keys are
# KnotDescriptor's fields; those with a default (lspace_slope: none,
# lens_surgery: false) may be left out.

_DEFAULTS = KnotDescriptor._field_defaults
_REQUIRED = [key for key in KnotDescriptor._fields if key not in _DEFAULTS]
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
        unknown = set(entry).difference(KnotDescriptor._fields)
        if unknown:
            raise CatalogError(f"knots[{i}]: unknown keys {sorted(unknown)}")
        name = entry["name"]
        if type(name) is not str:
            raise CatalogError(f"knots[{i}]: name must be a string, got {json.dumps(name)[:40]}")
        for key in _INTEGERS:
            value = entry.get(key)
            # A JSON true is a bool, which Python counts as an int; a null
            # lspace_slope means none, as an absent one does.
            if type(value) is not int and (value is not None or key not in _DEFAULTS):
                raise CatalogError(
                    f"knots[{i}] ({name}): {key} must be an integer, "
                    f"got {json.dumps(value)[:40]}"
                )
        lens = entry.get("lens_surgery", False)
        if type(lens) is not bool:  # "false" would otherwise count as true
            raise CatalogError(
                f"knots[{i}] ({name}): lens_surgery must be true or false, "
                f"got {json.dumps(lens)[:40]}"
            )
        try:
            out.append(KnotDescriptor(**entry))
        except ValueError as e:
            raise CatalogError(f"knots[{i}] ({name}): {e}") from e
    return out

