import json
import re

import pytest

from isurg.knots import CatalogError, KnotDescriptor, load_catalog, torus_knot


def _catalog(knots) -> str:
    """Catalog text stating every field of each descriptor."""
    return json.dumps({"knots": [k._asdict() for k in knots]})


def test_trefoil():
    k = torus_knot(2, 3)
    assert k.genus == 1
    assert k.max_self_linking == 1
    assert k.lspace_slope == 5
    assert k.lens_surgery


def test_t25():
    k = torus_knot(2, 5)
    assert k.genus == 2
    assert k.max_self_linking == 3


def test_symmetric_in_p_q():
    assert torus_knot(3, 2) == torus_knot(2, 3)
    assert torus_knot(5, 3) == torus_knot(3, 5)


@pytest.mark.parametrize("p,q", [(2, 4), (3, 6), (1, 3), (2, 1), (0, 5)])
def test_bad_torus_parameters(p, q):
    with pytest.raises(ValueError):
        torus_knot(p, q)


def test_load_one_entry():
    doc = '{"knots": [{"name": "T23", "genus": 1, "max_self_linking": 1, "lspace_slope": 5}]}'
    (k,) = load_catalog(doc)
    assert k.name == "T23"
    assert k.lspace_slope == 5


def test_genus_zero_rejected():
    doc = '{"knots": [{"name": "U", "genus": 0, "max_self_linking": -1}]}'
    with pytest.raises(CatalogError, match="genus must be >= 1"):
        load_catalog(doc)


def test_self_linking_invariant_rejected():
    doc = '{"knots": [{"name": "K", "genus": 2, "max_self_linking": 2, "lspace_slope": 7}]}'
    with pytest.raises(CatalogError, match="max_self_linking"):
        load_catalog(doc)


@pytest.mark.parametrize("key", ["genus", "max_self_linking", "lspace_slope"])
@pytest.mark.parametrize("value", ['"3"', "true", "2.5", "[1]"])
def test_integer_fields_of_another_type_rejected(key, value):
    entry = {"name": "K", "genus": 1, "max_self_linking": 1, "lspace_slope": 5}
    doc = json.dumps({"knots": [entry]}).replace(f'"{key}": {entry[key]}', f'"{key}": {value}')
    with pytest.raises(CatalogError, match=f"{key} must be an integer, got "):
        load_catalog(doc)


def test_null_lspace_slope_means_none():
    doc = '{"knots": [{"name": "K", "genus": 1, "max_self_linking": 1, "lspace_slope": null}]}'
    assert load_catalog(doc) == [KnotDescriptor("K", 1, 1)]
    with pytest.raises(CatalogError, match="genus must be an integer, got null"):
        load_catalog('{"knots": [{"name": "K", "genus": null, "max_self_linking": 1}]}')


@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null", "[]"])
def test_lens_surgery_of_another_type_rejected(value):
    doc = '{"knots": [{"name": "K", "genus": 1, "max_self_linking": 1, "lens_surgery": ' + value + "}]}"
    with pytest.raises(CatalogError, match=re.escape(f"lens_surgery must be true or false, got {value}")):
        load_catalog(doc)


@pytest.mark.parametrize("lens", [True, False])
def test_lens_surgery_bools_load(lens):
    doc = json.dumps({"knots": [{"name": "K", "genus": 1, "max_self_linking": 1, "lens_surgery": lens}]})
    (k,) = load_catalog(doc)
    assert k.lens_surgery is lens


@pytest.mark.parametrize("value", ['["K"]', "1", "null", "true", '{"n": "K"}'])
def test_name_of_another_type_rejected(value):
    doc = '{"knots": [{"name": ' + value + ', "genus": 1, "max_self_linking": 1}]}'
    with pytest.raises(CatalogError, match=r"knots\[0\]: name must be a string, got "):
        load_catalog(doc)


@pytest.mark.parametrize("missing", [("name",), ("genus",), ("max_self_linking",),
                                     ("genus", "max_self_linking"), ("name", "max_self_linking"),
                                     ("name", "genus", "max_self_linking")])
def test_missing_required_key_rejected(missing):
    # The required keys are KnotDescriptor's fields without a default; the
    # first one missing, in field order, is named.
    entry = {"name": "K", "genus": 1, "max_self_linking": 1, "lspace_slope": 5}
    for key in missing:
        del entry[key]
    message = f"knots[0]: missing required key '{missing[0]}'"
    with pytest.raises(CatalogError, match=re.escape(message) + "$"):
        load_catalog(json.dumps({"knots": [entry]}))


def test_unknown_key_rejected():
    doc = '{"knots": [{"name": "K", "genus": 1, "max_self_linking": 1, "slope": 5}]}'
    with pytest.raises(CatalogError, match="unknown keys"):
        load_catalog(doc)


def test_not_json():
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog("knots:\n  - name: T23\n")


def test_round_trip():
    ks = [
        torus_knot(2, 3),
        torus_knot(3, 5),
        KnotDescriptor("plain", 2, 3),
    ]
    assert load_catalog(_catalog(ks)) == ks
    # Optional keys may be left out: no lspace_slope means none, and no
    # lens_surgery means false.
    plain = '{"knots": [{"name": "plain", "genus": 2, "max_self_linking": 3}]}'
    assert load_catalog(plain) == ks[2:]


def test_loaded_entries_satisfy_invariant():
    text = _catalog([torus_knot(p, q) for p, q in [(2, 3), (2, 5), (3, 4), (3, 5)]])
    for k in load_catalog(text):
        if k.lspace_slope is not None:
            assert k.max_self_linking == 2 * k.genus - 1


@pytest.mark.parametrize("args, kwargs, full", [
    (("T23", 1, 1, 5), {}, ("T23", 1, 1, 5, False)),
    (("T23", 1), {"max_self_linking": 1, "lspace_slope": 5}, ("T23", 1, 1, 5, False)),
    (("plain", 2, 3), {}, ("plain", 2, 3, None, False)),
    ((), {"name": "plain", "genus": 2, "max_self_linking": 3}, ("plain", 2, 3, None, False)),
])
def test_positional_and_keyword_construction_agree(args, kwargs, full):
    fields = ("name", "genus", "max_self_linking", "lspace_slope", "lens_surgery")
    k = KnotDescriptor(*args, **kwargs)
    assert k == KnotDescriptor(**dict(zip(fields, full)))
    assert tuple(getattr(k, name) for name in fields) == full
    with pytest.raises(AttributeError):
        k.genus = 2
