import json

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.catfile import (
    load_category,
    parse_object_spec,
    presentation_from_dict,
    presentation_to_dict,
    resolve_object_name,
    save_category,
)
from quotcat.clustergen import build_cluster_category
from quotcat.errors import ShapeError
from quotcat.fincat import validate_category
from quotcat.linalg import GF, QQ

from conftest import chain4_category


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


def test_roundtrip_bit_exact(tmp_path, A3):
    p1 = tmp_path / "a3.json"
    p2 = tmp_path / "a3_again.json"
    save_category(A3, str(p1))
    P = load_category(str(p1))
    save_category(P, str(p2))
    assert p1.read_text() == p2.read_text()
    assert P.objects == A3.objects
    for i in range(P.n):
        for j in range(P.n):
            assert P.hom_dim(i, j) == A3.hom_dim(i, j)
    assert P.comp == A3.comp
    assert P.identities == A3.identities
    assert P.sigma == A3.sigma


def test_roundtrip_rationals_load_as_ints(tmp_path):
    A4 = build_cluster_category(4, field=QQ)
    p1 = tmp_path / "a4.json"
    p2 = tmp_path / "a4_again.json"
    save_category(A4, str(p1))
    P = load_category(str(p1))
    save_category(P, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert P.comp == A4.comp
    scalars = [x for table in P.comp.values() for row in table for vec in row for x in vec]
    scalars += [x for vec in P.identities for x in vec]
    assert scalars and all(type(x) is int for x in scalars)


def test_roundtrip_prime_field(tmp_path):
    P = build_cluster_category(2, field=GF(101))
    path = tmp_path / "a2f.json"
    save_category(P, str(path))
    Q = load_category(str(path))
    assert Q.field is GF(101)
    assert Q.comp == P.comp


def test_unknown_fields_rejected_in_strict_mode(tmp_path, A3):
    doc = presentation_to_dict(A3)
    doc["surprise"] = 1
    with pytest.raises(ShapeError):
        presentation_from_dict(doc)


def test_bad_format_version(A3):
    # only the int 1 is version 1: a bool, a float or a string equal to it is refused
    doc = presentation_to_dict(A3)
    for version in (99, True, 1.0, "1"):
        doc["format_version"] = version
        with pytest.raises(ShapeError, match="format_version"):
            presentation_from_dict(doc)


def test_corrupted_file_fails_validation(A3):
    doc = presentation_to_dict(A3)
    doc["comp"][0]["coeff"] = "7"
    with pytest.raises(ShapeError):
        presentation_from_dict(doc)


def _ones(doc):
    """The comp entry and the identity vector of doc that first hold a "1"."""
    entry = next(e for e in doc["comp"] if e["coeff"] == "1")
    vec = next(v for v in doc["identities"] if "1" in v)
    return entry, vec


@pytest.mark.parametrize("scalar", ["1.0", " 1", "1e0", "2/2", 1, 1.0])
def test_non_canonical_scalar_refused(A3, scalar):
    # each equals 1 but would be written back as "1", so a file holding it
    # would not round-trip; refused in a comp entry and in an identity
    doc = presentation_to_dict(A3)
    entry, vec = _ones(doc)
    entry["coeff"] = scalar
    with pytest.raises(ShapeError, match="canonical") as err:
        presentation_from_dict(doc)
    assert str(err.value).startswith(f"comp entry {entry!r}: coeff")
    doc = presentation_to_dict(A3)
    entry, vec = _ones(doc)
    vec[vec.index("1")] = scalar
    with pytest.raises(ShapeError, match="identity of .* canonical"):
        presentation_from_dict(doc)


@pytest.mark.parametrize("scalar", ["-100", "102", "203", "1/1"])
def test_prime_field_scalar_outside_0_to_p_refused(scalar):
    # each is 1 mod 101, but GF(101) writes its elements as ints in [0, 101)
    doc = presentation_to_dict(build_cluster_category(3, field=GF(101)))
    entry, vec = _ones(doc)
    entry["coeff"] = scalar
    with pytest.raises(ShapeError, match="canonical") as err:
        presentation_from_dict(doc)
    assert str(err.value).startswith(f"comp entry {entry!r}: coeff")
    entry["coeff"] = "1"
    presentation_from_dict(doc)  # the canonical spelling loads


@pytest.mark.parametrize("key, change", [("hom", {"dim": 2}), ("comp", {"coeff": "5"})])
def test_repeated_entry_refused(A3, key, change):
    # a copy of the first entry, changed, before it: the later one once won
    doc = presentation_to_dict(A3)
    copy = {**doc[key][0], **change}
    doc[key].insert(0, copy)
    with pytest.raises(ShapeError, match="repeats") as err:
        presentation_from_dict(doc)
    assert str(err.value).startswith(f"{key} entry {doc[key][1]!r}")


def test_file_without_a_nonzero_composite_table_fails_validation():
    # with no (w, x, y) entries g o f is zero, yet (h o g) o f is not
    doc = presentation_to_dict(chain4_category())
    doc["comp"] = [e for e in doc["comp"] if (e["i"], e["j"], e["k"]) != ("w", "x", "y")]
    with pytest.raises(ShapeError, match="associativity"):
        presentation_from_dict(doc)


def test_resolve_aliases(A3):
    # S1 and I1 are alternative names for P1 and P3 under this orientation
    assert resolve_object_name(A3, "S1") == A3.index("P1")
    assert resolve_object_name(A3, "I1") == A3.index("P3")
    with pytest.raises(ShapeError):
        resolve_object_name(A3, "nope")


def test_parse_object_spec(A3):
    T = parse_object_spec(A3, "P1+P2^2, SP3")
    assert T.mult[A3.index("P1")] == 1
    assert T.mult[A3.index("P2")] == 2
    assert T.mult[A3.index("SP3")] == 1
    assert T.total == 4


def test_rationals_serialised_as_strings(A3):
    doc = presentation_to_dict(A3)
    assert all(isinstance(e["coeff"], str) for e in doc["comp"])
    text = json.dumps(doc)
    assert "coeff" in text


def test_generator_matches_golden_file():
    # guards the choice conventions: regenerating C(A_2) must reproduce the
    # committed file exactly
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "a2.json"
    fresh = presentation_to_dict(build_cluster_category(2))
    assert json.loads(golden.read_text()) == json.loads(json.dumps(fresh))


def test_quotient_reproducible_bit_for_bit():
    from quotcat.quotient import build_quotient

    docs = []
    for _ in range(2):
        P = build_cluster_category(3)
        qc = build_quotient(P, P.obj({"P1": 1, "P3": 1}))
        docs.append(presentation_to_dict(qc.presentation))
    assert docs[0] == docs[1]


# -- fuzzing: a mutated file loads as a valid presentation or is refused -------


# values of another type, indices out of range and bad scalars
_STRAY_VALUES = [None, True, 1.5, "x", "", [], {}, 0, 1, -1, 99, "1/0", "2/3", "nan", {"Fp": 4}, {"Fp": 101}]


def _paths(node, path=()):
    """The path of every value in a JSON document, the document's own () first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    """Drop, retype or truncate one value of doc, in place."""
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    *head, key = path
    parent = doc
    for k in head:
        parent = parent[k]
    node = parent[key]
    kinds = ["drop", "retype"] + (["truncate"] if isinstance(node, list) and node else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = json.loads(json.dumps(data.draw(st.sampled_from(_STRAY_VALUES))))
    else:
        del node[data.draw(st.integers(0, len(node) - 1)):]


@pytest.fixture(scope="module")
def a3_doc(A3):
    return json.dumps(presentation_to_dict(A3))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_valid_or_is_refused(a3_doc, data):
    doc = json.loads(a3_doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        P = presentation_from_dict(doc)
    except (ShapeError, ValueError):
        return
    assert validate_category(P).ok
    aliases = P.metadata.get("aliases", {})
    assert isinstance(aliases, dict) and all(isinstance(x, str) for pair in aliases.items() for x in pair)
