"""Category-data files: a JSON text format with exact scalars.

Scalars are serialised as fraction strings ("2/3", "-1") so files are
human-diffable and round-trip bit for bit; a loader reads a scalar only in
the form a writer gives it.  Structure constants are sparse:
missing entries are zero.  Loaders reject unknown keys and run the full
validation pass.
"""

from __future__ import annotations

import json

from .errors import ShapeError
from .fincat import CategoryPresentation, Obj, validate_category
from .linalg import GF, QQ, Field

FORMAT_VERSION = 1

_KNOWN_KEYS = {
    "format_version",
    "field",
    "indecomposables",
    "sigma",
    "hom",
    "comp",
    "identities",
    "metadata",
}


def _field_tag(field: Field):
    if field is QQ:
        return "Q"
    return {"Fp": field.p}


def _field_from_tag(tag) -> Field:
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"Fp"} and _is_index(tag["Fp"]):
        try:
            return GF(tag["Fp"])
        except ValueError as e:
            raise ShapeError(f"field tag {tag!r}: {e}") from None
    raise ShapeError(f"unknown field tag {tag!r}")


def presentation_to_dict(P: CategoryPresentation) -> dict:
    field = P.field
    hom = []
    for i in range(P.n):
        for j in range(P.n):
            d = P.hom_dim(i, j)
            if d:
                hom.append({"src": P.objects[i], "dst": P.objects[j], "dim": d})
    comp = []
    for (i, j, k) in sorted(P.comp.keys()):
        table = P.comp[(i, j, k)]
        for a, row in enumerate(table):
            for b, vec in enumerate(row):
                for c, x in enumerate(vec):
                    if x != field.zero:
                        comp.append(
                            {
                                "i": P.objects[i],
                                "j": P.objects[j],
                                "k": P.objects[k],
                                "a": a,
                                "b": b,
                                "c": c,
                                "coeff": field.fmt(x),
                            }
                        )
    comp.sort(key=lambda e: (e["i"], e["j"], e["k"], e["a"], e["b"], e["c"]))
    doc = {
        "format_version": FORMAT_VERSION,
        "field": _field_tag(field),
        "indecomposables": list(P.objects),
        "hom": hom,
        "comp": comp,
        "identities": [[field.fmt(x) for x in v] for v in P.identities],
        "metadata": P.metadata,
    }
    if P.sigma is not None:
        doc["sigma"] = list(P.sigma)
    return doc


def _entries(doc: dict, key: str, kind=list):
    val = doc.get(key)
    if not isinstance(val, kind):
        raise ShapeError(f"{key!r} must be a JSON {'list' if kind is list else 'object'}")
    return val


def _is_index(x, bound: int | None = None) -> bool:
    """Whether x is an int in [0, bound), or a non-negative int without a bound."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0 and (bound is None or x < bound)


def _scalar(field: Field, x):
    """The field element written as x, or None unless x is canonical: the
    string presentation_to_dict writes for that element.

    So "1.0", " 1", "1e0", "2/2" and a JSON number are refused, and over
    GF(p) so are "-1", "p" and "1/2": each would be written back otherwise.
    """
    if isinstance(x, str):
        try:
            v = field.of(x)
        except (ValueError, ZeroDivisionError):
            return None
        if field.fmt(v) == x:
            return v
    return None


def presentation_from_dict(doc: dict) -> CategoryPresentation:
    """Parse a category file; a malformed part raises ShapeError naming it."""
    if not isinstance(doc, dict):
        raise ShapeError("a category file must hold a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ShapeError(f"unknown fields in category file: {sorted(unknown)}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ShapeError(f"unsupported format_version {version!r}")
    field = _field_from_tag(doc.get("field"))
    objects = _entries(doc, "indecomposables")
    if not all(isinstance(name, str) for name in objects) or len(set(objects)) != len(objects):
        raise ShapeError("'indecomposables' must be a list of distinct names")
    index = {name: i for i, name in enumerate(objects)}

    def obj(kind, entry, key):
        name = entry.get(key) if isinstance(entry, dict) else None
        if not isinstance(name, str) or name not in index:
            raise ShapeError(f"{kind} entry {entry!r}: {key} is not an indecomposable")
        return index[name]

    hom = {}
    for entry in _entries(doc, "hom"):
        key = (obj("hom", entry, "src"), obj("hom", entry, "dst"))
        if not _is_index(entry.get("dim")):
            raise ShapeError(f"hom entry {entry!r}: dim is not a non-negative int")
        if key in hom:
            raise ShapeError(f"hom entry {entry!r} repeats the (src, dst) of an earlier entry")
        hom[key] = entry["dim"]

    def dim(i, j):
        return hom.get((i, j), 0)

    comp: dict = {}
    seen = set()  # the (i, j, k, a, b, c) read so far
    for entry in _entries(doc, "comp"):
        i, j, k = (obj("comp", entry, x) for x in "ijk")
        key = (i, j, k)
        a, b, c = idx = (entry.get("a"), entry.get("b"), entry.get("c"))
        for x, v, d in zip("abc", idx, (dim(i, j), dim(j, k), dim(i, k))):
            if not _is_index(v, d):
                raise ShapeError(f"comp entry {entry!r}: {x} is not an int in [0, {d})")
        coeff = _scalar(field, entry.get("coeff"))
        if coeff is None:
            raise ShapeError(f"comp entry {entry!r}: coeff is not a canonical fraction string over {field!r}")
        if key + idx in seen:
            raise ShapeError(f"comp entry {entry!r} repeats the (i, j, k, a, b, c) of an earlier entry")
        seen.add(key + idx)
        if key not in comp:
            comp[key] = [
                [[field.zero] * dim(i, k) for _ in range(dim(j, k))]
                for _ in range(dim(i, j))
            ]
        comp[key][a][b][c] = coeff
    vecs = _entries(doc, "identities")
    if len(vecs) != len(objects):
        raise ShapeError(f"'identities' has {len(vecs)} vectors for {len(objects)} indecomposables")
    identities = [[_scalar(field, x) for x in vec] if isinstance(vec, list) else None for vec in vecs]
    for i, vec in enumerate(identities):
        if vec is None or len(vec) != dim(i, i) or None in vec:
            raise ShapeError(f"identity of {objects[i]!r} is not {dim(i, i)} canonical fraction strings over {field!r}")
    sigma = doc.get("sigma")
    if sigma is not None and (
        not isinstance(sigma, list)
        or not all(_is_index(x) for x in sigma)
        or sorted(sigma) != list(range(len(objects)))
    ):
        raise ShapeError("'sigma' must be a permutation of the indecomposables")
    metadata = _entries(doc, "metadata", dict) if "metadata" in doc else {}
    aliases = metadata.get("aliases", {})
    if not isinstance(aliases, dict) or not all(isinstance(x, str) for pair in aliases.items() for x in pair):
        raise ShapeError("'metadata.aliases' must be a JSON object of names to names")
    P = CategoryPresentation(field, objects, hom, comp, identities, sigma=sigma, metadata=metadata)
    rep = validate_category(P)
    if not rep.ok:
        kind, detail = rep.violations[0]
        raise ShapeError(
            f"category file does not validate: {len(rep.violations)} violation(s), the first {kind} at {detail}"
        )
    return P


def save_category(P: CategoryPresentation, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(P), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_category(path: str) -> CategoryPresentation:
    with open(path, encoding="utf-8") as fh:
        return presentation_from_dict(json.load(fh))


# -- object specs -------------------------------------------------------------


def resolve_object_name(P: CategoryPresentation, name: str) -> int:
    """Index of an indecomposable, accepting metadata aliases."""
    if name in P.objects:
        return P.index(name)
    alias = P.metadata.get("aliases", {})
    if name in alias and alias[name] in P.objects:
        return P.index(alias[name])
    raise ShapeError(f"unknown object name {name!r}")


def parse_object_spec(P: CategoryPresentation, spec: str) -> Obj:
    """Parse 'P1+P2^2+SP3' (or comma-separated) into an object.

    A spec that names no summand, such as '' or '+', is an error rather
    than the zero object.
    """
    mult = [0] * P.n
    for part in spec.replace(",", "+").split("+"):
        part = part.strip()
        if not part:
            continue
        if "^" in part:
            name, _, power = part.partition("^")
            count = int(power) if power.isascii() and power.strip().isdecimal() else 0
            if count < 1:
                raise ShapeError(f"object spec part {part!r}: the power is not a positive integer")
        else:
            name, count = part, 1
        mult[resolve_object_name(P, name.strip())] += count
    if not any(mult):
        raise ShapeError(f"object spec {spec!r} names no summand")
    return Obj(tuple(mult))
