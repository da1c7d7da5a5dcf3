"""The concrete analysis event layout.

Events are plain nested dicts: records are dicts, arrays are lists, and
primitives are Python numbers/bools. The standard analysis layout carries
the event id triple, the generator weight, missing transverse energy, and
five particle collections, each a list of flat kinematic records.
"""

from __future__ import annotations

from .schema import Array, Primitive, Record, Schema, SchemaNode

PARTICLE_COLLECTIONS = ("muons", "electrons", "taus", "photons", "jets")

_PARTICLE = Record((
    ("pt", Primitive("f64")),
    ("eta", Primitive("f64")),
    ("phi", Primitive("f64")),
    ("mass", Primitive("f64")),
    ("id", Primitive("i32")),
))


def analysis_schema() -> Schema:
    """Schema of the standard analysis event."""
    fields: list[tuple[str, SchemaNode]] = [
        ("run", Primitive("i64")),
        ("lumi", Primitive("i64")),
        ("event", Primitive("i64")),
        ("genInfo", Record((("weight", Primitive("f64")),))),
        ("met", Record((("pt", Primitive("f64")), ("phi", Primitive("f64"))))),
    ]
    fields.extend((name, Array(_PARTICLE)) for name in PARTICLE_COLLECTIONS)
    return Schema(Record(tuple(fields)))


def make_event(run=1, lumi=1, event=1, weight=1.0, met_pt=0.0, met_phi=0.0, **collections) -> dict:
    """Convenience constructor for tests and tools; unspecified collections
    are empty."""
    ev = {
        "run": run,
        "lumi": lumi,
        "event": event,
        "genInfo": {"weight": weight},
        "met": {"pt": met_pt, "phi": met_phi},
    }
    for name in PARTICLE_COLLECTIONS:
        ev[name] = list(collections.pop(name, ()))
    if collections:
        raise TypeError(f"unknown collections: {sorted(collections)}")
    return ev


def make_particle(pt=30.0, eta=0.0, phi=0.0, mass=0.0, id=0) -> dict:
    return {"pt": pt, "eta": eta, "phi": phi, "mass": mass, "id": id}
