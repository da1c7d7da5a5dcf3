"""Seeded synthetic event generation.

Events follow simple fixed distributions: missing-energy pt is exponential
with a configurable scale, azimuthal angles are uniform on [-pi, pi),
collection multiplicities are Poisson (jets with a configurable mean),
and per-particle kinematics come from fixed shapes with physical lepton
masses. mc weights are either constant 1.0 or signed (+1 with probability
p_plus, else -1); data events always carry weight 1.0 exactly.

Generation is deterministic: an identical spec produces a byte-identical
EVT file. The draw order per event is part of that contract.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .events import analysis_schema
from .storage import WriteStats, write_evt
from .storage.evt import DEFAULT_BLOCK_EVENTS
from .storage.ntu import check_target

_LEPTON_MEANS = (("muons", 0.3), ("electrons", 0.3), ("taus", 0.2), ("photons", 0.5))
_MASSES = {"muons": 0.105658, "electrons": 0.000511, "taus": 1.77686, "photons": 0.0}


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n_events: int
    kind: str = "mc"  # "mc" | "data"
    met_scale: float = 100.0  # GeV
    mean_jets: float = 4.0
    weight_dist: str = "constant"  # "constant" | "signed"
    p_plus: float = 0.9  # signed: probability of +1

    def __post_init__(self) -> None:
        if self.n_events < 0:
            raise ConfigError("n_events must be >= 0")
        if self.kind not in ("mc", "data"):
            raise ConfigError("kind must be 'mc' or 'data'")
        if not (math.isfinite(self.met_scale) and self.met_scale > 0):
            raise ConfigError(f"met_scale must be finite and > 0, not {self.met_scale!r}")
        if not (math.isfinite(self.mean_jets) and self.mean_jets >= 0):
            raise ConfigError(f"mean_jets must be finite and >= 0, not {self.mean_jets!r}")
        if self.weight_dist not in ("constant", "signed"):
            raise ConfigError("weight_dist must be 'constant' or 'signed'")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ConfigError("p_plus must be in [0, 1]")


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _phi(rng: random.Random) -> float:
    v = rng.uniform(-math.pi, math.pi)
    return -math.pi if v >= math.pi else v


def _particle(rng: random.Random, collection: str) -> dict:
    if collection == "jets":
        pt = 20.0 + rng.expovariate(1.0 / 60.0)
        eta = rng.uniform(-4.7, 4.7)
        mass = pt * rng.uniform(0.05, 0.2)
    else:
        pt = 15.0 + rng.expovariate(1.0 / 30.0)
        eta = rng.uniform(-2.5, 2.5)
        mass = _MASSES[collection]
    return {"pt": pt, "eta": eta, "phi": _phi(rng), "mass": mass, "id": rng.getrandbits(3)}


def generate_events(spec: GeneratorSpec, *, start_index: int = 0):
    """Yield `spec.n_events` events; event numbers continue from
    `start_index` so multi-file corpora stay unique."""
    rng = random.Random(spec.seed)
    signed = spec.kind == "mc" and spec.weight_dist == "signed"
    for i in range(spec.n_events):
        number = start_index + i + 1
        if spec.kind == "data":
            weight = 1.0
        elif signed:
            weight = 1.0 if rng.random() < spec.p_plus else -1.0
        else:
            weight = 1.0
        event = {
            "run": 1,
            "lumi": (number - 1) // 1000 + 1,
            "event": number,
            "genInfo": {"weight": weight},
            "met": {"pt": rng.expovariate(1.0 / spec.met_scale), "phi": _phi(rng)},
        }
        for name, lam in _LEPTON_MEANS:
            event[name] = [_particle(rng, name) for _ in range(_poisson(rng, lam))]
        event["jets"] = [_particle(rng, "jets") for _ in range(_poisson(rng, spec.mean_jets))]
        yield event


def generate_evt(
    spec: GeneratorSpec,
    path,
    *,
    compress: bool = False,
    block_target: int = DEFAULT_BLOCK_EVENTS,
    start_index: int = 0,
) -> WriteStats:
    """Generate one EVT file."""
    return write_evt(
        path,
        generate_events(spec, start_index=start_index),
        analysis_schema(),
        compress=compress,
        block_target=block_target,
    )


def generate_corpus(
    spec: GeneratorSpec,
    out_dir,
    n_files: int,
    *,
    compress: bool = False,
    block_target: int = DEFAULT_BLOCK_EVENTS,
) -> list[Path]:
    """Split the event budget over `n_files` files (part-NNNN.evt) with
    per-file derived seeds and contiguous event numbering."""
    if n_files < 1:
        raise ConfigError("n_files must be >= 1")
    check_target("block_target", block_target)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = spec.n_events // n_files
    rem = spec.n_events % n_files
    paths = []
    start = 0
    for i in range(n_files):
        n = base + (1 if i < rem else 0)
        sub = replace(spec, seed=spec.seed + 1_000_003 * (i + 1), n_events=n)
        path = out_dir / f"part-{i:04d}.evt"
        generate_evt(sub, path, compress=compress, block_target=block_target, start_index=start)
        paths.append(path)
        start += n
    return paths
