"""The benchmark's three workloads.

Each workload builds its inputs from the seed with the program's own
generator, runs one measured operation at a time through the program's
public functions, keeps each distinct output on disk, and checks the kept
outputs against the hand-written reference once the measurement is over.

analysis_cold      time-to-plots: open, skim and histogram an mc and a data
                   dataset from raw EVT files, two workers, persist on.
mc_cached_iterate  interactive re-skims of an mc dataset persisted during
                   set-up, under a seeded round of loose cuts, one worker.
mc_deflate_budget  the mc skim from deflate EVT files with a cache budget
                   well below the decoded size, one worker.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from skimflow import DatasetDescriptor, EngineConfig, GeneratorSpec, convert_evt, generate_corpus
from skimflow.analysis import (
    AnalysisConfig,
    build_plot_bundle,
    histograms_for_ntuple,
    run_skim,
)
from skimflow.engine import open_dataset
from skimflow.histogram import HistogramSpec

import reference as ref

MC_EVENTS = 100_000
MC_FILES = 4
DATA_EVENTS = 30_000
DATA_FILES = 1
XSEC_PB = 50.0
LUMI_INVPB = 1000.0
CACHE_BUDGET_BYTES = 8_000_000

# the program's default selection, projection and histograms, written out
# here so the reference does not take them from the program
DEFAULT_COLUMNS = ("met_pt", "met_phi", "ht", "njets", "jet_pt_max")
DEFAULT_HISTOGRAMS = (("met_pt", 40, 0.0, 1000.0), ("ht", 30, 0.0, 1500.0), ("njets", 12, 0.0, 12.0))

WIDE_PROJECTION = (
    ("met_pt", "met.pt"),
    ("met_phi", "met.phi"),
    ("ht", "sum(jets, it.pt)"),
    ("njets", "count(jets, it.pt > 30.0)"),
    ("n_jets_all", "size(jets)"),
    ("jet_pt_max", "max(jets, it.pt)"),
    ("jet_eta_min", "min(jets, it.eta)"),
    ("n_muons", "size(muons)"),
    ("n_electrons", "size(electrons)"),
    ("n_photons", "size(photons)"),
    ("photon_pt_sum", "sum(photons, it.pt)"),
    ("tau_pt_max", "max(taus, it.pt)"),
    ("met_over_ht", "met.pt / (sum(jets, it.pt) + 1.0)"),
)
WIDE_HISTOGRAMS = (
    ("met_pt", 50, 0.0, 500.0),
    ("ht", 60, 0.0, 1200.0),
    ("njets", 15, 0.0, 15.0),
    ("jet_pt_max", 50, 0.0, 500.0),
    ("met_over_ht", 40, 0.0, 4.0),
)
# (met.pt floor, jet pt floor, most taus): each passes roughly 80-97% of
# events; the seed jitters the floors and shuffles the order
LOOSE_LADDER = ((0.0, 20.0, 2), (7.5, 24.0, 1), (15.0, 28.0, 1))


def mc_spec(seed: int, n_events: int = MC_EVENTS) -> GeneratorSpec:
    return GeneratorSpec(seed=seed, n_events=n_events, kind="mc", weight_dist="signed")


def data_spec(seed: int, n_events: int = DATA_EVENTS) -> GeneratorSpec:
    return GeneratorSpec(seed=seed + 1, n_events=n_events, kind="data")


def loose_selections(seed: int) -> list[tuple[str, tuple]]:
    """The seeded round of loose cuts: (expression text, reference params)."""
    rng = random.Random(seed)
    params = [
        (round(met + rng.random(), 3), round(jet + rng.random(), 3), taus)
        for met, jet, taus in LOOSE_LADDER
    ]
    rng.shuffle(params)
    return [
        (f"met.pt > {met!r} and size(taus) <= {taus} and count(jets, it.pt > {jet!r}) >= 1",
         (met, jet, taus))
        for met, jet, taus in params
    ]


def _hist_specs(hists) -> tuple[HistogramSpec, ...]:
    return tuple(HistogramSpec(v, n, lo, hi) for v, n, lo, hi in hists)


class Workload:
    """Set-up, one operation, and the checks, for one workload.

    `api` holds the program's public functions the operation calls; the
    traced run wraps them there. `round_size` operations make one round,
    and a run attempts whole rounds only.
    """

    name = ""
    workers = 1
    round_size = 1
    reads_storage = True  # False: an operation must read no EVT bytes
    variables: tuple[str, ...] = ()  # histogrammed columns

    def __init__(self, seed: int, workdir: Path, *, mc_events=MC_EVENTS, data_events=DATA_EVENTS):
        self.workdir = Path(workdir)
        self.mc_spec = mc_spec(seed, mc_events)
        self.data_spec = data_spec(seed, data_events)
        self.input_events = self.mc_spec.n_events  # input events of one operation
        self.api = SimpleNamespace(
            open_dataset=open_dataset,
            run_skim=run_skim,
            histograms_for_ntuple=histograms_for_ntuple,
            build_plot_bundle=build_plot_bundle,
        )
        self.kept: dict[str, dict] = {}  # digest -> one kept output
        self.warnings: set[str] = set()  # the datasets' own warnings
        self.out_dir = self.workdir / "out"
        self.kept_dir = self.workdir / "kept"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.kept_dir.mkdir(parents=True, exist_ok=True)

    # -- set-up ------------------------------------------------------------------

    def _generate(self, spec, directory, n_files) -> float:
        t0 = time.perf_counter()
        generate_corpus(spec, directory, n_files)
        return time.perf_counter() - t0

    def setup(self) -> dict:
        """Build the inputs; returns the seconds spent in the generator and
        in conversion."""
        raise NotImplementedError

    # -- one operation -----------------------------------------------------------

    def _skim_and_plot(self, config, datasets) -> dict:
        """run_skim every (label, dataset), fill its histograms, build the
        plot bundle; returns the outputs to keep."""
        api = self.api
        results, hists = {}, {}
        for label, ds in datasets:
            path = self.out_dir / f"{label}.ntu"
            if ds is None:
                ds = api.open_dataset(config.dataset(label), config.engine)
            result = api.run_skim(config, ds, path)
            self.warnings.update(ds.warnings)
            results[label] = (result.n_output, result.sum_weights)
            hists[label] = api.histograms_for_ntuple(path, config.histograms)
        bundle = api.build_plot_bundle(config, hists)
        return {"results": results, "hists": hists, "bundle": bundle}

    def operation(self, i: int) -> dict:
        """Operation `i` of a round."""
        raise NotImplementedError

    def keep(self, i: int, out: dict) -> str:
        """Digest of an operation's output; the first output with each
        digest is kept for the checks."""
        h = hashlib.sha256(str(i).encode())
        for label in out["results"]:
            with open(self.out_dir / f"{label}.ntu", "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
        hists = {
            label: {var: hist.to_dict() for var, hist in by_var.items()}
            for label, by_var in out["hists"].items()
        }
        h.update(json.dumps([out["results"], hists, out["bundle"]], sort_keys=True).encode())
        digest = h.hexdigest()
        if digest not in self.kept:
            ntu = {}
            for label in out["results"]:
                ntu[label] = self.kept_dir / f"{digest[:16]}-{label}.ntu"
                shutil.copyfile(self.out_dir / f"{label}.ntu", ntu[label])
            self.kept[digest] = {
                "op": i, "ntu": ntu, "results": out["results"], "hists": hists,
                "bundle": out["bundle"],
            }
        return digest

    # -- checks ------------------------------------------------------------------

    def expected(self) -> dict:
        """The reference: {op index in round: {label: Expected}}."""
        raise NotImplementedError

    def _check_output(self, kept: dict, expected: dict) -> list[str]:
        problems = []
        for label, exp in expected.items():
            ntu = kept["ntu"][label].read_bytes()
            n_output, sumw = kept["results"][label]
            for p in ref.check_skim(exp, ntu, n_output, sumw, XSEC_PB, LUMI_INVPB):
                problems.append(f"{label}: {p}")
            for p in ref.check_histograms(exp, kept["hists"][label], ntu):
                problems.append(f"{label}: {p}")
        mc = [label for label, exp in expected.items() if exp.kind == "mc"]
        data = [label for label, exp in expected.items() if exp.kind == "data"]
        problems += ref.check_bundle(
            kept["bundle"], kept["hists"], mc, data[0] if data else None, self.variables,
            LUMI_INVPB,
        )
        return problems

    def extra_checks(self, kept: dict) -> list[str]:
        return []

    def check(self) -> dict[str, list[str]]:
        """Problems of every kept output, by digest."""
        expected = self.expected()
        return {
            digest: self._check_output(kept, expected[kept["op"]]) + self.extra_checks(kept)
            for digest, kept in self.kept.items()
        }

    def close(self) -> None:
        """Release what the set-up holds."""


class AnalysisCold(Workload):
    name = "analysis_cold"
    workers = 2
    variables = tuple(v for v, *_ in DEFAULT_HISTOGRAMS)

    def __init__(self, seed, workdir, **kwargs):
        super().__init__(seed, workdir, **kwargs)
        self.input_events = self.mc_spec.n_events + self.data_spec.n_events
        self.config = AnalysisConfig(
            datasets=(
                DatasetDescriptor(str(self.workdir / "mc" / "*.evt"), "mc", "mc", XSEC_PB),
                DatasetDescriptor(str(self.workdir / "data" / "*.evt"), "data", "data"),
            ),
            luminosity_invpb=LUMI_INVPB,
            engine=EngineConfig(workers=self.workers),
            persist=True,
        )

    def setup(self) -> dict:
        gen_s = self._generate(self.mc_spec, self.workdir / "mc", MC_FILES)
        gen_s += self._generate(self.data_spec, self.workdir / "data", DATA_FILES)
        return {"generator_s": gen_s, "convert_s": 0.0}

    def operation(self, i: int) -> dict:
        return self._skim_and_plot(self.config, (("mc", None), ("data", None)))

    def expected(self) -> dict:
        sel = [(ref.default_cut, ref.default_row)]
        (mc,) = ref.expected_skims(
            ref.corpus_events(self.mc_spec, MC_FILES), sel, DEFAULT_COLUMNS, "mc",
            XSEC_PB, LUMI_INVPB, DEFAULT_HISTOGRAMS,
        )
        (data,) = ref.expected_skims(
            ref.corpus_events(self.data_spec, DATA_FILES), sel, DEFAULT_COLUMNS, "data",
            histograms=DEFAULT_HISTOGRAMS,
        )
        return {0: {"mc": mc, "data": data}}


class McCachedIterate(Workload):
    name = "mc_cached_iterate"
    round_size = len(LOOSE_LADDER)
    reads_storage = False
    variables = tuple(v for v, *_ in WIDE_HISTOGRAMS)

    def __init__(self, seed, workdir, **kwargs):
        super().__init__(seed, workdir, **kwargs)
        self.selections = loose_selections(seed)
        base = AnalysisConfig(
            datasets=(DatasetDescriptor(str(self.workdir / "mc" / "*.evt"), "mc", "mc", XSEC_PB),),
            luminosity_invpb=LUMI_INVPB,
            projection=WIDE_PROJECTION,
            histograms=_hist_specs(WIDE_HISTOGRAMS),
            engine=EngineConfig(workers=self.workers),
            persist=True,
        )
        self.configs = [replace(base, selection=text) for text, _ in self.selections]
        self.ds = None

    def setup(self) -> dict:
        self.close()
        gen_s = self._generate(self.mc_spec, self.workdir / "mc", MC_FILES)
        config = self.configs[0]
        ds = open_dataset(config.datasets[0], config.engine)
        run_skim(config, ds, self.out_dir / "mc.ntu")
        if ds.cache_state != "cached":
            raise RuntimeError(f"set-up left the dataset {ds.cache_state}: {ds.warnings}")
        self.ds = ds
        return {"generator_s": gen_s, "convert_s": 0.0}

    def operation(self, i: int) -> dict:
        out = self._skim_and_plot(self.configs[i], (("mc", self.ds),))
        if self.ds.cache_state != "cached":
            raise RuntimeError(f"the persisted dataset went {self.ds.cache_state}")
        return out

    def expected(self) -> dict:
        sel = [(ref.loose_cut(*params), ref.wide_row) for _, params in self.selections]
        names = tuple(name for name, _ in WIDE_PROJECTION)
        per_sel = ref.expected_skims(
            ref.corpus_events(self.mc_spec, MC_FILES), sel, names, "mc",
            XSEC_PB, LUMI_INVPB, WIDE_HISTOGRAMS,
        )
        return {i: {"mc": exp} for i, exp in enumerate(per_sel)}

    def close(self) -> None:
        if self.ds is not None:
            self.ds.drop_cache()
            self.ds = None


class McDeflateBudget(Workload):
    name = "mc_deflate_budget"
    variables = tuple(v for v, *_ in DEFAULT_HISTOGRAMS)

    def __init__(self, seed, workdir, **kwargs):
        super().__init__(seed, workdir, **kwargs)
        self.config = AnalysisConfig(
            datasets=(
                DatasetDescriptor(str(self.workdir / "deflate" / "*.evt"), "mc", "mc", XSEC_PB),
            ),
            luminosity_invpb=LUMI_INVPB,
            engine=EngineConfig(workers=self.workers, cache_budget_bytes=CACHE_BUDGET_BYTES),
            persist=True,
        )

    def setup(self) -> dict:
        raw = self.workdir / "raw"
        gen_s = self._generate(self.mc_spec, raw, MC_FILES)
        deflate = self.workdir / "deflate"
        deflate.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        for path in sorted(raw.glob("*.evt")):
            convert_evt(path, deflate / path.name, compress=True)
        return {"generator_s": gen_s, "convert_s": time.perf_counter() - t0}

    def operation(self, i: int) -> dict:
        return self._skim_and_plot(self.config, (("mc", None),))

    def expected(self) -> dict:
        (mc,) = ref.expected_skims(
            ref.corpus_events(self.mc_spec, MC_FILES),
            [(ref.default_cut, ref.default_row)], DEFAULT_COLUMNS, "mc",
            XSEC_PB, LUMI_INVPB, DEFAULT_HISTOGRAMS,
        )
        return {0: {"mc": mc}}

    def extra_checks(self, kept: dict) -> list[str]:
        """The same skim from the raw files gives the same rows."""
        config = replace(self.config, datasets=(
            replace(self.config.datasets[0], glob=str(self.workdir / "raw" / "*.evt")),
        ))
        path = self.workdir / "raw-mc.ntu"
        run_skim(config, open_dataset(config.datasets[0], config.engine), path)
        return [
            f"raw vs deflate: {p}"
            for p in ref.check_same_rows(kept["ntu"]["mc"].read_bytes(), path.read_bytes())
        ]


WORKLOADS = {w.name: w for w in (AnalysisCold, McCachedIterate, McDeflateBudget)}
