"""The three benchmark workloads: input generation, timed execution, checks.

Every workload draws its inputs from ``random.Random(seed)``; the program
only ever sees the generated :class:`~repro.api.SimulationSpec` objects.
The requests of a workload come in rounds of fixed composition; the seed
picks the order within each round, the thermal loads and where duplicates
are resubmitted.  So different seeds give different inputs with the same
cost profile, and every expected peak von Mises stress is the recorded
per-kelvin value of its mix entry times ``|delta_t|`` (the reduced problem
is linear in the load).

Public entry points only: ``repro.api.run`` (looked up at call time, so the
traced run sees it), ``RunResult.save``, ``JobServer``/``ServiceClient``
and ``FullFEMReference`` for the accuracy check.
"""

from __future__ import annotations

import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import repro.api
from repro.analysis.metrics import normalized_mae
from repro.api import (
    GeometrySpec,
    LoadCase,
    MeshSpec,
    OutputSpec,
    ShardSpec,
    SimulationSpec,
    SolverSpec,
    SubModelSpec,
)
from repro.baselines.full_fem import FullFEMReference
from repro.geometry.array_layout import TSVArrayLayout
from repro.materials.library import MaterialLibrary
from repro.rom.cache import ROMCache
from repro.service import JobServer, ServiceClient
from repro.utils.parallel import available_cpus

#: Relative tolerance of every peak-stress comparison.
RTOL = 1e-6

#: Pinned parallelism (never the None -> all-CPUs defaults).  Specs run
#: with one solver job: on two CPUs, two threads made the design
#: workload's run-to-run spread about twice as wide, for no speed-up.  The
#: job server runs one worker: with two, concurrent ``run`` calls in one
#: process crash the interpreter (see README.md, "Known defect").
SOLVER_JOBS = 1
SERVICE_WORKERS = 1
SERVICE_CLIENTS = min(2, available_cpus())

#: Accuracy check: ROM against the full-FEM reference on a 2x2 array.
NMAE_RESOLUTION = "tiny"
NMAE_DELTA_T = -250.0

#: sweep: (rows, cols, nodes_per_axis, points_per_block, loads per spec).
SWEEP_MIX = (
    (24, 24, (2, 2, 3), 10, 4),
    (30, 30, (2, 2, 3), 10, 4),
    (14, 22, (2, 2, 3), 16, 3),
    (12, 12, (3, 3, 3), 10, 3),
    (20, 20, (2, 2, 3), 10, 1),
    (10, 10, (3, 3, 3), 12, 1),
)
SWEEP_RESOLUTION = "coarse"

#: The sharded part of a sweep round: (rows, cols, shard grid), one load,
#: solved on a forced shard grid so that the Schwarz iteration of
#: ``rom.shard`` runs; each layout is also checked against its monolithic
#: solve.
SWEEP_SHARDED = ((16, 16, (2, 2)),)
SHARDED_NODES = (2, 2, 3)
SHARDED_POINTS = 10

#: design: pool of TSV geometries (diameter, pitch, liner, height), um.
#: One round runs every design once, in a seeded order.  An odd number of
#: requests per round (here and in ``sweep``) puts the median of whole
#: rounds inside one entry's latencies, not on the gap between two.
DESIGN_POOL = (
    (5.0, 15.0, 0.5, 50.0),
    (4.0, 12.0, 0.3, 40.0),
    (6.0, 20.0, 0.8, 60.0),
    (3.0, 10.0, 0.2, 30.0),
    (4.0, 15.0, 0.6, 55.0),
    (6.0, 16.0, 0.5, 35.0),
    (3.0, 12.0, 0.3, 50.0),
    (5.0, 18.0, 0.7, 40.0),
    (4.0, 10.0, 0.2, 60.0),
)
DESIGN_SIDE = 3
DESIGN_RESOLUTION = "medium"
DESIGN_NODES = (3, 3, 3)
DESIGN_POINTS = 12
DESIGN_OUTPUT = OutputSpec(
    formats=("vtk", "npz"), points_per_block=8, z_planes=3, hotspots=True
)

#: service: the jobs of one round, (kind, side, field export, duplicated):
#: 12 distinct jobs plus an exact resubmission of each duplicated one, so
#: a quarter of the 16 submissions are duplicates.
SERVICE_ROUND = (
    ("standalone", 2, True, False),
    ("standalone", 3, False, True),
    ("standalone", 4, False, False),
    ("standalone", 5, False, True),
    ("standalone", 6, True, False),
    ("standalone", 7, False, False),
    ("standalone", 3, False, False),
    ("standalone", 4, False, True),
    ("standalone", 5, False, False),
    ("submodel", 2, False, False),
    ("submodel", 3, False, True),
    ("submodel", 4, False, False),
)
SERVICE_NODES = (3, 3, 3)
SERVICE_POINTS = 10
SERVICE_RESOLUTION = "coarse"
SERVICE_SUBMODEL_SPEC = SubModelSpec(coarse_inplane_cells=8)
SERVICE_EXPORT = OutputSpec(formats=("npz",), points_per_block=6, z_planes=1, hotspots=False)
SERVICE_POLL_SECONDS = 0.025
#: A service pass runs at least this many jobs, so that ten latencies lie
#: beyond the p90 it reports.
SERVICE_MIN_JOBS = 100
SERVICE_LAYER_METRICS = (
    "service.http_submit_p50_s",
    "service.queue_wait_p50_s",
    "service.queue_wait_p90_s",
    "service.execute_p50_s",
    "service.submissions",
    "service.executions",
    "service.dedup_ratio",
    "service.retries",
)
SERVICE_JOB_TIMEOUT = 60.0


def _delta_t(rng: random.Random) -> float:
    """A thermal load in degC: mostly cool-down, sometimes heating."""
    magnitude = round(rng.uniform(50.0, 300.0), 2)
    return -magnitude if rng.random() < 0.8 else magnitude


def _spec(
    name: str,
    rows: int,
    cols: int,
    nodes: tuple[int, int, int],
    points: int,
    delta_ts: list[float],
    *,
    resolution: str,
    jobs: int,
    geometry: tuple[float, float, float, float] | None = None,
    shard: ShardSpec | None = None,
    submodel: SubModelSpec | None = None,
    output: OutputSpec | None = None,
) -> SimulationSpec:
    diameter, pitch, liner, height = geometry or DESIGN_POOL[0]
    return SimulationSpec(
        name=name,
        geometry=GeometrySpec(
            diameter=diameter,
            pitch=pitch,
            liner_thickness=liner,
            height=height,
            rows=rows,
            cols=cols,
        ),
        mesh=MeshSpec(resolution=resolution, nodes_per_axis=nodes, points_per_block=points),
        solver=SolverSpec(jobs=jobs, shard=shard),
        load_cases=tuple(
            LoadCase(name=f"load{index}", delta_t=delta_t)
            for index, delta_t in enumerate(delta_ts)
        ),
        submodel=submodel,
        output=output,
    )


@dataclass(frozen=True)
class Item:
    """One request of a workload: a spec plus what its result must be."""

    ident: str
    spec: SimulationSpec
    entry: str
    delta_ts: tuple[float, ...]
    duplicate_of: str | None = None


@dataclass
class Record:
    """What one request returned."""

    item: Item
    latency: float
    peaks: list[float]
    problems: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def cases(self) -> int:
        return len(self.peaks)


@dataclass
class Pass:
    """One timed pass over a workload."""

    records: list[Record]
    elapsed: float
    rounds: list[list[Item]]
    #: /v1/stats at the end of a service pass.
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def cases(self) -> int:
        return sum(record.cases for record in self.records)

    @property
    def latencies(self) -> list[float]:
        return [record.latency for record in self.records]


class Workload:
    """Shared batch behaviour: whole rounds of ``run(spec)`` calls."""

    name = ""
    why = ""
    warm: tuple[tuple[str, tuple[int, int, int], bool], ...] = ()

    def __init__(self, seed: int, work_dir: Path, reference: dict[str, Any]) -> None:
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.reference = reference
        self.unit_peaks: dict[str, float] = reference.get("unit_peak_mpa_per_k", {})
        self.cache: ROMCache | None = None
        self._counter = 0

    # -- inputs ------------------------------------------------------------ #
    def _ident(self) -> str:
        self._counter += 1
        return f"{self.name}-{self._counter}"

    def make_round(self, rng: random.Random) -> list[Item]:
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Item]]:
        rng = random.Random(self.seed)
        while True:
            yield self.make_round(rng)

    def sample_inputs(self, count: int = 4) -> list[Item]:
        """The first ``count`` rounds, generated afresh (set-up and records)."""
        self._counter = 0
        generator = self.rounds()
        items = [item for _ in range(count) for item in next(generator)]
        self._counter = 0
        return items

    # -- set-up ------------------------------------------------------------ #
    def setup(self, index: int) -> None:
        """One set-up repetition: generate inputs, fill a fresh warm ROM cache."""
        self.sample_inputs()
        if not self.warm:
            return
        cache_dir = self.work_dir / f"rom-cache-{index}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cache = ROMCache(cache_dir)
        for resolution, nodes, dummy in self.warm:
            submodel = SERVICE_SUBMODEL_SPEC if dummy else None
            spec = _spec(
                "warm", 1, 1, nodes, 4, [-1.0], resolution=resolution,
                jobs=SOLVER_JOBS, submodel=submodel,
            )
            repro.api.run(spec, rom_cache=self.cache)

    def before_replay(self) -> None:
        """Reset state a replayed pass must not inherit."""

    def close(self) -> None:
        """Stop what the workload started."""

    # -- timed phase ------------------------------------------------------- #
    def timed(self, seconds: float, replay: list[list[Item]] | None = None, tracer=None) -> Pass:
        """Run whole rounds, so that a mix of unequal requests keeps its shares.

        After the first round, another runs while it would end nearer to
        ``seconds`` than stopping now, judged by the mean round so far; so
        the pass takes ``seconds`` give or take half a round.  With
        ``replay`` the rounds of an earlier pass run again instead.
        """
        records: list[Record] = []
        executed: list[list[Item]] = []
        source = iter(replay) if replay is not None else self.rounds()
        start = time.perf_counter()
        for round_items in source:
            elapsed = time.perf_counter() - start
            if replay is None and executed and elapsed * (1 + 0.5 / len(executed)) > seconds:
                break
            executed.append(round_items)
            for item in round_items:
                records.append(self._traced_execute(item, tracer))
        return Pass(records, time.perf_counter() - start, executed)

    def warm_up(self) -> list[str] | None:
        """An untimed request before the timed phase: its problems, or None if none ran."""
        return None

    def _traced_execute(self, item: Item, tracer) -> Record:
        if tracer is None:
            return self._guarded(item)
        with tracer.span("benchmark.request", request=item.ident):
            return self._guarded(item)

    def _guarded(self, item: Item) -> Record:
        start = time.perf_counter()
        try:
            return self.execute(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Record(
                item,
                time.perf_counter() - start,
                [],
                [f"{item.ident}: {type(exc).__name__}: {exc}"],
            )

    def execute(self, item: Item) -> Record:
        start = time.perf_counter()
        result = repro.api.run(item.spec, rom_cache=self.cache)
        latency = time.perf_counter() - start
        peaks = [case.peak_von_mises for case in result.cases]
        return Record(item, latency, peaks, self.check_cases(item, result, peaks))

    def check_cases(self, item: Item, result, peaks: list[float]) -> list[str]:
        """Each case's peak against the recorded per-kelvin peak x |delta_t|."""
        unit = self.unit_peaks.get(item.entry)
        if unit is None:
            return [f"{item.ident}: no recorded peak for {item.entry}"]
        problems = []
        for index, (peak, delta_t) in enumerate(zip(peaks, item.delta_ts)):
            expected = unit * abs(delta_t)
            if not abs(peak - expected) <= RTOL * expected:
                problems.append(
                    f"{item.ident} case {index}: peak {peak:.9g} MPa, expected {expected:.9g} MPa"
                )
        return problems

    # -- after the timed phase --------------------------------------------- #
    def post_checks(self, passes: list[Pass]) -> list[tuple[str, list[str]]]:
        """Named checks run outside the timed phase: ``[(check, problems)]``."""
        return []

    def nmae_spec(self) -> SimulationSpec:
        raise NotImplementedError

    def reference_specs(self) -> dict[str, SimulationSpec]:
        """One spec per mix entry at ``NMAE_DELTA_T``: the recorded values."""
        raise NotImplementedError

    def vm_nmae_pct(self) -> float:
        """NMAE (%) of the mid-plane von Mises stress, ROM vs full FEM, 2x2."""
        spec = self.nmae_spec()
        result = repro.api.run(spec)
        reference = FullFEMReference(MaterialLibrary.default(), resolution=NMAE_RESOLUTION)
        layout = TSVArrayLayout.full(spec.geometry.build_tsv(), rows=2)
        solution = reference.solve_array(layout, NMAE_DELTA_T)
        expected = solution.von_mises_midplane(points_per_block=spec.mesh.points_per_block)
        return 100.0 * normalized_mae(result.cases[0].von_mises, expected)

    def layer_metrics(self, run_pass: Pass) -> dict[str, float]:
        """Service-layer metrics of a traced pass; zero outside ``service``."""
        return dict.fromkeys(SERVICE_LAYER_METRICS, 0.0)

    # -- records ----------------------------------------------------------- #
    def parallelism(self) -> dict[str, int]:
        return {"solver.jobs": SOLVER_JOBS}

    def input_properties(self) -> dict[str, Any]:
        items = self.sample_inputs()
        return {
            "array_sides": sorted(
                {f"{i.spec.geometry.rows}x{i.spec.geometry.resolved_cols}" for i in items}
            ),
            "nodes_per_axis": sorted({str(list(i.spec.mesh.nodes_per_axis)) for i in items}),
            "points_per_block": sorted({i.spec.mesh.points_per_block for i in items}),
            "loads_per_spec": sorted({len(i.delta_ts) for i in items}),
            "duplicate_share": sum(i.duplicate_of is not None for i in items) / len(items),
            "field_export_share": sum(i.spec.output is not None for i in items) / len(items),
        }


class SweepWorkload(Workload):
    name = "sweep"
    why = (
        "warm ROMs, several loads per spec, one layout on a forced shard grid: global "
        "assembly, factorization, mid-plane sampling and the Schwarz iteration do the work"
    )
    warm = ((SWEEP_RESOLUTION, (2, 2, 3), False), (SWEEP_RESOLUTION, (3, 3, 3), False))

    @staticmethod
    def templates() -> list[tuple[int, int, tuple[int, int, int], int, int, Any]]:
        """One round: (rows, cols, nodes, points, loads, shard grid or None)."""
        return [(*entry, None) for entry in SWEEP_MIX] + [
            (rows, cols, SHARDED_NODES, SHARDED_POINTS, 1, grid)
            for rows, cols, grid in SWEEP_SHARDED
        ]

    def make_round(self, rng: random.Random) -> list[Item]:
        items = []
        templates = self.templates()
        for rows, cols, nodes, points, loads, grid in rng.sample(templates, len(templates)):
            delta_ts = [_delta_t(rng) for _ in range(loads)]
            ident = self._ident()
            spec = _spec(
                ident, rows, cols, nodes, points, delta_ts,
                resolution=SWEEP_RESOLUTION, jobs=SOLVER_JOBS,
                shard=ShardSpec(grid=grid) if grid else None,
            )
            entry = sweep_entry(rows, cols, nodes, points, grid)
            items.append(Item(ident, spec, entry, tuple(delta_ts)))
        return items

    def check_cases(self, item: Item, result, peaks: list[float]) -> list[str]:
        problems = super().check_cases(item, result, peaks)
        # Linearity in delta_t: peak / |delta_t| is one number per spec.
        ratios = [peak / abs(delta_t) for peak, delta_t in zip(peaks, item.delta_ts)]
        if max(ratios) - min(ratios) > RTOL * max(ratios):
            problems.append(f"{item.ident}: peak/|delta_t| not constant across loads: {ratios}")
        if item.spec.solver.shard is not None and any(case.shard is None for case in result.cases):
            problems.append(f"{item.ident}: solved without sharding")
        return problems

    def post_checks(self, passes: list[Pass]) -> list[tuple[str, list[str]]]:
        """Every layout solved sharded must match its monolithic solve."""
        sharded: dict[tuple[int, int], list[float]] = {}
        for run_pass in passes:
            for record in run_pass.records:
                if record.item.spec.solver.shard is None:
                    continue
                geometry = record.item.spec.geometry
                sharded.setdefault((geometry.rows, geometry.resolved_cols), []).extend(
                    peak / abs(delta_t)
                    for peak, delta_t in zip(record.peaks, record.item.delta_ts)
                )
        checks = []
        for (rows, cols), units in sorted(sharded.items()):
            spec = _spec(
                "monolithic", rows, cols, SHARDED_NODES, SHARDED_POINTS, [NMAE_DELTA_T],
                resolution=SWEEP_RESOLUTION, jobs=SOLVER_JOBS,
            )
            peak = repro.api.run(spec, rom_cache=self.cache).cases[0].peak_von_mises
            monolithic = peak / abs(NMAE_DELTA_T)
            problems = [
                f"{rows}x{cols}: sharded {unit:.9g} vs monolithic {monolithic:.9g} MPa/K"
                for unit in units
                if not abs(unit - monolithic) <= RTOL * monolithic
            ]
            checks.append((f"sharded equals monolithic {rows}x{cols}", problems))
        return checks

    def nmae_spec(self) -> SimulationSpec:
        return _spec(
            "nmae", 2, 2, (2, 2, 3), 10, [NMAE_DELTA_T],
            resolution=NMAE_RESOLUTION, jobs=SOLVER_JOBS,
        )

    def reference_specs(self) -> dict[str, SimulationSpec]:
        return {
            sweep_entry(rows, cols, nodes, points, grid): _spec(
                "reference", rows, cols, nodes, points, [NMAE_DELTA_T],
                resolution=SWEEP_RESOLUTION, jobs=SOLVER_JOBS,
                shard=ShardSpec(grid=grid) if grid else None,
            )
            for rows, cols, nodes, points, _, grid in self.templates()
        }


def sweep_entry(rows: int, cols: int, nodes, points: int, grid=None) -> str:
    entry = f"{rows}x{cols}-n{''.join(map(str, nodes))}-p{points}"
    return entry + (f"-s{grid[0]}x{grid[1]}" if grid else "")


def design_entry(geometry: tuple[float, float, float, float]) -> str:
    diameter, pitch, liner, height = geometry
    return f"d{diameter:g}-p{pitch:g}-l{liner:g}-h{height:g}"


class DesignWorkload(Workload):
    name = "design"
    why = (
        "a new TSV geometry per spec with an empty ROM cache: the cold local stage, "
        "field export and save do the work; control for global-stage changes"
    )

    def make_round(self, rng: random.Random) -> list[Item]:
        items = []
        for geometry in rng.sample(DESIGN_POOL, len(DESIGN_POOL)):
            delta_ts = [_delta_t(rng)]
            ident = self._ident()
            spec = _spec(
                ident, DESIGN_SIDE, DESIGN_SIDE, DESIGN_NODES, DESIGN_POINTS, delta_ts,
                resolution=DESIGN_RESOLUTION, jobs=SOLVER_JOBS, geometry=geometry,
                output=DESIGN_OUTPUT,
            )
            items.append(Item(ident, spec, design_entry(geometry), tuple(delta_ts)))
        return items

    def warm_up(self) -> list[str] | None:
        """One design request at ``tiny`` resolution, so that code run once per
        process (imports, exporters) is not timed, at a fraction of the cost."""
        spec = _spec(
            "warm-up", 2, 2, DESIGN_NODES, DESIGN_POINTS, [NMAE_DELTA_T],
            resolution="tiny", jobs=SOLVER_JOBS, output=DESIGN_OUTPUT,
        )
        cache_dir = self.work_dir / "warm-up-rom-cache"
        try:
            repro.api.run(spec, rom_cache=ROMCache(cache_dir)).save(self.work_dir / "warm-up")
        except Exception as exc:  # a failed warm-up is a failed check, not fatal
            return [f"{type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(self.work_dir / "warm-up", ignore_errors=True)
        return []

    def execute(self, item: Item) -> Record:
        cache_dir = self.work_dir / f"{item.ident}-rom-cache"
        out_dir = self.work_dir / f"{item.ident}-result"
        try:
            start = time.perf_counter()
            result = repro.api.run(item.spec, rom_cache=ROMCache(cache_dir))
            result.save(out_dir)
            latency = time.perf_counter() - start
            peaks = [case.peak_von_mises for case in result.cases]
            problems = self.check_cases(item, result, peaks)
            if any(case.field_data is None or case.hotspots is None for case in result.cases):
                problems.append(f"{item.ident}: field export or hotspot report missing")
            saved = {path.name for path in out_dir.rglob("*") if path.is_file()}
            for required in ("manifest.json", "fields.npz", "hotspots.json"):
                if required not in saved:
                    problems.append(f"{item.ident}: save wrote no {required}")
            if not any(name.endswith(".vtk") for name in saved):
                problems.append(f"{item.ident}: save wrote no .vtk export")
            return Record(item, latency, peaks, problems)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
            shutil.rmtree(out_dir, ignore_errors=True)

    def nmae_spec(self) -> SimulationSpec:
        return _spec(
            "nmae", 2, 2, DESIGN_NODES, DESIGN_POINTS, [NMAE_DELTA_T],
            resolution=NMAE_RESOLUTION, jobs=SOLVER_JOBS,
        )

    def reference_specs(self) -> dict[str, SimulationSpec]:
        return {
            design_entry(geometry): _spec(
                "reference", DESIGN_SIDE, DESIGN_SIDE, DESIGN_NODES, DESIGN_POINTS,
                [NMAE_DELTA_T], resolution=DESIGN_RESOLUTION, jobs=SOLVER_JOBS,
                geometry=geometry,
            )
            for geometry in DESIGN_POOL
        }


class ServiceWorkload(Workload):
    name = "service"
    why = (
        "closed loop of small jobs against an in-process JobServer with a warm cache "
        "and duplicates: HTTP, queueing, job persistence and dedup show"
    )
    warm = (
        (SERVICE_RESOLUTION, SERVICE_NODES, False),
        (SERVICE_RESOLUTION, SERVICE_NODES, True),
    )
    def __init__(self, seed: int, work_dir: Path, reference: dict[str, Any]) -> None:
        super().__init__(seed, work_dir, reference)
        self.server: JobServer | None = None

    def make_round(self, rng: random.Random) -> list[Item]:
        templates = list(SERVICE_ROUND)
        rng.shuffle(templates)
        items, duplicated = [], []
        for kind, side, export, duplicate in templates:
            delta_ts = [_delta_t(rng)]
            ident = self._ident()
            spec = _spec(
                ident, side, side, SERVICE_NODES, SERVICE_POINTS, delta_ts,
                resolution=SERVICE_RESOLUTION, jobs=SOLVER_JOBS,
                submodel=SERVICE_SUBMODEL_SPEC if kind == "submodel" else None,
                output=SERVICE_EXPORT if export else None,
            )
            items.append(Item(ident, spec, f"{kind}-{side}", tuple(delta_ts)))
            if duplicate:
                duplicated.append(items[-1])
        for original in duplicated:
            first = items.index(original) + 1
            copy = Item(
                self._ident(), original.spec, original.entry, original.delta_ts,
                duplicate_of=original.ident,
            )
            items.insert(rng.randint(first, len(items)), copy)
        return items

    # -- server lifecycle --------------------------------------------------- #
    def setup(self, index: int) -> None:
        super().setup(index)
        self._start_server(f"store-{index}")

    def _start_server(self, name: str) -> None:
        self.close()
        self.server = JobServer(
            self.work_dir / name,
            workers=SERVICE_WORKERS,
            rom_cache=self.cache,
            max_queued=None,
        ).start()

    def before_replay(self) -> None:
        self._start_server("store-replay")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- timed phase -------------------------------------------------------- #
    def timed(self, seconds: float, replay: list[list[Item]] | None = None, tracer=None) -> Pass:
        """Closed loop: each client submits its next job once its last one is done.

        Runs for ``seconds`` and at least ``SERVICE_MIN_JOBS`` jobs, or replays
        exactly the jobs of ``replay`` against a fresh job store.
        """
        if replay is not None:
            sequence: Iterator[Item] = (item for round_items in replay for item in round_items)
        else:
            sequence = (item for round_items in self.rounds() for item in round_items)
        lock = threading.Lock()
        records: list[Record] = []
        executed: list[Item] = []
        url = self.server.url
        start = time.perf_counter()

        def client_loop() -> None:
            client = ServiceClient(url, timeout_seconds=SERVICE_JOB_TIMEOUT)
            while True:
                with lock:
                    if (
                        replay is None
                        and time.perf_counter() - start >= seconds
                        and len(executed) >= SERVICE_MIN_JOBS
                    ):
                        return
                    item = next(sequence, None)
                    if item is None:
                        return
                    executed.append(item)
                record = self._job(client, item, tracer)
                with lock:
                    records.append(record)

        threads = [
            threading.Thread(target=client_loop, name=f"perfbench-client-{index}")
            for index in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * SERVICE_JOB_TIMEOUT)
        elapsed = time.perf_counter() - start
        stuck = [thread.name for thread in threads if thread.is_alive()]
        run_pass = Pass(records, elapsed, [executed])
        if stuck:
            records.append(
                Record(executed[-1], elapsed, [], [f"client threads did not finish: {stuck}"])
            )
        run_pass.stats = ServiceClient(url).stats()
        return run_pass

    def _job(self, client: ServiceClient, item: Item, tracer) -> Record:
        start = time.perf_counter()
        info: dict[str, Any] = {}
        try:
            if tracer is None:
                return self._submit_and_wait(client, item, start, info)
            with tracer.span("benchmark.request", request=item.ident):
                return self._submit_and_wait(client, item, start, info)
        except Exception as exc:  # a failed job is counted, not fatal
            return Record(
                item,
                time.perf_counter() - start,
                [],
                [f"{item.ident}: {type(exc).__name__}: {exc}"],
                info,
            )

    def _submit_and_wait(
        self, client: ServiceClient, item: Item, start: float, info: dict[str, Any]
    ) -> Record:
        submitted = client.submit(item.spec)
        info["submit_s"] = time.perf_counter() - start
        info["job_id"] = submitted["id"]
        final = client.wait(
            submitted["id"], timeout=SERVICE_JOB_TIMEOUT, poll_seconds=SERVICE_POLL_SECONDS
        )
        latency = time.perf_counter() - start
        for key in ("created_at", "started_at", "finished_at", "executions", "attempts"):
            info[key] = final.get(key)
        if final["state"] != "done":
            return Record(item, latency, [], [f"{item.ident}: job ended {final['state']}"], info)
        envelope = client.result(submitted["id"])
        peaks = [case["peak_von_mises"] for case in envelope["data"]["cases"]]
        problems = self.check_cases(item, None, peaks)
        if item.spec.output is not None:
            path = self.work_dir / "fields" / f"{item.ident}.npz"
            client.fetch_fields(submitted["id"], path)
            if path.stat().st_size == 0:
                problems.append(f"{item.ident}: empty field export")
            path.unlink()
        return Record(item, latency, peaks, problems, info)

    # -- after the timed phase ---------------------------------------------- #
    def post_checks(self, passes: list[Pass]) -> list[tuple[str, list[str]]]:
        checks = []
        for number, run_pass in enumerate(passes):
            jobs_of: dict[str, set[str]] = {}
            executions: dict[str, int] = {}
            for record in run_pass.records:
                job_id = record.info.get("job_id")
                if job_id is None:
                    continue
                jobs_of.setdefault(record.item.spec.spec_hash(), set()).add(job_id)
                count = record.info.get("executions") or 0
                executions[job_id] = max(executions.get(job_id, 0), count)
            problems = [
                f"spec {spec_hash} resolved to jobs {sorted(ids)}"
                for spec_hash, ids in jobs_of.items()
                if len(ids) != 1
            ]
            problems += [
                f"job {job_id} executed {count} times"
                for job_id, count in executions.items()
                if count != 1
            ]
            submitted = sum(1 for r in run_pass.records if r.info.get("job_id"))
            duplicates = submitted - len(jobs_of)
            dedup_hits = run_pass.stats.get("dedup_hits")
            if dedup_hits != duplicates:
                problems.append(f"/v1/stats dedup_hits {dedup_hits}, expected {duplicates}")
            checks.append((f"one execution per distinct spec (pass {number})", problems))
        # Every service result matches a direct run of the same layout
        # (compared per kelvin: the problem is linear in delta_t).
        templates = self.reference_specs()
        direct: dict[str, float] = {}
        problems = []
        for run_pass in passes:
            for record in run_pass.records:
                if not record.peaks:
                    continue
                entry = record.item.entry
                if entry not in direct:
                    result = repro.api.run(templates[entry], rom_cache=self.cache)
                    direct[entry] = result.cases[0].peak_von_mises / abs(NMAE_DELTA_T)
                unit = record.peaks[0] / abs(record.item.delta_ts[0])
                if not abs(unit - direct[entry]) <= RTOL * direct[entry]:
                    problems.append(
                        f"{record.item.ident}: service {unit:.9g} vs direct "
                        f"{direct[entry]:.9g} MPa/K"
                    )
        checks.append(("service results equal direct runs", problems))
        return checks

    def layer_metrics(self, run_pass: Pass) -> dict[str, float]:
        """Service-layer metrics from the client side and the job records."""
        records = [record for record in run_pass.records if "finished_at" in record.info]
        jobs: dict[str, dict[str, Any]] = {}
        for record in records:
            jobs.setdefault(record.info["job_id"], record.info)
        timed_jobs = [
            info for info in jobs.values()
            if info.get("started_at") is not None and info.get("finished_at") is not None
        ]
        waits = [info["started_at"] - info["created_at"] for info in timed_jobs]
        executes = [info["finished_at"] - info["started_at"] for info in timed_jobs]
        executions = sum(info.get("executions") or 0 for info in jobs.values())
        return {
            "service.http_submit_p50_s": _median([r.info["submit_s"] for r in records]),
            "service.queue_wait_p50_s": quantile(waits, 0.5),
            "service.queue_wait_p90_s": quantile(waits, 0.9),
            "service.execute_p50_s": quantile(executes, 0.5),
            "service.submissions": float(len(run_pass.records)),
            "service.executions": float(executions),
            "service.dedup_ratio": executions / max(1, len(run_pass.records)),
            "service.retries": float(
                sum(max(0, (info.get("attempts") or 1) - 1) for info in jobs.values())
            ),
        }

    def parallelism(self) -> dict[str, int]:
        return {
            "solver.jobs": SOLVER_JOBS,
            "server.workers": SERVICE_WORKERS,
            "client.threads": SERVICE_CLIENTS,
        }

    def nmae_spec(self) -> SimulationSpec:
        return _spec(
            "nmae", 2, 2, SERVICE_NODES, SERVICE_POINTS, [NMAE_DELTA_T],
            resolution=NMAE_RESOLUTION, jobs=SOLVER_JOBS,
        )

    def reference_specs(self) -> dict[str, SimulationSpec]:
        specs = {}
        for kind, side, _, _ in SERVICE_ROUND:
            submodel = SERVICE_SUBMODEL_SPEC if kind == "submodel" else None
            specs[f"{kind}-{side}"] = _spec(
                "reference", side, side, SERVICE_NODES, SERVICE_POINTS, [NMAE_DELTA_T],
                resolution=SERVICE_RESOLUTION, jobs=SOLVER_JOBS, submodel=submodel,
            )
        return specs


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (inclusive method) of ``values``; 0 when empty."""
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


WORKLOADS = {
    workload.name: workload
    for workload in (SweepWorkload, DesignWorkload, ServiceWorkload)
}
