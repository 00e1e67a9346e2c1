"""Wall-clock benchmark of the mediator, from SQL text to the last row.

Run from the repository root::

    python3 perfbench/run.py --workload plan-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1         # every workload
    python3 perfbench/run.py --workload real-fed --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (a second, traced phase; see ``tracing.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong answer, error or rejection is a
failure, and any failure makes the exit code 1.  ``DESIGN.md`` records
why each workload exists and which layer metric should move which
end-to-end metric.

Each run: generate the source rows and the query stream from ``--seed``
and compute every expected answer (``reference.py``); build the
federation ``Scale.setup_builds`` times, timing each build with its
warm-up queries (``setup_s`` is the median); then drive one closed-loop
client per tenant on the last federation built for ``--seconds`` seconds
and at least ``Scale.min_samples`` answers.  All imports happen before any
timer starts, and the interpreter's hash seed is pinned so dict and set
orders (and with them plan enumeration order) repeat across processes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.federation import build_engines, build_mediator
from repro.mediator.executor import ExecutorOptions, MediatorExecutor
from repro.mediator.mediator import Mediator
from repro.oo7 import SMALL, TINY, generator
from repro.rt import RealTimeBackend, SQLiteWrapper, WebLatencyWrapper
from repro.service import FederationService, ServiceOptions

import queries
from reference import Query, Reference, digest
from tracing import Recorder, layer_metrics

WORKLOADS = ("plan-mix", "real-fed", "serve-churn")
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Scale:
    """Run sizes; ``--smoke`` swaps in the tiny one."""

    config: Any
    setup_builds: int
    warmup: int  # warm-up queries (service rounds) per build
    min_samples: int  # answers every single-client phase must reach
    service_rounds: int  # rounds every serve-churn phase must reach
    pool_rate: float  # generated queries per second of --seconds
    p99_floor: int  # samples p99 needs: 1000 leaves 10 beyond it


FULL = Scale(
    SMALL, setup_builds=9, warmup=28, min_samples=1000, service_rounds=1000,
    pool_rate=250.0, p99_floor=1000,
)
SMOKE = Scale(
    TINY, setup_builds=2, warmup=4, min_samples=40, service_rounds=14,
    pool_rate=400.0, p99_floor=0,
)

#: A phase stops after this many times ``--seconds`` even if it is
#: short of ``min_samples`` (which then fails the run): every run must
#: end within 180 s.
PHASE_CAP = 2.5

#: serve-churn: the dashboards hot set (fits the 256-entry plan cache),
#: read two statements per round (one dashboard refresh) next to one
#: analytics query, and the catalog-write cadence in rounds.  With one
#: write every 100 rounds the hot set misses for 16 rounds after each.
HOT_STATEMENTS = 32
HOT_PER_ROUND = 2
WRITE_EVERY = 100

#: real-fed: the web source's injected latency (ms per leg, ms per row).
WEB_LATENCY_MS = 1.0
WEB_PER_ROW_MS = 0.005

#: Machine-speed normalization.  On a shared host the CPU speed swings
#: by +-20 % within a second and between runs, and every wall time
#: swings with it.  Every KERNEL_EVERY answers (outside the timed
#: regions) the client times ``speed_kernel``, a fixed workload that
#: shares no code with the program.  Each block of answers is divided
#: by its speed factor: the mean of the kernel times before and after
#: it, over KERNEL_REFERENCE_MS.  Times then read as at one reference
#: speed, and a slower program still reads slower, since its code is
#: not in the kernel.  (Per block, not per run: one factor per run
#: leaves the spread as wide as the raw one.)  A set-up build is cut
#: into blocks the same way: data and source build, registration, and
#: every SETUP_WARM_BLOCK warm-up queries (service rounds).
KERNEL_REFERENCE_MS = 1.6
KERNEL_EVERY = 24
SETUP_WARM_BLOCK = 2


# -- federations ----------------------------------------------------------------


@dataclass
class Federation:
    mediator: Mediator
    close: Callable[[], None] = lambda: None
    service: FederationService | None = None
    sessions: tuple = ()


def sim_reference(config, seed):
    """Source rows of the 4-source blended federation."""
    engines = build_engines(config, seed)
    data = {
        name: engines.oo7_db.collection(name).rows
        for name in ("AtomicParts", "CompositeParts")
    }
    data.update(
        {name: engines.sales_db.collection(name).rows for name in ("Suppliers", "Orders")}
    )
    data["AuditLog"] = engines.audit_rows
    data["Tickets"] = engines.ticket_rows
    domains = queries.Domains(
        atomic_ids=len(data["AtomicParts"]), composite_ids=len(data["CompositeParts"])
    )
    return data, domains


def tag_rows(config, seed) -> list[dict]:
    rng = random.Random(f"tags:{seed}")
    return [
        {"partId": part, "tag": f"t{rng.randrange(8)}"}
        for part in range(0, config.num_atomic_parts, 5)
    ]


def real_reference(config, seed):
    """Source rows of the SQLite + web federation."""
    extents = generator.generate(config, seed).extent_rows()
    tags = tag_rows(config, seed)
    data = {
        "AtomicParts": extents["AtomicParts"],
        "Connections": extents["Connections"],
        "Tags": tags,
    }
    domains = queries.Domains(
        atomic_ids=len(data["AtomicParts"]),
        composite_ids=0,
        tag_ids=[row["partId"] for row in tags],
    )
    return data, domains


# Each builder calls ``lap`` between its steps, so every step of a
# set-up is its own speed block.


def build_sim(config, seed, index, scratch, lap) -> Federation:
    engines = build_engines(config, seed)
    lap()
    return Federation(build_mediator("blended", engines))


def build_real(config, seed, index, scratch, lap) -> Federation:
    backend = RealTimeBackend(max_workers=NPROC)
    path = os.path.join(scratch, f"oo7-{index}.db")
    sqlite = SQLiteWrapper("sqlite", path=path, config=config, seed=seed)
    lap()
    web = WebLatencyWrapper(
        "web",
        {"Tags": tag_rows(config, seed)},
        latency_ms=WEB_LATENCY_MS,
        per_row_ms=WEB_PER_ROW_MS,
    )
    mediator = Mediator(
        executor_options=ExecutorOptions(
            parallel_submits=True, max_concurrency=NPROC, backend=backend
        )
    )
    mediator.register(sqlite)
    mediator.register(web)

    def close() -> None:
        sqlite.close()
        backend.close()
        os.unlink(path)

    return Federation(mediator, close)


def build_service(config, seed, index, scratch, lap) -> Federation:
    engines = build_engines(config, seed)
    lap()
    mediator = build_mediator("blended", engines)
    service = FederationService(
        mediator, ServiceOptions(max_concurrent_queries=NPROC)
    )
    sessions = (service.open_session("dashboards"), service.open_session("analytics"))
    return Federation(mediator, service=service, sessions=sessions)


# -- measured phases -------------------------------------------------------------


class SpeedBlocks:
    """Wall time kept in blocks, each bracketed by two speed-kernel
    samples, so that it can be read at reference machine speed."""

    def __init__(self) -> None:
        self.kernel_ms = [kernel_sample()]
        self.wall_s = [0.0]

    @property
    def block(self) -> int:
        return len(self.wall_s) - 1

    @property
    def raw_s(self) -> float:
        return sum(self.wall_s)

    def add(self, took_s: float) -> None:
        self.wall_s[-1] += took_s

    def close(self, last: bool = False) -> None:
        """Time the kernel: it ends the current block and, unless
        ``last``, opens the next one."""
        self.kernel_ms.append(kernel_sample())
        if not last:
            self.wall_s.append(0.0)

    def factors(self) -> list[float]:
        """One factor per block: the kernel samples bracketing it."""
        return [
            (before + after) / 2 / KERNEL_REFERENCE_MS
            for before, after in zip(self.kernel_ms, self.kernel_ms[1:])
        ]

    def normalized_s(self) -> float:
        return sum(took / f for took, f in zip(self.wall_s, self.factors()))


@dataclass
class Phase:
    """What one closed-loop phase measured, in submission order."""

    latencies_ms: list[float] = field(default_factory=list)
    #: Every latency remembers its speed block.
    speed: SpeedBlocks = field(default_factory=SpeedBlocks)
    block_of: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per correct answer (serve-churn: analytics answer) of the
    #: counted prefix: (plan ms, estimated ms, actual ms, plan shape,
    #: speed block).
    quality: list[tuple] = field(default_factory=list)
    #: serve-churn: (plan, estimated ms, plan shape) of the prefix's
    #: analytics answers, replayed alone after the phase.
    replay: list[tuple] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Service ticket id -> wall latency (ms).
    tickets: dict[str, float] = field(default_factory=dict)
    writes: list[int] = field(default_factory=list)  # rounds with a write
    cache_invalidations_at_prefix: int = 0
    hits_in_prefix: int = 0
    rows_in_prefix: int = 0  # rows returned by the counted prefix
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> int:
        return self.attempted - self.failed

    @property
    def wall_s(self) -> float:
        return self.speed.raw_s

    def record(self, took_s: float, latency_ms: float | None = None) -> None:
        self.speed.add(took_s)
        if latency_ms is not None:
            self.latencies_ms.append(latency_ms)
            self.block_of.append(self.speed.block)

    def normalized(self) -> tuple[list[float], float]:
        """Latencies (ms) and phase wall time (s) at reference speed."""
        factors = self.speed.factors()
        latencies = [
            latency / factors[block]
            for latency, block in zip(self.latencies_ms, self.block_of)
        ]
        return latencies, self.speed.normalized_s()

    def plan_quality(self, real: bool) -> tuple[list[float], list[float]]:
        """Plan ms and q-errors of the counted prefix.  On the real
        backend the measured execution time is read at reference speed,
        like every other wall time.  The estimate is left as it is: it
        is fixed at set-up, and barely depends on the host's speed
        then (DESIGN.md, Steadiness)."""
        factors = self.speed.factors()
        plan_ms, qerrors = [], []
        for plan, estimated, actual, _, block in self.quality:
            if real:
                actual /= factors[block]
            estimated, actual = max(estimated, 1e-9), max(actual, 1e-9)
            plan_ms.append(max(plan, 1e-9))
            qerrors.append(max(estimated / actual, actual / estimated))
        return plan_ms, qerrors


class _Item:
    __slots__ = ("key", "value", "pair")


def speed_kernel() -> float:
    """Milliseconds a fixed interpreter workload takes right now:
    object allocation, attribute and dict access, string formatting and
    a keyed sort, as in the mediator's hot paths."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    items = []
    for number in range(1500):
        item = _Item()
        item.key = f"k{number % 97}"
        item.value = number
        item.pair = (number, number + 1)
        counts[item.key] = counts.get(item.key, 0) + item.value
        items.append(item)
    items.sort(key=lambda item: (item.key, -item.value))
    sum(len(repr(item.pair)) for item in items[:300])
    return (time.perf_counter() - start) * 1000.0


def kernel_sample() -> float:
    return statistics.median(speed_kernel() for _ in range(3))


def plan_shape(node) -> str:
    children = ",".join(plan_shape(child) for child in node.children)
    return f"{node.describe()}[{children}]"


def quality_of(result, real: bool, block: int) -> tuple:
    """Plan ms, estimate, actual, plan shape and speed block of one
    answer.  Plan ms is the simulated response time of the plan, which
    ran alone on the simulator; the real backend has no simulator, so
    there it is the model's estimate of the chosen plan."""
    return (
        result.estimated_ms if real else result.elapsed_ms,
        result.estimated_ms,
        result.elapsed_ms,
        plan_shape(result.plan),
        block,
    )


def check(phase: Phase, query: Query, expected, result, error) -> bool:
    phase.attempted += 1
    if error is not None:
        phase.failed += 1
        phase.problems.append(f"{query.label}: {type(error).__name__}: {error}")
        return False
    got = digest(result.rows)
    if got != expected:
        phase.failed += 1
        phase.problems.append(
            f"{query.label}: {got[0]} rows, expected {expected[0]}: {query.sql}"
        )
        return False
    return True


def keep_going(phase: Phase, seconds: float, answers: int) -> bool:
    """Run for ``seconds`` and at least ``answers`` answers, within the cap."""
    if phase.wall_s >= seconds * PHASE_CAP:
        return False
    return phase.wall_s < seconds or len(phase.latencies_ms) < answers


def run_single(fed, pool, expected, seconds, scale, recorder, real) -> Phase:
    """One client, one query at a time; checking is outside the clock."""
    phase = Phase()
    mediator = fed.mediator
    clock = time.perf_counter
    for index, query in enumerate(pool):
        if not keep_going(phase, seconds, scale.min_samples):
            break
        if index and index % KERNEL_EVERY == 0:
            phase.speed.close()
        if recorder is not None:
            recorder.tag = index
        error = result = None
        start = clock()
        try:
            result = mediator.query(query.sql)
        except Exception as exc:  # counted and reported as a failure
            error = exc
        took = clock() - start
        phase.record(took, latency_ms=took * 1000.0)
        if check(phase, query, expected[index], result, error):
            if index < scale.min_samples:
                phase.quality.append(quality_of(result, real, phase.speed.block))
                phase.rows_in_prefix += result.count
    else:
        print(f"warning: query pool of {len(pool)} exhausted", file=sys.stderr)
    phase.speed.close(last=True)
    return phase


def run_service(fed, hot, pool, expected, seconds, scale, recorder) -> Phase:
    """Two tenants, one closed-loop client each: every round the
    dashboards client submits ``HOT_PER_ROUND`` hot statements and the
    analytics client one ad-hoc join, the service drains, and the next
    round starts.  A catalog write (re-registration) opens every
    ``WRITE_EVERY``-th round, inside the measured time."""
    phase = Phase()
    service = fed.service
    mediator = fed.mediator
    wrappers = [mediator.catalog.wrapper(name) for name in mediator.catalog.wrapper_names()]
    dashboards, analytics = fed.sessions
    clock = time.perf_counter
    prefix_rounds = scale.service_rounds
    for round_index, query in enumerate(pool):
        if not keep_going(phase, seconds, prefix_rounds * (HOT_PER_ROUND + 1)):
            break
        if round_index and round_index % (KERNEL_EVERY // (HOT_PER_ROUND + 1)) == 0:
            phase.speed.close()
        if recorder is not None:
            recorder.tag = round_index
        if round_index <= prefix_rounds:
            phase.cache_invalidations_at_prefix = service.plan_cache.stats.invalidations
        submitted = [
            (dashboards, *hot[(round_index * HOT_PER_ROUND + slot) % len(hot)])
            for slot in range(HOT_PER_ROUND)
        ]
        submitted.append((analytics, query, expected[round_index]))
        done: dict[str, float] = {}
        tickets = []
        round_start = clock()
        if round_index and round_index % WRITE_EVERY == 0:
            mediator.register(wrappers[(round_index // WRITE_EVERY) % len(wrappers)])
            phase.writes.append(round_index)
        for session, q, _ in submitted:
            start = clock()
            try:
                ticket = service.submit(
                    session, q.sql, on_complete=lambda t: done.__setitem__(t.ticket_id, clock())
                )
            except Exception as exc:  # admission rejections are failures too
                tickets.append((None, start, exc))
            else:
                tickets.append((ticket, start, None))
        service.run()
        phase.record(clock() - round_start)
        for slot, ((ticket, start, error), (_, q, want)) in enumerate(zip(tickets, submitted)):
            if ticket is not None:
                latency = (done.get(ticket.ticket_id, clock()) - start) * 1000.0
                phase.tickets[ticket.ticket_id] = latency
                phase.record(0.0, latency_ms=latency)
                error = ticket.error
                if round_index < prefix_rounds and ticket.plan_cached:
                    phase.hits_in_prefix += 1
            result = ticket.result if ticket is not None else None
            if check(phase, q, want, result, error) and round_index < prefix_rounds:
                phase.rows_in_prefix += result.count
                # Plan quality covers the analytics tenant: the hot set
                # repeats 32 plans, which would let one seed's choice of
                # statements decide the median.
                if slot == HOT_PER_ROUND:
                    phase.replay.append(
                        (result.plan, result.estimated_ms, plan_shape(result.plan))
                    )
    else:
        print(f"warning: query pool of {len(pool)} exhausted", file=sys.stderr)
    phase.speed.close(last=True)
    return phase


def replay_alone(config, seed, phase: Phase) -> None:
    """serve-churn's plan quality: run each counted analytics plan
    alone, on a private executor with a fresh simulated clock.  Under
    the service the shared clock also carries the other tenant's work
    and the service's wave merging, which a pure scheduling change
    would move.  The plans run, in order, on sources built afresh for
    the replay: the measured federation's sources have served a
    time-dependent number of rounds by now."""
    mediator = build_mediator("blended", build_engines(config, seed))
    for plan, estimated, shape in phase.replay:
        executor = MediatorExecutor(mediator.catalog, options=mediator.executor.options)
        alone = executor.execute(plan).total_time_ms
        phase.quality.append((alone, estimated, alone, shape, 0))


def reset_peak_rss() -> None:
    """Start a new resident-memory high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# -- the workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    reference_data: Callable
    build: Callable
    templates: tuple
    real: bool = False
    service: bool = False


SPECS = {
    "plan-mix": Workload(sim_reference, build_sim, queries.PLAN_MIX),
    "real-fed": Workload(real_reference, build_real, queries.REAL_FED, real=True),
    "serve-churn": Workload(
        sim_reference, build_service, queries.ANALYTICS, service=True
    ),
}


def percentile_99(values: list[float], floor: int) -> float:
    if len(values) < floor:
        raise SystemExit(
            f"only {len(values)} latency samples: p99 needs {floor}"
        )
    return statistics.quantiles(values, n=100)[98]


def warm_up(spec: Workload, fed: Federation, warm: list[Query], hot: list, lap) -> None:
    for index, query in enumerate(warm):
        if index and index % SETUP_WARM_BLOCK == 0:
            lap()
        if spec.service:
            dashboards, analytics = fed.sessions
            for slot in range(HOT_PER_ROUND):
                fed.service.submit(
                    dashboards, hot[(index * HOT_PER_ROUND + slot) % len(hot)][0].sql
                )
            fed.service.submit(analytics, query.sql)
            fed.service.run()
        else:
            fed.mediator.query(query.sql)


def timed_build(spec: Workload, scale: Scale, seed, index, scratch, warm, hot):
    """Build and warm one federation; returns it with the set-up's wall
    time in speed blocks (one per build step and warm-up block)."""
    gc.collect()
    blocks = SpeedBlocks()
    mark = time.perf_counter()

    def lap() -> None:
        nonlocal mark
        blocks.add(time.perf_counter() - mark)
        blocks.close()
        mark = time.perf_counter()

    fed = spec.build(scale.config, seed, index, scratch, lap)
    lap()
    warm_up(spec, fed, warm, hot, lap)
    blocks.add(time.perf_counter() - mark)
    blocks.close(last=True)
    return fed, blocks


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    spec = SPECS[name]
    state_dir = ROOT / ".perfbench"
    state_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    fed: Federation | None = None
    try:
        # 1. inputs and expected answers, before any timer starts
        data, domains = spec.reference_data(scale.config, seed)
        reference = Reference(data)
        seen: set[str] = set()
        hot: list[tuple[Query, Any]] = []
        if spec.service:
            hot_rng = random.Random(f"{name}:{seed}:hot")
            hot = [
                (query, reference.digest(query))
                for query in queries.stream(
                    queries.DASHBOARDS, hot_rng, domains, HOT_STATEMENTS, seen
                )
            ]
        warm = queries.stream(
            spec.templates, random.Random(f"{name}:{seed}:warm"), domains, scale.warmup, seen
        )
        pool_size = max(scale.min_samples, int(seconds * scale.pool_rate))
        if spec.service:
            pool_size = max(scale.service_rounds, pool_size // (HOT_PER_ROUND + 1))
        pool = queries.stream(
            spec.templates, random.Random(f"{name}:{seed}:pool"), domains, pool_size, seen
        )
        expected = [reference.digest(query) for query in pool]
        del data, reference

        # 2. set-up, timed several times with one federation alive at a
        # time; the last one built is measured
        setups = []
        for index in range(scale.setup_builds):
            if fed is not None:
                fed.close()
                fed = None
            fed, blocks = timed_build(spec, scale, seed, index, scratch, warm, hot)
            setups.append(blocks)

        def measure(fed: Federation, recorder: Recorder | None) -> Phase:
            gc.collect()
            gc.freeze()
            reset_peak_rss()
            try:
                if spec.service:
                    phase = run_service(fed, hot, pool, expected, seconds, scale, recorder)
                else:
                    phase = run_single(
                        fed, pool, expected, seconds, scale, recorder, spec.real
                    )
            finally:
                gc.unfreeze()
            phase.peak_rss_mb = peak_rss_mb()
            if spec.service:
                replay_alone(scale.config, seed, phase)
            return phase

        plain = measure(fed, None)
        report = {"workload": name, "phases": [plain], "setups": setups}
        if trace:
            # A fresh, untimed federation for the traced phase; the
            # untraced one is closed first, so the traced phase's thread
            # count is its own.
            fed.close()
            fed = None
            fed, _ = timed_build(spec, scale, seed, scale.setup_builds, scratch, warm, hot)
            recorder = Recorder()
            recorder.instrument(fed.mediator, fed.service)
            traced = measure(fed, recorder)
            # Registration is timed on the traced federation too: one
            # re-registration of every source after the phase.
            recorder.tag = len(pool)
            mediator = fed.mediator
            for wrapper_name in mediator.catalog.wrapper_names():
                mediator.register(mediator.catalog.wrapper(wrapper_name))
            report["phases"].append(traced)
            report["traced"] = summarize_trace(
                name, seed, scale, recorder, plain, traced, len(pool)
            )
        return report
    finally:
        if fed is not None:
            fed.close()
        shutil.rmtree(scratch, ignore_errors=True)


def summarize_trace(name, seed, scale, recorder, plain, traced, pool_len) -> dict:
    service = SPECS[name].service
    prefix_tags = scale.service_rounds if service else scale.min_samples
    prefix = prefix_tags * (HOT_PER_ROUND + 1) if service else prefix_tags
    quality = traced.quality
    plan_ms, qerrors = traced.plan_quality(SPECS[name].real)
    metrics, counters = layer_metrics(
        recorder.spans,
        queries=traced.correct,
        prefix_tags=prefix_tags,
        prefix_queries=prefix,
        prefix_rows_returned=traced.rows_in_prefix,
        tickets=traced.tickets if service else None,
    )
    threads_end = threading.active_count()
    writes = sum(1 for r in traced.writes if r < prefix_tags) + sum(
        1 for span in recorder.spans
        if span[0] == "registration.register" and span[1] == pool_len
    )
    counters["registration.writes"] = writes
    qps_plain = plain.correct / plain.normalized()[1]
    qps_traced = traced.correct / traced.normalized()[1]
    metrics.update(
        {
            "backend.threads_end": threads_end,
            "registration.writes": writes,
            "service.plan_cache_hit_ratio": (
                traced.hits_in_prefix / prefix if service else 0.0
            ),
            "service.plan_cache_invalidations": traced.cache_invalidations_at_prefix,
            "trace.throughput_qps_untraced": qps_plain,
            "trace.throughput_qps_traced": qps_traced,
            "trace.overhead_pct": 100.0 * (qps_plain - qps_traced) / qps_plain,
        }
    )
    deterministic = {
        "counters": counters,
        "plan_fingerprint": hashlib.sha256(
            "\n".join(item[3] for item in quality).encode()
        ).hexdigest()[:16],
        "plan_sim_ms": statistics.geometric_mean(plan_ms),
        "estimate_qerror_p50": statistics.median(qerrors),
        "prefix_queries": prefix,
        "plan_quality_answers": len(quality),
    }
    path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.jsonl"
    recorder.write(str(path), {"workload": name, "seed": seed, "deterministic": deterministic, "metrics": metrics})
    return {"metrics": metrics, "deterministic": deterministic, "path": str(path)}


# -- reporting ---------------------------------------------------------------------

#: Metric name -> unit, as declared in the benchmark contract.
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}


def end_to_end(report: dict, scale: Scale, raw: bool = False) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count); times at reference machine
    speed unless ``raw``."""
    phase: Phase = report["phases"][0]
    if raw:
        latencies, wall = phase.latencies_ms, phase.wall_s
        setup = [blocks.raw_s for blocks in report["setups"]]
    else:
        latencies, wall = phase.normalized()
        setup = [blocks.normalized_s() for blocks in report["setups"]]
    plan_ms, qerrors = phase.plan_quality(SPECS[report["workload"]].real and not raw)
    return {
        "latency_p50_ms": (statistics.median(latencies), len(latencies)),
        "latency_p99_ms": (percentile_99(latencies, scale.p99_floor), len(latencies)),
        "throughput_qps": (phase.correct / wall, phase.correct),
        "success_rate": (phase.correct / phase.attempted, phase.attempted),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (phase.peak_rss_mb, 1),
        "plan_sim_ms": (statistics.geometric_mean(plan_ms), len(plan_ms)),
        "estimate_qerror_p50": (statistics.median(qerrors), len(qerrors)),
    }


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin string hashing, so set and dict orders (and with them the
        # plan enumeration order) repeat across processes.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="oo7 TINY and tiny run sizes (tests)"
    )
    args = parser.parse_args(argv)
    scale = SMOKE if args.smoke else FULL
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), scale)
        phases = report["phases"]
        attempted += sum(p.attempted for p in phases)
        failed += sum(p.failed for p in phases)
        for phase in phases:
            for problem in phase.problems[:10]:
                print(f"FAILED {name}: {problem}", file=sys.stderr)
        if args.trace:
            traced = report["traced"]
            # A declared layer the workload never reaches (another
            # workload's wrapper, the service on plan-mix) reads 0.
            values = {metric: 0.0 for metric in PER_LAYER_UNITS}
            values.update(traced["metrics"])
            print(f"{name} deterministic {json.dumps(traced['deterministic'], sort_keys=True)}")
            print(f"{name} spans written to {traced['path']}")
            for metric, value in sorted(values.items()):
                unit = PER_LAYER_UNITS.get(metric, "(not declared)")
                print(f"{name:12s} {metric:40s} {value:14.4f} {unit}")
            metrics = {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in PER_LAYER_UNITS.items()
            }
        else:
            values = end_to_end(report, scale)
            raw = end_to_end(report, scale, raw=True)
            metrics = {
                metric: {"value": value, "unit": END_TO_END_UNITS[metric]}
                for metric, (value, _) in values.items()
            }
            kernel = statistics.median(report["phases"][0].speed.kernel_ms)
            print(
                f"{name:12s} speed kernel {kernel:.4f} ms median "
                f"(reference {KERNEL_REFERENCE_MS} ms)"
            )
            for metric, (value, samples) in values.items():
                print(
                    f"{name:12s} {metric:22s} {value:14.4f} "
                    f"{END_TO_END_UNITS[metric]:6s} n={samples:<6d} raw {raw[metric][0]:.4f}"
                )
        for metric, entry in metrics.items():
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined[key] = entry
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
