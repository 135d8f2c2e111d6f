"""The benchmark's workloads: inputs from a seed, measured phases, checks.

Every workload is the paper's pipeline end to end: Algorithm 1 training
(``ATNNTrainer.fit``) on a seeded Tmall world, then the §IV-D real-time
engine serving an open-loop replay.  The workloads differ in how the work
is balanced (training epochs, catalogue size, index, traffic mix), so each
one stresses different layers; see ``README.md`` for why each exists.

The training world, its split, the initial model and the batch order are
the same for every seed, so the quality metrics repeat exactly and the
fit's speed does not change with the data.  The seed draws the traffic:
the behaviour events, which ticks carry new arrivals, and the recommend
requests.

Timings are scaled to a reference host speed.  On a shared host the
same work runs up to 1.7 times slower while neighbours are busy, in
stretches from a millisecond to tens of seconds, so raw timings of one
run say as much about the neighbours as about the program.  A fixed unit
of work, the host probe (:func:`probe_seconds`), is timed before and
after every measured interval, and the interval is scaled by
:data:`REFERENCE_PROBE_SECONDS` over the mean probe time around it
(:class:`HostProbes`):

* The fit is timed step by step; its throughput is the median of the
  scaled per-step rates.
* The replay runs the plan :data:`REPLAYS` times, each on a fresh engine,
  back to back without waiting.  Each operation's service time is its
  fastest scaled time over the replays, and the open loop (due times,
  one server, FIFO) is computed from those service times: see
  :func:`open_loop`.
* ``setup_s`` is the median of :data:`SETUP_REPEATS` scaled set-ups.

The run record keeps the unscaled values too.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ATNN, ATNNTrainer
from repro.data import FeatureTable, InteractionDataset, train_test_split
from repro.data.schema import GROUP_ITEM_PROFILE, GROUP_USER
from repro.data.synthetic import TmallWorld, generate_tmall_world
from repro.experiments.configs import ExperimentPreset, get_preset
from repro.metrics.auc import roc_auc
from repro.obs import TelemetrySession
from repro.serving import EngineConfig, Event, EventKind, RealTimeEngine
from repro.utils.rng import derive_seed

__all__ = [
    "FULL",
    "SMOKE",
    "WORKLOADS",
    "Scale",
    "StepTimer",
    "Workload",
    "open_loop",
    "percentile",
    "HostProbes",
    "probe_seconds",
    "promo_checks",
    "run_workload",
    "training_checks",
    "valid_ids",
]

PROMO_K = 100
RECOMMEND_K = 10
# The replay's schedule has one tick every TICK_SECONDS for --seconds.
# Every tick pays a refresh and a promo list however few events it
# carries, and every arrival batch an add_arrivals that copies the whole
# catalogue.  At 30 ticks a second the engine was busy often enough to
# put the recommend median at the knee between requests that wait and
# requests that do not.
TICK_SECONDS = 1 / 15
# Seed of everything but the traffic, whatever the run's --seed: the
# training world, split, initial model and batch order, and the items
# served (catalogue and arrivals).  Seeded worlds moved the fit's speed
# by up to 15% and its AUC by 2-3%, and seeded items moved the flood's
# k-means stalls between 1 and 2.5 s.
WORLD_SEED = 0
# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3
# The replay runs this many times per run, each operation's service time
# is its fastest.
REPLAYS = 3
# The host probe's time on the reference host (a 2-vCPU Xeon VM) while
# no neighbour slows it: the 1st-5th percentile of its timings there.
REFERENCE_PROBE_SECONDS = 40e-6
# An interval is scaled by the probes within this many times its length
# before and after it (see HostProbes).
SCALING_WINDOW = 1.0
# Promo lists are checked (exactness, recall@100) on every CHECK_EVERY-th tick.
CHECK_EVERY = 10
# A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
USER_GROUP_FRACTION = 0.25
# Large catalogues are resampled from a world with this many distinct new
# arrivals and users.  The world shares the training world's seed, so its
# categories, brands and sellers mean what the trained embeddings learned;
# a world with another seed scores at chance.
CATALOGUE_USERS = 500
CATALOGUE_BASE_ITEMS = 4000
# Noise added to resampled items' numeric profile columns, so no two
# catalogue items have the same vector.
PROFILE_JITTER = 0.05
# Base funnel rates of the behaviour model in repro.serving.events.
FUNNEL_RATES = (0.5, 0.25, 0.2, 0.12)  # click, cart, favorite, purchase


@dataclass(frozen=True)
class Workload:
    """One traffic mix, as quantities per tick."""

    name: str
    epochs: int
    views_per_tick: int
    recommends_per_tick: float
    arrival_batch: int  # items per add_arrivals call
    # Share of the ticks, drawn by the seed, that carry an arrival batch.
    # A promo list after a tick without one can be served from the
    # engine's cached order.
    arrival_share: float = 1.0
    # None serves the trained world's own new arrivals.
    catalogue_size: Optional[int] = None
    engine: EngineConfig = EngineConfig()
    # Every burst_every-th tick carries burst_factor times the views.
    burst_every: int = 0
    burst_factor: int = 1
    funnel_boost: float = 1.0
    # Every full_refresh_every-th tick refreshes with refresh(full=True).
    full_refresh_every: int = 0
    telemetry: bool = False


BROWSE = Workload(
    "serve-browse",
    epochs=1,
    views_per_tick=200,
    recommends_per_tick=10,  # 150 requests a second
    arrival_batch=10,
    # The fewest ticks with arrivals that leave the 95th arrival
    # percentile 10 samples beyond it.
    arrival_share=0.9,
    catalogue_size=20_000,
    telemetry=True,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Every run reports every end-to-end metric, so training also
        # serves; it replays the browse traffic.
        dataclasses.replace(BROWSE, name="train-atnn", epochs=3),
        BROWSE,
        Workload(
            "serve-flash-sale",
            epochs=1,
            views_per_tick=300,
            # 2,400 requests a run, 24 beyond the 99th percentile.  That
            # percentile is a wait behind a tick, whose depth depends on how
            # close after the tick the slowest requests came due; with half
            # as many requests it spread 15-20% from seed to seed.
            recommends_per_tick=32 / 3,
            arrival_batch=10,
            arrival_share=0.9,
            # Seven bursts, whose waits hold under 1% of the requests.  With
            # a burst every 10th tick they held 1-2%, and the 99th recommend
            # percentile moved with that share, two to three times as much
            # as the median did.
            burst_every=30,
            burst_factor=10,
            funnel_boost=1.6,
        ),
        Workload(
            "serve-flood",
            epochs=1,
            views_per_tick=200,
            recommends_per_tick=16 / 3,
            arrival_batch=50,
            catalogue_size=20_000,
            engine=EngineConfig(index_kind="ivf"),
            # Two full refreshes, each a k-means stall of about a second;
            # the index adds a third when it re-partitions itself.  One
            # stall put the 95th percentiles on its ramp, below its top,
            # where they varied twice as much as the stall did.
            full_refresh_every=75,
        ),
    )
}


@dataclass(frozen=True)
class Scale:
    """Sizes shared by all workloads: the measured scale or a quick smoke."""

    preset: str
    size_divisor: int
    max_epochs: Optional[int]
    enforce_tails: bool


FULL = Scale("default", size_divisor=1, max_epochs=None, enforce_tails=True)
SMOKE = Scale("smoke", size_divisor=20, max_epochs=1, enforce_tails=False)


# ----------------------------------------------------------------------
# Output checks and statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float, enforce: bool = True) -> float:
    """The ``q``-th percentile, refusing one with under 10 samples beyond it."""
    beyond = len(values) * (100.0 - q) / 100.0
    if enforce and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond:g} beyond it; "
            f"at least {MIN_TAIL_SAMPLES} are required"
        )
    return float(np.percentile(values, q))


def valid_ids(ids, k: int, n_slots: int) -> bool:
    """``k`` unique integer ids in ``[0, n_slots)``."""
    ids = np.asarray(ids)
    return (
        ids.shape == (k,)
        and np.issubdtype(ids.dtype, np.integer)
        and np.unique(ids).size == k
        and int(ids.min()) >= 0
        and int(ids.max()) < n_slots
    )


def _covered(ids: np.ndarray, scores: np.ndarray, k: int) -> int:
    """How many served ids score at least the exact k-th best score.

    Comparing scores rather than ids keeps ties at the cut-off from
    counting as misses.
    """
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    tolerance = 1e-9 * max(abs(float(kth)), 1.0)
    return int(np.count_nonzero(scores[ids] >= kth - tolerance))


def promo_checks(
    samples: Sequence[Tuple[int, np.ndarray, np.ndarray]], exact: bool
) -> Tuple[List[int], float]:
    """Check sampled promo lists against an exact argsort of the scores.

    ``samples`` holds ``(tick, served ids, last_scores)``.  A list fails
    when its ids are not ``PROMO_K`` unique in-range slots, or, when
    ``exact`` (brute-force index), when it is not the exact top
    ``PROMO_K`` in descending score order.  Returns the failed ticks and
    the mean recall@``PROMO_K``.
    """
    failed: List[int] = []
    recalls: List[float] = []
    for tick, ids, scores in samples:
        if not valid_ids(ids, PROMO_K, scores.size):
            failed.append(tick)
            recalls.append(0.0)
            continue
        covered = _covered(ids, scores, PROMO_K)
        recalls.append(covered / PROMO_K)
        served = scores[ids]
        ordered = bool(np.all(np.diff(served) <= 1e-12))
        if exact and (covered < PROMO_K or not ordered):
            failed.append(tick)
    return failed, float(np.mean(recalls)) if recalls else 0.0


def training_checks(records: Sequence[Dict[str, float]], floor: float) -> Tuple[int, int]:
    """``(attempted, failed)``: one operation per epoch, plus the AUC floor.

    An epoch fails when any recorded loss or AUC is not finite; the floor
    check fails when either final validation AUC is below ``floor``.
    """
    failed = sum(
        1 for record in records if not all(np.isfinite(v) for v in record.values())
    )
    last = records[-1] if records else {}
    aucs = [last.get("valid_auc_encoder", np.nan), last.get("valid_auc_generator", np.nan)]
    failed += int(not all(auc >= floor for auc in aucs))
    return len(records) + 1, failed


def auc_floor(world: TmallWorld) -> float:
    """Halfway from chance to the AUC of the world's true click probabilities."""
    truth = world.click_probability(
        world.interaction_user_indices,
        world.interaction_item_indices,
        world.item_latents,
        world.item_quality,
    )
    oracle = roc_auc(world.interactions.label("ctr"), truth)
    return 0.5 + 0.5 * (oracle - 0.5)


def peak_rss_mb() -> float:
    """The process's peak resident set size (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def open_loop(due: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Latency of each operation of an open loop served FIFO by one server.

    Operation ``i`` comes due at ``due[i]`` (non-decreasing) and needs
    ``service[i]`` seconds.  It starts when it is due or when the
    operation before it ends, whichever is later, and its latency runs
    from its due time to its end, so a stall delays everything queued
    behind it.
    """
    end = np.empty(len(due))
    free = -np.inf
    for i, (when, seconds) in enumerate(zip(due.tolist(), service.tolist())):
        free = max(when, free) + seconds
        end[i] = free
    return end - due


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
_PROBE_LEFT = np.random.default_rng(1).random((256, 64))
_PROBE_RIGHT = np.random.default_rng(2).random((64, 64))


def probe_seconds(clock=time.perf_counter) -> float:
    """The host probe: fastest of three timings of one small BLAS product.

    Of the fixed units of work tried (a pure-Python loop, small numpy
    operations, a matrix-vector product, this product), this one slowed
    down most like the program did while the neighbours were busy.
    """
    best = float("inf")
    for _ in range(3):
        start = clock()
        np.maximum(_PROBE_LEFT @ _PROBE_RIGHT, 0.0)
        best = min(best, clock() - start)
    return best


class HostProbes:
    """Host probe timings, with when each was taken, to scale intervals by.

    An interval is scaled to the reference host speed by
    ``REFERENCE_PROBE_SECONDS`` over the mean probe time in a window that
    reaches :data:`SCALING_WINDOW` times its length before and after it,
    and always holds the last probe before it and the first after it.  A
    short operation is thus scaled by the probes on either side, and a
    stall of a second by the probes of the seconds around it.
    """

    def __init__(self, clock=time.perf_counter, probe=probe_seconds) -> None:
        self.at: List[float] = []
        self.seconds: List[float] = []
        self._clock = clock
        self._probe = probe

    def take(self) -> None:
        self.at.append(self._clock())
        self.seconds.append(self._probe())

    def scale(self, starts: Sequence[float], seconds: Sequence[float]) -> np.ndarray:
        """The intervals ``[start, start + seconds)`` at the reference speed."""
        starts, seconds = np.asarray(starts, dtype=float), np.asarray(seconds, dtype=float)
        at = np.asarray(self.at)
        ends = starts + seconds
        first = np.minimum(
            np.searchsorted(at, starts - SCALING_WINDOW * seconds, side="left"),
            np.searchsorted(at, starts, side="right") - 1,
        )
        last = np.maximum(
            np.searchsorted(at, ends + SCALING_WINDOW * seconds, side="right"),
            np.searchsorted(at, ends, side="left") + 1,
        )
        total = np.concatenate([[0.0], np.cumsum(self.seconds)])
        mean = (total[last] - total[first]) / (last - first)
        return seconds * REFERENCE_PROBE_SECONDS / mean


class StepTimer:
    """Times each training step of a fit by the batches it draws.

    The trainer draws a batch, runs its steps on it, then draws the next;
    the time from one draw to the next in an epoch is one batch's steps
    plus assembling the next batch.  The host probe runs at every draw,
    outside the timed intervals.  The timer is installed on the dataset
    instance and calls the class's ``iter_batches``, so a traced run's
    wrapper on the class stays in the call path.
    """

    def __init__(
        self, dataset: InteractionDataset, host: HostProbes, clock=time.perf_counter
    ) -> None:
        self.host = host
        self.starts: List[float] = []
        self.seconds: List[float] = []
        self.rows: List[int] = []
        self._clock = clock
        draw = type(dataset).iter_batches

        def iter_batches(*args, **kwargs):
            return self._timed(draw(dataset, *args, **kwargs))

        dataset.iter_batches = iter_batches

    def _timed(self, batches) -> Iterator:
        clock = self._clock
        start = None
        rows = 0
        for batch in batches:
            self._close(start, rows, clock())
            rows, start = batch.size, clock()
            yield batch
        self._close(start, rows, clock())

    def _close(self, start: Optional[float], rows: int, end: float) -> None:
        self.host.take()
        if start is not None:
            self.starts.append(start)
            self.seconds.append(end - start)
            self.rows.append(rows)

    def raw_rates(self) -> np.ndarray:
        """Rows per second of each batch's steps."""
        return np.asarray(self.rows) / np.asarray(self.seconds)

    def rates(self) -> np.ndarray:
        """Rows per second of each batch's steps, at the reference host speed."""
        return np.asarray(self.rows) / self.host.scale(self.starts, self.seconds)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What set-up builds: the program's inputs, its model and catalogue."""

    world: TmallWorld
    train: InteractionDataset
    test: InteractionDataset
    model: ATNN
    source: TmallWorld  # world the catalogue, traffic and users come from
    catalogue: FeatureTable
    popularity: np.ndarray  # ground-truth popularity per catalogue slot
    user_group: FeatureTable


def _resample(source: TmallWorld, size: int, rng: np.random.Generator):
    """``size`` items drawn from ``source``'s new arrivals, profiles jittered."""
    rows = rng.integers(0, len(source.new_items), size=size)
    columns = {name: col[rows] for name, col in source.new_items.columns.items()}
    for name in source.schema.numeric_names(GROUP_ITEM_PROFILE):
        columns[name] = columns[name] + rng.normal(0.0, PROFILE_JITTER, size=size)
    return FeatureTable(columns), source.new_item_popularity[rows]


def build_inputs(workload: Workload, scale: Scale, preset: ExperimentPreset) -> Inputs:
    """World generation, split, model build and catalogue: the first set-up half.

    All of it comes from :data:`WORLD_SEED`.
    """
    config = dataclasses.replace(preset.tmall, seed=derive_seed(WORLD_SEED, "world"))
    world = generate_tmall_world(config)
    train, test = train_test_split(
        world.interactions, 0.2, np.random.default_rng(derive_seed(WORLD_SEED, "split"))
    )
    model = ATNN(
        world.schema,
        preset.tower,
        rng=np.random.default_rng(derive_seed(WORLD_SEED, "model")),
    )
    if workload.catalogue_size is None:
        source = world
        catalogue, popularity = world.new_items, world.new_item_popularity
    else:
        source = generate_tmall_world(
            dataclasses.replace(
                config,
                n_users=CATALOGUE_USERS,
                n_items=100,
                n_new_items=CATALOGUE_BASE_ITEMS // scale.size_divisor,
                n_interactions=100,
            )
        )
        catalogue, popularity = _resample(
            source,
            workload.catalogue_size // scale.size_divisor,
            np.random.default_rng(derive_seed(WORLD_SEED, "catalogue")),
        )
    return Inputs(
        world, train, test, model, source, catalogue, popularity,
        source.active_user_group(USER_GROUP_FRACTION),
    )


TICK, ARRIVAL, RECOMMEND = 0, 1, 2


@dataclass
class Plan:
    """The replay schedule: ``(due in ticks, kind, payload)`` in FIFO order."""

    ticks: int
    initial_size: int
    ops: List[Tuple[float, int, object]]

    def due_seconds(self) -> np.ndarray:
        return np.array([due for due, _, _ in self.ops]) * TICK_SECONDS

    def kinds(self) -> np.ndarray:
        return np.array([kind for _, kind, _ in self.ops])


def _tick_events(rng, cdf, popularity, activity_cdf, n_views, boost, timestamp) -> List[Event]:
    """One batch of views with their click/cart/favourite/purchase funnel."""
    slots = np.minimum(np.searchsorted(cdf, rng.random(n_views)), cdf.size - 1)
    users = np.minimum(
        np.searchsorted(activity_cdf, rng.random(n_views)), activity_cdf.size - 1
    )
    engagement = 0.5 + popularity[slots]
    taken = rng.random((4, n_views)) < (
        np.array(FUNNEL_RATES)[:, None] * boost * engagement
    )
    taken[1:] &= taken[0]  # cart, favourite and purchase follow a click
    follow = (
        (EventKind.CLICK, 1.0),
        (EventKind.CART, 2.0),
        (EventKind.FAVORITE, 2.0),
        (EventKind.PURCHASE, 5.0),
    )
    events: List[Event] = []
    for slot, user, flags in zip(slots.tolist(), users.tolist(), taken.T.tolist()):
        events.append(Event(EventKind.VIEW, slot, user, timestamp))
        for flag, (kind, delay) in zip(flags, follow):
            if flag:
                events.append(Event(kind, slot, user, timestamp + delay))
    return events


def _every(tick: int, period: int) -> bool:
    """Whether ``tick`` is a positive multiple of ``period`` (never for 0)."""
    return period > 0 and tick > 0 and tick % period == 0


def build_plan(workload: Workload, inputs: Inputs, seed: int, ticks: int) -> Plan:
    """Every event batch, arrival batch and request of the replay.

    ``seed`` draws the traffic: the events, which ticks carry arrivals,
    and the recommend requests.  The arriving items come from
    :data:`WORLD_SEED`.
    """
    rng = np.random.default_rng(derive_seed(seed, f"plan-{workload.name}"))
    weights = inputs.popularity + 0.02
    cdf = np.cumsum(weights / weights.sum())
    activity_cdf = np.cumsum(inputs.source.user_activity)
    ops: List[Tuple[float, int, object]] = []
    for tick in range(ticks):
        burst = _every(tick, workload.burst_every)
        views = workload.views_per_tick * (workload.burst_factor if burst else 1)
        batch = _tick_events(
            rng, cdf, inputs.popularity, activity_cdf, views, workload.funnel_boost, float(tick)
        )
        ops.append((float(tick), TICK, (tick, batch, _every(tick, workload.full_refresh_every))))

    # An arrival batch comes due with its tick and runs after the tick's
    # events.  The count is fixed, so the 95th percentile keeps its
    # samples beyond it on every seed.
    step = workload.arrival_batch
    carriers = np.sort(
        rng.choice(ticks, size=round(workload.arrival_share * ticks), replace=False)
    )
    pool, _ = _resample(
        inputs.source,
        step * carriers.size,
        np.random.default_rng(derive_seed(WORLD_SEED, f"arrivals-{workload.name}")),
    )
    for batch, tick in enumerate(carriers.tolist()):
        rows = slice(batch * step, (batch + 1) * step)
        table = FeatureTable({name: col[rows] for name, col in pool.columns.items()})
        ops.append((float(tick), ARRIVAL, table))

    users = inputs.source.users
    user_names = inputs.source.schema.all_column_names(GROUP_USER)
    # A Poisson process conditioned on its count: uniform due times.  The
    # fixed count keeps the 99th percentile's samples beyond it on every seed.
    due = np.sort(rng.uniform(0.0, ticks, size=round(workload.recommends_per_tick * ticks)))
    picks = np.minimum(
        np.searchsorted(activity_cdf, rng.random(due.size)), activity_cdf.size - 1
    )
    for when, user in zip(due.tolist(), picks.tolist()):
        row = {name: users[name][user : user + 1] for name in user_names}
        ops.append((when, RECOMMEND, row))
    ops.sort(key=lambda op: (op[0], op[1]))
    return Plan(ticks, len(inputs.catalogue), ops)


# ----------------------------------------------------------------------
# The replay
# ----------------------------------------------------------------------
@dataclass
class Replay:
    """One pass over the plan: every operation's service time and checks."""

    starts: np.ndarray  # when each operation started
    service: np.ndarray  # its seconds
    events_sent: int = 0
    events_seen: int = 0
    failed_ticks: set = field(default_factory=set)
    failed: int = 0  # failed arrival and recommend operations
    samples: List[Tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def replay(engine: RealTimeEngine, plan: Plan, recorder, host: HostProbes) -> Replay:
    """Run the plan's operations against ``engine`` back to back, in order.

    The host probe runs before every operation and after the last.
    """
    clock = time.perf_counter
    run = Replay(np.empty(len(plan.ops)), np.empty(len(plan.ops)))
    next_slot = plan.initial_size
    with recorder.span("loadgen"):
        for i, (_, kind, payload) in enumerate(plan.ops):
            host.take()
            result, error = None, None
            if kind == TICK:
                tick, batch, full = payload
            start = run.starts[i] = clock()
            try:
                if kind == TICK:
                    applied = engine.ingest(batch)
                    engine.refresh(full=full)
                    result = engine.top_promotion_candidates(PROMO_K)
                elif kind == ARRIVAL:
                    result = engine.add_arrivals(payload)
                else:
                    result = engine.recommend_for_user(payload, RECOMMEND_K)
            except Exception:  # a failed operation is counted, the loop goes on
                error = traceback.format_exc()
            run.service[i] = clock() - start
            if kind == TICK:
                run.events_sent += len(batch)
                ok = error is None and applied == len(batch) and valid_ids(
                    result, PROMO_K, next_slot
                )
                if ok and tick % CHECK_EVERY == 0:
                    run.samples.append((tick, result.copy(), engine.last_scores.copy()))
                if not ok:
                    run.failed_ticks.add(tick)
            elif kind == ARRIVAL:
                expected = np.arange(next_slot, next_slot + len(payload))
                next_slot += len(payload)
                ok = error is None and np.array_equal(result, expected)
                run.failed += not ok
            else:
                ok = error is None and valid_ids(result, RECOMMEND_K, next_slot)
                run.failed += not ok
            if error is not None and len(run.errors) < 5:
                run.errors.append(error)
        host.take()
    run.events_seen = engine.events_seen
    return run


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    details: Dict[str, object]


def _measure(step, host: HostProbes):
    """Run ``step()``; returns its result, its seconds and its scaled seconds."""
    host.take()
    start = time.perf_counter()
    result = step()
    seconds = time.perf_counter() - start
    host.take()
    return result, seconds, float(host.scale([start], [seconds])[0])


def _serving_metrics(plan: Plan, service: np.ndarray, events: int, tails: bool):
    """Capacity and open-loop latency percentiles from per-operation service times."""
    latency = open_loop(plan.due_seconds(), service)
    kinds = plan.kinds()
    fresh, arrival, recommend = (latency[kinds == kind] for kind in (TICK, ARRIVAL, RECOMMEND))
    return {
        "serve.capacity_eps": events / service.sum(),
        "serve.fresh_p50_ms": percentile(fresh, 50, tails) * 1e3,
        "serve.fresh_p95_ms": percentile(fresh, 95, tails) * 1e3,
        "serve.recommend_p50_ms": percentile(recommend, 50, tails) * 1e3,
        "serve.recommend_p99_ms": percentile(recommend, 99, tails) * 1e3,
        "serve.arrival_p50_ms": percentile(arrival, 50, tails) * 1e3,
        "serve.arrival_p95_ms": percentile(arrival, 95, tails) * 1e3,
    }


UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.samples_per_s": "rows/s",
    "train.auc_encoder": "auc",
    "train.auc_generator": "auc",
    "serve.capacity_eps": "events/s",
    "serve.fresh_p50_ms": "ms",
    "serve.fresh_p95_ms": "ms",
    "serve.recommend_p50_ms": "ms",
    "serve.recommend_p99_ms": "ms",
    "serve.arrival_p50_ms": "ms",
    "serve.arrival_p95_ms": "ms",
    "serve.promo_recall_at_100": "fraction",
}


def run_workload(
    workload: Workload, seed: int, seconds: float, recorder, scale: Scale = FULL
) -> Outcome:
    """Set up, train, then set up an engine and replay it, several times each."""
    preset = get_preset(scale.preset)
    epochs = min(workload.epochs, scale.max_epochs or workload.epochs)
    setups = []  # (raw, scaled) seconds of each input set-up, then engine set-up
    host = HostProbes()
    with recorder.span("run"):
        with recorder.span("setup"):
            for _ in range(SETUP_REPEATS):
                inputs, *times = _measure(
                    lambda: build_inputs(workload, scale, preset), host
                )
                setups.append(times)
        trainer = ATNNTrainer(
            lambda_similarity=preset.lambda_similarity,
            epochs=epochs,
            batch_size=preset.batch_size,
            lr=preset.lr,
            seed=derive_seed(WORLD_SEED, "train"),
        )
        steps = StepTimer(inputs.train, host)
        history = trainer.fit(inputs.model, inputs.train, valid=inputs.test)
        with recorder.span("loadgen.inputs"):
            plan = build_plan(workload, inputs, seed, max(1, round(seconds / TICK_SECONDS)))

        def new_engine():
            engine = RealTimeEngine(
                inputs.model, inputs.catalogue, inputs.user_group, workload.engine
            )
            engine.refresh()
            return engine

        replays: List[Replay] = []
        for repeat in range(REPLAYS):
            session = (
                TelemetrySession(profile_autograd=False, monitor=True, slo=True, flight=True)
                if workload.telemetry
                else nullcontext()
            )
            with session:
                with recorder.span("setup"):
                    engine, *times = _measure(new_engine, host)
                if repeat < SETUP_REPEATS:
                    setups[repeat] = [a + b for a, b in zip(setups[repeat], times)]
                # The plan's event objects would otherwise be rescanned by
                # every full garbage collection during the replay.
                gc.collect()
                gc.freeze()
                try:
                    replays.append(replay(engine, plan, recorder, host))
                finally:
                    gc.unfreeze()
            final_size = len(engine.catalogue)
            repartitions = getattr(engine.index, "repartitions", 0)
            del engine

    train_attempted, train_failed = training_checks(
        history.records, auc_floor(inputs.world)
    )
    exact = workload.engine.index_kind == "bruteforce"
    attempted, failed = train_attempted, train_failed
    samples = []
    for run in replays:
        failed_ticks, _ = promo_checks(run.samples, exact)
        samples += run.samples
        attempted += len(plan.ops) + 1
        failed += (
            run.failed
            + len(run.failed_ticks.union(failed_ticks))
            + int(run.events_seen != run.events_sent)
        )
    _, recall = promo_checks(samples, exact)

    tails = scale.enforce_tails
    events = replays[0].events_sent
    service = np.min([host.scale(run.starts, run.service) for run in replays], axis=0)
    raw_service = np.min([run.service for run in replays], axis=0)
    values = {
        "setup_s": statistics.median(setup[1] for setup in setups),
        "peak_rss_mb": peak_rss_mb(),
        "train.samples_per_s": float(np.median(steps.rates())),
        "train.auc_encoder": history.last("valid_auc_encoder"),
        "train.auc_generator": history.last("valid_auc_generator"),
        **_serving_metrics(plan, service, events, tails),
        "serve.promo_recall_at_100": recall,
    }
    raw = {
        "setup_s": statistics.median(setup[0] for setup in setups),
        "train.samples_per_s": float(np.median(steps.raw_rates())),
        **_serving_metrics(plan, raw_service, events, tails),
    }
    details = {
        "raw": raw,
        "host.probe_us": float(np.median(host.seconds)) * 1e6,
        "engine.busy_share": service.sum() / (plan.ticks * TICK_SECONDS),
        "replay_busy_s": [float(run.service.sum()) for run in replays],
        "setup_s": [setup[1] for setup in setups],
        "train_steps": len(steps.rows),
        "events": events,
        "ops": len(plan.ops),
        "catalogue_final": final_size,
        "repartitions": repartitions,
        "errors": [error for run in replays for error in run.errors][:5],
    }
    metrics = {name: (value, UNITS[name]) for name, value in values.items()}
    return Outcome(attempted, failed, metrics, details)
