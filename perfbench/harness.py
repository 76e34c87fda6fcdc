"""Workload runners: drive the program, time it, check its outputs.

Each ``run_*`` function performs one run of one workload and returns a
:class:`RunResult`.  Untraced runs (``trace=False``) produce the
end-to-end metrics.  Traced runs interleave untraced and traced
stretches of the same work -- :mod:`tracing`'s wrappers installed
only in the traced ones -- and produce the per-layer metrics plus the
tracing overhead.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import session as core_session
from repro.crypto.mac import mac_verify_many
from repro.crypto.rng import DeterministicRNG
from repro.por.setup import extract_file
from repro.service import AuditClient

import procstat
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run; ``setup_s`` is their median.  Besides the
#: measured one, :func:`setups_before` of them run ahead of the timed
#: phase and the rest after it, each in a throwaway process, so the
#: median samples the shared host at several moments of the run.
SETUP_REPEATS = 3
#: Unmeasured load before each daemon window (caches, allocator).
WARMUP_S = 1.0
#: How long to wait for outstanding verdicts after the load stops.
DRAIN_TIMEOUT_S = 30.0
#: Time slices for the p99 (see :func:`windowed`): at least three, so
#: one stalled slice cannot set the median, and at most five.
MIN_WINDOWS = 3
WINDOWS = 5
#: Samples per slice above the minimum number of slices: a slice's p99
#: then rests on ten samples beyond it.
SLICE_SAMPLES = 1000

#: End-to-end metrics every untraced run reports, with units.
END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

#: Per-layer metrics every traced run reports, with units.
PER_LAYER = {
    **{f"{layer}.self_share": "share" for layer in tracing.LAYERS},
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
    "service.busy_share": "share",
    "service.queue_wait_share": "share",
    "service.flushes": "count",
    "service.flush_size_mean": "ratio",
    "cloud.verifier.audits": "count",
    "storage.lookups": "count",
    "crypto.schnorr.items_per_call": "ratio",
    "fleet.batches": "count",
    "fleet.audits": "count",
    "fleet.lane_utilization_mean": "ratio",
    "fleet.shed_slots": "count",
}


@dataclass
class Metric:
    """A measured value with its unit and the samples behind it."""

    value: float
    unit: str
    n: int = 1
    q1: float | None = None
    q3: float | None = None

    def to_dict(self) -> dict:
        out = {"value": self.value, "unit": self.unit, "n": self.n}
        if self.q1 is not None:
            out["q1"] = self.q1
            out["q3"] = self.q3
        return out


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    #: The contract metrics: END_TO_END untraced, PER_LAYER traced.
    metrics: dict[str, Metric]
    #: Workload-named and diagnostic metrics (printed and recorded).
    extra: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: False when the measurement itself cannot be trusted (an open
    #: loop generator that fell behind its schedule).
    valid: bool = True
    notes: list[str] = field(default_factory=list)
    #: Traced runs: the per-layer table (one dict per layer).
    layers: list[dict] = field(default_factory=list)
    #: Traced runs: layers the workload never called (they read 0).
    not_called: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.valid and self.failed == 0 and self.attempted > 0


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def distribution(values, q: float, unit: str) -> Metric:
    """The ``q``-th percentile with the sample count and quartiles."""
    return Metric(
        percentile(values, q), unit, len(values),
        percentile(values, 25), percentile(values, 75),
    )


def windowed(times, values, q: float, unit: str) -> Metric:
    """Median over the run's time slices of each slice's ``q``-th percentile.

    ``times`` places each sample in the run (due time, batch dispatch);
    the run is cut into equal slices, as many as leave about
    :data:`SLICE_SAMPLES` samples in each, but no fewer than
    :data:`MIN_WINDOWS` and no more than :data:`WINDOWS`.  A
    tail percentile over the whole run is set by its few worst moments
    -- one stall of the shared host moves it -- while the median of the
    slice figures needs stalls in half the slices.  The quartiles are
    those of the slice figures.
    """
    slices = max(MIN_WINDOWS, min(WINDOWS, len(values) // SLICE_SAMPLES))
    start_s = min(times)
    width = (max(times) - start_s) / slices or 1.0
    groups: list[list[float]] = [[] for _ in range(slices)]
    for t, value in zip(times, values):
        groups[min(slices - 1, int((t - start_s) / width))].append(value)
    figures = [percentile(group, q) for group in groups if group]
    return Metric(
        statistics.median(figures), unit, len(values),
        percentile(figures, 25), percentile(figures, 75),
    )


# -- the daemon process ---------------------------------------------------


class Daemon:
    """The launcher child: one daemon, driven over its stdin/stdout."""

    def __init__(self, workload: str, seed: int, spans_path=None) -> None:
        command = [
            sys.executable, str(HERE / "launcher.py"),
            "--workload", workload, "--seed", str(seed),
        ]
        if spans_path is not None:
            command += ["--traced", "--spans", str(spans_path)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=ROOT,
        )
        try:
            self.port = self._expect("ready")["port"]
        except BaseException:
            self.kill()
            raise
        #: Process start until the daemon's port accepts connections.
        self.setup_s = time.perf_counter() - start

    def _expect(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited while waiting for {event!r}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"daemon answered {message!r}, not {event!r}")
        return message

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._expect(name)

    def close(self) -> None:
        """Stop the daemon cleanly."""
        try:
            self.proc.stdin.close()
            self._expect("exit")
            self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None and not pipe.closed:
                try:
                    pipe.close()
                except BrokenPipeError:
                    pass


# -- load generation ------------------------------------------------------


class Load:
    """Orders sent over one pipelined connection, and their outcomes.

    ``AuditClient`` numbers a connection's orders 1, 2, ...; the
    daemon's traced flush log names orders by that id, which is how
    dispatch-queue waits are joined to client send times.
    """

    def __init__(self, client: AuditClient, truth: dict[bytes, str]):
        self.client = client
        self.truth = truth
        self.next_id = 1
        #: order id -> (due_s, sent_s, file_id, k)
        self.sent: dict[int, tuple[float, float, bytes, int]] = {}
        #: order id -> (done_s, verdict matched ground truth)
        self.done: dict[int, tuple[float, bool]] = {}
        self.in_flight = 0
        self.wake = asyncio.Event()

    async def send(self, orders, due=None) -> None:
        sent_s = time.perf_counter()
        futures = await self.client.submit_many(orders)
        for position, (future, (file_id, k)) in enumerate(
            zip(futures, orders)
        ):
            order_id = self.next_id
            self.next_id += 1
            due_s = due[position] if due is not None else sent_s
            self.sent[order_id] = (due_s, sent_s, file_id, k)
            future.add_done_callback(
                functools.partial(self._on_done, order_id)
            )
        self.in_flight += len(orders)

    def _on_done(self, order_id: int, future: asyncio.Future) -> None:
        done_s = time.perf_counter()
        self.in_flight -= 1
        ok = False
        if not future.cancelled() and future.exception() is None:
            _due, _sent, file_id, k = self.sent[order_id]
            ok = workloads.verdict_matches(
                self.truth[file_id], workloads.effective_rounds(k),
                future.result(),
            )
        self.done[order_id] = (done_s, ok)
        self.wake.set()

    async def drain(self) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.in_flight > 0 and time.perf_counter() < deadline:
            self.wake.clear()
            try:
                await asyncio.wait_for(self.wake.wait(), 1.0)
            except asyncio.TimeoutError:
                pass

    def failures(self) -> int:
        """Orders answered wrongly, with an error, or not at all."""
        return sum(
            1 for order_id in self.sent
            if not self.done.get(order_id, (0.0, False))[1]
        )


@dataclass
class Phase:
    """One measured daemon window: the client's view and the daemon's."""

    load: Load
    start_s: float
    end_s: float
    #: order ids whose latency the window reports
    measured: list[int]
    report: dict


async def _closed_loop(load: Load, orders, until_s: float) -> None:
    """Keep :data:`workloads.SLA_WINDOW` orders in flight until ``until_s``."""
    while time.perf_counter() < until_s:
        refill = workloads.SLA_WINDOW - load.in_flight
        if refill > 0:
            await load.send([next(orders) for _ in range(refill)])
        load.wake.clear()
        try:
            await asyncio.wait_for(
                load.wake.wait(), max(0.0, until_s - time.perf_counter())
            )
        except asyncio.TimeoutError:
            pass


async def _open_loop(load: Load, schedule) -> float:
    """Send each order when due, whatever the daemon's state; returns base."""
    base_s = time.perf_counter() + 0.005
    i = 0
    while i < len(schedule):
        now_s = time.perf_counter()
        j = i
        while j < len(schedule) and base_s + schedule[j][0] <= now_s:
            j += 1
        if j == i:
            await asyncio.sleep(base_s + schedule[i][0] - now_s)
            continue
        batch = schedule[i:j]
        await load.send(
            [(file_id, k) for _due, file_id, k in batch],
            due=[base_s + due_s for due_s, _f, _k in batch],
        )
        i = j
    return base_s


async def _drive(daemon: Daemon, workload: str, seed: int, seconds: float,
                 label: str) -> Phase:
    """Warm up, then one measured window of ``workload`` on ``daemon``."""
    truth = workloads.audit_truth(workload)
    client = AuditClient("127.0.0.1", daemon.port)
    await client.connect()
    try:
        load = Load(client, truth)
        if workload == "audit-sla":
            orders = workloads.sla_orders(seed)
            await _closed_loop(load, orders, time.perf_counter() + WARMUP_S)
            daemon.command("window")
            start_s = time.perf_counter()
            first_id = load.next_id
            await _closed_loop(load, orders, start_s + seconds)
            end_s = time.perf_counter()
            report = daemon.command("report")
            measured = list(range(first_id, load.next_id))
            await load.drain()
        else:
            await _open_loop(load, workloads.open_schedule(
                seed, f"warmup-{label}", WARMUP_S))
            await load.drain()
            daemon.command("window")
            first_id = load.next_id
            start_s = await _open_loop(
                load, workloads.open_schedule(seed, label, seconds)
            )
            await load.drain()
            end_s = time.perf_counter()
            report = daemon.command("report")
            measured = list(range(first_id, load.next_id))
        return Phase(load, start_s, end_s, measured, report)
    finally:
        await client.close()


def _phase_latencies(phase: Phase) -> tuple[list[float], list[float]]:
    """Due times and due-to-verdict latencies (ms) of the measured orders."""
    load = phase.load
    times, latencies = [], []
    for order_id in phase.measured:
        if order_id in load.done:
            due_s = load.sent[order_id][0]
            times.append(due_s)
            latencies.append((load.done[order_id][0] - due_s) * 1000.0)
    return times, latencies


def _phase_throughput(phase: Phase, workload: str) -> Metric:
    """Verdicts per wall second over the window.

    The closed loop counts verdicts arriving inside the window; the
    open loop counts its scheduled orders' verdicts from the first due
    time to the last verdict.
    """
    load = phase.load
    if workload == "audit-sla":
        n = sum(
            1 for done_s, _ok in load.done.values()
            if phase.start_s <= done_s < phase.end_s
        )
        return Metric(n / (phase.end_s - phase.start_s), "op/s", n)
    done = [load.done[o][0] for o in phase.measured if o in load.done]
    return Metric(len(done) / (max(done) - phase.start_s), "op/s", len(done))


def run_audit(workload: str, seed: int, seconds: float, trace: bool,
              spans_path=None) -> RunResult:
    """audit-sla / audit-open: the daemon in its own process, one client."""
    if not trace:
        setups = _daemon_setups(workload, seed, setups_before())
        daemon = Daemon(workload, seed)
        setups.append(daemon.setup_s)
        try:
            phase = asyncio.run(_drive(daemon, workload, seed, seconds,
                                       "timed"))
        finally:
            daemon.close()
        setups += _daemon_setups(
            workload, seed, SETUP_REPEATS - 1 - setups_before())
    else:
        daemon = Daemon(workload, seed, spans_path=spans_path)
        try:
            daemon.command("trace")
            phase = asyncio.run(_drive(daemon, workload, seed, seconds,
                                       "traced"))
        finally:
            daemon.close()

    result = RunResult(workload, seed, trace, {})
    result.attempted = len(phase.load.sent)
    result.failed = phase.load.failures()
    times, latencies = _phase_latencies(phase)
    throughput = _phase_throughput(phase, workload)
    p99 = windowed(times, latencies, 99, "ms")
    extra = result.extra
    extra["audits_per_s"] = Metric(throughput.value, "1/s", throughput.n)
    extra["failed_share"] = Metric(
        result.failed / max(1, result.attempted), "ratio", result.attempted
    )
    extra["daemon_cpu_share"] = Metric(
        phase.report["cpu_s"] / phase.report["wall_s"], "share"
    )
    if workload == "audit-open":
        lags = [
            (phase.load.sent[o][1] - phase.load.sent[o][0]) * 1000.0
            for o in phase.measured
        ]
        extra["client.gen_lag_p99_ms"] = distribution(lags, 99, "ms")
        if extra["client.gen_lag_p99_ms"].value > workloads.OPEN_LIMIT_MS:
            result.valid = False
            result.notes.append(
                "invalid: the load generator ran later than the "
                f"{workloads.OPEN_LIMIT_MS} ms latency limit"
            )
        extra["latency_limit_met"] = Metric(
            float(p99.value <= workloads.OPEN_LIMIT_MS), "bool", p99.n
        )
    if not trace:
        result.metrics = {
            "ops_per_s": throughput,
            "latency_p50_ms": distribution(latencies, 50, "ms"),
            "latency_p99_ms": p99,
            "setup_s": distribution(setups, 50, "s"),
            "rss_peak_mb": Metric(phase.report["rss_peak_mb"], "MB"),
        }
        return result

    report = phase.report
    summary = report["trace"]
    layer = _layer_metrics(summary)
    sides = report["sides"]
    layer["trace.overhead_share"] = _overhead(
        sides["plain"]["cpu_s"] / max(1, sides["plain"]["orders"]),
        sides["traced"]["cpu_s"] / max(1, sides["traced"]["orders"]),
    )
    flushes = len(report["flush_log"])
    layer["service.flushes"] = flushes
    layer["service.flush_size_mean"] = (
        sides["traced"]["orders"] / max(1, flushes)
    )
    layer["service.busy_share"] = (
        summary["layers"].get("service.dispatch", {}).get("total_s", 0.0)
        / summary["wall_s"]
    )
    # Dispatch-queue wait (client send -> flush start) against the
    # order's whole latency, over the orders of traced flushes.
    load = phase.load
    waits, latencies = [], []
    for start_s, order_ids in report["flush_log"]:
        for order_id in order_ids:
            if order_id in load.done:
                due_s, sent_s, _file_id, _k = load.sent[order_id]
                waits.append((start_s - sent_s) * 1000.0)
                latencies.append((load.done[order_id][0] - due_s) * 1000.0)
    layer["service.queue_wait_share"] = (
        sum(waits) / sum(latencies) if latencies else 0.0
    )
    if waits:
        extra["service.queue_wait_p50_ms"] = distribution(waits, 50, "ms")
        extra["service.queue_wait_p99_ms"] = distribution(waits, 99, "ms")
    _finish_traced(result, layer, summary)
    return result


# -- fleet-contended -------------------------------------------------------


def _run_call(fleet, hours: float):
    """One ``AuditFleet.run``, with the strategy's stamps of this call."""
    fleet.strategy.stamps.clear()
    fleet.strategy.cpu_stamps.clear()
    return fleet.run(hours=hours)


def _fleet_checks(fleet, reports) -> tuple[int, int, list[str]]:
    """Ground truth: every file audited, the violator caught, nobody else."""
    audited = {
        (event.provider, event.file_id)
        for report in reports for event in report.events
    }
    tasks = fleet.tasks()
    notes = []
    failed = sum(
        1 for task in tasks if (task.provider_name, task.file_id) not in audited
    )
    if failed:
        notes.append(f"{failed} files never audited")
    flagged = {
        violation.provider
        for report in reports for violation in report.violations
    }
    if workloads.FLEET_VIOLATOR not in flagged:
        failed += 1
        notes.append("the violating provider was not detected")
    if flagged - {workloads.FLEET_VIOLATOR}:
        failed += 1
        notes.append(f"honest providers flagged: {sorted(flagged)}")
    return len(tasks) + 2, failed, notes


def run_fleet(seed: int, seconds: float, trace: bool,
              spans_path=None) -> RunResult:
    """fleet-contended: ``build_demo_fleet`` then fixed simulated time.

    The simulated hours are drained by :data:`workloads.FLEET_CALLS`
    ``AuditFleet.run`` calls.  A batch runs from its lane dispatch to
    the next dispatch of the same call.  A call's last batch is not
    sampled: its interval would end at the call's return and so include
    the report assembly.

    A batch is timed on the thread's CPU clock.  The fleet is one
    thread that neither sleeps nor does I/O, so a batch's wall time is
    its CPU time plus the time the shared host took the core away; a
    10 ms descheduling doubles a 10 ms batch, and how often that
    happens, not the fleet, then sets the p99.
    """
    hours = workloads.fleet_hours_per_call(seconds)
    result = RunResult("fleet-contended", seed, trace, {})
    if not trace:
        setups = _probe_setups("fleet-contended", seed, seconds,
                               setups_before())
        fleet, own_s = timed_setup("fleet-contended", seed, seconds)
        setups.append(own_s)
        gc.collect()  # set-up garbage is set-up's cost, not the run's
        procstat.reset_rss_peak()
        reports, starts, batch_ms = [], [], []
        wall_s = 0.0
        for _ in range(workloads.FLEET_CALLS):
            start = time.perf_counter()
            reports.append(_run_call(fleet, hours))
            wall_s += time.perf_counter() - start
            starts += fleet.strategy.stamps[:-1]
            cpu = fleet.strategy.cpu_stamps
            batch_ms += [(b - a) * 1000.0 for a, b in zip(cpu, cpu[1:])]
        rss_mb = procstat.rss_peak_mb()
        setups += _probe_setups("fleet-contended", seed, seconds,
                                SETUP_REPEATS - 1 - setups_before())
        result.attempted, result.failed, result.notes = _fleet_checks(
            fleet, reports)
        _fleet_extra(result, reports, hours, wall_s)
        result.metrics = {
            "ops_per_s": Metric(len(reports) * hours / wall_s, "op/s",
                                len(reports)),
            "latency_p50_ms": distribution(batch_ms, 50, "ms"),
            "latency_p99_ms": windowed(starts, batch_ms, 99, "ms"),
            "setup_s": distribution(setups, 50, "s"),
            "rss_peak_mb": Metric(rss_mb, "MB"),
        }
        return result

    fleets = {False: workloads.build_fleet(seed),
              True: workloads.build_fleet(seed)}
    alternation = _alternate(
        workloads.FLEET_CALLS,
        lambda _call, traced: _run_call(fleets[traced], hours))
    plain_reports = alternation.results[False]
    traced_reports = alternation.results[True]
    result.attempted, result.failed, result.notes = _fleet_checks(
        fleets[True], traced_reports)
    # Simulated time is a pure function of the seed: tracing (or any
    # wall-clock effect) must not change a single report field.
    result.attempted += 1
    if plain_reports != traced_reports:
        result.failed += 1
        result.notes.append("traced run's fleet reports differ from the "
                            "untraced run's")
    _fleet_extra(result, traced_reports, hours, sum(alternation.wall_s[True]))
    summary = alternation.summary()
    layer = _layer_metrics(summary)
    layer["trace.overhead_share"] = alternation.overhead()
    layer["fleet.batches"] = sum(r.n_batches for r in traced_reports)
    layer["fleet.audits"] = sum(r.n_audits for r in traced_reports)
    layer["fleet.shed_slots"] = sum(r.n_shed_slots for r in traced_reports)
    utilization = [lane.utilization for r in traced_reports for lane in r.lanes]
    layer["fleet.lane_utilization_mean"] = statistics.fmean(utilization)
    _finish_traced(result, layer, summary, alternation.tracer, spans_path)
    return result


def _fleet_extra(result: RunResult, reports, hours: float,
                 wall_s: float) -> None:
    audits = sum(r.n_audits for r in reports)
    result.extra.update({
        "sim_hours_per_s": Metric(len(reports) * hours / wall_s, "h/s",
                                  len(reports)),
        "audits_per_s": Metric(audits / wall_s, "1/s", audits),
        "failed_share": Metric(result.failed / max(1, result.attempted),
                               "ratio", result.attempted),
        "fleet.shed_slots": Metric(
            sum(r.n_shed_slots for r in reports), "count"),
        "fleet.spindle_wait_ms": Metric(
            sum(r.total_spindle_wait_ms for r in reports), "ms", audits),
    })


# -- outsource-bulk -------------------------------------------------------


@dataclass
class OutsourceSetup:
    session: object
    rng: DeterministicRNG
    inputs: list[tuple[bytes, bytes]]


def _outsource(setup: OutsourceSetup, file_id: bytes, data: bytes):
    # Looked up on the module so the traced run's wrapper applies.
    return core_session.outsource_file(
        file_id=file_id,
        data=data,
        provider=setup.session.provider,
        tpa=setup.session.tpa,
        params=setup.session.params,
        sla=setup.session.sla,
        home_datacentre=setup.session.home_datacentre,
        rng=setup.rng,
    )


def _outsource_setup(seed: int, passes: int) -> OutsourceSetup:
    """Owner, provider and TPA, the seeded inputs, warm encode tables."""
    setup = OutsourceSetup(
        workloads.outsource_session(seed),
        DeterministicRNG(f"perfbench-outsource-keys-{seed}"),
        workloads.outsource_inputs(seed, passes),
    )
    _outsource(setup, b"warm-up", bytes(workloads.OUTSOURCE_WARM_BYTES))
    return setup


def _outsource_all(setup: OutsourceSetup):
    records = []
    file_s = []
    for file_id, data in setup.inputs:
        start = time.perf_counter()
        records.append(_outsource(setup, file_id, data))
        file_s.append(time.perf_counter() - start)
    return records, file_s


def _outsource_checks(setup: OutsourceSetup, records):
    """Every segment's MAC verifies; the smallest file extracts intact."""
    notes = []
    failed = 0
    provider = setup.session.provider
    for record in records:
        encoded = provider.home_of(record.file_id).server.store.file_meta(
            record.file_id)
        oks = mac_verify_many(
            record.keys.mac_key,
            [segment.payload for segment in encoded.segments],
            [segment.tag for segment in encoded.segments],
            record.file_id,
            indices=[segment.index for segment in encoded.segments],
            tag_bits=encoded.params.tag_bits,
        )
        if not all(oks):
            failed += 1
            notes.append(f"{record.file_id!r}: {oks.count(False)} bad MACs")
    smallest = min(range(len(setup.inputs)),
                   key=lambda i: len(setup.inputs[i][1]))
    file_id, data = setup.inputs[smallest]
    record = records[smallest]
    encoded = provider.home_of(file_id).server.store.file_meta(file_id)
    if extract_file(encoded, record.keys) != data:
        failed += 1
        notes.append(f"{file_id!r} does not extract to its input")
    return len(records) + 1, failed, notes


def run_outsource(seed: int, seconds: float, trace: bool,
                  spans_path=None) -> RunResult:
    """outsource-bulk: ``outsource_file`` over the seeded size mix."""
    passes = workloads.outsource_passes(seconds)
    result = RunResult("outsource-bulk", seed, trace, {})
    if not trace:
        setups = _probe_setups("outsource-bulk", seed, seconds,
                               setups_before())
        setup, own_s = timed_setup("outsource-bulk", seed, seconds)
        setups.append(own_s)
        gc.collect()  # set-up garbage is set-up's cost, not the run's
        procstat.reset_rss_peak()
        records, file_s = _outsource_all(setup)
        rss_mb = procstat.rss_peak_mb()
        setups += _probe_setups("outsource-bulk", seed, seconds,
                                SETUP_REPEATS - 1 - setups_before())
    else:
        sides = {False: _outsource_setup(seed, passes),
                 True: _outsource_setup(seed, passes)}
        alternation = _alternate(
            len(sides[True].inputs),
            lambda i, traced: _outsource(sides[traced], *sides[traced].inputs[i]),
        )
        setup = sides[True]
        records = alternation.results[True]
        file_s = alternation.wall_s[True]
    result.attempted, result.failed, result.notes = _outsource_checks(
        setup, records)
    megabytes = sum(len(data) for _f, data in setup.inputs) / 1e6
    result.extra.update({
        "outsource_mb_per_s": Metric(megabytes / sum(file_s), "MB/s",
                                     len(file_s)),
        "failed_share": Metric(result.failed / max(1, result.attempted),
                               "ratio", result.attempted),
    })
    if not trace:
        file_ms = [s * 1000.0 for s in file_s]
        result.metrics = {
            "ops_per_s": Metric(megabytes / sum(file_s), "op/s", len(file_s)),
            "latency_p50_ms": distribution(file_ms, 50, "ms"),
            "latency_p99_ms": distribution(file_ms, 99, "ms"),
            "setup_s": distribution(setups, 50, "s"),
            "rss_peak_mb": Metric(rss_mb, "MB"),
        }
        return result
    summary = alternation.summary()
    layer = _layer_metrics(summary)
    layer["trace.overhead_share"] = alternation.overhead()
    _finish_traced(result, layer, summary, alternation.tracer, spans_path)
    return result


# -- set-up timing --------------------------------------------------------


def timed_setup(workload: str, seed: int, seconds: float):
    """Build an in-process workload's set-up once: ``(set-up, seconds)``."""
    start = time.perf_counter()
    if workload == "fleet-contended":
        built = workloads.build_fleet(seed)
    else:
        built = _outsource_setup(seed, workloads.outsource_passes(seconds))
    return built, time.perf_counter() - start


def setups_before() -> int:
    """Throwaway set-ups that run ahead of the measured one."""
    return (SETUP_REPEATS - 1) // 2


def _daemon_setups(workload: str, seed: int, n: int) -> list[float]:
    """``n`` daemon launches, each closed once its port accepts."""
    times = []
    for _ in range(n):
        daemon = Daemon(workload, seed)
        daemon.close()
        times.append(daemon.setup_s)
    return times


def _probe_setups(workload: str, seed: int, seconds: float,
                  n: int) -> list[float]:
    """``n`` set-up times of an in-process workload, each in a throwaway
    process.

    The measured process then builds only once, so its memory holds
    one set-up, not the leftovers of several.
    """
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# -- traced-run plumbing --------------------------------------------------


def _overhead(plain_cpu_per_op: float, traced_cpu_per_op: float) -> float:
    """Share of traced CPU time per operation that tracing added."""
    return 1.0 - plain_cpu_per_op / traced_cpu_per_op


@dataclass
class Alternation:
    """The same items run untraced and traced, interleaved."""

    tracer: tracing.Tracer
    results: dict[bool, list]
    wall_s: dict[bool, list[float]]
    cpu_s: dict[bool, float]

    def summary(self) -> dict:
        return self.tracer.summary(sum(self.wall_s[True]))

    def overhead(self) -> float:
        return _overhead(self.cpu_s[False], self.cpu_s[True])


def _alternate(n_items: int, step) -> Alternation:
    """Run ``step(i, traced)`` for every item, untraced and traced.

    Item ``i`` runs once on each side, which side first alternating
    from item to item; the wrappers are installed only around the
    traced step.  The shared host drifts between faster and slower
    states, so interleaving is what makes the two sides' CPU times --
    and so the tracing overhead -- comparable.
    """
    tracer = tracing.Tracer()
    alternation = Alternation(
        tracer, {False: [], True: []}, {False: [], True: []},
        {False: 0.0, True: 0.0},
    )
    for index in range(n_items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            installed = tracing.install(tracer) if traced else None
            tracer.tag = index + 1
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            try:
                alternation.results[traced].append(step(index, traced))
            finally:
                alternation.wall_s[traced].append(
                    time.perf_counter() - wall_start)
                alternation.cpu_s[traced] += time.process_time() - cpu_start
                if installed is not None:
                    installed.remove()
    return alternation


def _layer_metrics(summary: dict) -> dict[str, float]:
    layer = tracing.layer_metrics(summary)
    totals = summary["layers"]
    layer["storage.lookups"] = totals.get("storage", {}).get("calls", 0)
    layer["cloud.verifier.audits"] = totals.get(
        "cloud.verifier", {}).get("items", 0)
    calls = items = 0
    for name in ("crypto.schnorr.sign", "crypto.schnorr.verify"):
        calls += totals.get(name, {}).get("calls", 0)
        items += totals.get(name, {}).get("items", 0)
    layer["crypto.schnorr.items_per_call"] = items / calls if calls else 0.0
    return layer


def _finish_traced(result: RunResult, layer: dict, summary: dict,
                   tracer=None, spans_path=None) -> None:
    """Fill the per-layer metrics (zero for layers the workload skips)."""
    result.metrics = {
        name: Metric(float(layer.get(name, 0.0)), unit)
        for name, unit in PER_LAYER.items()
    }
    wall_s = summary["wall_s"]
    for name in tracing.LAYERS:
        totals = summary["layers"].get(name)
        if totals is None:
            continue
        result.layers.append({
            "layer": name,
            "calls": totals["calls"],
            "self_s": totals["self_s"],
            "self_share": totals["self_s"] / wall_s,
            "total_s": totals["total_s"],
        })
    result.not_called = [
        name for name in tracing.LAYERS if name not in summary["layers"]
    ]
    result.extra["trace.wall_s"] = Metric(wall_s, "s")
    result.extra["trace.spans"] = Metric(summary["n_spans"], "count")
    if tracer is not None and spans_path is not None:
        tracer.dump_jsonl(spans_path)


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_path=None) -> RunResult:
    if workload in ("audit-sla", "audit-open"):
        return run_audit(workload, seed, seconds, trace, spans_path)
    if workload == "fleet-contended":
        return run_fleet(seed, seconds, trace, spans_path)
    if workload == "outsource-bulk":
        return run_outsource(seed, seconds, trace, spans_path)
    raise ValueError(f"unknown workload {workload!r}")
