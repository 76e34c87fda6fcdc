"""Seeded inputs and ground truth for the four benchmark workloads.

Everything a run feeds the program is derived here from ``--seed``:
the daemon's deployment (files, which of them are rotted), the order
streams, the fleet and the outsourcing file mix.  The program only
ever receives these generated inputs.  ``README.md`` in this
directory says why each workload exists.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.session import GeoProofSession
from repro.core.verification import GeoProofVerdict
from repro.crypto.rng import DeterministicRNG
from repro.crypto.schnorr import schnorr_sign_many, schnorr_verify_many
from repro.fleet.demo import build_demo_fleet, rot_at_rest
from repro.fleet.strategies import WorkStealingStrategy
from repro.geo.coords import GeoPoint
from repro.por.parameters import PAPER_PARAMS
from repro.storage.contract import InMemoryStorage

HOME = GeoPoint(-27.4698, 153.0251, "Brisbane")

# -- audit daemon workloads ---------------------------------------------

#: Files behind the daemon, each this many bytes before encoding.
N_AUDIT_FILES = 4
AUDIT_FILE_BYTES = 64 * 1024
#: SLA default challenge rounds; an order with ``k=0`` uses it.
SLA_ROUNDS = 50
#: Audit-log ring size: a long-running daemon must not grow its log.
TPA_MAX_LOG = 1024

#: audit-sla: orders kept in flight by the closed-loop client.  Four
#: times ``flush_batch`` so every flush is full.
SLA_WINDOW = 256

#: audit-open: Poisson arrival rate (orders/s).  The daemon process is
#: about half busy at this rate on a 2-core host (see README.md).
OPEN_RATE_PER_S = 300.0
#: audit-open: k drawn from this mix (rounds, weight).
OPEN_K_MIX = ((1, 0.7), (5, 0.2), (50, 0.1))
#: audit-open: latency limit on p99; a generator running later than
#: this makes the run invalid.
OPEN_LIMIT_MS = 100.0
#: audit-open: files 0..2 honest, the last one rotted at rest.
OPEN_ROTTED = (N_AUDIT_FILES - 1,)

HONEST = "honest"
ROTTED = "rotted"


@dataclass
class AuditDeployment:
    """What the daemon mounts: the session and the storage it serves."""

    session: GeoProofSession
    provider: object


def audit_file_ids() -> list[bytes]:
    return [f"file-{i}".encode() for i in range(N_AUDIT_FILES)]


def audit_truth(workload: str) -> dict[bytes, str]:
    """Ground truth per file: what every verdict must agree with."""
    truth = {file_id: HONEST for file_id in audit_file_ids()}
    if workload == "audit-open":
        for i in OPEN_ROTTED:
            truth[audit_file_ids()[i]] = ROTTED
    return truth


def audit_deployment(workload: str, seed: int) -> AuditDeployment:
    """Build the daemon's deployment for ``audit-sla`` or ``audit-open``.

    ``PAPER_PARAMS``, the default 1024-bit Schnorr group, an SLA of
    :data:`SLA_ROUNDS` rounds.  audit-sla serves from
    :class:`InMemoryStorage`; audit-open from the session's
    :class:`CloudProvider` over its simulated HDD, with some files
    rotted at rest.
    """
    session = GeoProofSession.build(
        datacentre_location=HOME,
        params=PAPER_PARAMS,
        min_rounds=SLA_ROUNDS,
        seed=f"perfbench-{workload}-{seed}",
        tpa_max_log=TPA_MAX_LOG,
    )
    data_rng = DeterministicRNG(f"perfbench-data-{seed}")
    file_ids = audit_file_ids()
    for i, file_id in enumerate(file_ids):
        session.outsource(
            file_id, data_rng.fork(str(i)).random_bytes(AUDIT_FILE_BYTES)
        )
    truth = audit_truth(workload)
    if workload == "audit-sla":
        provider = InMemoryStorage("perfbench-ram")
        for file_id in file_ids:
            provider.put_file(
                session.provider.home_of(file_id).server.store.file_meta(
                    file_id
                )
            )
    elif workload == "audit-open":
        provider = session.provider
        for file_id, state in truth.items():
            if state == ROTTED:
                rot_at_rest(
                    provider, file_id, fraction=1.0,
                    seed=f"perfbench-rot-{seed}",
                )
    else:
        raise ValueError(f"not a daemon workload: {workload}")
    return AuditDeployment(session, provider)


def warm_signing_tables(session: GeoProofSession) -> None:
    """Build the fixed-base tables signing and batch verify use."""
    keypair = session.verifier.keypair
    messages = [b"perfbench-warm-1", b"perfbench-warm-2"]
    signatures = schnorr_sign_many(keypair.private, messages)
    if not all(schnorr_verify_many(keypair.public, messages, signatures)):
        raise RuntimeError("warm-up signatures did not verify")


def verdict_matches(truth: str, rounds: int, verdict: GeoProofVerdict) -> bool:
    """Does ``verdict`` agree with the file's ground truth?

    Honest: accepted with every check true.  Rotted at fraction 1.0:
    rejected for ``mac`` only, and every challenged index -- ``rounds``
    distinct ones -- listed in ``bad_mac_indices``.
    """
    if truth == HONEST:
        return (
            verdict.accepted
            and verdict.signature_ok
            and verdict.position_ok
            and verdict.macs_ok
            and verdict.timing_ok
            and verdict.challenge_ok
            and not verdict.bad_mac_indices
        )
    return (
        not verdict.accepted
        and verdict.failure_reasons == ["mac"]
        and len(set(verdict.bad_mac_indices)) == rounds
    )


def sla_orders(seed: int):
    """Endless audit-sla order stream: ``(file_id, k=0)``, files seeded."""
    rng = random.Random(f"perfbench-sla-{seed}")
    file_ids = audit_file_ids()
    while True:
        yield file_ids[rng.randrange(len(file_ids))], 0


def open_schedule(seed: int, label: str, seconds: float):
    """Poisson arrivals for ``seconds``: ``[(due_s, file_id, k), ...]``."""
    rng = random.Random(f"perfbench-open-{label}-{seed}")
    file_ids = audit_file_ids()
    ks = [k for k, _weight in OPEN_K_MIX]
    weights = [weight for _k, weight in OPEN_K_MIX]
    schedule = []
    due_s = 0.0
    while True:
        due_s += rng.expovariate(OPEN_RATE_PER_S)
        if due_s >= seconds:
            return schedule
        schedule.append((
            due_s,
            file_ids[rng.randrange(len(file_ids))],
            rng.choices(ks, weights)[0],
        ))


def effective_rounds(k: int) -> int:
    return k if k else SLA_ROUNDS


# -- fleet-contended ----------------------------------------------------

FLEET_FILES = 150
FLEET_PROVIDERS = 3
FLEET_BATCH = 8
#: Slot length.  One 8-audit batch takes about 1.1 simulated seconds,
#: so a 0.9 s slot makes every lane overrun: its queue fills to
#: ``lane_queue_limit`` and it sheds slots from then on.
FLEET_SLOT_MINUTES = 0.015
#: Simulated hours per requested second: sized so a run takes about
#: ``--seconds`` on the 2-core reference host.  The work is fixed by
#: seed and seconds, so a traced run's two fleets replay it exactly.
FLEET_HOURS_PER_S = 0.01
#: The simulated hours are drained by this many ``AuditFleet.run``
#: calls, each a few hundred slots long, so queues build within a call.
FLEET_CALLS = 4
#: The violating (corrupting) provider: ``build_demo_fleet`` onboards
#: it last.
FLEET_VIOLATOR = f"provider-{FLEET_PROVIDERS}"


class TimedWorkStealing(WorkStealingStrategy):
    """Work stealing that stamps every lane dispatch.

    The event engine asks the strategy to rank a lane's tasks once per
    batch, so consecutive stamps bound one batch.  ``stamps`` holds the
    wall clock, which places a batch in the run; ``cpu_stamps`` holds
    the thread's CPU clock, which times it.  The benchmark injects this
    strategy; the fleet itself is unchanged.
    """

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []
        self.cpu_stamps: list[float] = []

    def rank_lane(self, *args, **kwargs):
        self.stamps.append(time.perf_counter())
        self.cpu_stamps.append(time.thread_time())
        return super().rank_lane(*args, **kwargs)


def build_fleet(seed: int):
    return build_demo_fleet(
        n_files=FLEET_FILES,
        n_providers=FLEET_PROVIDERS,
        strategy=TimedWorkStealing(),
        seed=f"perfbench-fleet-{seed}",
        violation="corrupt",
        batch_size=FLEET_BATCH,
        slot_minutes=FLEET_SLOT_MINUTES,
        engine="event",
        replicas=2,
        spindles=1,
    )


def fleet_hours_per_call(seconds: float) -> float:
    return seconds * FLEET_HOURS_PER_S / FLEET_CALLS


# -- outsource-bulk -----------------------------------------------------

#: One pass outsources one file of each size; the seed sets the bytes
#: and the order.  Sizes are fixed so per-file latency percentiles
#: compare across seeds.  The three middle files make the median a
#: median of three files, not the time of a single one.
OUTSOURCE_SIZES = (64 << 10, 256 << 10, 256 << 10, 256 << 10, 1 << 20)
#: Requested seconds per pass (one pass is about 17 s of work on the
#: 2-core reference host).
OUTSOURCE_PASS_S = 20.0
#: Bytes of the warm-up file each set-up outsources (builds RS tables).
OUTSOURCE_WARM_BYTES = 4 << 10


def outsource_passes(seconds: float) -> int:
    return max(1, round(seconds / OUTSOURCE_PASS_S))


def outsource_inputs(seed: int, passes: int) -> list[tuple[bytes, bytes]]:
    """``[(file_id, data), ...]`` for ``passes`` passes of the size mix."""
    order_rng = random.Random(f"perfbench-outsource-{seed}")
    data_rng = DeterministicRNG(f"perfbench-outsource-data-{seed}")
    inputs = []
    for p in range(passes):
        sizes = list(OUTSOURCE_SIZES)
        order_rng.shuffle(sizes)
        for i, size in enumerate(sizes):
            label = f"bulk-{p}-{i}"
            inputs.append(
                (label.encode(), data_rng.fork(label).random_bytes(size))
            )
    return inputs


def outsource_session(seed: int) -> GeoProofSession:
    return GeoProofSession.build(
        datacentre_location=HOME,
        params=PAPER_PARAMS,
        seed=f"perfbench-outsource-{seed}",
    )
