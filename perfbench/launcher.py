"""Daemon side of the audit workloads: build, mount, serve, report.

Run by ``run.py`` as its own process, so the load generator and the
daemon never share an interpreter lock::

    python3 perfbench/launcher.py --workload audit-sla --seed 1 \
        [--traced --spans PATH]

It builds the workload's deployment from the seed (outsourcing every
file, warming the Schnorr tables), mounts :class:`AuditDaemon` with
its default ``flush_batch``/``flush_ms``/``queue_limit``, and prints
one JSON line ``{"event": "ready", "port": ...}`` once the port
accepts.  Then it takes one-line commands on stdin, answering each
with one JSON line on stdout:

``window``
    start a measurement window (CPU time, dispatcher counters and, if
    traced, the span aggregates all restart);
``trace``
    make the next window a traced one, which switches the tracing
    wrappers on and off every :data:`TOGGLE_S` (``--traced`` only);
``report``
    close the window and report it.

End of stdin stops the daemon cleanly; the launcher writes its kept
spans to ``--spans`` and prints ``{"event": "exit"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.service import AuditDaemon  # noqa: E402

import procstat  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


#: Seconds between switching tracing on and off in a traced window.
TOGGLE_S = 0.5


class Window:
    """One measurement window of the daemon.

    After the ``trace`` command, a window alternates: tracing on for
    :data:`TOGGLE_S`, off for as long, and so on.  CPU time and orders
    are summed per side, so the tracing overhead is measured on
    interleaved stretches of the same load while the shared host drifts
    between faster and slower states.  Switches happen between event
    loop callbacks, so every flush runs wholly traced or untraced.
    """

    def __init__(self, daemon: AuditDaemon, tracer: tracing.Tracer | None):
        self.daemon = daemon
        self.tracer = tracer
        self.traced = False
        self.installed: tracing.Installed | None = None
        self.toggler: asyncio.Task | None = None
        #: ``(start_s, [order ids])`` per traced flush: joined with the
        #: client's send times into dispatch-queue waits.
        self.flushes: list[tuple[float, list[int]]] = []
        self.start()

    def _mark(self) -> tuple[float, float, int]:
        return (time.perf_counter(), time.process_time(),
                self.daemon.stats.n_orders)

    def start(self) -> None:
        if self.toggler is not None:
            self.toggler.cancel()
            self.toggler = None
        if self.installed is not None:
            self.installed.remove()
            self.installed = None
        stats = self.daemon.stats
        self.first = self._mark()
        self.errors0 = stats.n_errors
        self.flushes0 = stats.n_flushes
        self.flushes = []
        #: per side (traced?): [wall_s, cpu_s, orders]
        self.sides = {False: [0.0, 0.0, 0], True: [0.0, 0.0, 0]}
        self.last = self.first
        procstat.reset_rss_peak()  # the window reports its own peak
        if self.traced:
            self.tracer.reset()
            self.toggler = asyncio.create_task(self._toggle())

    async def _toggle(self) -> None:
        while True:
            self._switch(True)
            await asyncio.sleep(TOGGLE_S)
            self._switch(False)
            await asyncio.sleep(TOGGLE_S)

    def _switch(self, on: bool) -> None:
        """Close the current side's accounting, then turn tracing on/off."""
        now = self._mark()
        side = self.sides[self.installed is not None]
        for i, value in enumerate(now):
            side[i] += value - self.last[i]
        self.last = now
        if on and self.installed is None:
            self.installed = self._install()
        elif not on and self.installed is not None:
            self.installed.remove()
            self.installed = None
        self.tracer.active = on

    def _install(self) -> tracing.Installed:
        tracer = self.tracer
        installed = tracing.install(tracer)
        tracing.install_event_loop_spans(tracer, installed)
        dispatcher = self.daemon.dispatcher
        process_batch = dispatcher.process_batch  # the traced class method

        def tagged(orders):
            # Spans of one flush share its sequence number.
            tracer.tag += 1
            self.flushes.append(
                (time.perf_counter(), [order.order_id for order in orders])
            )
            try:
                return process_batch(orders)
            finally:
                tracer.tag = 0

        installed.patch(dispatcher, "process_batch", tagged)
        return installed

    async def report(self) -> dict:
        if self.toggler is not None:
            self.toggler.cancel()
            try:
                await self.toggler
            except asyncio.CancelledError:
                pass
            self.toggler = None
            self._switch(False)
        now = self._mark()
        stats = self.daemon.stats
        payload = {
            "event": "report",
            "wall_s": now[0] - self.first[0],
            "cpu_s": now[1] - self.first[1],
            "orders": now[2] - self.first[2],
            "errors": stats.n_errors - self.errors0,
            "flushes": stats.n_flushes - self.flushes0,
            "rss_peak_mb": procstat.rss_peak_mb(),
        }
        if self.traced:
            payload["sides"] = {
                name: dict(zip(("wall_s", "cpu_s", "orders"), self.sides[on]))
                for name, on in (("plain", False), ("traced", True))
            }
            payload["trace"] = self.tracer.summary(self.sides[True][0])
            payload["flush_log"] = self.flushes
        return payload


async def serve(daemon: AuditDaemon, tracer, spans_path) -> None:
    await daemon.start()
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    emit({"event": "ready", "port": daemon.port})
    window = Window(daemon, tracer)
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            command = line.decode().strip()
            if command == "window":
                window.start()
                emit({"event": "window"})
            elif command == "trace" and tracer is not None:
                window.traced = True
                emit({"event": "trace"})
            elif command == "report":
                emit(await window.report())
            else:
                emit({"event": "error", "message": f"bad command {command!r}"})
    finally:
        if window.toggler is not None:
            await window.report()
        await daemon.stop()
    if tracer is not None and spans_path:
        tracer.dump_jsonl(spans_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit-sla", "audit-open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    deployment = workloads.audit_deployment(args.workload, args.seed)
    workloads.warm_signing_tables(deployment.session)
    gc.collect()  # outsourcing's garbage belongs to set-up, not the run
    daemon = AuditDaemon(
        tpa=deployment.session.tpa,
        verifier=deployment.session.verifier,
        provider=deployment.provider,
    )
    tracer = None
    if args.traced:
        tracer = tracing.Tracer(active=False)
        loop = asyncio.SelectorEventLoop(tracing.TimedSelector(tracer))
    else:
        loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(serve(daemon, tracer, args.spans))
    finally:
        loop.close()
    emit({"event": "exit"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
