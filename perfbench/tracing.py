"""Span tracing for the benchmark's traced run, installed from outside.

The program under test carries no benchmark hooks.  :func:`install`
swaps wrappers onto the names callers look each layer up by -- class
methods (``AuditDispatcher.process_batch``, ``VerifierDevice.run_audits``,
...) and the functions importing modules bind (``repro.cloud.verifier.
schnorr_sign_many``, ``repro.core.verification.mac_verify_many``, ...)
-- and :meth:`Installed.remove` puts the originals back.

Every layer call on these paths is synchronous, so one span stack
gives each span its parent.  A span's *self time* is its duration
minus the time its child spans cover; summed per layer, self times
partition the time the root spans cover, and the root spans should
cover the traced wall time (the residual is reported as
``trace.unattributed_share``).

Per-round leaf layers (storage lookups, RNG forks, wire decode/encode)
are aggregated only; every other span is also kept in memory, capped
at :data:`MAX_SPANS`, and written out as JSONL when the run ends.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import selectors
import time
from dataclasses import dataclass, field

#: Spans kept for the JSONL dump; aggregates always count every span.
MAX_SPANS = 100_000

#: ``(module, attribute path, layer, keep span)``.  The attribute is
#: looked up on the module: a dotted path names a class method, a bare
#: name a function the module imported (the binding callers resolve).
SEAMS: tuple[tuple[str, str, str, bool], ...] = (
    # service: the daemon's wire and dispatch layers
    ("repro.service.server", "decode_request", "service.decode", False),
    ("repro.service.wire", "VerdictReply.to_wire", "service.encode", False),
    ("repro.service.wire", "ErrorReply.to_wire", "service.encode", False),
    ("repro.service.dispatch", "AuditDispatcher.process_batch",
     "service.dispatch", True),
    # cloud: TPA protocol and verify phases, the verifier's timed phase
    ("repro.cloud.tpa", "ThirdPartyAuditor.audit_deferred_many",
     "cloud.tpa.protocol", True),
    ("repro.cloud.tpa", "ThirdPartyAuditor.audit_deferred",
     "cloud.tpa.protocol", True),
    ("repro.cloud.tpa", "ThirdPartyAuditor.flush_verdicts",
     "cloud.tpa.verify", True),
    ("repro.cloud.verifier", "VerifierDevice.run_audits",
     "cloud.verifier", True),
    ("repro.cloud.verifier", "VerifierDevice.run_audit",
     "cloud.verifier", True),
    # storage: one lookup per challenged round
    ("repro.storage.contract", "InMemoryStorage.lookup", "storage", False),
    ("repro.cloud.provider", "CloudProvider.handle_request", "storage",
     False),
    # core: the TPA's batch verification
    ("repro.cloud.tpa", "verify_transcripts", "core.verification", True),
    # crypto
    ("repro.crypto.rng", "DeterministicRNG.fork_many", "crypto.rng", False),
    ("repro.crypto.rng", "DeterministicRNG.fork", "crypto.rng", False),
    ("repro.cloud.verifier", "schnorr_sign_many", "crypto.schnorr.sign",
     True),
    ("repro.cloud.verifier", "schnorr_sign", "crypto.schnorr.sign", True),
    ("repro.core.verification", "schnorr_verify_many",
     "crypto.schnorr.verify", True),
    ("repro.core.verification", "mac_verify_many", "crypto.mac.verify",
     True),
    ("repro.por.setup", "mac_tag_many", "crypto.mac.tag", True),
    ("repro.por.setup", "aes_ctr_encrypt", "crypto.aes.ctr", True),
    ("repro.crypto.prp", "BlockPermutation.permute_list",
     "crypto.prp.permute", True),
    # data-owner setup
    ("repro.core.session", "outsource_file", "core.session", True),
    ("repro.core.session", "setup_file", "por.setup", True),
    ("repro.erasure.striping", "BlockStriper.encode_blocks",
     "erasure.encode", True),
    # fleet (netsim scheduling runs inside AuditFleet.run)
    ("repro.fleet.fleet", "AuditFleet.run", "fleet", True),
)

#: Layers the benchmark reports, in table order.  ``service.loop`` is
#: asyncio callback time outside any named layer (socket reads and
#: writes, framing, task switches); ``service.idle`` is time blocked in
#: the selector waiting for work.
LAYERS: tuple[str, ...] = (
    "service.idle",
    "service.loop",
    "service.decode",
    "service.encode",
    "service.dispatch",
    "cloud.tpa.protocol",
    "cloud.tpa.verify",
    "cloud.verifier",
    "storage",
    "core.verification",
    "crypto.rng",
    "crypto.schnorr.sign",
    "crypto.schnorr.verify",
    "crypto.mac.verify",
    "crypto.mac.tag",
    "crypto.aes.ctr",
    "crypto.prp.permute",
    "erasure.encode",
    "por.setup",
    "core.session",
    "fleet",
)

#: Items passed per call, counted for these layers (first list argument).
ITEM_COUNTED = frozenset(
    {"cloud.verifier", "crypto.schnorr.sign", "crypto.schnorr.verify"}
)


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


@dataclass
class Tracer:
    """A span stack with per-layer aggregates and a bounded span log."""

    clock: object = time.perf_counter
    #: Read by :class:`TimedSelector` only: wrappers record whenever
    #: they are installed.
    active: bool = True
    layers: dict[str, LayerTotals] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    n_dropped: int = 0
    root_s: float = 0.0
    #: Identifier shared by the spans of one flush / run call / file.
    tag: int = 0
    _stack: list = field(default_factory=list)

    def reset(self) -> None:
        """Forget everything recorded so far (start of a window)."""
        for frame in self._stack:  # spans still open are not kept
            frame[1] = -1
        self.layers = {}
        self.spans = []
        self.n_dropped = 0
        self.root_s = 0.0

    def enter(self, layer: str, keep: bool = True, items: int = 0) -> None:
        index = -1
        if keep:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)
            else:
                self.n_dropped += 1
        self._stack.append([layer, index, self.clock(), 0.0, items])

    def exit(self) -> None:
        end = self.clock()
        layer, index, start, child_s, items = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_index = parent[1]
        else:
            self.root_s += duration
            parent_index = -1
        totals = self.layers.get(layer)
        if totals is None:
            totals = self.layers[layer] = LayerTotals()
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - child_s
        totals.items += items
        if index >= 0:
            self.spans[index] = (
                layer, start, duration, duration - child_s, parent_index,
                self.tag,
            )

    def summary(self, wall_s: float) -> dict:
        """Per-layer totals plus coverage of ``wall_s``, JSON-ready."""
        return {
            "wall_s": wall_s,
            "root_s": self.root_s,
            "n_spans": len(self.spans),
            "n_dropped": self.n_dropped,
            "layers": {
                name: {
                    "calls": totals.calls,
                    "total_s": totals.total_s,
                    "self_s": totals.self_s,
                    "items": totals.items,
                }
                for name, totals in self.layers.items()
            },
        }

    def dump_jsonl(self, path) -> None:
        """Write every kept span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, span in enumerate(self.spans):
                if span is None:  # still open when the window closed
                    continue
                layer, start, duration, self_s, parent, tag = span
                out.write(json.dumps({
                    "id": span_id,
                    "name": layer,
                    "start_s": start,
                    "dur_s": duration,
                    "self_s": self_s,
                    "parent": parent,
                    "tag": tag,
                }) + "\n")


def _wrapper(tracer: Tracer, original, layer: str, keep: bool):
    count_items = layer in ITEM_COUNTED

    @functools.wraps(original)
    def traced(*args, **kwargs):
        items = 0
        if count_items:
            for arg in args:
                if isinstance(arg, (list, tuple)):
                    items = len(arg)
                    break
            else:
                items = 1
        tracer.enter(layer, keep, items)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


_UNSET = object()


@dataclass
class Installed:
    """Wrappers currently swapped in; :meth:`remove` restores them."""

    patches: list = field(default_factory=list)

    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name``; an instance attribute is deleted on remove."""
        self.patches.append((owner, name, owner.__dict__.get(name, _UNSET)))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self.patches:
            owner, name, original = self.patches.pop()
            if original is _UNSET:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every seam so calls through it record spans on ``tracer``."""
    installed = Installed()
    for module_name, path, layer, keep in SEAMS:
        owner = importlib.import_module(module_name)
        *owners, name = path.split(".")
        for attribute in owners:
            owner = getattr(owner, attribute)
        original = owner.__dict__[name]
        installed.patch(owner, name, _wrapper(tracer, original, layer, keep))
    return installed


def install_event_loop_spans(tracer: Tracer, installed: Installed) -> None:
    """Attribute every asyncio callback to ``service.loop``.

    Every ready callback -- task steps, socket read/write readiness,
    timers -- runs through ``asyncio.Handle._run``; wrapping it makes
    each callback a root span, so daemon time outside the named layers
    is still measured rather than inferred.
    """
    original = asyncio.Handle.__dict__["_run"]

    def _run(handle):
        tracer.enter("service.loop", True)
        try:
            return original(handle)
        finally:
            tracer.exit()

    installed.patch(asyncio.Handle, "_run", _run)


class TimedSelector(selectors.DefaultSelector):
    """The default selector, with time blocked in ``select`` traced.

    Passed to :class:`asyncio.SelectorEventLoop`; a no-op pass-through
    while the tracer is inactive.
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        tracer = self._tracer
        if not tracer.active:
            return super().select(timeout)
        tracer.enter("service.idle", False)
        try:
            return super().select(timeout)
        finally:
            tracer.exit()


def layer_metrics(summary: dict) -> dict[str, float]:
    """Self-time share of the traced wall time for every reported layer."""
    wall_s = summary["wall_s"]
    layers = summary["layers"]
    metrics = {}
    for name in LAYERS:
        self_s = layers.get(name, {}).get("self_s", 0.0)
        metrics[f"{name}.self_share"] = self_s / wall_s if wall_s > 0 else 0.0
    metrics["trace.unattributed_share"] = (
        1.0 - summary["root_s"] / wall_s if wall_s > 0 else 0.0
    )
    return metrics
