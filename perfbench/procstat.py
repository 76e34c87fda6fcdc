"""Peak resident memory of the current process, resettable (Linux).

``rss_peak_mb`` is the kernel's high-water mark of resident memory
(``VmHWM``).  Writing ``5`` to ``/proc/self/clear_refs`` resets that
mark to the current footprint, so a measured phase reports its own
peak rather than one left behind by set-up.  Where ``/proc`` is not
available, the lifetime peak from ``getrusage`` is used instead.
"""

from __future__ import annotations

import resource


def reset_rss_peak() -> None:
    """Start a new high-water mark at the current footprint."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def rss_peak_mb() -> float:
    """Peak resident memory since the last reset, in MB (MiB)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
