"""The worker pool's IPC transport: pickled messages over a pipe.

Every request and response crosses a ``multiprocessing`` pipe as one
pickled message. ``REPRO_TRANSPORT`` names the transport for tools that
record or gate on it; ``pipe`` is the only value.
"""

from __future__ import annotations

import os

__all__ = ["TRANSPORT_ENV", "resolve_transport"]

TRANSPORT_ENV = "REPRO_TRANSPORT"


def resolve_transport() -> str:
    """Validate ``REPRO_TRANSPORT``: ``"pipe"`` when unset or ``pipe``.

    Raises:
        ValueError: for any other value (``shm`` included).
    """
    transport = os.environ.get(TRANSPORT_ENV, "").strip().lower() or "pipe"
    if transport != "pipe":
        raise ValueError(
            f"unknown transport {transport!r}; the worker pool only "
            "speaks 'pipe'"
        )
    return transport
