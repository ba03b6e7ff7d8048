"""An exchange server run on a thread, for tests that talk to it over a socket."""

from __future__ import annotations

import threading


def serve_in_thread(server) -> threading.Thread:
    """Run `server.serve_forever` on a daemon thread. It looks for a
    `shutdown()` every 0.05 s, so a test's teardown does not wait out
    socketserver's default half-second poll."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return thread
