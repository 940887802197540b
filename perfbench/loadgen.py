"""Open-loop HTTP load generator over keep-alive ``http.client`` connections.

Requests carry a *due* time and a connection index.  Each connection is
owned by one thread (the calling thread is one of them), which sends its
own requests in due order, each no earlier than its due time.  Latency
is timed from the due time, so a stall also charges the requests queued
behind it.  *Lateness* is the generator's own delay: how long after the
later of (due time, connection free) the request actually went out.

Requests are pinned to connections by the caller, so each connection's
request spacing is the one the schedule gives it, not the one thread
scheduling happens to produce.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from typing import List


@dataclass
class Request:
    due: float            # perf_counter() time the request is due
    path: str
    kind: str             # caller's tag: "read", "warmup", "scrape"
    conn: int = 0         # connection (and thread) that sends it
    text: str = ""        # caller's label (the scenario asked for)
    # Filled in by the generator:
    sent: float = 0.0
    done: float = 0.0
    late: float = 0.0
    status: int = 0       # HTTP status, or -1 when no response came
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent


class LoadGenerator:
    def __init__(self, host: str, port: int, connections: int,
                 timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conns = [self._connect() for _ in range(connections)]
        self._lock = threading.Lock()

    @property
    def connections(self) -> int:
        return len(self._conns)

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def _send(self, index: int, request: Request) -> None:
        conn = self._conns[index]
        request.sent = time.perf_counter()
        try:
            conn.request("GET", request.path)
            response = conn.getresponse()
            request.body = response.read()
            request.status = response.status
        except Exception as error:  # every request ends with an outcome
            request.status = -1
            request.error = "%s: %s" % (type(error).__name__, error)
            conn.close()
            self._conns[index] = self._connect()
        request.done = time.perf_counter()

    def _worker(self, index: int, queue: List[Request],
                completed: List[Request]) -> None:
        free_since = time.perf_counter()
        for request in sorted(queue, key=lambda r: r.due):
            wait = request.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            self._send(index, request)
            request.late = max(0.0, request.sent - max(request.due, free_since))
            free_since = request.done
            with self._lock:
                completed.append(request)

    def run(self, requests: List[Request]) -> List[Request]:
        """Send ``requests``; return the ones that completed (all of them
        unless a connection's thread is still stuck after the join
        timeout, so callers count the shortfall as failed)."""
        queues: List[List[Request]] = [[] for _ in self._conns]
        for request in requests:
            queues[request.conn % len(queues)].append(request)
        completed: List[Request] = []
        threads = [
            threading.Thread(target=self._worker,
                             args=(i, queues[i], completed),
                             name="loadgen-%d" % i, daemon=True)
            for i in range(1, len(queues))
        ]
        for thread in threads:
            thread.start()
        self._worker(0, queues[0], completed)
        for thread in threads:
            thread.join(timeout=120.0)
        with self._lock:
            return list(completed)
