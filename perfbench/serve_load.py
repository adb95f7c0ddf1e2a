"""Closed-loop HTTP clients for the serve_mixed workload.

Each client owns one keep-alive connection and sends its next request only
when the previous response has been read in full, so a slow server receives
less load (a closed loop).  Clients run on threads of the benchmark process;
the server is another process, so the two never share an interpreter lock.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, List, Optional

_PATHS = {"run": "/run", "sweep": "/sweep"}


class Exchange:
    """One request and what came back."""

    __slots__ = ("request", "status", "body", "seconds", "first_row", "finished")

    def __init__(self, request: dict) -> None:
        self.request = request
        self.status = 0
        self.body = b""
        self.seconds = 0.0
        self.first_row: Optional[float] = None
        self.finished = 0.0


class Client:
    """One keep-alive connection to the service."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def send(self, request: dict) -> Exchange:
        exchange = Exchange(request)
        began = time.perf_counter()
        try:
            if request["kind"] == "scenarios":
                self.conn.request("GET", "/scenarios")
            else:
                self.conn.request(
                    "POST",
                    _PATHS[request["kind"]],
                    json.dumps(request["body"]).encode(),
                    {"Content-Type": "application/json"},
                )
            response = self.conn.getresponse()
            if request["kind"] == "sweep":
                first = response.readline()
                exchange.first_row = time.perf_counter() - began
                exchange.body = first + response.read()
            else:
                exchange.body = response.read()
            exchange.status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
        exchange.finished = time.perf_counter()
        exchange.seconds = exchange.finished - began
        return exchange

    def get_json(self, path: str) -> object:
        self.conn.request("GET", path)
        return json.loads(self.conn.getresponse().read())

    def close(self) -> None:
        self.conn.close()


def closed_loop(
    port: int,
    clients: int,
    blocks: Callable[[int, int], List[dict]],
    seconds: Optional[float] = None,
    block_count: Optional[int] = None,
) -> tuple:
    """Run ``clients`` closed loops over their request blocks.

    Each client sends whole blocks (``blocks(client, index)``) until
    ``seconds`` have passed or it has sent ``block_count`` blocks.  Returns
    the exchanges, the time of the first send and the wall time from then
    to the last reply.
    """
    results: List[List[Exchange]] = [[] for _ in range(clients)]
    finished = [0.0] * clients
    start = time.perf_counter()

    def loop(client: int) -> None:
        connection = Client(port)
        try:
            index = 0
            while True:
                for request in blocks(client, index):
                    results[client].append(connection.send(request))
                index += 1
                if block_count is not None and index >= block_count:
                    break
                if seconds is not None and time.perf_counter() - start >= seconds:
                    break
        finally:
            finished[client] = time.perf_counter()
            connection.close()

    threads = [threading.Thread(target=loop, args=(client,)) for client in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    exchanges = [exchange for per_client in results for exchange in per_client]
    return exchanges, start, max(finished) - start


def response_rows(exchange: Exchange) -> Optional[List[list]]:
    """The rows of a ``/run`` or ``/sweep`` response, ``None`` if malformed.

    A sweep's rows count only when its stream ends with the trailer that
    marks it complete.
    """
    try:
        if exchange.request["kind"] == "run":
            reports = [json.loads(exchange.body)]
        else:
            lines = [json.loads(line) for line in exchange.body.splitlines() if line]
            trailer = lines.pop() if lines else {}
            if trailer != {"sweep_complete": True, "rows": len(lines)}:
                return None
            reports = lines
        return [
            [
                [row["label"], row["count"], row["satisfiable"], row["valid"], row["holds_at_focus"]]
                for row in report["rows"]
            ]
            for report in reports
        ]
    except (ValueError, KeyError, TypeError):
        return None
