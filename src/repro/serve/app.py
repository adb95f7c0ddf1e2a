"""The asyncio HTTP transport of the evaluation service.

``repro serve`` boots one :class:`ServeApp`: a stdlib-only HTTP/1.1 server
(:func:`asyncio.start_server`, hand-rolled request framing — the container
deliberately has no web framework) in front of the handlers in
:mod:`repro.serve.handlers`.  What makes it worth serving at all is what
stays resident between requests: the scenario registry, one
:class:`~repro.experiments.runner.ExperimentRunner` whose instance and
evaluator caches survive across requests, and (optionally) an open
:class:`~repro.experiments.store.ResultStore` — so a warm repeated request
costs a cache lookup instead of an interpreter boot, imports, and a model
build.

Framing rules:

- JSON endpoints answer with ``Content-Length`` and keep the connection
  alive (HTTP/1.1 default), so load drivers can reuse connections.
- ``POST /sweep`` streams NDJSON with ``Connection: close`` — end of body
  is end of stream — and every line is written (and drained) atomically,
  so a shutdown or disconnect truncates between lines, never inside one.

Model checks run on a thread pool; the event loop only parses, validates,
coalesces and frames, so ``/healthz`` keeps answering while sweeps stream.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from repro.errors import ReproError, StoreError
from repro.experiments.runner import ExperimentRunner
from repro.serve import handlers
from repro.serve.handlers import ServeState
from repro.serve.schema import ServeRequestError

__all__ = ["ServeApp", "ServerThread", "run_server"]

_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 100
_MAX_BODY = 16 * 1024 * 1024
_DRAIN_BYTES = 1024 * 1024
_DRAIN_SECONDS = 1.0


class _HttpError(Exception):
    """A transport-level refusal (bad framing, bad route, bad method)."""

    def __init__(self, status: int, message: str, error_type: str = "http_error"):
        super().__init__(message)
        self.status = status
        self.error_type = error_type


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line of the request head; an over-long line is a 400."""
    try:
        line = await reader.readline()
    except ValueError:  # past the reader's own limit
        raise _HttpError(400, f"{what} too long") from None
    if len(line) > _MAX_HEADER_LINE:
        raise _HttpError(400, f"{what} too long")
    return line


async def _drain(reader: asyncio.StreamReader) -> None:
    """Read and drop what the client still sends, up to ``_DRAIN_BYTES``."""
    left = _DRAIN_BYTES
    while left > 0:
        chunk = await reader.read(min(left, 64 * 1024))
        if not chunk:
            return
        left -= len(chunk)


async def _close_after_refusal(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drain the unread request before the socket closes.

    Closing a socket with input still unread makes the kernel send a reset,
    which can destroy the refusal the client has not read yet.  The drain is
    bounded in bytes and time, so a client that keeps sending cannot hold
    the connection open.
    """
    if writer.can_write_eof():
        writer.write_eof()
    try:
        await asyncio.wait_for(_drain(reader), _DRAIN_SECONDS)
    except (asyncio.TimeoutError, ConnectionError):
        pass


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response_head(
    status: int, content_type: str, extra: Tuple[str, ...] = ()
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    lines.extend(extra)
    return ("\r\n".join(lines) + "\r\n").encode("ascii")


class ServeApp:
    """One long-lived evaluation service instance.

    ``await start()`` binds the socket (``port=0`` picks an ephemeral port,
    readable from :attr:`port` afterwards), ``await stop()`` shuts down
    gracefully: no new connections, in-flight sweep producers are told to
    stop at the next line boundary, the executor drains, the store closes.

    The constructor builds nothing; the runner, executor and (optional)
    store come to life in :meth:`start` so a constructed-but-never-started
    app owns no resources.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_path: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.store_path = store_path
        self.max_workers = max_workers
        self.state: Optional[ServeState] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set["asyncio.Task[None]"] = set()
        self._store = None

    async def start(self) -> None:
        """Bind the socket, open the store, build the resident state, serve.

        The bind comes first, so an address that cannot be bound raises a
        :class:`~repro.errors.ReproError` before any store file is created.
        """
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port, start_serving=False
            )
        except (OSError, OverflowError) as error:
            raise ReproError(f"cannot listen on {self.host}:{self.port}: {error}") from None
        self.port = self._server.sockets[0].getsockname()[1]
        try:
            if self.store_path is not None:
                from repro.experiments.store import ResultStore

                self._store = ResultStore(self.store_path)
            runner = ExperimentRunner(store=self._store, resume=self._store is not None)
            executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-serve"
            )
            self.state = ServeState(runner=runner, executor=executor)
        except BaseException:
            await self.stop()
            raise
        await self._server.start_serving()

    async def stop(self) -> None:
        """Graceful shutdown: close the listener, stop streams, drain, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.state is not None:
            # Sweep producers check this between grid points; the NDJSON
            # streams they feed end at a line boundary without a trailer.
            self.state.shutdown.set()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self.state is not None:
            # In-flight evaluations are not interruptible; wait them out so
            # the store is still open when they try to persist.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.state.executor.shutdown(wait=True, cancel_futures=True)
            )
        if self._store is not None:
            self._store.close()
            self._store = None

    async def serve_forever(self) -> None:
        """Block until the server task is cancelled (then stop gracefully)."""
        assert self._server is not None, "call start() first"
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            raise
        finally:
            await self.stop()

    # -- connection handling ---------------------------------------------------

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    await self._write_json(
                        writer,
                        error.status,
                        {
                            "error": {
                                "type": error.error_type,
                                "message": str(error),
                            }
                        },
                        keep_alive=False,
                    )
                    await _close_after_refusal(reader, writer)
                    return
                if request is None:
                    return
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                done = await self._dispatch(
                    writer, method, path, body, keep_alive
                )
                if not done or not keep_alive:
                    return
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; ``None`` on clean EOF between requests."""
        try:
            line = await _read_line(reader, "request line")
        except ConnectionError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, f"malformed request line {line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await _read_line(reader, "header line")
            if not line:
                raise _HttpError(400, "connection closed inside headers")
            if line in (b"\r\n", b"\n"):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        body = b""
        length_text = headers.get("content-length")
        if length_text is not None:
            try:
                length = int(length_text)
            except ValueError:
                raise _HttpError(400, f"bad Content-Length {length_text!r}") from None
            if length < 0:
                raise _HttpError(400, f"bad Content-Length {length_text!r}")
            if length > _MAX_BODY:
                raise _HttpError(413, f"request body over {_MAX_BODY} bytes")
            body = await reader.readexactly(length)
        return method, path, headers, body

    # -- routing ---------------------------------------------------------------

    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        keep_alive: bool,
    ) -> bool:
        """Route one request.  Returns False when the connection must close."""
        state = self.state
        assert state is not None
        state.requests += 1
        path = path.split("?", 1)[0]
        try:
            if method == "GET" and path == "/healthz":
                payload: object = handlers.handle_healthz(state)
            elif method == "GET" and path == "/stats":
                payload = handlers.handle_stats(state)
            elif method == "GET" and path == "/scenarios":
                payload = handlers.handle_scenarios(state)
            elif method == "GET" and path.startswith("/scenarios/"):
                payload = handlers.handle_scenario_detail(
                    state, path[len("/scenarios/"):]
                )
            elif method == "POST" and path == "/run":
                payload = await handlers.handle_run(state, _parse_body(body))
            elif method == "POST" and path == "/sweep":
                lines = await handlers.sweep_lines(state, _parse_body(body))
                await self._write_ndjson(writer, lines)
                return False
            elif path in ("/run", "/sweep", "/healthz", "/stats", "/scenarios"):
                raise _HttpError(
                    405, f"{method} not allowed on {path}", "method_not_allowed"
                )
            else:
                raise _HttpError(404, f"no route for {path}", "not_found")
        except ServeRequestError as error:
            await self._write_json(
                writer, error.status, error.payload, keep_alive=keep_alive
            )
            return True
        except _HttpError as error:
            await self._write_json(
                writer,
                error.status,
                {"error": {"type": error.error_type, "message": str(error)}},
                keep_alive=keep_alive,
            )
            return True
        except (ReproError, StoreError) as error:
            await self._write_json(
                writer,
                500,
                {
                    "error": {
                        "type": "evaluation_failed",
                        "message": str(error),
                    }
                },
                keep_alive=keep_alive,
            )
            return True
        except ConnectionError:
            raise
        except Exception as error:  # a bug, but the client still gets an answer
            await self._write_json(
                writer,
                500,
                {
                    "error": {
                        "type": "internal_error",
                        "message": f"{type(error).__name__}: {error}",
                    }
                },
                keep_alive=keep_alive,
            )
            return True
        await self._write_json(writer, 200, payload, keep_alive=keep_alive)
        return True

    # -- response writing ------------------------------------------------------

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        keep_alive: bool,
    ) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        extra = [f"Content-Length: {len(body)}"]
        if not keep_alive:
            extra.append("Connection: close")
        head = _response_head(status, "application/json", tuple(extra))
        writer.write(head + b"\r\n" + body)
        await writer.drain()

    async def _write_ndjson(self, writer, lines) -> None:
        """Stream an NDJSON body; one write+drain per line, then close.

        No ``Content-Length`` — ``Connection: close`` frames the body — and
        each line goes out in a single write so a truncation (client gone,
        shutdown) lands between lines, keeping every received line parseable.
        """
        head = _response_head(
            200, "application/x-ndjson", ("Connection: close",)
        )
        writer.write(head + b"\r\n")
        await writer.drain()
        async for line in lines:
            writer.write(line.encode("utf-8"))
            await writer.drain()


def _parse_body(body: bytes) -> object:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServeRequestError(f"request body is not valid JSON: {error}") from None


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


def _install_signal_handlers() -> None:
    # Non-interactive shells launch `cmd &` background jobs with SIGINT set
    # to SIG_IGN, and Python then leaves it ignored — `kill -INT` would never
    # reach the loop and the server could only be killed.  Restore the default
    # handler when (and only when) the inherited disposition is "ignore", and
    # route SIGTERM through the same graceful KeyboardInterrupt path so
    # service managers' stop signal also drains in-flight work.
    if threading.current_thread() is not threading.main_thread():
        return
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)


def run_server(
    host: str = "127.0.0.1",
    port: int = 8750,
    store_path: Optional[str] = None,
    max_workers: Optional[int] = None,
) -> None:
    """Run the service in the foreground until interrupted (``repro serve``).

    Boots a fresh event loop, prints the bound address (ephemeral ports
    resolve here), and blocks.  Ctrl-C — or ``SIGINT``/``SIGTERM`` from a
    supervisor; both are handled even when the process was launched as a
    shell background job with SIGINT inherited ignored — performs a graceful
    :meth:`ServeApp.stop` — streams end at line boundaries, the store closes
    — and then re-raises :class:`KeyboardInterrupt` so the CLI keeps its
    documented exit code 130.
    """
    _install_signal_handlers()

    async def _main() -> None:
        app = ServeApp(
            host=host, port=port, store_path=store_path, max_workers=max_workers
        )
        await app.start()
        print(f"repro serve: listening on http://{app.host}:{app.port}", flush=True)
        try:
            await app.serve_forever()
        finally:
            await app.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        raise


class ServerThread:
    """A running service on a background thread, for tests and benchmarks.

    The container has no async test plugin, so tests drive the server with
    plain :mod:`http.client` from the main thread while this helper owns the
    event loop::

        with ServerThread(store_path=path) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)

    Entering starts the loop and blocks until the socket is bound (or the
    startup error re-raises in the caller); exiting schedules a graceful
    stop and joins the thread.  :attr:`app` exposes the live
    :class:`ServeApp` (and through it the resident runner) for assertions.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store_path: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.app = ServeApp(
            host=host, port=port, store_path=store_path, max_workers=max_workers
        )
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )

    @property
    def port(self) -> int:
        """The bound port (ephemeral ports are resolved once started)."""
        return self.app.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup/shutdown failures
            self._error = error
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.app.start()
        self._ready.set()
        await self._stop.wait()
        await self.app.stop()

    def start(self) -> "ServerThread":
        """Start the loop thread and wait for the socket to be bound."""
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if not self._ready.is_set():
            raise RuntimeError("server thread failed to start within 30s")
        return self

    def stop(self) -> None:
        """Request a graceful stop and join the loop thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed (startup failure path)
        self._thread.join(timeout=30)
        if self._error is not None:
            raise self._error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()
