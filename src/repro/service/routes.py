"""HTTP transport for the characterization service (stdlib only).

A thin, dependency-free layer over
:class:`~repro.service.app.CharacterizationService`: a
``ThreadingHTTPServer`` whose handler parses the path/query/JSON body,
delegates to ``service.handle`` and writes the (status, JSON body,
headers) triple back.  All policy — admission, deadlines, breaker,
degradation — lives in the service core; the transport only translates
bytes.

``serve`` is the long-running entry point behind ``repro serve``: it
installs SIGTERM/SIGINT handlers that perform the graceful drain (stop
admitting, let in-flight jobs finish or deadline-out, then stop the
listener) and blocks until the server exits.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlsplit

from ..errors import BadRequestError, ServiceError

logger = logging.getLogger("repro.service")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the service instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: "Tuple[str, int]", service):
        super().__init__(address, ServiceRequestHandler)
        self.service = service


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Parses requests, delegates to the service, writes JSON back."""

    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"
    # The stdlib's ``send_error`` writes headers and body as two sends;
    # with Nagle on, a client's delayed ACK would hold the body ~40 ms.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        service = self.server.service
        parsed = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query).items()
        }
        try:
            body = self._read_body(service) if method == "POST" else None
            status, payload, headers = service.handle(
                method, parsed.path, query, body
            )
        except ServiceError as error:
            status, payload, headers = error.status, error.body(), {}
            if error.retry_after is not None:
                headers["Retry-After"] = str(
                    max(1, int(round(error.retry_after)))
                )
        except Exception:  # pragma: no cover - last-resort guard
            logger.exception("unhandled error serving %s %s",
                             method, self.path)
            fallback = ServiceError("internal service error")
            status, payload, headers = 500, fallback.body(), {}
        self._respond(status, payload, headers)

    def _read_body(self, service) -> "dict | None":
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # An unparsable length means the body's extent is unknown:
            # the connection cannot be resynchronized, so close it.
            self.close_connection = True
            raise BadRequestError(
                "Content-Length header is not an integer"
            ) from None
        if length > service.settings.max_body_bytes:
            # The oversized body is rejected *unread*; on a keep-alive
            # connection the unread bytes would be parsed as the next
            # request line, so the connection must close with the 400.
            self.close_connection = True
            raise BadRequestError(
                f"request body of {length} bytes exceeds the "
                f"{service.settings.max_body_bytes}-byte limit"
            )
        if length <= 0:
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequestError(
                f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(body, dict):
            raise BadRequestError("request body must be a JSON object")
        return body

    def _respond(self, status: int, payload: dict, headers: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            # Tell the client the persistent connection ends here
            # (e.g. after an unread oversized body).
            self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        # One write: end_headers sends the headers alone (HTTP/0.9: none).
        staged = getattr(self, "_headers_buffer", None)
        head = b"".join(staged) + b"\r\n" if staged else b""
        self._headers_buffer = []
        self.wfile.write(head + data)

    def log_message(self, format: str, *args) -> None:
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("%s - %s", self.address_string(), format % args)


def make_server(
    service, host: str = "127.0.0.1", port: int = 8177
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks a free port) without serving."""
    return ServiceHTTPServer((host, port), service)


def serve(
    service,
    host: str = "127.0.0.1",
    port: int = 8177,
    install_signals: bool = True,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Prints the bound address (``serving on http://host:port``) once
    ready, so callers binding port 0 can discover the real port.
    """
    server = make_server(service, host, port)
    service.start()
    drained = threading.Event()

    def _initiate_drain(signum=None, frame=None):
        if drained.is_set():
            return
        drained.set()
        service.begin_drain()

        def _finish():
            service.drain()
            server.shutdown()

        threading.Thread(target=_finish, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, _initiate_drain)
        signal.signal(signal.SIGINT, _initiate_drain)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        if not drained.is_set():
            service.begin_drain()
            service.drain()
    print("drained cleanly", flush=True)
    return 0
