"""The campaign broker: a stdlib HTTP front-end over :class:`BrokerState`.

One ``ThreadingHTTPServer`` (no third-party dependencies) exposes the
service under ``/api/v1``:

========  =============================  =====================================
method    path                           purpose
========  =============================  =====================================
GET       ``/ping``                      liveness + wire version handshake
POST      ``/submit``                    submit a campaign (idempotent)
POST      ``/lease``                     request a shard lease (work stealing)
POST      ``/report``                    stream segment entries / renew lease
POST      ``/heartbeat``                 renew a lease without new results
GET       ``/status``                    whole-broker snapshot
GET       ``/campaigns/<id>``            one campaign's snapshot
GET       ``/campaigns/<id>/stream``     streaming telemetry: one JSON line
                                         per state change until completion
GET       ``/campaigns/<id>/journal/<f>``  merged ``manifest.json`` /
                                         ``runs.jsonl`` once complete
POST      ``/shutdown``                  graceful stop
========  =============================  =====================================

Responses are JSON; errors are ``{"error": ...}`` with a matching HTTP
status.  The streaming endpoint writes plain newline-delimited JSON over
an HTTP/1.0-style unframed body, flushed per line, so ``urllib`` clients
(and ``curl``) see snapshots live.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .protocol import API_PREFIX, WIRE_VERSION, ProtocolError
from .state import DEFAULT_MAX_ATTEMPTS, BrokerState, ServiceError


class BrokerHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`BrokerState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, state: BrokerState):
        super().__init__(address, _BrokerRequestHandler)
        self.state = state
        self.stopping = threading.Event()

    def request_shutdown(self) -> None:
        """Stop ``serve_forever`` without deadlocking a handler thread."""
        if self.stopping.is_set():
            return
        self.stopping.set()
        threading.Thread(target=self.shutdown, daemon=True).start()


class _BrokerRequestHandler(BaseHTTPRequestHandler):
    # HTTP/1.0 with per-request connections: every response body may be
    # written unframed and ended by close, which is what the /stream
    # endpoint needs and what urllib handles with zero configuration.
    protocol_version = "HTTP/1.0"
    server: BrokerHTTPServer

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if os.environ.get("REPRO_BROKER_LOG"):
            sys.stderr.write(
                "broker: %s - %s\n" % (self.address_string(), format % args)
            )

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ProtocolError("request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload

    def _send_json(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, message: str, code: int) -> None:
        self._send_json({"error": message}, code)

    def _route(self) -> str | None:
        if not self.path.startswith(API_PREFIX):
            self._send_error_json(f"unknown path {self.path!r}", 404)
            return None
        return self.path[len(API_PREFIX):]

    # -- dispatch ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        route = self._route()
        if route is None:
            return
        try:
            if route == "/ping":
                self._send_json({
                    "status": "ok",
                    "wire_version": WIRE_VERSION,
                    "stopping": self.server.stopping.is_set(),
                })
            elif route == "/status":
                self._send_json(self.server.state.snapshot())
            elif route.startswith("/campaigns/"):
                self._get_campaign(route[len("/campaigns/"):])
            else:
                self._send_error_json(f"unknown path {self.path!r}", 404)
        except ServiceError as error:
            self._send_error_json(str(error), 404)
        except ProtocolError as error:
            self._send_error_json(str(error), 400)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        route = self._route()
        if route is None:
            return
        state = self.server.state
        try:
            payload = self._read_json()
            if route == "/submit":
                self._send_json(state.submit(
                    payload["fingerprint"],
                    payload["options"],
                    payload["bundle"],
                ))
            elif route == "/lease":
                if self.server.stopping.is_set():
                    self._send_json({"status": "shutdown"})
                    return
                self._send_json(state.lease(str(payload["worker_id"])))
            elif route == "/report":
                self._send_json(state.report(
                    str(payload["worker_id"]),
                    str(payload["campaign_id"]),
                    int(payload["shard_id"]),
                    int(payload["attempt"]),
                    list(payload.get("entries", [])),
                    complete=bool(payload.get("complete", False)),
                ))
            elif route == "/heartbeat":
                self._send_json(state.heartbeat(
                    str(payload["worker_id"]),
                    str(payload["campaign_id"]),
                    int(payload["shard_id"]),
                    int(payload["attempt"]),
                ))
            elif route == "/shutdown":
                self._send_json({"status": "stopping"})
                self.server.request_shutdown()
            else:
                self._send_error_json(f"unknown path {self.path!r}", 404)
        except (KeyError, TypeError, ValueError) as error:
            if isinstance(error, ProtocolError):
                self._send_error_json(str(error), 400)
            else:
                self._send_error_json(f"malformed request: {error}", 400)
        except ServiceError as error:
            self._send_error_json(str(error), 404)

    # -- campaign GETs -------------------------------------------------

    def _get_campaign(self, rest: str) -> None:
        parts = rest.split("/")
        campaign_id = parts[0]
        if len(parts) == 1:
            self._send_json(self.server.state.snapshot(campaign_id))
        elif parts[1:] == ["stream"]:
            self._stream_campaign(campaign_id)
        elif len(parts) == 3 and parts[1] == "journal":
            self._send_journal_file(campaign_id, parts[2])
        else:
            self._send_error_json(f"unknown path {self.path!r}", 404)

    def _send_journal_file(self, campaign_id: str, name: str) -> None:
        path = self.server.state.journal_file(campaign_id, name)
        with open(path, "rb") as handle:
            body = handle.read()
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_campaign(self, campaign_id: str) -> None:
        state = self.server.state
        snapshot = state.snapshot(campaign_id)  # 404s before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        version = state.current_version()
        try:
            while True:
                self.wfile.write(json.dumps(snapshot).encode("utf-8") + b"\n")
                self.wfile.flush()
                if snapshot["state"] != "running" or self.server.stopping.is_set():
                    return
                version = state.wait_for_change(version, timeout=1.0)
                snapshot = state.snapshot(campaign_id)
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; nothing to clean up


def run_broker(
    *,
    state_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_timeout: float = 30.0,
    max_attempts: int | None = None,
    port_file: str | None = None,
    ready_stream=None,
    install_signal_handlers: bool = True,
) -> int:
    """Run a broker until shut down; returns a process exit code.

    ``port=0`` binds an ephemeral port; the bound port is announced on
    *ready_stream* (default stderr) as ``repro-broker listening on
    http://host:port`` and, when *port_file* is given, written there for
    scripts to pick up.
    """
    state = BrokerState(
        state_dir,
        lease_timeout=lease_timeout,
        max_attempts=max_attempts or DEFAULT_MAX_ATTEMPTS,
    )
    server = BrokerHTTPServer((host, port), state)
    bound_port = server.server_address[1]
    if port_file:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{bound_port}\n")
    stream = ready_stream if ready_stream is not None else sys.stderr
    print(f"repro-broker listening on http://{host}:{bound_port}", file=stream)
    stream.flush()
    if install_signal_handlers:
        signal.signal(signal.SIGTERM, lambda *_: server.request_shutdown())
        signal.signal(signal.SIGINT, lambda *_: server.request_shutdown())
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0
