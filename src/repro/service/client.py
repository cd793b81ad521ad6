"""A thin ``urllib`` client for the broker's HTTP/JSON protocol.

Shared by the worker loop, ``repro submit`` and the test suites.  All
transport-level failures — connection refused while the broker restarts,
a socket dying mid-response — surface as :class:`BrokerUnavailable`;
protocol-level rejections (unknown campaign, malformed request) surface
as :class:`BrokerRequestError` with the broker's own message.  Callers
decide the retry policy: workers retry forever (a broker restart must
not kill the fleet), the submit client retries up to a deadline.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request
from typing import Iterator

from .protocol import API_PREFIX, WIRE_VERSION, ProtocolError


class BrokerUnavailable(ConnectionError):
    """The broker cannot be reached (down, restarting, or unroutable)."""


class BrokerRequestError(RuntimeError):
    """The broker answered with an error status."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


class BrokerClient:
    """One broker endpoint, e.g. ``BrokerClient("http://127.0.0.1:8642")``."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(self, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{API_PREFIX}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read().decode("utf-8")).get(
                    "error", str(error)
                )
            except Exception:  # noqa: BLE001 - any body shape
                message = str(error)
            raise BrokerRequestError(message, error.code) from None
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as error:
            raise BrokerUnavailable(f"{url}: {error}") from None

    # -- endpoints -----------------------------------------------------

    def ping(self) -> dict:
        reply = self._request("/ping")
        version = reply.get("wire_version")
        if version != WIRE_VERSION:
            raise ProtocolError(
                f"broker speaks wire version {version}, this client needs "
                f"{WIRE_VERSION}"
            )
        return reply

    def submit(self, fingerprint: dict, options: dict, bundle_blob: str) -> dict:
        return self._request("/submit", {
            "fingerprint": fingerprint,
            "options": options,
            "bundle": bundle_blob,
        })

    def lease(self, worker_id: str) -> dict:
        return self._request("/lease", {"worker_id": worker_id})

    def report(
        self,
        worker_id: str,
        campaign_id: str,
        shard_id: int,
        attempt: int,
        entries: list[dict],
        *,
        complete: bool = False,
    ) -> dict:
        return self._request("/report", {
            "worker_id": worker_id,
            "campaign_id": campaign_id,
            "shard_id": shard_id,
            "attempt": attempt,
            "entries": entries,
            "complete": complete,
        })

    def heartbeat(
        self, worker_id: str, campaign_id: str, shard_id: int, attempt: int
    ) -> dict:
        return self._request("/heartbeat", {
            "worker_id": worker_id,
            "campaign_id": campaign_id,
            "shard_id": shard_id,
            "attempt": attempt,
        })

    def status(self, campaign_id: str | None = None) -> dict:
        if campaign_id is None:
            return self._request("/status")
        return self._request(f"/campaigns/{campaign_id}")

    def fetch_journal_file(self, campaign_id: str, name: str) -> bytes:
        url = f"{self.base_url}{API_PREFIX}/campaigns/{campaign_id}/journal/{name}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read().decode("utf-8")).get(
                    "error", str(error)
                )
            except Exception:  # noqa: BLE001
                message = str(error)
            raise BrokerRequestError(message, error.code) from None
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as error:
            raise BrokerUnavailable(f"{url}: {error}") from None

    def stream(self, campaign_id: str) -> Iterator[dict]:
        """Yield live campaign snapshots until the campaign completes.

        Transport failures raise :class:`BrokerUnavailable` mid-stream;
        callers fall back to polling :meth:`status`.
        """
        url = f"{self.base_url}{API_PREFIX}/campaigns/{campaign_id}/stream"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as error:
            raise BrokerRequestError(str(error), error.code) from None
        except (urllib.error.URLError, ConnectionError, socket.timeout,
                TimeoutError, OSError) as error:
            raise BrokerUnavailable(f"{url}: {error}") from None

    def shutdown(self) -> dict:
        return self._request("/shutdown", {})
