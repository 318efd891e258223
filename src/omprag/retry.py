"""The one HTTP client shared by the chat, embedding and Q&A API clients.

A request is retried with exponential backoff on transport errors, 429 and
5xx; any other non-200 status fails at once. Every failure, including a 200
whose body is not JSON, is a ``ProviderError`` carrying the status when there
is one. At most ``MAX_IN_FLIGHT`` requests per client are in flight.
"""

from __future__ import annotations

import threading
import time

from .errors import InvalidInputError, ProviderError

MAX_IN_FLIGHT = 4


class HttpClient:
    """One endpoint: a session, its in-flight bound and the retry loop.

    ``name`` names the endpoint in error messages ("chat", "embedding").
    With an ``api_key``, every request carries it as a Bearer token.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str | None,
        *,
        timeout: float,
        attempts: int,
        backoff_base: float,
        name: str,
    ):
        if attempts < 1:
            raise InvalidInputError(f"attempts must be >= 1, got {attempts}")
        self.endpoint = endpoint
        self.timeout = timeout
        self.attempts = attempts
        self.backoff_base = backoff_base
        self.name = name
        self._auth = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        import requests  # deferred, so a process that makes no HTTP call never loads it

        self._session = requests.Session()
        self._slots = threading.Semaphore(MAX_IN_FLIGHT)

    def post_json(self, payload: dict):
        """POST ``payload`` as JSON and return the decoded 200 body."""
        headers = {"Content-Type": "application/json", **self._auth}
        return self._request("POST", json=payload, headers=headers)

    def get_json(self, params: dict):
        """GET with query ``params`` and return the decoded 200 body."""
        return self._request("GET", params=params, headers=self._auth)

    def _request(self, method: str, **kwargs):
        import requests

        for attempt in range(self.attempts):
            if attempt:
                time.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                with self._slots:
                    response = self._session.request(
                        method, self.endpoint, timeout=self.timeout, **kwargs
                    )
            except requests.RequestException as exc:
                failure, status = f"request failed ({exc})", None
                continue
            status = response.status_code
            if status == 200:
                try:
                    return response.json()
                except ValueError as exc:
                    raise ProviderError(
                        f"{self.name} endpoint returned a body that is not JSON: {exc}",
                        status=status,
                    ) from exc
            if status != 429 and status < 500:
                raise ProviderError(
                    f"{self.name} endpoint returned {status}: {response.text[:200]}",
                    status=status,
                )
            failure = f"endpoint returned {status}"
        raise ProviderError(
            f"{self.name} {failure} on each of {self.attempts} attempts", status=status
        )
