"""The one retry policy shared by the HTTP providers.

A JSON POST is retried with exponential backoff on transport errors, 429
and 5xx; any other non-200 status fails at once. The caller's semaphore
bounds how many requests are in flight.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from .errors import ProviderError

if TYPE_CHECKING:
    import requests

MAX_IN_FLIGHT = 4


def post_with_retry(
    session: requests.Session,
    slots: threading.Semaphore,
    endpoint: str,
    payload: dict,
    *,
    api_key: str | None,
    timeout: float,
    attempts: int,
    backoff_base: float,
    what: str,
) -> requests.Response:
    """POST payload as JSON and return the 200 response.

    ``what`` names the endpoint in error messages ("chat", "embedding").
    """
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    import requests  # deferred, so a process that makes no HTTP call never loads it

    last_error: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(backoff_base * (2 ** (attempt - 1)))
        try:
            with slots:
                response = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = ProviderError(f"{what} request failed: {exc}")
            continue
        if response.status_code == 200:
            return response
        if response.status_code == 429 or response.status_code >= 500:
            last_error = ProviderError(
                f"{what} endpoint returned {response.status_code}, retrying",
                status=response.status_code,
            )
            continue
        raise ProviderError(
            f"{what} endpoint returned {response.status_code}: {response.text[:200]}",
            status=response.status_code,
        )
    assert last_error is not None
    raise last_error
