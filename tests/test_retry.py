"""The HTTP client that the chat, embedding and Q&A API clients share."""

from __future__ import annotations

import pytest

from omprag.embedding import RemoteEmbedder
from omprag.errors import InvalidInputError, ProviderError
from omprag.generation import ChatHttpProvider, GenerationRequest
from omprag.harvest import HttpQaApi
from omprag.retry import HttpClient

CALLS = {
    "chat": lambda url: ChatHttpProvider(url).complete(GenerationRequest("m", "p", "c")),
    "embedding": lambda url: RemoteEmbedder(url, "m").embed("text"),
    "Q&A API": lambda url: HttpQaApi(url).fetch_page("histogram", 1),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_200_whose_body_is_not_json_is_a_provider_error(name, scripted_server):
    server = scripted_server([(200, b"<html>maintenance</html>")])
    with pytest.raises(ProviderError) as exc_info:
        CALLS[name](server.url)
    assert exc_info.value.status == 200
    assert str(exc_info.value).startswith(f"{name} endpoint returned a body that is not JSON")
    assert len(server.requests_seen) == 1


def test_transport_failure_names_the_attempts():
    client = HttpClient("http://127.0.0.1:1", None, timeout=0.2, attempts=2,
                        backoff_base=0.01, name="chat")
    with pytest.raises(ProviderError) as exc_info:
        client.post_json({})
    assert exc_info.value.status is None
    assert str(exc_info.value).endswith("on each of 2 attempts")


def test_fewer_than_one_attempt_is_refused():
    with pytest.raises(InvalidInputError):
        HttpClient("http://127.0.0.1:1", None, timeout=1.0, attempts=0, backoff_base=0.01,
                   name="chat")
