from __future__ import annotations

import io
import json
import threading
from http.client import IncompleteRead
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError, URLError

import pytest

from asploop.generators import (
    FixtureExhausted,
    GeneratorError,
    GeneratorTransportError,
    HttpGenerator,
    RawCompletion,
    RecordingGenerator,
    ScriptedGenerator,
    merge_recordings,
    prompt_sha256,
    write_fixture,
)


def write_rows(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "scripted.jsonl"
    write_rows(
        path,
        [
            {
                "prompt_sha256": prompt_sha256("alpha"),
                "completions": ["a1.", "a2.", "a3.", "a4.", "a5."],
                "token_counts": [1, 2, 3, 4, 5],
            },
            {
                "prompt_sha256": prompt_sha256("beta"),
                "completions": ["b1."],
                "token_counts": [9],
            },
        ],
    )
    return path


def test_scripted_serves_in_order(fixture_path):
    generator = ScriptedGenerator(fixture_path)
    batch = generator.complete("alpha", 2, 0.7)
    assert [(c.text, c.token_count) for c in batch] == [("a1.", 1), ("a2.", 2)]


def test_scripted_cursor_advances(fixture_path):
    generator = ScriptedGenerator(fixture_path)
    generator.complete("alpha", 2, 0.7)
    batch = generator.complete("alpha", 3, 0.7)
    assert [c.text for c in batch] == ["a3.", "a4.", "a5."]


def test_scripted_exhaustion(fixture_path):
    generator = ScriptedGenerator(fixture_path)
    generator.complete("alpha", 5, 0.7)
    with pytest.raises(FixtureExhausted):
        generator.complete("alpha", 1, 0.7)


def test_scripted_unknown_prompt(fixture_path):
    generator = ScriptedGenerator(fixture_path)
    with pytest.raises(FixtureExhausted):
        generator.complete("never recorded", 1, 0.7)


def test_scripted_prompts_are_independent(fixture_path):
    generator = ScriptedGenerator(fixture_path)
    generator.complete("alpha", 1, 0.7)
    batch = generator.complete("beta", 1, 0.7)
    assert [(c.text, c.token_count) for c in batch] == [("b1.", 9)]


def test_scripted_missing_file(tmp_path):
    with pytest.raises(OSError):
        ScriptedGenerator(tmp_path / "absent.jsonl")


GOOD_ROW = json.dumps({"prompt_sha256": prompt_sha256("alpha"), "completions": ["a."]}).encode()
DIGEST = prompt_sha256("alpha")
# a fixture's second line, and what the error names
BAD_ROWS = {
    "not-an-object": (b"[1, 2]", "not a JSON object"),
    "no-hash": (json.dumps({"completions": ["a."]}).encode(), "prompt_sha256"),
    "no-completions": (json.dumps({"prompt_sha256": DIGEST}).encode(), "completions"),
    "completions-a-string": (
        json.dumps({"prompt_sha256": DIGEST, "completions": "abc"}).encode(), "completions"),
    "completions-not-strings": (
        json.dumps({"prompt_sha256": DIGEST, "completions": ["a.", 2]}).encode(), "completions"),
    "float-token-count": (
        json.dumps({"prompt_sha256": DIGEST, "completions": ["a."], "token_counts": [1.5]}).encode(),
        "token_counts"),
    "string-token-count": (
        json.dumps({"prompt_sha256": DIGEST, "completions": ["a."], "token_counts": ["1"]}).encode(),
        "token_counts"),
    "negative-token-count": (
        json.dumps({"prompt_sha256": DIGEST, "completions": ["a."], "token_counts": [-1]}).encode(),
        "token_counts"),
    "token-counts-not-a-list": (
        json.dumps({"prompt_sha256": DIGEST, "completions": ["a."], "token_counts": 5}).encode(),
        "token_counts"),
    "not-utf8": (b'{"prompt_sha256": "\xff"}', "utf-8"),
}


@pytest.mark.parametrize("line, names", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_scripted_bad_rows_name_their_line(tmp_path, line, names):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(GOOD_ROW + b"\n" + line + b"\n")
    with pytest.raises(GeneratorError) as info:
        ScriptedGenerator(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert names in str(info.value)


def test_scripted_blank_lines_and_missing_counts_are_allowed(tmp_path):
    path = tmp_path / "ok.jsonl"
    empty_counts = json.dumps({"prompt_sha256": DIGEST, "completions": ["b."], "token_counts": []})
    path.write_bytes(b"\n" + GOOD_ROW + b"\n  \n" + empty_counts.encode() + b"\n")
    generator = ScriptedGenerator(path)
    assert generator.complete("alpha", 2, 0.0) == [RawCompletion("a.", 0), RawCompletion("b.", 0)]


def test_recording_generator_replays_and_records():
    def fn(prompt):
        return [(f"{prompt}-1.", 3), (f"{prompt}-2.", 4)]

    generator = RecordingGenerator(fn)
    batch = generator.complete("p", 2, 0.5)
    assert [c.text for c in batch] == ["p-1.", "p-2."]
    recorded = generator.recorded()
    assert recorded == {prompt_sha256("p"): [("p-1.", 3), ("p-2.", 4)]}


def test_recording_generator_cursor_survives_repeat_calls():
    def fn(prompt):
        return [(f"{prompt}-{i}.", 1) for i in range(5)]

    generator = RecordingGenerator(fn)
    first = generator.complete("p", 2, 0.5)
    second = generator.complete("p", 2, 0.5)
    assert [c.text for c in first + second] == ["p-0.", "p-1.", "p-2.", "p-3."]
    # only the served slice is recorded, not the whole candidate pool
    assert len(generator.recorded()[prompt_sha256("p")]) == 4


def test_recording_generator_exhaustion():
    generator = RecordingGenerator(lambda prompt: [("only.", 1)])
    generator.complete("p", 1, 0.5)
    with pytest.raises(FixtureExhausted):
        generator.complete("p", 1, 0.5)


def test_merge_recordings_keeps_longest_queue():
    short = {prompt_sha256("p"): [("x.", 1)]}
    long = {prompt_sha256("p"): [("x.", 1), ("y.", 2)]}
    merged = merge_recordings([short, long])
    assert merged[prompt_sha256("p")] == [("x.", 1), ("y.", 2)]


def test_merge_recordings_requires_prefix_consistency():
    a = {prompt_sha256("p"): [("x.", 1)]}
    b = {prompt_sha256("p"): [("DIFFERENT.", 1), ("y.", 2)]}
    with pytest.raises(ValueError):
        merge_recordings([a, b])


def test_merge_recordings_unions_prompts():
    a = {prompt_sha256("p"): [("x.", 1)]}
    b = {prompt_sha256("q"): [("y.", 2)]}
    merged = merge_recordings([a, b])
    assert set(merged) == {prompt_sha256("p"), prompt_sha256("q")}


def test_write_fixture_rows_are_sorted_and_loadable(tmp_path):
    recording = {
        prompt_sha256("zzz"): [("z.", 1)],
        prompt_sha256("aaa"): [("a.", 2), ("b.", 3)],
    }
    path = tmp_path / "out.jsonl"
    count = write_fixture(recording, path)
    assert count == 2
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    digests = [row["prompt_sha256"] for row in rows]
    assert digests == sorted(digests)
    generator = ScriptedGenerator(path)
    assert generator.complete("aaa", 2, 0.0)[1].text == "b."
    assert generator.complete("zzz", 1, 0.0)[0].text == "z."


class FakeResponse:
    def __init__(self, payload=None, body=None):
        self.status = 200
        self._body = json.dumps(payload or {}).encode() if body is None else body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def http_error(status):
    return HTTPError("http://unit.test", status, "status", {}, io.BytesIO())


class FakeUrlopen:
    """Called like urllib.request.urlopen: records each request, then
    returns the response or raises the exception."""

    def __init__(self, response=None, exc=None):
        self.response = response
        self.exc = exc
        self.sent = []

    def __call__(self, request, timeout=None):
        self.sent.append(
            {"url": request.full_url, "method": request.get_method(), "json": json.loads(request.data),
             "headers": dict(request.header_items()), "timeout": timeout}
        )
        if self.exc:
            raise self.exc
        return self.response


def chat_payload(texts, completion_tokens):
    return {
        "choices": [{"message": {"content": t}} for t in texts],
        "usage": {"completion_tokens": completion_tokens},
    }


def test_http_generator_round_trip():
    urlopen = FakeUrlopen(FakeResponse(payload=chat_payload(["p(a).", "q(b)."], 7)))
    generator = HttpGenerator("http://unit.test/v1", "toy-model", urlopen=urlopen)
    batch = generator.complete("prompt text", 2, 0.4)
    assert [c.text for c in batch] == ["p(a).", "q(b)."]
    # 7 tokens over 2 choices: remainder rides on the first
    assert [c.token_count for c in batch] == [4, 3]
    sent = urlopen.sent[0]
    assert sent["url"] == "http://unit.test/v1"
    assert sent["method"] == "POST"
    assert sent["headers"]["Content-type"] == "application/json"
    assert sent["timeout"] == 60.0
    assert sent["json"]["model"] == "toy-model"
    assert sent["json"]["n"] == 2
    assert sent["json"]["temperature"] == 0.4
    assert sent["json"]["messages"] == [{"role": "user", "content": "prompt text"}]


def test_http_generator_sends_bearer_token(monkeypatch):
    monkeypatch.setenv("ASPLOOP_GEN_TOKEN", "sekret")
    urlopen = FakeUrlopen(FakeResponse(payload=chat_payload(["p(a)."], 1)))
    HttpGenerator("http://unit.test", "m", urlopen=urlopen).complete("x", 1, 0.0)
    assert urlopen.sent[0]["headers"]["Authorization"] == "Bearer sekret"


def test_http_generator_no_token_no_header(monkeypatch):
    monkeypatch.delenv("ASPLOOP_GEN_TOKEN", raising=False)
    urlopen = FakeUrlopen(FakeResponse(payload=chat_payload(["p(a)."], 1)))
    HttpGenerator("http://unit.test", "m", urlopen=urlopen).complete("x", 1, 0.0)
    assert "Authorization" not in urlopen.sent[0]["headers"]


def test_http_generator_5xx_is_transport_error():
    error = http_error(503)
    generator = HttpGenerator("http://unit.test", "m", urlopen=FakeUrlopen(exc=error))
    with pytest.raises(GeneratorTransportError):
        generator.complete("x", 1, 0.0)
    assert error.fp.closed


def test_http_generator_4xx_is_permanent_error():
    urlopen = FakeUrlopen(exc=http_error(401))
    generator = HttpGenerator("http://unit.test", "m", urlopen=urlopen)
    with pytest.raises(GeneratorError) as info:
        generator.complete("x", 1, 0.0)
    assert not isinstance(info.value, GeneratorTransportError)


def test_http_generator_network_failure_is_transport_error():
    # what urlopen or the response raises while sending or receiving
    for exc in (
        URLError(ConnectionRefusedError(111, "Connection refused")),
        TimeoutError("timed out"),
        IncompleteRead(b"{\"choices\"", 40),
    ):
        generator = HttpGenerator("http://unit.test", "m", urlopen=FakeUrlopen(exc=exc))
        with pytest.raises(GeneratorTransportError):
            generator.complete("x", 1, 0.0)
    # a URL urllib cannot open fails before any connection is made
    with pytest.raises(GeneratorTransportError, match="unknown url type"):
        HttpGenerator("unit.test", "m").complete("x", 1, 0.0)


# a 200 response body that is not a usable chat completion
MALFORMED = {
    "no-choices": json.dumps({"wrong": []}).encode(),
    "not-json": b"<html>busy</html>",
    "not-an-object": b"[1, 2]",
    "no-message": json.dumps({"choices": [{"text": "p(a)."}]}).encode(),
    "null-content": json.dumps({"choices": [{"message": {"content": None}}]}).encode(),
    "list-content": json.dumps({"choices": [{"message": {"content": ["p(a)."]}}]}).encode(),
    "string-token-count": json.dumps(chat_payload(["p(a)."], "n/a")).encode(),
    "float-token-count": json.dumps(chat_payload(["p(a)."], 1.5)).encode(),
    "negative-token-count": json.dumps(chat_payload(["p(a).", "p(b)."], -3)).encode(),
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
def test_http_generator_malformed_payload(body):
    urlopen = FakeUrlopen(FakeResponse(body=body))
    generator = HttpGenerator("http://unit.test", "m", urlopen=urlopen)
    with pytest.raises(GeneratorError, match="malformed response"):
        generator.complete("x", 1, 0.0)


def test_http_generator_missing_usage_defaults_to_zero():
    choices = [{"message": {"content": "p(a)."}}]
    for payload in (
        {"choices": choices},
        {"choices": choices, "usage": {}},
        {"choices": choices, "usage": {"completion_tokens": None}},
    ):
        urlopen = FakeUrlopen(FakeResponse(payload=payload))
        batch = HttpGenerator("http://unit.test", "m", urlopen=urlopen).complete("x", 1, 0.0)
        assert batch[0].token_count == 0


class ChatHandler(BaseHTTPRequestHandler):
    """Answers every POST with the server's `status` and `reply`, and keeps
    what it was sent on the server."""

    def do_POST(self):
        self.server.received.append(
            (dict(self.headers), json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        )
        body = json.dumps(self.server.reply).encode()
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    server = ThreadingHTTPServer(("127.0.0.1", 0), ChatHandler)
    server.status, server.reply, server.received = 200, chat_payload(["p(a).", "q(b)."], 3), []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_http_generator_over_loopback(chat_server, monkeypatch):
    monkeypatch.setenv("ASPLOOP_GEN_TOKEN", "sekret")
    url = f"http://127.0.0.1:{chat_server.server_port}/v1/chat/completions"
    generator = HttpGenerator(url, "toy-model", timeout=10.0)
    assert generator.complete("prompt text", 2, 0.4) == [RawCompletion("p(a).", 2), RawCompletion("q(b).", 1)]
    headers, body = chat_server.received[0]
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer sekret"
    assert body == {"model": "toy-model", "messages": [{"role": "user", "content": "prompt text"}],
                    "n": 2, "temperature": 0.4}
    chat_server.status = 503
    with pytest.raises(GeneratorTransportError, match="status 503"):
        generator.complete("prompt text", 2, 0.4)
    chat_server.status = 401
    with pytest.raises(GeneratorError, match="status 401") as info:
        generator.complete("prompt text", 2, 0.4)
    assert not isinstance(info.value, GeneratorTransportError)
    chat_server.shutdown()
    chat_server.server_close()
    with pytest.raises(GeneratorTransportError):
        generator.complete("prompt text", 2, 0.4)
