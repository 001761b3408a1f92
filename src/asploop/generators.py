"""Completion backends behind one small interface.

ScriptedGenerator replays canned completions keyed by the SHA-256 of the
prompt, which makes whole pipeline runs reproducible without any model.
HttpGenerator talks to a chat-completions-style endpoint through the standard
library's `urllib.request`, imported only when a request is sent, so a
scripted run loads no HTTP or TLS stack. RecordingGenerator wraps a
deterministic candidate source and writes out the consumed completions as a
scripted fixture.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Protocol

from .value_types import set_field, value_type

GEN_TOKEN_ENV = "ASPLOOP_GEN_TOKEN"


class GeneratorError(Exception):
    pass


class GeneratorTransportError(GeneratorError):
    """Network-level failure; the caller may retry."""


class FixtureExhausted(GeneratorError):
    pass


@value_type(frozen=True)
class RawCompletion:
    def __init__(self, text: str, token_count: int = 0):
        set_field(self, "text", text)
        set_field(self, "token_count", token_count)


class Generator(Protocol):
    name: str

    def complete(self, prompt: str, n: int, temperature: float) -> list[RawCompletion]: ...


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ScriptedGenerator:
    """Replay completions from a JSONL fixture.

    Each line holds {"prompt_sha256", "completions", "token_counts"}; lines
    sharing a hash extend one queue in file order. Successive calls for the
    same prompt consume successive slices of its queue, so a re-generation
    pass naturally receives fresh completions. A malformed line raises
    GeneratorError naming the file and line.
    """

    name = "scripted"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._queues: dict[str, list[RawCompletion]] = {}
        self._cursors: dict[str, int] = {}
        with open(self.path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    row = _fixture_row(raw)
                except ValueError as exc:
                    raise GeneratorError(f"{self.path}:{lineno}: bad fixture line: {exc}") from exc
                if row is not None:
                    digest, completions = row
                    self._queues.setdefault(digest, []).extend(completions)

    def complete(self, prompt: str, n: int, temperature: float) -> list[RawCompletion]:
        digest = prompt_sha256(prompt)
        queue = self._queues.get(digest)
        if queue is None:
            raise FixtureExhausted(
                f"scripted backend has no completions for prompt hash {digest[:16]}"
            )
        cursor = self._cursors.get(digest, 0)
        if cursor + n > len(queue):
            raise FixtureExhausted(
                f"scripted backend exhausted for prompt hash {digest[:16]}: "
                f"{len(queue) - cursor} completions left, {n} requested"
            )
        self._cursors[digest] = cursor + n
        return queue[cursor : cursor + n]


def _fixture_row(raw: bytes) -> tuple[str, list[RawCompletion]] | None:
    """One scripted fixture line as (prompt hash, completions), or None for
    a blank line. Raises ValueError saying what is wrong with a bad one."""
    line = raw.decode("utf-8")
    if not line.strip():
        return None
    row = json.loads(line)
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    digest = row.get("prompt_sha256")
    completions = row.get("completions")
    if not isinstance(digest, str):
        raise ValueError("prompt_sha256 is missing or not a string")
    if not isinstance(completions, list) or not all(isinstance(t, str) for t in completions):
        raise ValueError("completions is missing or not a list of strings")
    counts = row.get("token_counts")
    if counts in (None, []):
        counts = [0] * len(completions)
    if not isinstance(counts, list) or not all(type(c) is int and c >= 0 for c in counts):
        raise ValueError("token_counts is not a list of non-negative integers")
    if len(counts) != len(completions):
        raise ValueError("token_counts length differs from completions")
    return digest, [RawCompletion(text, count) for text, count in zip(completions, counts)]


class HttpGenerator:
    """Chat-completions client. Sends {model, messages, n, temperature} and
    reads choices[i].message.content. The endpoint reports one aggregate
    usage.completion_tokens figure; it is split evenly over the choices with
    the remainder on the first so the per-candidate totals stay exact.
    `urlopen` is called like `urllib.request.urlopen`, which is the default.
    """

    name = "http"

    def __init__(self, url: str, model: str, timeout: float = 60.0, urlopen=None):
        self.url = url
        self.model = model
        self.timeout = timeout
        self._urlopen = urlopen

    def complete(self, prompt: str, n: int, temperature: float) -> list[RawCompletion]:
        from http.client import HTTPException
        from urllib import error, request

        headers = {"Content-Type": "application/json"}
        token = os.environ.get(GEN_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "n": n,
            "temperature": temperature,
        }
        try:
            sent = request.Request(self.url, json.dumps(body).encode("utf-8"), headers)
            with (self._urlopen or request.urlopen)(sent, timeout=self.timeout) as response:
                status, raw = response.status, response.read()
        except error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, HTTPException, ValueError) as exc:
            raise GeneratorTransportError(f"http backend: {exc}") from exc
        if status >= 500:
            raise GeneratorTransportError(f"http backend: status {status}")
        if status != 200:
            raise GeneratorError(f"http backend: status {status}")
        try:
            payload = json.loads(raw)
            choices = payload["choices"]
            texts = [choice["message"]["content"] for choice in choices]
        except (ValueError, KeyError, TypeError) as exc:
            raise GeneratorError(f"http backend: malformed response: {exc}") from exc
        usage = payload.get("usage")
        total = usage.get("completion_tokens") if isinstance(usage, dict) else None
        total = 0 if total is None else total
        valid_total = type(total) is int and total >= 0
        if not valid_total or not all(isinstance(text, str) for text in texts):
            raise GeneratorError(
                "http backend: malformed response: a content that is not a string"
                f" or completion_tokens {total!r}"
            )
        counts = _split_evenly(total, len(texts))
        return [RawCompletion(text, count) for text, count in zip(texts, counts)]


def _split_evenly(total: int, parts: int) -> list[int]:
    if parts == 0:
        return []
    base, remainder = divmod(total, parts)
    return [base + remainder] + [base] * (parts - 1)


CandidateFn = Callable[[str], list[tuple[str, int]]]


class RecordingGenerator:
    """Serve completions from a pure prompt -> candidates function while
    recording what each prompt consumed, for export as a scripted fixture.

    The source function must be deterministic and history-free so that
    recordings taken under different run configurations stay prefixes of
    one another and can be merged.
    """

    name = "recording"

    def __init__(self, candidate_fn: CandidateFn):
        self._fn = candidate_fn
        self._cursors: dict[str, int] = {}
        self._served: dict[str, list[tuple[str, int]]] = {}

    def complete(self, prompt: str, n: int, temperature: float) -> list[RawCompletion]:
        digest = prompt_sha256(prompt)
        pool = self._fn(prompt)
        cursor = self._cursors.get(digest, 0)
        if cursor + n > len(pool):
            raise FixtureExhausted(
                f"recording source exhausted for prompt hash {digest[:16]}: "
                f"{len(pool) - cursor} candidates left, {n} requested"
            )
        slice_ = pool[cursor : cursor + n]
        self._cursors[digest] = cursor + n
        served = self._served.setdefault(digest, [])
        served.extend(slice_)
        return [RawCompletion(text, count) for text, count in slice_]

    def recorded(self) -> dict[str, list[tuple[str, int]]]:
        return {digest: list(items) for digest, items in self._served.items()}


def merge_recordings(recordings: list[dict[str, list[tuple[str, int]]]]) -> dict:
    """Union per-hash queues, keeping the longest; shorter recordings must
    be prefixes of the kept one or the runs were not replaying the same
    candidate streams.
    """
    merged: dict[str, list[tuple[str, int]]] = {}
    for recording in recordings:
        for digest, items in recording.items():
            current = merged.get(digest)
            if current is None or len(items) > len(current):
                longer, shorter = items, current or []
            else:
                longer, shorter = current, items
            if longer[: len(shorter)] != shorter:
                raise ValueError(f"recordings diverge for prompt hash {digest[:16]}")
            merged[digest] = longer
    return merged


def write_fixture(recording: dict[str, list[tuple[str, int]]], path: str | Path) -> int:
    path = Path(path)
    rows = 0
    with open(path, "w", encoding="utf-8") as handle:
        for digest in sorted(recording):
            items = recording[digest]
            row = {
                "prompt_sha256": digest,
                "completions": [text for text, _ in items],
                "token_counts": [count for _, count in items],
            }
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
            rows += 1
    return rows
