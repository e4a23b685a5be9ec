"""Zero-shot LLM comparison protocol: fixed prompt templates, strict
response parsing, and a cached OpenAI-compatible chat-completion client.

Prompt construction is byte-stable, every raw reply lands in an append-only
JSONL cache keyed by (id, model, prompt hash), and a fully cached run replays
bit-for-bit with zero network calls.  Unparseable replies are reported per
id and excluded from downstream metrics with their count disclosed; they
are never silently defaulted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from string import punctuation
from typing import Sequence

from .dataio import PredictionSet
from .metrics import EMOTION_NAMES, clamp_attributes

CATEGORICAL_TEMPLATE = (
    "Predict the emotion label of the following sentence from a podcast recording. "
    "Allowed predicted emotions: ['Anger', 'Contempt', 'Disgust', 'Fear', 'Happiness', "
    "'Neutral', 'Sadness', 'Surprise']\n"
    "Transcription: {transcript}\n"
    "Just predict the answer without explanation.\n"
    "Answer:"
)

ATTRIBUTE_TEMPLATE = (
    "Predict the emotional attribute label (valence, arousal, dominance) of the "
    "following sentence from a podcast recording.\n"
    "Allowed predicted ranges are from 1 to 7.\n"
    "Transcription:{transcript}\n"
    "Just predict the answer in the format of [arousal, valence, dominance], "
    "e.g., [1.0, 2.3, 4.7], without explanation.\n"
    "Answer:"
)

# Retry back-off: the delay before retry n (n = 1, 2, ...) is
# RETRY_BASE_DELAY_S * 2**(n - 1), capped at RETRY_MAX_DELAY_S.
RETRY_BASE_DELAY_S = 0.5
RETRY_MAX_DELAY_S = 8.0

_NAME_TO_CODE = {name: code for code, name in EMOTION_NAMES.items()}

_TRIPLE_RE = re.compile(
    r"\[\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*,\s*(-?\d+(?:\.\d+)?)\s*\]"
)


class ParseFailure(ValueError):
    """Unusable model reply; keeps the raw text for the failure report."""

    def __init__(self, message: str, raw: str) -> None:
        super().__init__(message)
        self.raw = raw


def build_categorical_prompt(transcript: str) -> str:
    if not transcript:
        raise ValueError("transcript must be non-empty")
    # plain substitution keeps braces/newlines in transcripts verbatim
    return CATEGORICAL_TEMPLATE.replace("{transcript}", transcript, 1)


def build_attribute_prompt(transcript: str) -> str:
    if not transcript:
        raise ValueError("transcript must be non-empty")
    return ATTRIBUTE_TEMPLATE.replace("{transcript}", transcript, 1)


def parse_categorical_response(text: str) -> str:
    """Map the first word run of a reply onto an emotion code."""
    stripped = text.strip().strip(punctuation + "‘’“” \t\n")
    match = re.search(r"[A-Za-z]+", stripped)
    if not match:
        raise ParseFailure(f"no emotion name found in reply: {text!r}", text)
    word = match.group(0).lower()
    if word not in _NAME_TO_CODE:
        raise ParseFailure(f"{word!r} is not an allowed emotion name", text)
    return _NAME_TO_CODE[word]


def parse_attribute_response(text: str) -> tuple[tuple[float, float, float], bool]:
    """First bracketed numeric triple as (arousal, valence, dominance).

    Values are clamped to the 1-7 attribute range; the second return flags
    whether clamping changed anything.
    """
    match = _TRIPLE_RE.search(text)
    if not match:
        raise ParseFailure(f"no [a, v, d] triple found in reply: {text!r}", text)
    triple = tuple(float(g) for g in match.groups())
    return clamp_attributes(triple)


# ---------------------------------------------------------------------------
# endpoint client with JSONL cache

@dataclass(frozen=True)
class LlmEndpointConfig:
    base_url: str
    model: str
    timeout: float = 30.0
    max_retries: int = 2
    cache_path: str | Path | None = None
    parallelism: int = 4

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class LlmRunReport:
    predictions: PredictionSet
    failures: list[dict] = field(default_factory=list)
    cache_hits: int = 0
    requests_made: int = 0

    @property
    def failure_count(self) -> int:
        return len(self.failures)


def _prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _load_cache(path) -> dict[tuple[str, str, str], str]:
    """Map (id, model, prompt hash) -> raw reply.

    A final line with no newline that does not parse was torn by a killed
    run: it is reported on stderr and cut from the file.  One that parses
    gets its newline.  Either way the next append starts a fresh line.  A
    bad line anywhere else raises.
    """
    p = Path(path)
    if not p.exists():
        return {}
    data = p.read_bytes()
    lines = data.split(b"\n")
    cache: dict[tuple[str, str, str], str] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            cache[(entry["id"], entry["model"], entry["prompt_sha256"])] = entry["raw"]
        except (ValueError, KeyError, TypeError) as err:
            if lineno < len(lines) or not isinstance(err, ValueError):
                raise ValueError(f"{path}: line {lineno}: bad cache entry: {err}") from err
            print(f"{path}: line {lineno}: dropped a torn final cache entry", file=sys.stderr)
            os.truncate(p, len(data) - len(line))
        else:
            if lineno == len(lines):  # complete, but its newline is missing
                with open(p, "ab") as f:
                    f.write(b"\n")
    return cache


class _CacheWriter:
    def __init__(self, path) -> None:
        self._path = Path(path) if path else None
        self._lock = threading.Lock()

    def append(self, rid: str, model: str, prompt_hash: str, raw: str) -> None:
        if self._path is None:
            return
        entry = {
            "id": rid,
            "model": model,
            "prompt_sha256": prompt_hash,
            "raw": raw,
            "timestamp": time.time(),
        }
        with self._lock:
            with open(self._path, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry, sort_keys=True) + "\n")


def _post_chat(endpoint: LlmEndpointConfig, prompt: str) -> str:
    """The reply text.  Connection errors, timeouts, 429 and 5xx replies are
    retried up to ``max_retries`` times with capped exponential back-off;
    anything else fails at once.  ``requests`` is imported here, the one
    place that posts, so commands other than ``llm run`` never load it."""
    import requests

    url = endpoint.base_url.rstrip("/") + "/v1/chat/completions"
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    last_error: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        if attempt:
            time.sleep(min(RETRY_MAX_DELAY_S, RETRY_BASE_DELAY_S * 2 ** (attempt - 1)))
        try:
            resp = requests.post(url, json=payload, timeout=endpoint.timeout)
        except (requests.ConnectionError, requests.Timeout) as err:
            last_error = err
            continue
        except requests.RequestException as err:
            raise RuntimeError(f"endpoint request failed: {err}") from err
        if resp.status_code == 200:
            try:
                return resp.json()["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as err:
                raise RuntimeError(f"endpoint reply malformed: {err!r}") from err
        last_error = RuntimeError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if resp.status_code != 429 and resp.status_code < 500:
            raise RuntimeError(f"endpoint request failed: {last_error}")
    raise RuntimeError(f"endpoint request failed after retries: {last_error}")


def run_llm_eval(
    endpoint: LlmEndpointConfig,
    task: str,
    items: Sequence[tuple[str, str]],
) -> LlmRunReport:
    """Prompt the endpoint for every (id, transcript) pair and parse replies.

    Cached (id, model, prompt hash) triples skip the network entirely.  Request
    failures and unparseable replies become per-id failure entries; the run
    always completes.  Output order follows the input order.
    """
    if task == "categorical":
        build = build_categorical_prompt
    elif task == "attributes":
        build = build_attribute_prompt
    else:
        raise ValueError(f"unknown task {task!r}")

    cache = _load_cache(endpoint.cache_path) if endpoint.cache_path else {}
    writer = _CacheWriter(endpoint.cache_path)
    report = LlmRunReport(predictions=PredictionSet())
    stats_lock = threading.Lock()

    def fetch(item: tuple[str, str]) -> tuple[str, str | None, str | None]:
        rid, transcript = item
        try:
            prompt = build(transcript)
        except ValueError as err:
            return rid, None, f"prompt error: {err}"
        key = (rid, endpoint.model, _prompt_hash(prompt))
        if key in cache:
            with stats_lock:
                report.cache_hits += 1
            return rid, cache[key], None
        try:
            raw = _post_chat(endpoint, prompt)
        except RuntimeError as err:
            return rid, None, str(err)
        with stats_lock:
            report.requests_made += 1
        writer.append(*key, raw)
        return rid, raw, None

    with ThreadPoolExecutor(max_workers=endpoint.parallelism) as pool:
        results = list(pool.map(fetch, items))

    for rid, raw, error in results:
        if error is not None:
            report.failures.append({"id": rid, "reason": error, "raw": None})
            continue
        try:
            if task == "categorical":
                report.predictions.add_label(rid, parse_categorical_response(raw))
            else:
                report.predictions.add_attributes(rid, parse_attribute_response(raw)[0])
        except ParseFailure as err:
            report.failures.append({"id": rid, "reason": str(err), "raw": err.raw})
    return report
