import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab import llmproto
from serlab.llmproto import (
    LlmEndpointConfig,
    ParseFailure,
    build_attribute_prompt,
    build_categorical_prompt,
    parse_attribute_response,
    parse_categorical_response,
    run_llm_eval,
)

from helpers import MockChatServer

GOLDEN = Path(__file__).parent / "golden"
TRANSCRIPT = "I can't believe it!"


class TestPromptBuilders:
    def test_categorical_matches_golden_file(self):
        expected = (GOLDEN / "prompt_categorical.txt").read_bytes()
        assert build_categorical_prompt(TRANSCRIPT).encode("utf-8") == expected

    def test_attribute_matches_golden_file(self):
        expected = (GOLDEN / "prompt_attributes.txt").read_bytes()
        assert build_attribute_prompt(TRANSCRIPT).encode("utf-8") == expected

    def test_contains_full_emotion_list(self):
        prompt = build_categorical_prompt(TRANSCRIPT)
        assert (
            "['Anger', 'Contempt', 'Disgust', 'Fear', 'Happiness', "
            "'Neutral', 'Sadness', 'Surprise']"
        ) in prompt
        assert TRANSCRIPT in prompt

    def test_attribute_format_line(self):
        prompt = build_attribute_prompt("x")
        assert "format of [arousal, valence, dominance]" in prompt
        assert "from 1 to 7" in prompt

    def test_byte_length_arithmetic(self):
        for build in (build_categorical_prompt, build_attribute_prompt):
            base = len(build("\x00")) - 1  # template length with an empty slot
            for transcript in ("a", "hello world", "x" * 500):
                assert len(build(transcript)) == base + len(transcript)

    def test_newlines_pass_through_verbatim(self):
        prompt = build_categorical_prompt("line one\nline two")
        assert "line one\nline two" in prompt

    def test_braces_pass_through_verbatim(self):
        assert "{weird}" in build_categorical_prompt("so {weird} huh")

    def test_empty_transcript_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_categorical_prompt("")
        with pytest.raises(ValueError, match="non-empty"):
            build_attribute_prompt("")

    def test_pure_functions(self):
        assert build_categorical_prompt("abc") == build_categorical_prompt("abc")
        assert build_attribute_prompt("abc") == build_attribute_prompt("abc")


class TestCategoricalParsing:
    def test_plain_name(self):
        assert parse_categorical_response("Anger") == "A"

    def test_whitespace_and_punctuation_normalized(self):
        assert parse_categorical_response(" happiness.\n") == "H"

    def test_all_names_case_insensitive(self):
        names = ["anger", "CONTEMPT", "Disgust", "fear", "Happiness",
                 "NEUTRAL", "sadness", "Surprise"]
        assert [parse_categorical_response(n) for n in names] == list("ACDFHNSU")

    def test_disallowed_word_fails(self):
        with pytest.raises(ParseFailure) as exc:
            parse_categorical_response("I think it's joy")
        assert exc.value.raw == "I think it's joy"

    def test_empty_reply_fails(self):
        with pytest.raises(ParseFailure):
            parse_categorical_response("...")


class TestAttributeParsing:
    def test_box_example(self):
        triple, clamped = parse_attribute_response("[1.0, 2.3, 4.7]")
        assert triple == (1.0, 2.3, 4.7)
        assert not clamped

    def test_out_of_range_values_clamped_with_flag(self):
        triple, clamped = parse_attribute_response("[0.5, 3.0, 9.9]")
        assert triple == (1.0, 3.0, 7.0)
        assert clamped

    def test_first_triple_wins_and_prose_ignored(self):
        triple, clamped = parse_attribute_response("Answer: [2, 2, 2] because reasons [9,9,9]")
        assert triple == (2.0, 2.0, 2.0)
        assert not clamped

    def test_no_triple_fails_with_raw(self):
        with pytest.raises(ParseFailure) as exc:
            parse_attribute_response("somewhere in the middle")
        assert exc.value.raw == "somewhere in the middle"

    def test_non_numeric_triple_fails(self):
        with pytest.raises(ParseFailure):
            parse_attribute_response("[low, mid, high]")

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(min_value=1, max_value=7),
        v=st.floats(min_value=1, max_value=7),
        d=st.floats(min_value=1, max_value=7),
    )
    def test_format_parse_identity_in_range(self, a, v, d):
        text = f"[{a:.4f}, {v:.4f}, {d:.4f}]"
        triple, clamped = parse_attribute_response(text)
        assert not clamped
        assert triple == (float(f"{a:.4f}"), float(f"{v:.4f}"), float(f"{d:.4f}"))


class TestEndpointClient:
    def _items(self):
        return [("u1", "great day"), ("u2", "awful day"), ("u3", "meh")]

    def test_constant_reply_yields_constant_labels(self, tmp_path):
        server = MockChatServer(lambda prompt: "Sadness")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=tmp_path / "c.jsonl")
            report = run_llm_eval(ep, "categorical", self._items())
        finally:
            server.shutdown()
        assert report.predictions.labels == {"u1": "S", "u2": "S", "u3": "S"}
        assert report.failure_count == 0
        assert report.requests_made == 3

    def test_cached_replay_identical_with_zero_requests(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Neutral")
        ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
        first = run_llm_eval(ep, "categorical", self._items())
        server.shutdown()  # replay must not touch the network at all
        replay = run_llm_eval(ep, "categorical", self._items())
        assert replay.requests_made == 0
        assert replay.cache_hits == 3
        assert replay.predictions.labels == first.predictions.labels
        assert replay.predictions.ids == first.predictions.ids

    def test_cache_entries_have_contract_fields(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Fear")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
            run_llm_eval(ep, "categorical", [("only", "hi there")])
        finally:
            server.shutdown()
        entry = json.loads(cache.read_text().splitlines()[0])
        assert set(entry) == {"id", "model", "prompt_sha256", "raw", "timestamp"}
        assert entry["id"] == "only"
        assert entry["raw"] == "Fear"
        assert len(entry["prompt_sha256"]) == 64

    def test_unparseable_replies_become_failures_not_defaults(self, tmp_path):
        server = MockChatServer(lambda prompt: "no numbers here at all")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=tmp_path / "c.jsonl")
            report = run_llm_eval(ep, "attributes", self._items())
        finally:
            server.shutdown()
        assert report.failure_count == 3
        assert report.predictions.attributes == {}
        assert all(f["raw"] == "no numbers here at all" for f in report.failures)

    def test_unreachable_endpoint_fails_per_id_and_run_continues(self):
        ep = LlmEndpointConfig(
            base_url="http://127.0.0.1:9", model="m", timeout=0.2, max_retries=0
        )
        report = run_llm_eval(ep, "categorical", self._items())
        assert report.failure_count == 3
        assert [f["id"] for f in report.failures] == ["u1", "u2", "u3"]

    def test_mixed_success_and_failure(self, tmp_path):
        def responder(prompt):
            return "[2.0, 2.0, 2.0]" if "happy" in prompt else "nope"

        server = MockChatServer(responder)
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=tmp_path / "c.jsonl")
            report = run_llm_eval(ep, "attributes", [("a", "happy day"), ("b", "sad day")])
        finally:
            server.shutdown()
        assert list(report.predictions.attributes) == ["a"]
        assert [f["id"] for f in report.failures] == ["b"]

    def test_output_order_follows_input_order(self, tmp_path):
        server = MockChatServer(lambda prompt: "Anger")
        try:
            ep = LlmEndpointConfig(
                base_url=server.url, model="m", cache_path=tmp_path / "c.jsonl", parallelism=8
            )
            items = [(f"u{i:02d}", f"text {i}") for i in range(20)]
            report = run_llm_eval(ep, "categorical", items)
        finally:
            server.shutdown()
        assert report.predictions.ids == [rid for rid, _ in items]

    def test_cache_never_replays_another_models_replies(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        for model, reply in (("model-a", "Sadness"), ("model-b", "Anger")):
            server = MockChatServer(lambda prompt, reply=reply: reply)
            try:
                ep = LlmEndpointConfig(base_url=server.url, model=model, cache_path=cache)
                report = run_llm_eval(ep, "categorical", self._items())
            finally:
                server.shutdown()
            assert report.requests_made == 3
            assert report.cache_hits == 0
        assert report.predictions.labels == {"u1": "A", "u2": "A", "u3": "A"}
        models = [json.loads(line)["model"] for line in cache.read_text().splitlines()]
        assert sorted(models) == ["model-a"] * 3 + ["model-b"] * 3
        # both models' replies stay cached side by side
        replay = run_llm_eval(
            LlmEndpointConfig(base_url="http://127.0.0.1:9", model="model-a", cache_path=cache),
            "categorical", self._items(),
        )
        assert replay.cache_hits == 3
        assert replay.predictions.labels == {"u1": "S", "u2": "S", "u3": "S"}

    def test_torn_final_cache_line_is_dropped_and_reported(self, tmp_path, capsys):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Fear")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
            run_llm_eval(ep, "categorical", self._items())
            with open(cache, "a", encoding="utf-8") as f:
                f.write('{"id": "u4", "model": "m", "prom')  # a run killed mid-write
            capsys.readouterr()
            report = run_llm_eval(ep, "categorical", self._items() + [("u4", "fine")])
        finally:
            server.shutdown()
        assert f"{cache}: line 4: dropped a torn final cache entry" in capsys.readouterr().err
        assert report.cache_hits == 3
        assert report.requests_made == 1
        assert report.failure_count == 0
        # the new reply starts a fresh line, so the whole cache reads back
        replay = run_llm_eval(ep, "categorical", self._items() + [("u4", "fine")])
        assert replay.cache_hits == 4
        assert capsys.readouterr().err == ""

    def test_complete_final_line_without_newline_is_ended_before_appending(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Fear")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
            run_llm_eval(ep, "categorical", [("u1", "a")])
            cache.write_bytes(cache.read_bytes().rstrip(b"\n"))
            for rid in ("u2", "u3"):
                report = run_llm_eval(ep, "categorical", [(rid, rid)])
                assert report.requests_made == 1
        finally:
            server.shutdown()
        assert sorted(key[0] for key in llmproto._load_cache(cache)) == ["u1", "u2", "u3"]
        assert len(cache.read_text().splitlines()) == 3

    def test_fully_cached_run_leaves_the_cache_bytes_alone(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Fear")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
            run_llm_eval(ep, "categorical", self._items())
        finally:
            server.shutdown()
        written = cache.read_bytes()
        assert run_llm_eval(ep, "categorical", self._items()).cache_hits == 3
        assert cache.read_bytes() == written

    def test_bad_cache_line_before_the_last_raises_with_its_number(self, tmp_path):
        cache = tmp_path / "c.jsonl"
        server = MockChatServer(lambda prompt: "Fear")
        try:
            ep = LlmEndpointConfig(base_url=server.url, model="m", cache_path=cache)
            run_llm_eval(ep, "categorical", self._items())
        finally:
            server.shutdown()
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text(lines[0] + '{"id": "torn\n' + "".join(lines[1:]))
        with pytest.raises(ValueError, match="line 2: bad cache entry"):
            run_llm_eval(ep, "categorical", self._items())

    def _one_request(self, tmp_path, monkeypatch, answers, max_retries=2):
        delays = []
        monkeypatch.setattr(llmproto.time, "sleep", delays.append)
        replies = iter(answers)
        server = MockChatServer(lambda prompt: next(replies))
        try:
            ep = LlmEndpointConfig(
                base_url=server.url, model="m", max_retries=max_retries,
                cache_path=tmp_path / "c.jsonl",
            )
            report = run_llm_eval(ep, "categorical", [("u1", "hello")])
        finally:
            server.shutdown()
        return report, len(server.requests), delays

    def test_client_error_is_not_retried(self, tmp_path, monkeypatch):
        report, requests_made, delays = self._one_request(tmp_path, monkeypatch, [400])
        assert requests_made == 1
        assert delays == []
        assert "HTTP 400" in report.failures[0]["reason"]

    def test_server_error_is_retried_after_a_delay(self, tmp_path, monkeypatch):
        report, requests_made, delays = self._one_request(
            tmp_path, monkeypatch, [503, "Happiness"]
        )
        assert requests_made == 2
        assert delays == [llmproto.RETRY_BASE_DELAY_S]
        assert report.failure_count == 0
        assert report.predictions.labels == {"u1": "H"}

    def test_backoff_doubles_up_to_the_cap_within_max_retries(self, tmp_path, monkeypatch):
        report, requests_made, delays = self._one_request(
            tmp_path, monkeypatch, [429] * 7, max_retries=6
        )
        assert requests_made == 7
        base, cap = llmproto.RETRY_BASE_DELAY_S, llmproto.RETRY_MAX_DELAY_S
        assert delays == [min(cap, base * 2**n) for n in range(6)]
        assert max(delays) == cap
        assert "HTTP 429" in report.failures[0]["reason"]

    def test_endpoint_config_validation(self):
        with pytest.raises(ValueError, match="timeout"):
            LlmEndpointConfig(base_url="http://x", model="m", timeout=0)
        with pytest.raises(ValueError, match="unknown task"):
            run_llm_eval(
                LlmEndpointConfig(base_url="http://x", model="m"), "regression", []
            )
