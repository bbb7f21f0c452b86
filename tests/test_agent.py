import io
import json
import re
import urllib.error

import pytest

from argus.agent import (
    Budget,
    ChatTurn,
    LIVE_TIMEOUT_S,
    LLMBackend,
    LiveHttpBackend,
    ReplayBackend,
    Role,
    ScriptedStubBackend,
    Transcript,
    estimate_tokens,
    load_transcript,
    meter_tokens,
    run_react_loop,
    save_transcript,
)
from argus.errors import BackendError, ReplayDivergenceError

FINAL = "done thinking.\n```final\n{\"answer\": 42}\n```"
TOOL = '```tool lookup\n{"key": "a"}\n```'
RAMBLE = "let me think about this some more"


def assistant_turns(outcome):
    return sum(t.role == Role.ASSISTANT for t in outcome.transcript.turns)


def test_stub_immediate_final():
    outcome = run_react_loop("sys", "task", {}, ScriptedStubBackend([FINAL]))
    assert outcome.final_payload == '{"answer": 42}'
    assert assistant_turns(outcome) == 1
    assert outcome.stop_reason == "final-answer"


def test_backend_interface_and_empty_stub_are_refused():
    with pytest.raises(NotImplementedError):
        LLMBackend().complete([])
    with pytest.raises(ValueError, match="at least one response"):
        ScriptedStubBackend([])


def test_stub_never_final_exhausts_steps():
    backend = ScriptedStubBackend([RAMBLE])
    outcome = run_react_loop("sys", "task", {}, backend, Budget(max_steps=3))
    assert assistant_turns(outcome) == 3
    assert outcome.stop_reason == "step-exhaustion"
    assert outcome.final_payload == ""


def test_tool_dispatch_appends_result():
    calls = []

    def lookup(args):
        calls.append(args)
        return "value-for-" + args["key"]

    backend = ScriptedStubBackend([TOOL, FINAL])
    outcome = run_react_loop("sys", "task", {"lookup": lookup}, backend)
    assert calls == [{"key": "a"}]
    tool_turns = [t for t in outcome.transcript.turns if t.role == Role.TOOL]
    assert len(tool_turns) == 1
    assert tool_turns[0].content == "value-for-a"
    assert tool_turns[0].tool_name == "lookup"


def test_unknown_tool_reports_error_to_agent():
    backend = ScriptedStubBackend([TOOL, FINAL])
    outcome = run_react_loop("sys", "task", {}, backend)
    tool_turns = [t for t in outcome.transcript.turns if t.role == Role.TOOL]
    assert "unknown tool" in tool_turns[0].content


def test_tool_exception_reported_not_raised():
    def boom(args):
        raise RuntimeError("nope")

    backend = ScriptedStubBackend([TOOL, FINAL])
    outcome = run_react_loop("sys", "task", {"lookup": boom}, backend)
    tool_turns = [t for t in outcome.transcript.turns if t.role == Role.TOOL]
    assert "failed" in tool_turns[0].content


def test_token_budget_exhaustion_records_overshoot():
    long = "word " * 50 + RAMBLE
    backend = ScriptedStubBackend([long])
    outcome = run_react_loop("sys", "task", {}, backend, Budget(max_steps=10, max_tokens=20))
    assert outcome.stop_reason == "token-exhaustion"
    assert outcome.token_overshoot > 0


class CountingStub(ScriptedStubBackend):
    """A stub that records each ``prompt_token_count`` call it is asked."""

    def __init__(self, responses):
        super().__init__(responses)
        self.asked = []

    def prompt_token_count(self, role, content, position):
        self.asked.append((role, content, position))
        return super().prompt_token_count(role, content, position)


def test_each_prompt_turn_is_counted_once():
    backend = CountingStub([TOOL, FINAL])
    outcome = run_react_loop("sys", "task", {"lookup": lambda a: "v w"}, backend)
    assert backend.asked == [(Role.SYSTEM, "sys", 0), (Role.USER, "task", 1),
                             (Role.TOOL, "v w", 3)]
    turns = outcome.transcript.turns
    assert [(t.role, t.token_count) for t in turns] == [
        (Role.SYSTEM, 1), (Role.USER, 1), (Role.ASSISTANT, estimate_tokens(TOOL)),
        (Role.TOOL, 2), (Role.ASSISTANT, estimate_tokens(FINAL))]
    assert outcome.stop_reason == "final-answer"


def test_step_exhaustion_counts_each_prompt_turn_once():
    backend = CountingStub([RAMBLE])
    outcome = run_react_loop("sys", "task", {}, backend, Budget(max_steps=3))
    assert [position for _, _, position in backend.asked] == [0, 1]
    assert (outcome.stop_reason, outcome.token_overshoot) == ("step-exhaustion", 0)


@pytest.mark.parametrize("max_tokens, overshoot", [(7, 36), (37, 6)])
def test_a_tool_turn_counts_at_the_next_check(max_tokens, overshoot):
    # sys 1 + task 1 + the tool call 5 = 7 tokens at the first check; the
    # 30-token tool result comes in at the second, with the 6-token answer.
    backend = CountingStub([TOOL, FINAL])
    outcome = run_react_loop("sys", "task", {"lookup": lambda a: "w " * 30}, backend,
                             Budget(max_tokens=max_tokens))
    transcript = outcome.transcript
    assert [t.token_count for t in transcript.turns] == [1, 1, 5, 30, 6]
    assert outcome.stop_reason == "token-exhaustion"
    assert outcome.token_overshoot == overshoot
    assert transcript.total_prompt_tokens + transcript.total_completion_tokens \
        == max_tokens + overshoot
    assert len(backend.asked) == 3


# --- replay ------------------------------------------------------------------


def record_run(tools=None):
    backend = ScriptedStubBackend([TOOL, FINAL])
    tools = tools if tools is not None else {"lookup": lambda a: "v"}
    return run_react_loop("sys", "task", tools, backend)


def test_replay_reproduces_run_exactly():
    first = record_run()
    replay = ReplayBackend(first.transcript)
    second = run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)
    assert second.final_payload == first.final_payload
    assert assistant_turns(second) == assistant_turns(first)
    assert second.stop_reason == first.stop_reason == "final-answer"
    assert [t.content for t in second.transcript.turns] == \
        [t.content for t in first.transcript.turns]
    assert [t.token_count for t in second.transcript.turns] == \
        [t.token_count for t in first.transcript.turns]


def test_replay_diverging_shape_raises():
    first = record_run()
    replay = ReplayBackend(first.transcript)
    # a tool returning a result where the recording had none would change
    # the shape only if the tool set differs; change the prompts instead by
    # dropping the tool so the tool turn is an error string (same shape),
    # then exceed the recorded assistant turns to force divergence.
    with pytest.raises(ReplayDivergenceError):
        run_react_loop("sys", "task", {}, replay, Budget(max_steps=10))
        # replay has 2 assistant turns; a third request must fail
        replay.complete(first.transcript.turns)


def recorded_with(turns):
    """A recording of ``record_run`` whose turns ``turns`` rewrites."""
    recorded = record_run().transcript
    return Transcript(turns=turns(recorded.turns), model_tag=recorded.model_tag)


SHAPE_DIFFERS = "conversation shape differs from recording"


def test_replay_reproduces_recorded_prompt_counts():
    # Recorded counts that no estimate gives: the replay takes each prompt
    # turn's count from the recording.
    recorded = recorded_with(lambda turns: [
        t if t.role == Role.ASSISTANT else ChatTurn(t.role, t.content, t.tool_name, 10 + i)
        for i, t in enumerate(turns)])
    replay = ReplayBackend(recorded)
    outcome = run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)
    assert outcome.transcript.turns == recorded.turns
    assert [t.token_count for t in recorded.turns if t.role != Role.ASSISTANT] == [10, 11, 13]


def test_replay_extra_recorded_turn_raises():
    # The recording has a second user turn before its first assistant turn.
    replay = ReplayBackend(recorded_with(lambda turns: turns[:2] + turns[1:]))
    with pytest.raises(ReplayDivergenceError, match=SHAPE_DIFFERS):
        run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)


def test_replay_other_tool_name_raises():
    # The recording's tool turn is named "other"; the live loop calls "lookup".
    def rename_tool(turns):
        return [ChatTurn(t.role, t.content, "other", t.token_count) if t.role == Role.TOOL
                else t for t in turns]

    replay = ReplayBackend(recorded_with(rename_tool))
    with pytest.raises(ReplayDivergenceError, match=SHAPE_DIFFERS):
        run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)


def test_replay_exhaustion_raises():
    first = record_run()
    replay = ReplayBackend(first.transcript)
    run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)
    with pytest.raises(ReplayDivergenceError):
        replay.complete(first.transcript.turns)


def test_backend_error_carries_the_turns_up_to_the_last_answer():
    # The tool turn after the last answer went out with the call that
    # failed, so no exchange that completed holds it.
    recorded = record_run().transcript
    for kept, exchanged in ((4, 3), (2, 0)):
        replay = ReplayBackend(Transcript(recorded.turns[:kept], recorded.model_tag))
        with pytest.raises(ReplayDivergenceError) as info:
            run_react_loop("sys", "task", {"lookup": lambda a: "v"}, replay)
        assert info.value.transcript.turns == recorded.turns[:exchanged]
        assert info.value.transcript.model_tag == recorded.model_tag


# --- transcripts -------------------------------------------------------------


def test_transcript_round_trip(tmp_path):
    outcome = record_run()
    path = tmp_path / "t.jsonl"
    save_transcript(outcome.transcript, path)
    loaded = load_transcript(path)
    assert loaded.turns == outcome.transcript.turns
    assert loaded.model_tag == outcome.transcript.model_tag


def test_transcript_file_is_jsonl_with_header(tmp_path):
    outcome = record_run()
    path = tmp_path / "t.jsonl"
    save_transcript(outcome.transcript, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format_version"] == "1"
    assert len(lines) == 1 + len(outcome.transcript.turns)


@pytest.mark.parametrize("bad_line", [
    "{not json",
    "[1, 2]",
    '{"content": "x"}',
    '{"role": "wizard", "content": "x"}',
    '{"role": ["user"], "content": "x"}',
    '{"role": "assistant", "content": 5}',
    '{"role": "assistant", "content": null}',
    '{"role": "tool", "content": "x", "tool_name": 7}',
    '{"role": "user", "content": "x", "token_count": Infinity}',
    '{"role": "user", "content": "x", "token_count": true}',
    '{"role": "user", "content": "x", "token_count": "7"}',
    '{"role": "user", "content": "x", "token_count": 2.9}',
])
def test_malformed_transcript_line_names_file_and_line(tmp_path, bad_line):
    path = tmp_path / "t.jsonl"
    save_transcript(record_run().transcript, path)
    lines = path.read_text().splitlines()
    lines.insert(2, bad_line)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(BackendError, match=re.escape(f"{path}: line 3: ")):
        load_transcript(path)


def test_turn_invariants():
    with pytest.raises(ValueError):
        ChatTurn(Role.USER, "x", tool_name="lookup")
    with pytest.raises(ValueError):
        ChatTurn(Role.TOOL, "x")
    with pytest.raises(ValueError):
        ChatTurn(Role.USER, "x", token_count=-1)


# --- metering ----------------------------------------------------------------


def make_transcript(pairs):
    turns = [
        ChatTurn(role, "x", tool_name="t" if role == Role.TOOL else None,
                 token_count=n)
        for role, n in pairs
    ]
    return Transcript(turns=turns)


def test_meter_empty_is_zero():
    assert meter_tokens({}) == {
        "per_stage": {}, "total_prompt": 0, "total_completion": 0, "grand_total": 0,
    }


def test_meter_arithmetic():
    poc = make_transcript([(Role.SYSTEM, 10), (Role.USER, 5), (Role.ASSISTANT, 7)])
    review = make_transcript([(Role.USER, 3), (Role.ASSISTANT, 2),
                              (Role.TOOL, 4), (Role.ASSISTANT, 6)])
    usage = meter_tokens({"review": [review], "poc": [poc]})
    assert usage == {
        "per_stage": {
            "poc": {"prompt": 15, "completion": 7},
            "review": {"prompt": 7, "completion": 8},
        },
        "total_prompt": 22,
        "total_completion": 15,
        "grand_total": 37,
    }
    assert list(usage["per_stage"]) == ["poc", "review"]


def test_estimate_tokens_whitespace():
    assert estimate_tokens("") == 0
    assert estimate_tokens("one two  three\nfour") == 4


ENDPOINT = "http://llm.invalid/v1/chat/completions"
TURNS = [ChatTurn(Role.SYSTEM, "sys"), ChatTurn(Role.USER, "task")]


def test_live_backend_posts_the_conversation(monkeypatch):
    sent = []

    def urlopen(request, timeout):
        sent.append((request, timeout))
        answer = {"choices": [{"message": {"content": "reply"}}],
                  "usage": {"completion_tokens": 5}}
        return io.BytesIO(json.dumps(answer).encode("utf-8"))

    monkeypatch.setenv("ARGUS_API_KEY", "k123")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    turn = LiveHttpBackend(ENDPOINT, "m1").complete(TURNS)
    assert (turn.role, turn.content, turn.token_count) == (Role.ASSISTANT, "reply", 5)
    [(request, timeout)] = sent
    assert (request.full_url, request.get_method(), timeout) == (ENDPOINT, "POST", LIVE_TIMEOUT_S)
    assert request.get_header("Authorization") == "Bearer k123"
    assert request.get_header("Content-type") == "application/json"
    assert json.loads(request.data) == {
        "model": "m1",
        "messages": [{"role": "system", "content": "sys"}, {"role": "user", "content": "task"}],
    }


def test_live_backend_without_key_sends_nothing(monkeypatch):
    def urlopen(request, timeout):
        raise AssertionError("no request may be sent without a key")

    monkeypatch.delenv("ARGUS_API_KEY", raising=False)
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    with pytest.raises(BackendError, match="ARGUS_API_KEY"):
        LiveHttpBackend(ENDPOINT, "m1").complete(TURNS)


def test_live_backend_http_error_is_a_backend_error(monkeypatch):
    responses = []

    def urlopen(request, timeout):
        body = io.BytesIO(b'{"error": "overloaded"}')
        responses.append(body)
        raise urllib.error.HTTPError(request.full_url, 503, "Service Unavailable", {}, body)

    monkeypatch.setenv("ARGUS_API_KEY", "k123")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    with pytest.raises(BackendError, match="503"):
        LiveHttpBackend(ENDPOINT, "m1").complete(TURNS)
    assert responses[0].closed


@pytest.mark.parametrize("endpoint", ["not a url", "http://[::1"])
def test_live_backend_malformed_endpoint_is_a_backend_error(monkeypatch, endpoint):
    # The request cannot be built, so nothing is sent.
    def urlopen(request, timeout):
        raise AssertionError("no request may be sent to a malformed endpoint")

    monkeypatch.setenv("ARGUS_API_KEY", "k123")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    with pytest.raises(BackendError, match="live backend call failed"):
        LiveHttpBackend(endpoint, "m1").complete(TURNS)


def answering(monkeypatch, answer):
    """Make every live call get ``answer``, as JSON, from the endpoint."""
    def urlopen(request, timeout):
        return io.BytesIO(json.dumps(answer).encode("utf-8"))

    monkeypatch.setenv("ARGUS_API_KEY", "k123")
    monkeypatch.setattr("urllib.request.urlopen", urlopen)


@pytest.mark.parametrize("usage", [{"usage": None}, {"usage": {"completion_tokens": None}}],
                         ids=["usage-null", "count-null"])
def test_live_backend_without_a_count_estimates_it(monkeypatch, usage):
    answering(monkeypatch, {"choices": [{"message": {"content": "two words"}}], **usage})
    assert LiveHttpBackend(ENDPOINT, "m1").complete(TURNS).token_count == 2


@pytest.mark.parametrize("answer", [
    {"choices": [{"message": {"content": None}}]},
    {"choices": [{"message": {"content": ["reply"]}}]},
    {"choices": [{"message": {"content": "reply"}}], "usage": [1]},
    {"choices": [{"message": {"content": "reply"}}], "usage": {"completion_tokens": "abc"}},
    {"choices": [{"message": {"content": "reply"}}], "usage": {"completion_tokens": -3}},
    {"choices": [{"message": {"content": "reply"}}], "usage": {"completion_tokens": 2.5}},
    {"choices": [{"message": {"content": "reply"}}], "usage": {"completion_tokens": True}},
], ids=["content-null", "content-list", "usage-list", "count-str", "count-negative",
        "count-float", "count-bool"])
def test_live_backend_malformed_answer_is_a_backend_error(monkeypatch, answer):
    answering(monkeypatch, answer)
    with pytest.raises(BackendError, match="live backend"):
        LiveHttpBackend(ENDPOINT, "m1").complete(TURNS)
