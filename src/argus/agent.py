"""LLM agent substrate: reason/act loop, tool dispatch, transcripts.

Backends are pluggable: a scripted stub for tests, a replay backend that
feeds back a recorded transcript (the live conversation's roles and tool
names must match the recording), and a live HTTP backend configured
externally. Assistant turns carry fenced action blocks::

    ```tool <name>
    {json args}
    ```

or a terminating::

    ```final
    <payload>
    ```

Transcript files are JSON-lines: a header object with ``model_tag`` and
``format_version``, then one turn per line.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Mapping, Optional, Sequence

from argus.errors import ArgusError, BackendError, ReplayDivergenceError, parse_json

TRANSCRIPT_FORMAT_VERSION = "1"

_TOOL_BLOCK = re.compile(r"```tool[ \t]+(\S+)\s*\n(.*?)```", re.DOTALL)
_FINAL_BLOCK = re.compile(r"```final\s*\n(.*?)```", re.DOTALL)


class Role(str, Enum):
    SYSTEM = "system"
    USER = "user"
    ASSISTANT = "assistant"
    TOOL = "tool"


@dataclass(frozen=True)
class ChatTurn:
    role: Role
    content: str
    tool_name: Optional[str] = None
    token_count: int = 0

    def __post_init__(self):
        if self.token_count < 0:
            raise ValueError("token_count must be >= 0")
        if (self.role == Role.TOOL) != (self.tool_name is not None):
            raise ValueError("tool_name present iff role=tool")


def estimate_tokens(text: str) -> int:
    """Whitespace-token estimate, used when a backend reports no counts."""
    return len(text.split())


@dataclass
class Transcript:
    turns: list[ChatTurn] = field(default_factory=list)
    model_tag: str = "unknown"

    @property
    def total_prompt_tokens(self) -> int:
        return sum(t.token_count for t in self.turns if t.role != Role.ASSISTANT)

    @property
    def total_completion_tokens(self) -> int:
        return sum(t.token_count for t in self.turns if t.role == Role.ASSISTANT)


@dataclass
class AgentOutcome:
    final_payload: str
    transcript: Transcript
    stop_reason: str = "final-answer"  # final-answer | step-exhaustion | token-exhaustion
    token_overshoot: int = 0


@dataclass(frozen=True)
class Budget:
    max_steps: int = 8
    max_tokens: int = 100_000


class LLMBackend:
    """Interface for loop backends; the loop asks ``prompt_token_count`` once per prompt turn."""

    model_tag = "unknown"

    def complete(self, turns: Sequence[ChatTurn]) -> ChatTurn:
        """Produce the next assistant turn for the given conversation."""
        raise NotImplementedError

    def prompt_token_count(self, role: Role, content: str, position: int) -> int:
        """Token count to record for the turn of ``role`` and ``content`` at ``position``."""
        return estimate_tokens(content)


class ScriptedStubBackend(LLMBackend):
    """Returns canned assistant responses in order; repeats the last one."""

    model_tag = "stub"

    def __init__(self, responses: Sequence[str]):
        if not responses:
            raise ValueError("stub backend needs at least one response")
        self.responses = list(responses)
        self._i = 0

    def complete(self, turns: Sequence[ChatTurn]) -> ChatTurn:
        text = self.responses[min(self._i, len(self.responses) - 1)]
        self._i += 1
        return ChatTurn(Role.ASSISTANT, text, token_count=estimate_tokens(text))


class ReplayBackend(LLMBackend):
    """Feeds back the assistant turns of a recorded transcript.

    Before each assistant turn is released, the live conversation's roles
    and tool names must match the recording's turns before it. Recorded
    token counts are reused for every turn so a replayed run reproduces the
    original accounting exactly.
    """

    def __init__(self, recorded: Transcript):
        self.recorded = recorded
        self.model_tag = recorded.model_tag
        self._assistant_positions = [
            i for i, t in enumerate(recorded.turns) if t.role == Role.ASSISTANT
        ]
        self._next = 0

    def complete(self, turns: Sequence[ChatTurn]) -> ChatTurn:
        if self._next >= len(self._assistant_positions):
            raise ReplayDivergenceError(
                "replay exhausted: live loop requested more assistant turns "
                f"than the {len(self._assistant_positions)} recorded"
            )
        pos = self._assistant_positions[self._next]
        recorded = [(t.role, t.tool_name) for t in self.recorded.turns[:pos]]
        if [(t.role, t.tool_name) for t in turns] != recorded:
            raise ReplayDivergenceError(
                f"replay divergence before assistant turn {self._next}: "
                "conversation shape differs from recording"
            )
        self._next += 1
        return self.recorded.turns[pos]

    def prompt_token_count(self, role: Role, content: str, position: int) -> int:
        if position < len(self.recorded.turns):
            recorded = self.recorded.turns[position]
            if recorded.role == role:
                return recorded.token_count
        return estimate_tokens(content)


API_KEY_ENV = "ARGUS_API_KEY"
LIVE_TIMEOUT_S = 60.0


class LiveHttpBackend(LLMBackend):
    """Minimal chat-completions client; endpoint and key are configuration.

    The API key is read from ``ARGUS_API_KEY`` at call time; no key
    material is ever persisted. An answer whose content is not a string,
    or whose ``usage.completion_tokens`` is not a count, is a
    :class:`BackendError`; without a count the completion is estimated.
    """

    def __init__(self, endpoint: str, model: str):
        self.endpoint = endpoint
        self.model = model
        self.model_tag = model

    def complete(self, turns: Sequence[ChatTurn]) -> ChatTurn:
        import os
        import urllib.error
        import urllib.request

        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise BackendError(f"environment variable {API_KEY_ENV} is not set")
        messages = [
            {"role": t.role.value, "content": t.content} for t in turns
        ]
        try:
            request = urllib.request.Request(  # a malformed endpoint raises here
                self.endpoint,
                data=json.dumps({"model": self.model, "messages": messages}).encode("utf-8"),
                headers={"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=LIVE_TIMEOUT_S) as resp:
                doc = json.load(resp)
            text = doc["choices"][0]["message"]["content"]
            usage = doc.get("usage")
            count = None if usage is None else usage.get("completion_tokens")
        except Exception as exc:  # noqa: BLE001 - every failure is one BackendError
            # It leaves run_react_loop with the exchanges so far: a scan
            # meters them and records a PoC stage error, or reviews the flow
            # by rules.
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an HTTP error holds the open response
            raise BackendError(f"live backend call failed: {exc}") from exc
        if not isinstance(text, str):
            raise BackendError(f"live backend answer content is not a string: {text!r}")
        if count is None:
            count = estimate_tokens(text)
        elif type(count) is not int or count < 0:
            raise BackendError(f"live backend completion_tokens is not a count: {count!r}")
        return ChatTurn(Role.ASSISTANT, text, token_count=count)


ToolFn = Callable[[dict], str]


def run_react_loop(
    system_prompt: str,
    task: str,
    tools: Mapping[str, ToolFn],
    backend: LLMBackend,
    budget: Budget = Budget(),
) -> AgentOutcome:
    """Alternate reasoning and tool execution until a final answer.

    Each assistant turn is scanned for a tool block (dispatched, with the
    result appended as a tool turn) or a final block (ends the loop). The
    loop also ends on step or token exhaustion; the outcome records which,
    and any token overshoot from the last turn is recorded rather than
    silently truncated. An :class:`ArgusError` from the backend leaves
    with ``transcript`` set to the turns up to the last answer, the
    exchanges that completed (no turns when none did).
    """
    transcript = Transcript(model_tag=backend.model_tag)
    turns = transcript.turns
    tokens = 0  # the transcript's prompt and completion tokens

    def prompt(role: Role, content: str, tool_name: Optional[str] = None):
        nonlocal tokens
        count = backend.prompt_token_count(role, content, len(turns))
        turns.append(ChatTurn(role, content, tool_name, count))
        tokens += count

    prompt(Role.SYSTEM, system_prompt)
    prompt(Role.USER, task)

    answered = 0  # the turns up to the last answer: the exchanges completed
    for _ in range(budget.max_steps):
        try:
            assistant = backend.complete(turns)
        except ArgusError as exc:
            exc.transcript = Transcript(turns[:answered], backend.model_tag)
            raise
        turns.append(assistant)
        answered = len(turns)
        tokens += assistant.token_count

        if tokens > budget.max_tokens:
            return AgentOutcome(
                final_payload="",
                transcript=transcript,
                stop_reason="token-exhaustion",
                token_overshoot=tokens - budget.max_tokens,
            )

        final = _FINAL_BLOCK.search(assistant.content)
        if final:
            return AgentOutcome(final.group(1).strip(), transcript)
        tool = _TOOL_BLOCK.search(assistant.content)
        if tool:
            name, raw_args = tool.group(1), tool.group(2)
            fn = tools.get(name)
            if fn is None:
                result = f"error: unknown tool {name!r}"
            else:
                try:
                    args = json.loads(raw_args) if raw_args.strip() else {}
                    result = fn(args)
                except Exception as exc:  # noqa: BLE001 - reported back to the agent
                    result = f"error: tool {name!r} failed: {exc}"
            prompt(Role.TOOL, result, name)
        # A turn with neither block is reasoning only; keep looping until
        # the budget runs out.

    return AgentOutcome(
        final_payload="",
        transcript=transcript,
        stop_reason="step-exhaustion",
    )


# ---------------------------------------------------------------------------
# Transcript persistence


def save_transcript(transcript: Transcript, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "format_version": TRANSCRIPT_FORMAT_VERSION,
            "model_tag": transcript.model_tag,
        }) + "\n")
        for t in transcript.turns:
            fh.write(json.dumps(asdict(t)) + "\n")


def load_transcript(path) -> Transcript:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, line) for no, line in enumerate(fh, start=1) if line.strip()]
    except UnicodeDecodeError as exc:
        raise BackendError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise BackendError(f"{path}: empty transcript file")
    header = _transcript_line(path, *lines[0])
    if header.get("format_version") != TRANSCRIPT_FORMAT_VERSION:
        raise BackendError(f"{path}: unsupported transcript format_version")
    turns = []
    for no, line in lines[1:]:
        raw = _transcript_line(path, no, line)
        try:
            if not isinstance(raw["content"], str):
                raise TypeError(f"content must be a string, got {raw['content']!r}")
            if not isinstance(raw.get("tool_name"), (str, type(None))):
                raise TypeError(f"tool_name must be a string or null, got {raw['tool_name']!r}")
            count = raw.get("token_count", 0)
            if type(count) is not int:
                raise TypeError(f"token_count must be an integer, got {count!r}")
            turns.append(ChatTurn(
                role=Role(raw.get("role")),
                content=raw["content"],
                tool_name=raw.get("tool_name"),
                token_count=count,
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendError(
                f"{path}: line {no}: malformed turn: {type(exc).__name__}: {exc}"
            ) from exc
    return Transcript(turns=turns, model_tag=header.get("model_tag", "unknown"))


def _transcript_line(path, no: int, line: str) -> dict:
    row = parse_json(line, BackendError, f"{path}: line {no}: not valid JSON")
    if not isinstance(row, dict):
        raise BackendError(f"{path}: line {no}: not a JSON object")
    return row


# ---------------------------------------------------------------------------
# Token metering


def meter_tokens(stage_transcripts: Mapping[str, Sequence[Transcript]]) -> dict:
    """The report's ``token_usage``: prompt and completion counts per stage,
    sorted by stage, and their totals."""
    per_stage = {
        stage: {
            "prompt": sum(t.total_prompt_tokens for t in transcripts),
            "completion": sum(t.total_completion_tokens for t in transcripts),
        }
        for stage, transcripts in sorted(stage_transcripts.items())
    }
    prompt = sum(s["prompt"] for s in per_stage.values())
    completion = sum(s["completion"] for s in per_stage.values())
    return {
        "per_stage": per_stage,
        "total_prompt": prompt,
        "total_completion": completion,
        "grand_total": prompt + completion,
    }
