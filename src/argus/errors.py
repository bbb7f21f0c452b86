"""Exception hierarchy shared across the pipeline, and the JSON read boundary.

Every JSON input (graph, config, manifest, sink registry, SARIF file,
advisory fixture, transcript line) is decoded by :func:`read_json` or
:func:`parse_json`. They turn an unreadable file, non-UTF-8 text, malformed
JSON and JSON nested too deep to decode into the caller's input error.
"""

import json
from typing import Any


class ArgusError(Exception):
    """Base class for all errors raised by this package.

    An error that ends an agent conversation carries in ``transcript`` the
    turns exchanged before it (see :func:`argus.agent.run_react_loop`).
    """

    transcript = None


class GraphParseError(ArgusError):
    """The graph document is syntactically malformed."""


class GraphIntegrityError(ArgusError):
    """The graph document violates referential integrity.

    Carries the offending id so diagnostics always name a concrete
    node/edge/function.
    """

    def __init__(self, message: str, offending_id: str):
        super().__init__(message)
        self.offending_id = offending_id


class ManifestError(ArgusError):
    """A dependency manifest is unsupported or malformed."""


class TransportError(ArgusError):
    """An advisory fixture file could not be read (non-fatal per source)."""


class BackendError(ArgusError):
    """An LLM backend failed mid-loop."""


class ReplayDivergenceError(ArgusError):
    """A replay backend received a prompt that differs from the recording."""


class SarifError(ArgusError):
    """A SARIF document could not be parsed or has an unsupported version."""


class UnknownSinkError(ArgusError):
    """A flow query or recursion request named a node id not in the graph."""

    def __init__(self, sink_id: str):
        super().__init__(f"unknown sink id: {sink_id!r}")
        self.sink_id = sink_id


class SurrogateMismatchError(ArgusError):
    """A forward flow handed to the stitcher does not end at a tree leaf."""


class ConfigError(ArgusError):
    """Pipeline configuration is invalid (maps to CLI exit code 2)."""


def parse_json(text: str, error: type[ArgusError], prefix: str) -> Any:
    """``json.loads(text)``; text that is not JSON, or is nested too deep to
    decode, raises ``error(f"{prefix}: {exc}")``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError
        raise error(f"{prefix}: {exc}") from exc


def read_json(path, error: type[ArgusError], prefix: str) -> Any:
    """The JSON document in the UTF-8 file ``path``; a file that cannot be
    read or decoded raises ``error(f"{prefix}: {exc}")``."""
    try:
        # One read and one decode: a text-mode file costs more to open than
        # a small document costs to decode.
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError: UnicodeDecodeError
        raise error(f"{prefix}: {exc}") from exc
    return parse_json(text, error, prefix)
