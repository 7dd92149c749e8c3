"""Structured logging for the PinSQL diagnosis service.

Everything logs through the ``repro`` logger hierarchy via stdlib
``logging``; this module adds two structured formatters (logfmt-style
``key=value`` and JSON lines) and the single :func:`configure_telemetry`
entry point that installs them.  Call sites attach structured fields
with the standard ``extra={...}`` mechanism::

    log = get_logger("service")
    log.info("anomaly diagnosed", extra={"anomaly_start": 610, "rsql": "S12"})

Without :func:`configure_telemetry` the hierarchy carries a
``NullHandler`` and stays silent — importing the library never spams
stderr.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from typing import IO

__all__ = [
    "KeyValueFormatter",
    "JsonFormatter",
    "get_logger",
    "configure_telemetry",
]

ROOT_LOGGER_NAME = "repro"

#: Attributes every LogRecord carries; anything else came in via extra=.
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


def _record_fields(record: logging.LogRecord) -> dict[str, object]:
    fields: dict[str, object] = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(record.created))
        + f".{int(record.msecs):03d}",
        "level": record.levelname,
        "logger": record.name,
        "msg": record.getMessage(),
    }
    for key, value in record.__dict__.items():
        if key not in _RESERVED:
            fields[key] = value
    if record.exc_info and record.exc_info[0] is not None:
        fields["exc"] = record.exc_info[0].__name__
    return fields


class KeyValueFormatter(logging.Formatter):
    """logfmt-style ``key=value`` lines; values with spaces are quoted."""

    def format(self, record: logging.LogRecord) -> str:
        parts = []
        for key, value in _record_fields(record).items():
            text = str(value)
            if " " in text or "=" in text or text == "":
                text = '"' + text.replace('"', r"\"") + '"'
            parts.append(f"{key}={text}")
        return " ".join(parts)


class JsonFormatter(logging.Formatter):
    """One JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(_record_fields(record), default=str)


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``get_logger("service")``)."""
    root = logging.getLogger(ROOT_LOGGER_NAME)
    return root.getChild(name) if name else root


# Keep the library silent until explicitly configured.
get_logger().addHandler(logging.NullHandler())


def configure_telemetry(
    level: int | str = logging.INFO,
    fmt: str = "kv",
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Install structured logging on the ``repro`` hierarchy.

    Idempotent: reconfiguring replaces the previously installed handler
    rather than stacking duplicates.  Returns the root ``repro`` logger.

    Parameters
    ----------
    level:
        Logging level (name or numeric).
    fmt:
        ``"kv"`` for logfmt-style lines, ``"json"`` for JSON lines.
    stream:
        Destination stream (default ``sys.stderr``).
    """
    if fmt not in ("kv", "json"):
        raise ValueError(f"fmt must be 'kv' or 'json', got {fmt!r}")
    logger = get_logger()
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_telemetry", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if fmt == "json" else KeyValueFormatter())
    handler._repro_telemetry = True
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger
