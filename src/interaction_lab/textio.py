"""Text file formats: byte-stable CSV files and JSON object files.

CSV files are plain comma-separated text with an optional single leading comment
line (``# key=value key=value``) carrying provenance such as the config hash
and seed. Floats are rendered with 17 significant digits so that float64
values survive a write/read round trip bit for bit, and lines always end in
"\\n" regardless of platform, so identical results produce identical bytes.
write_csv writes every CSV file and read_json_object reads every JSON input
(train configs, model files); all text is UTF-8, whatever the locale.
"""
from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

from .errors import SchemaError, ValidationError

_KEY_RE = re.compile(r"^[A-Za-z0-9_.:-]+$")


def format_float(v: float) -> str:
    return format(float(v), ".17g")


def _meta_comment(meta: Mapping[str, object]) -> str:
    parts = []
    for key, value in meta.items():
        text = str(value)
        if not _KEY_RE.match(str(key)):
            raise SchemaError(f"metadata key {key!r} is not a bare token")
        if "=" in text or any(c.isspace() for c in text):
            raise SchemaError(f"metadata value for {key!r} must not contain '=' or whitespace")
        parts.append(f"{key}={text}")
    return "# " + " ".join(parts)


def _parse_meta(line: str) -> dict[str, str]:
    body = line[1:].strip()
    meta: dict[str, str] = {}
    if not body:
        return meta
    for token in body.split():
        if "=" not in token:
            raise SchemaError(f"malformed metadata token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = value
    return meta


def write_csv(path, header: str, rows: Sequence[Sequence[str]], meta: Mapping[str, object] | None = None) -> None:
    lines = []
    if meta:
        lines.append(_meta_comment(meta))
    lines.append(header)
    width = len(header.split(","))
    for row in rows:
        if len(row) != width:
            raise SchemaError(f"row has {len(row)} fields, header has {width}")
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


@contextmanager
def open_text(path, what: str, newline: str | None = None) -> Iterator[TextIO]:
    """The file opened for reading as UTF-8, whatever the locale.

    A file that cannot be read or decoded inside the block raises
    ValidationError naming it; what says which kind of input it is. newline
    is open()'s argument.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot decode {path} as UTF-8: {exc}") from None


def read_csv(path, header: str) -> tuple[list[list[str]], dict[str, str]]:
    """Rows (still as strings) plus the metadata mapping; strict about layout."""
    with open_text(path, "file") as fh:
        text = fh.read()
    lines = [ln for ln in text.split("\n") if ln != ""]
    meta: dict[str, str] = {}
    if lines and lines[0].startswith("#"):
        meta = _parse_meta(lines.pop(0))
    if not lines or lines[0] != header:
        found = lines[0] if lines else "<empty file>"
        raise SchemaError(f"expected header {header!r}, found {found!r}")
    width = len(header.split(","))
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != width:
            raise SchemaError(f"row {ln!r} has {len(fields)} fields, expected {width}")
        rows.append(fields)
    return rows, meta


def read_json_object(path, what: str) -> dict:
    """The JSON object the file holds; what names the kind of input in errors."""
    with open_text(path, what) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} {path} must hold a JSON object")
    return obj
