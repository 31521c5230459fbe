"""Text file formats: one CSV dialect and JSON object files.

Every CSV file is read and written here, as Python's csv module does with
minimal quoting (a cell holding a comma, quote or newline is quoted) and "\\n"
line ends. Blank lines are skipped, and lines that start with '#' before the
header are comments: the program writes at most one, ``# key=value ...``,
carrying provenance such as the config hash and seed. Floats are rendered
with 17 significant digits, so float64 values survive a write/read round
trip bit for bit and identical results give identical bytes.
read_json_object reads every JSON input (train configs, model files). All
text is UTF-8 whatever the locale, and a byte order mark is read over.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import re
from pathlib import Path
from typing import Mapping, Sequence

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


def _parse_meta(comments: Sequence[str]) -> dict[str, str]:
    meta: dict[str, str] = {}
    for token in " ".join(line[1:] for line in comments).split():
        if "=" not in token:
            raise SchemaError(f"malformed metadata token {token!r}")
        key, value = token.split("=", 1)
        meta[key] = value
    return meta


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence[str]],
              meta: Mapping[str, object] | None = None) -> None:
    """The header row and rows, after one '# key=value' line when meta is given.

    What would not read back as written raises SchemaError: a first column
    name that starts with '#' or a byte order mark, and a carriage return or
    NUL in any cell (csv writes '\\r' unquoted, and some Pythons read no NUL).
    """
    bad = next((row for row in rows if len(row) != len(header)), None)
    if bad is not None:
        raise SchemaError(f"row has {len(bad)} fields, header has {len(header)}")
    if header and header[0].startswith(("#", "\ufeff")):
        raise SchemaError(f"first column name {header[0]!r} would not read back as written")
    out = io.StringIO()
    out.write(_meta_comment(meta) + "\n" if meta else "")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = out.getvalue()
    if "\r" in text or "\0" in text:
        raise SchemaError("CSV cells must not hold a carriage return or NUL")
    Path(path).write_text(text, encoding="utf-8", newline="")


def _read_text(path, what: str) -> str:
    """The file's text, line ends kept and a leading BOM dropped; errors name the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot decode {path} as UTF-8: {exc}") from None


def read_csv_rows(path, what: str) -> tuple[list[str], list[list[str]]]:
    """The leading '#' lines and the non-blank CSV rows after them; what names the input."""
    lines, comments = io.StringIO(_read_text(path, what), newline=""), []
    for line in lines:
        if line.startswith("#"):
            comments.append(line.rstrip("\r\n"))
        elif line.strip("\r\n"):
            break
    else:
        return comments, []
    try:
        return comments, [row for row in csv.reader(itertools.chain([line], lines)) if row]
    except csv.Error as exc:
        raise SchemaError(f"{what} {path} is not readable CSV: {exc}") from None


def read_csv(path, header: Sequence[str]) -> tuple[list[list[str]], dict[str, str]]:
    """Rows (still as strings) plus the metadata mapping; strict about layout."""
    comments, rows = read_csv_rows(path, "file")
    if not rows or rows[0] != list(header):
        found = ",".join(rows[0]) if rows else "<empty file>"
        raise SchemaError(f"expected header {','.join(header)!r}, found {found!r}")
    for row in rows[1:]:
        if len(row) != len(header):
            raise SchemaError(f"row {','.join(row)!r} has {len(row)} fields, "
                              f"expected {len(header)}")
    return rows[1:], _parse_meta(comments)


def read_json_object(path, what: str) -> dict:
    """The JSON object the file holds; what names the kind of input in errors."""
    try:
        obj = json.loads(_read_text(path, what))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} {path} must hold a JSON object")
    return obj
