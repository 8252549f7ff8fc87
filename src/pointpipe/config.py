"""Plain key=value run configuration with CLI override.

Files hold one ``section.key = value`` pair per line ('#' starts a comment;
'=' may carry surrounding whitespace).  A command validates only the
sections it declares: unknown keys inside a declared section are errors,
foreign sections are ignored so one file can drive a whole pipeline.
Every option is also exposed as a command-line flag, which wins over the
file.  Paths from the file resolve relative to the file's directory, except
a path option's words: its default and the words its type names after
``path|``.  The command reads these itself (``composites``, ``harris``), so
they keep their meaning from a file as from a flag.

An option's type is the one statement of the values it accepts: ``RULES``
for the ranged types, a ``str`` type's words, and a ``<type> list`` of
comma-separated entries.  ``resolve`` checks every value, defaults included,
before a command runs, and raises ``ConfigError`` (``config key
<section.key>: ...``) for any other.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

REQUIRED = object()

# type: (parse, accepts, what an accepted value is)
RULES = {
    "count": (int, lambda v: v >= 1, ">= 1"),
    "budget": (int, lambda v: v >= 0, ">= 0 (0 keeps every point)"),
    "steps": (int, lambda v: v >= 0, ">= 0"),
    "radius": (float, lambda v: v >= 0.0, "a number >= 0"),
    "distance": (float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0"),
    "side": (int, lambda v: v >= 32, ">= 32"),
    "cells": (int, lambda v: v >= 32 and v % 8 == 0, ">= 32 and a multiple of 8"),
    "threshold": (float, math.isfinite, "a finite number"),
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Option:
    key: str  # full "section.key" name
    # int | float | bool | a RULES type | "<RULES type> list" | str or path, either followed by |word|...;
    # a str type with words accepts only them, a path type also accepts files (see words)
    type: str
    default: object = REQUIRED
    help: str = ""

    @property
    def words(self) -> tuple:
        """Values of a path option that name no file: its default and the words its type names."""
        return (self.default, *self.type.split("|")[1:])

    @property
    def flag(self) -> str:
        return "--" + self.key.split(".", 1)[1].replace("_", "-").replace(".", "-")

    @property
    def dest(self) -> str:
        return self.key.replace(".", "__")


def parse_config_file(path):
    pairs = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key or "." not in key:
                raise ConfigError(f"{path}:{lineno}: keys must look like section.key")
            pairs[key] = value.strip()
    return pairs, os.path.dirname(os.path.abspath(path))


def _convert(opt: Option, raw: str, base_dir: str | None):
    kind, *words = opt.type.split("|")
    if kind == "path":
        if base_dir is not None and raw and raw not in opt.words and not os.path.isabs(raw):
            return os.path.normpath(os.path.join(base_dir, raw))
        return raw
    if kind == "str":
        if words and raw not in words:
            raise ConfigError(f"config key {opt.key}: must be one of {', '.join(words)}, got {raw!r}")
        return raw
    item = kind.removesuffix(" list")
    listed = item != kind
    try:
        if kind == "bool":
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if kind in ("int", "float"):
            return int(raw) if kind == "int" else float(raw)
        parse, accepts, rule = RULES[item]
        values = [parse(part) for part in (raw.split(",") if listed else [raw])]
    except ValueError:
        raise ConfigError(f"config key {opt.key}: cannot parse {raw!r} as {opt.type}") from None
    for value in values:
        if not accepts(value):
            each = "each entry " if listed else ""
            raise ConfigError(f"config key {opt.key}: {each}must be {rule}, got {value}")
    return tuple(values) if listed else values[0]


def resolve(schema: list[Option], sections: set[str], file_pairs: dict, base_dir: str | None,
            cli_values: dict) -> dict:
    """Merge defaults < file < CLI; returns full-key -> typed value, each checked against its type."""
    by_key = {o.key: o for o in schema}
    for key in file_pairs:
        section = key.split(".", 1)[0]
        if section in sections and key not in by_key:
            raise ConfigError(f"unknown config key {key!r} in section {section!r}")
    out = {}
    for opt in schema:
        if opt.key in file_pairs:
            out[opt.key] = _convert(opt, file_pairs[opt.key], base_dir)
        elif opt.default is not REQUIRED:
            out[opt.key] = _convert(opt, str(opt.default), None)
        if opt.dest in cli_values and cli_values[opt.dest] is not None:
            out[opt.key] = _convert(opt, str(cli_values[opt.dest]), None)
        if opt.key not in out:
            raise ConfigError(f"missing required config key {opt.key!r}")
    return out
