"""Scenario files.

A scenario is a YAML mapping with one section per subsystem; every field maps
1:1 onto the corresponding config dataclass. Required keys are the fields
without a default (the transmitted and the assigned UUID). Unknown and
repeated keys are rejected by name so typos fail loudly instead of silently
running a default or the last copy; the values each field accepts are declared
on the dataclasses (config.py).
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from collections.abc import Iterable
from pathlib import Path
from typing import Any

import yaml
from yaml.composer import Composer
from yaml.events import AliasEvent

from .config import FieldError
from .errors import ConfigurationError, SchemaError
from .sim import Scenario


def _inner(hint) -> type:
    """The class an annotation names, through `list[...]` and `... | None`."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


# Scenario's field order puts frame before the demod hook that reads it
_SECTIONS: dict[str, type] = {
    name: _inner(hint) for name, hint in typing.get_type_hints(Scenario).items()
}


@functools.cache
def _list_items(cls: type) -> dict[str, type]:
    """Map each list field of `cls` to its item dataclass."""
    hints = typing.get_type_hints(cls)
    return {k: _inner(h) for k, h in hints.items() if typing.get_origin(h) is list}


def _field_names(cls: type) -> dict[str, bool]:
    """Map each field name of `cls` to whether the field has no default."""
    return {
        f.name: f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in dataclasses.fields(cls)
    }


def _require(mappings: Iterable[tuple[str, type, dict]]) -> None:
    """Name every field without a default that a (name, cls, data) mapping leaves out."""
    missing = [
        f"{name}.{key}"
        for name, cls, data in mappings
        for key, required in _field_names(cls).items()
        if required and key not in data
    ]
    if missing:
        raise SchemaError("missing required key(s): " + ", ".join(missing))


def _build(name: str, cls: type, data: Any, make=None):
    """Build `cls` (through `make` if given) from the mapping at `name`."""
    if not isinstance(data, dict):
        raise SchemaError(f"{name} must be a mapping")
    _require([(name, cls, data)])  # a list item's; the sections' are checked together
    items = _list_items(cls)
    known = _field_names(cls)
    kwargs = {}
    for key, value in data.items():
        where = f"{name}.{key}"
        if key not in known:
            raise SchemaError(f"unknown key {where}")
        if key in items:
            if not isinstance(value, list):
                raise SchemaError(f"{where} must be a list")
            value = [_build(f"{where}[{i}]", items[key], v) for i, v in enumerate(value)]
        kwargs[key] = value
    try:
        return (make or cls)(**kwargs)
    except FieldError as exc:
        raise SchemaError(f"{name}.{exc}") from exc
    except (ConfigurationError, TypeError) as exc:
        raise SchemaError(f"invalid value in {name}: {exc}") from exc


def scenario_from_dict(doc: Any) -> Scenario:
    """Validate a parsed scenario document and assemble the Scenario."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a mapping of sections")
    sections = {name: {} if data is None else data for name, data in doc.items()}
    for name, data in sections.items():
        if name not in _SECTIONS:
            raise SchemaError(
                f"unknown section {name!r}; expected one of {', '.join(_SECTIONS)}"
            )
        if not isinstance(data, dict):
            raise SchemaError(f"section {name!r} must be a mapping")

    _require((name, cls, sections.get(name, {})) for name, cls in _SECTIONS.items())

    # absent sections keep Scenario's defaults
    kwargs: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        if name in sections:
            make = None
            if name == "demod":
                # omitted taus still track the frame's bit rate
                make = functools.partial(cls.for_bit_rate, kwargs["frame"].bit_rate)
            kwargs[name] = _build(name, cls, sections[name], make)
    return Scenario(**kwargs)


# The bundled presets nest 5 levels deep: document, section, echoes list, echo, value
MAX_NESTING = 32

# libyaml's parser when PyYAML was built with it, else PyYAML's own
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _Loader(_SafeLoader, Composer):
    """Safe loader that rejects a mapping key given twice, at any depth, and
    nesting deeper than MAX_NESTING levels, through aliases too.

    Nodes are composed by PyYAML's Python composer even over libyaml's
    parser: its C composer recurses once per level, and about 100 000 nested
    brackets overflow the C stack before any check could run.
    """

    get_single_node = Composer.get_single_node  # libyaml's loader composes in C

    def __init__(self, stream):
        super().__init__(stream)
        Composer.__init__(self)
        self._depth = 0  # levels open above the node being composed
        self._height: dict[yaml.Node, int] = {}  # levels in each composed node's tree

    def compose_node(self, parent, index):
        if self.check_event(AliasEvent):
            # the alias repeats its anchor's tree here; an alias to an
            # enclosing node (a cycle) has no height yet and adds none
            node = super().compose_node(parent, index)
            self._check_depth(self._depth + self._height.get(node, 0))
            return node
        self._check_depth(self._depth + 1)
        self._depth += 1
        try:
            node = super().compose_node(parent, index)
        finally:
            self._depth -= 1
        if isinstance(node, yaml.MappingNode):
            children = [child for pair in node.value for child in pair]
        else:
            children = node.value if isinstance(node, yaml.SequenceNode) else ()
        self._height[node] = 1 + max((self._height.get(c, 0) for c in children), default=0)
        return node

    @staticmethod
    def _check_depth(depth: int) -> None:
        if depth > MAX_NESTING:
            raise SchemaError(f"nests deeper than {MAX_NESTING} levels")

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise SchemaError(
                        f"has duplicate key {key!r} on line {key_node.start_mark.line + 1}"
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, no permission
        raise SchemaError(
            f"scenario file not found or not readable: {path} ({exc.strerror or exc})"
        ) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"scenario file {path} is not UTF-8 text: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_Loader)
    except SchemaError as exc:  # a duplicate key, named with its line, or nesting too deep
        raise SchemaError(f"scenario file {path} {exc}") from exc
    # ValueError: a tagged scalar like !!int abc
    except (yaml.YAMLError, ValueError) as exc:
        raise SchemaError(f"scenario file {path} is not valid YAML: {exc}") from exc
    return scenario_from_dict(doc)
