"""One reader for every config section.

A section is a JSON object; the frozen dataclass that owns it states its
keys, defaults and checks. Field metadata says what is special about a key:
``"key"`` is its JSON name when that is not the field name (None: the field
cannot be set from a config), ``"keys"`` overrides the ``"key"`` of the
fields of a nested section, ``"parse"`` turns the JSON value into the
field value, and ``"when": (key, value)`` reads the key only in a section
whose ``key`` is ``value``. A field hinted bool, int, float or str (or one of
them | None) and without ``"parse"`` must hold that JSON type. No value may
hold NaN or an infinity, which JSON readers accept (1e400 reads as one). Nested
dataclasses and ``tuple[X, ...]`` of them are nested sections, a JSON
object where a Spectrum is allowed is a Spectrum, and lists become tuples.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass

from .spectral import Spectrum


class ConfigError(Exception):
    pass


class FieldError(ValueError):
    """A dataclass check that fails on one of its fields: `key` is that
    field's path below the section (``shadows[0]``), which the ConfigError
    names."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _keys(cls, keys: dict | None) -> dict:
    """JSON key -> field, for the fields of `cls` a config may set."""
    keys = keys or {}
    out = {}
    for f in fields(cls):
        key = keys[f.name] if f.name in keys else f.metadata.get("key", f.name)
        if key is not None:
            out[key] = f
    return out


def _is_section(hint) -> bool:
    return isinstance(hint, type) and is_dataclass(hint)


_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _scalar_error(value, hint) -> str | None:
    """Why `value` is not the JSON scalar a field hinted bool, int, float or
    str (or one of them | None) holds; None when it is, or for other hints."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kinds = [t for t in options if t is not type(None)]
    if len(kinds) != 1 or kinds[0] not in _SCALARS or (value is None and type(None) in options):
        return None
    kind = kinds[0]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and (kind is bool or not isinstance(value, bool)):
        return None
    return f"must be {_SCALARS[kind]}, got {value!r}"


def _finite(value) -> bool:
    """Whether every number in a JSON value, through its lists and objects,
    is finite."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def _frozen(value):
    return tuple(_frozen(v) for v in value) if isinstance(value, list) else value


def _value(value, hint, f, path: str):
    keys = f.metadata.get("keys")
    args = typing.get_args(hint)
    try:
        if "parse" in f.metadata:
            return f.metadata["parse"](value)
        if _is_section(hint):
            return from_config(hint, value, path, keys)
        if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,) \
                and _is_section(args[0]):
            return tuple(from_config(args[0], v, f"{path}[{i}]", keys)
                         for i, v in enumerate(value))
        if not _finite(value):
            raise ValueError("NaN and infinities are not allowed")
        if isinstance(value, dict) and Spectrum in args:
            return Spectrum.from_json(json.dumps(value))
        return _frozen(value)
    except KeyError as e:  # a spectrum object without one of its keys
        raise ConfigError(f"config missing key: {_join(path, str(e.args[0]))}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def from_config(cls, section, path: str = "", keys: dict | None = None):
    """The dataclass `cls` read from one config section. Unknown keys, a
    missing required key, a non-finite number, any TypeError or ValueError
    the dataclass raises, and a key that its "when" excludes are a
    ConfigError that names the dotted `path` (and, for a FieldError, the
    field below it). `keys` overrides the JSON keys of `cls`'s fields."""
    if not isinstance(section, dict):
        raise ConfigError(f"config section {path or '<top level>'} must be an object")
    known = _keys(cls, keys)
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(_join(path, k) for k in unknown))
    for key, f in known.items():
        when = f.metadata.get("when")
        if key in section and when and section.get(when[0]) != when[1]:
            raise ConfigError(f"config key {_join(path, key)} is read only when "
                              f"{_join(path, when[0])} is {when[1]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in known.items():
        if key in section:
            error = None if "parse" in f.metadata else _scalar_error(section[key], hints[f.name])
            if error:
                raise ConfigError(f"{path or 'config'}: {key} {error}")
            kwargs[f.name] = _value(section[key], hints[f.name], f, _join(path, key))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config missing key: {_join(path, key)}")
    try:
        return cls(**kwargs)
    except FieldError as e:
        raise ConfigError(f"{_join(path, e.key)}: {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path or 'config'}: {e}") from e


def to_config(obj, keys: dict | None = None) -> dict:
    """The section `from_config` reads back as the dataclass `obj` (whose
    fields have no "parse")."""
    def plain(value, keys):
        if isinstance(value, Spectrum):
            return json.loads(value.to_json())
        if is_dataclass(value):
            return to_config(value, keys)
        return [plain(v, keys) for v in value] if isinstance(value, tuple) else value

    return {key: plain(getattr(obj, f.name), f.metadata.get("keys"))
            for key, f in _keys(type(obj), keys).items()}
