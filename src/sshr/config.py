"""The one loader from JSON objects to typed configs.

Unknown keys, missing required keys and values of the wrong type raise a
``ConfigError`` that names the dotted path, e.g. ``model.stack.depth must
be int, got 3.7``.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import json
import math
import reprlib
import types
import typing

import numpy as np

from .errors import ConfigError

_NAMES = {dict: "an object", tuple: "a list", float: "a finite number", np.ndarray: "a nested list of finite numbers"}


@functools.cache
def _params(fn) -> dict:
    """Parameter name -> (type hint, default) of ``fn``, resolved once;
    every parameter must be annotated."""
    hints = typing.get_type_hints(fn)
    return {name: (hints[name], p.default) for name, p in inspect.signature(fn).parameters.items()}


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _numbers(value) -> bool:
    """Whether ``value`` is a (nested) list whose leaves are JSON numbers."""
    return isinstance(value, list) and all(
        _numbers(v) if isinstance(v, list) else type(v) in (int, float) for v in value
    )


def typed(value, hint, where: str):
    """``value`` checked against ``hint``: an int is accepted for a float,
    a bool never for an int; ``tuple`` hints take lists, dataclasses take
    objects and ``np.ndarray`` takes nested numeric lists."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]  # only X | None unions are used
        return typed(value, hint, where)
    if origin is tuple and isinstance(value, list):
        if args[-1] is Ellipsis:
            return tuple(typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
        if len(value) == len(args):
            return tuple(typed(v, a, f"{where}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
    elif origin is dict and isinstance(value, dict):
        return {k: typed(v, args[1], _at(where, k)) for k, v in value.items()}
    elif dataclasses.is_dataclass(hint):
        return hint.from_dict(value, where)
    elif hint is np.ndarray and _numbers(value):
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, or an int beyond float range
            arr = None
        if arr is not None and np.isfinite(arr).all():
            return arr
    elif hint is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    elif type(value) is hint:
        return value
    name = _NAMES.get(origin or hint) or hint.__name__
    raise ConfigError(f"{where} must be {name}, got {reprlib.repr(value)}")


def strict_args(fn, d, where: str) -> dict:
    """Keyword arguments for ``fn`` from the JSON object ``d``: every
    parameter of ``fn``, typed, with omitted ones at their defaults."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {reprlib.repr(d)}")
    params = _params(fn)
    unknown = sorted(set(d) - set(params))
    if unknown:
        raise ConfigError(f"unknown key {_at(where, unknown[0])}")
    args = {}
    for name, (hint, default) in params.items():
        if name in d:
            args[name] = typed(d[name], hint, _at(where, name))
        elif default is inspect.Parameter.empty:
            raise ConfigError(f"{_at(where, name)} is required")
        else:
            args[name] = default
    return args


def overlay(base: dict, over: dict) -> dict:
    """A deep copy of ``base`` with ``over`` laid on top, merging nested
    objects key by key; nothing is checked."""
    out = copy.deepcopy(base)
    for key, value in over.items():
        both = isinstance(out.get(key), dict) and isinstance(value, dict)
        out[key] = overlay(out[key], value) if both else copy.deepcopy(value)
    return out


class Strict:
    """Mixin for config dataclasses: strict JSON loading and dumping."""

    @classmethod
    def from_dict(cls, d, where: str | None = None):
        """Build from a JSON object; errors name their path under ``where``
        (the class name by default)."""
        where = cls.__name__ if where is None else where
        args = strict_args(cls, d, where)
        try:
            return cls(**args)
        except ConfigError as err:
            raise ConfigError(f"{where}: {err}") from None

    def to_dict(self) -> dict:
        """Plain JSON values: tuples and arrays become lists."""
        return json.loads(json.dumps(dataclasses.asdict(self), default=np.ndarray.tolist))
