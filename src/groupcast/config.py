"""The kind rule and the dict round trip shared by the config dataclasses.

``same_kind`` is the one rule for which kind a config value may take: the
CLI key tables check each value by it, and every ``DictConfig`` checks each
field against the field's annotation when it is built.

A config class lists its keys once, as dataclass fields. ``to_dict`` gives
every field, tuples as lists (JSON's arrays); ``from_dict`` takes such a
dict back, lists as tuples, and reports a bad key or value as ConfigError.
"""

import numbers
import types
from dataclasses import fields
from typing import Union, get_args, get_origin

from .errors import ConfigError


def same_kind(value, kind) -> bool:
    """True when value may stand for kind: a bool only for ``bool``, any
    integer for ``int``, any real number for ``float`` (a bool for neither),
    and any other kind as ``isinstance`` says; ``X | None`` also takes None.
    A parameterized tuple checks its elements by the same rule, nested:
    ``tuple[X, ...]`` any number of X, ``tuple[X, Y]`` exactly an X and a Y."""
    origin = get_origin(kind)
    if origin in (Union, types.UnionType):
        return any(same_kind(value, k) for k in get_args(kind))
    if origin is tuple and isinstance(value, tuple):
        args = get_args(kind)
        args = args[:1] * len(value) if args[1:] == (...,) else args
        return len(value) == len(args) and all(map(same_kind, value, args))
    kind = origin or kind
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(kind, kind))


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, (tuple, list)) else value


def _as_tuples(value):
    return tuple(_as_tuples(v) for v in value) if isinstance(value, list) else value


class DictConfig:
    """Mixin for a dataclass whose fields hold JSON values.

    Building one raises ConfigError for a field whose value is not of its
    annotated kind (``same_kind``); a subclass with a ``__post_init__`` of
    its own calls this one first. A subclass that sets ``KIND`` writes it
    as a ``"kind"`` entry, and ``from_dict`` accepts that entry back.
    """

    KIND: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not same_kind(value, f.type):
                kind = f.type.__name__ if isinstance(f.type, type) else f.type  # tuple[int, ...] in full
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")

    def to_dict(self) -> dict:
        d = {f.name: _as_lists(getattr(self, f.name)) for f in fields(self)}
        return d if self.KIND is None else {"kind": self.KIND, **d}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.__name__} needs an object, got {d!r}")
        d = dict(d)
        if cls.KIND is not None and d.pop("kind", cls.KIND) != cls.KIND:
            raise ConfigError(f"{cls.__name__} needs kind {cls.KIND!r}")
        try:
            return cls(**{k: _as_tuples(v) for k, v in d.items()})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {cls.__name__}: {exc}") from exc
