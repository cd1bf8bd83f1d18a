"""The dict round trip shared by the config dataclasses.

A config class lists its keys once, as dataclass fields. ``to_dict`` gives
every field, tuples as lists (JSON's arrays); ``from_dict`` takes such a
dict back, lists as tuples, and reports a bad key or value as ConfigError.
"""

from dataclasses import fields

from .errors import ConfigError


def _as_lists(value):
    return [_as_lists(v) for v in value] if isinstance(value, (tuple, list)) else value


def _as_tuples(value):
    return tuple(_as_tuples(v) for v in value) if isinstance(value, list) else value


class DictConfig:
    """Mixin for a dataclass whose fields hold JSON values.

    A subclass that sets ``KIND`` writes it as a ``"kind"`` entry, and
    ``from_dict`` accepts that entry back.
    """

    KIND: str | None = None

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
