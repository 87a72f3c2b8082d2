"""Validation primitives for the spec layer: typed coercion with paths.

Every helper takes the dotted path of the value it is checking and
raises :class:`~repro.errors.SpecError` with that path on failure, so a
deeply nested mistake in a scenario file surfaces as e.g.::

    $.suite.targets[2].cores: expected an integer, got str

instead of a traceback.  The helpers are deliberately tiny and
composable; :mod:`repro.spec.codec` builds whole-dataclass codecs out
of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Any, Optional, Tuple

from repro.errors import SpecError

__all__ = [
    "type_name", "child", "item", "require_mapping", "check_keys",
    "as_bool", "as_int", "as_float", "as_str", "as_scalar",
    "as_sequence", "get_field",
]


def type_name(value: Any) -> str:
    """Human name of a value's type (``null`` for ``None``)."""
    if value is None:
        return "null"
    return type(value).__name__


def child(path: str, key: str) -> str:
    """The dotted path of a mapping field."""
    return f"{path}.{key}"


def item(path: str, index: int) -> str:
    """The dotted path of a sequence element."""
    return f"{path}[{index}]"


def require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(
            f"{path}: expected an object, got {type_name(value)}"
        )
    for key in value:
        if not isinstance(key, str):
            raise SpecError(
                f"{path}: object keys must be strings,"
                f" got {type_name(key)}"
            )
    return value


def check_keys(payload: Mapping[str, Any], allowed: Iterable[str],
               path: str) -> None:
    """Reject keys outside ``allowed`` (``kind`` is always allowed)."""
    permitted = set(allowed) | {"kind"}
    unknown = sorted(set(payload) - permitted)
    if unknown:
        fields = ", ".join(repr(k) for k in unknown)
        raise SpecError(
            f"{path}: unknown field(s) {fields};"
            f" allowed: {sorted(permitted - {'kind'})}"
        )


def as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(
            f"{path}: expected a boolean, got {type_name(value)}"
        )
    return value


def as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(
            f"{path}: expected an integer, got {type_name(value)}"
        )
    return value


def as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(
            f"{path}: expected a number, got {type_name(value)}"
        )
    return float(value)


def as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SpecError(
            f"{path}: expected a string, got {type_name(value)}"
        )
    return value


def as_scalar(value: Any, path: str) -> Any:
    """A JSON scalar (string, bool, int, float) passed through as-is."""
    if value is None or not isinstance(value, (str, bool, int, float)):
        raise SpecError(
            f"{path}: expected a scalar (string, boolean, or number),"
            f" got {type_name(value)}"
        )
    return value


def as_sequence(value: Any, path: str,
                min_items: int = 0) -> Tuple[Any, ...]:
    if isinstance(value, (str, bytes, Mapping)) \
            or not isinstance(value, Iterable):
        raise SpecError(
            f"{path}: expected a list, got {type_name(value)}"
        )
    items = tuple(value)
    if len(items) < min_items:
        raise SpecError(
            f"{path}: expected at least {min_items} item(s),"
            f" got {len(items)}"
        )
    return items


_MISSING = object()


def get_field(payload: Mapping[str, Any], name: str, path: str,
              default: Any = _MISSING) -> Any:
    """Fetch ``payload[name]``; without a default, absence is an error."""
    if name in payload:
        return payload[name]
    if default is _MISSING:
        raise SpecError(f"{path}: missing required field {name!r}")
    return default


def require_one_of(payload: Mapping[str, Any], names: Iterable[str],
                   path: str) -> str:
    """Exactly one of ``names`` must be present; returns which."""
    present = [n for n in names if n in payload]
    if len(present) != 1:
        options = ", ".join(repr(n) for n in names)
        raise SpecError(
            f"{path}: exactly one of {options} is required,"
            f" got {len(present)}"
        )
    return present[0]


def optional_int(payload: Mapping[str, Any], name: str, path: str,
                 default: Optional[int]) -> Optional[int]:
    if name not in payload:
        return default
    return as_int(payload[name], child(path, name))
