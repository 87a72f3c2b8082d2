"""Discrete design spaces: named parameters and their Cartesian product."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import SearchError

Config = Dict[str, Any]


@dataclass(frozen=True)
class Parameter:
    """One design knob with a finite set of values.

    Attributes:
        name: Parameter name (e.g. ``"compute_tier"``, ``"battery_wh"``).
        values: Candidate values, in a meaningful order when numeric.
    """

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise SearchError(f"parameter {self.name!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise SearchError(
                f"parameter {self.name!r} has duplicate values"
            )

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def is_numeric(self) -> bool:
        return all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in self.values)


class DesignSpace:
    """The Cartesian product of a list of parameters.

    Provides index <-> configuration mapping, uniform sampling, full
    enumeration, and a numeric encoding for surrogate models (numeric
    parameters are min-max scaled; categorical ones are one-hot).
    """

    def __init__(self, parameters: Sequence[Parameter]):
        if not parameters:
            raise SearchError("design space needs >= 1 parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise SearchError(f"duplicate parameter names: {names}")
        self.parameters = list(parameters)
        # Parameters are never mutated, so the product is computed once
        # (config_at checks its range on every call).
        size = 1
        for p in self.parameters:
            size *= p.cardinality
        self._size = size

    @property
    def size(self) -> int:
        return self._size

    def fingerprint_spec(self) -> Dict[str, Any]:
        """Identity for :func:`repro.engine.fingerprint.fingerprint`:
        the ordered parameter list is the whole space."""
        return {"kind": type(self).__name__,
                "parameters": self.parameters}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DesignSpace):
            return NotImplemented
        return self.parameters == other.parameters

    def __hash__(self) -> int:
        return hash(tuple(self.parameters))

    def config_at(self, index: int) -> Config:
        """The configuration at a flat index (mixed-radix decoding)."""
        if not 0 <= index < self.size:
            raise SearchError(
                f"index {index} out of range for space of size {self.size}"
            )
        config: Config = {}
        for p in reversed(self.parameters):
            index, digit = divmod(index, p.cardinality)
            config[p.name] = p.values[digit]
        return config

    def index_of(self, config: Config) -> int:
        """Flat index of a configuration (inverse of :meth:`config_at`)."""
        index = 0
        for p in self.parameters:
            try:
                digit = p.values.index(config[p.name])
            except (KeyError, ValueError):
                raise SearchError(
                    f"config {config!r} invalid at parameter {p.name!r}"
                ) from None
            index = index * p.cardinality + digit
        return index

    def __iter__(self) -> Iterator[Config]:
        for index in range(self.size):
            yield self.config_at(index)

    def sample(self, rng: np.random.Generator, n: int = 1,
               replace: bool = True) -> List[Config]:
        """Uniformly sample ``n`` configurations."""
        if not replace and n > self.size:
            raise SearchError(
                f"cannot sample {n} unique configs from a space of"
                f" {self.size}"
            )
        indices = rng.choice(self.size, size=n, replace=replace)
        return [self.config_at(int(i)) for i in indices]

    def encode(self, config: Config) -> np.ndarray:
        """Numeric feature vector for surrogate models."""
        features: List[float] = []
        for p in self.parameters:
            value = config[p.name]
            if p.is_numeric():
                lo = float(min(p.values))
                hi = float(max(p.values))
                span = hi - lo if hi > lo else 1.0
                features.append((float(value) - lo) / span)
            else:
                for candidate in p.values:
                    features.append(1.0 if candidate == value else 0.0)
        return np.array(features)

    @property
    def encoded_dim(self) -> int:
        return sum(1 if p.is_numeric() else p.cardinality
                   for p in self.parameters)

    def neighbors(self, config: Config) -> List[Config]:
        """All configs differing in exactly one parameter (for local
        search and GA mutation)."""
        result: List[Config] = []
        for p in self.parameters:
            for value in p.values:
                if value != config[p.name]:
                    alt = dict(config)
                    alt[p.name] = value
                    result.append(alt)
        return result
