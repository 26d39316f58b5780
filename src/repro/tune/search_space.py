"""Parameter spaces for format/schedule tuning."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np


def config_key(config: Dict[str, Any]) -> Tuple:
    """A hashable identity for one configuration (used to deduplicate)."""
    return tuple(sorted(config.items(), key=lambda item: item[0]))


@dataclass(frozen=True)
class Choice:
    """One tunable parameter: a name and its candidate values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"parameter {self.name!r} needs at least one candidate value")


class ParameterSpace:
    """A Cartesian product of named parameter choices."""

    def __init__(self, choices: Sequence[Choice]):
        names = [c.name for c in choices]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in the search space")
        self.choices = list(choices)

    def __len__(self) -> int:
        size = 1
        for choice in self.choices:
            size *= len(choice.values)
        return size

    def configurations(self) -> Iterator[Dict[str, Any]]:
        """Iterate over every configuration of the space."""
        names = [c.name for c in self.choices]
        for combo in itertools.product(*(c.values for c in self.choices)):
            yield dict(zip(names, combo))

    def sample(
        self, count: Union[int, np.random.Generator], seed: int = 0
    ) -> Union[Dict[str, Any], List[Dict[str, Any]]]:
        """Sample configurations uniformly, never repeating one.

        Two call shapes, so search strategies never re-implement config
        iteration themselves:

        * ``sample(count, seed=...)`` returns a list of ``count`` *distinct*
          configurations; a ``count`` at or beyond the space size returns the
          full enumeration (the guarantee the ``random`` strategy relies on
          when its trial budget exceeds the space).
        * ``sample(rng)`` with a :class:`numpy.random.Generator` draws a
          single configuration from the given generator and returns it as a
          dict (the shape evolutionary mutation uses).
        """
        if isinstance(count, np.random.Generator):
            return self._draw(count)
        rng = np.random.default_rng(seed)
        total = len(self)
        if count >= total:
            return list(self.configurations())
        picked = set()
        configs: List[Dict[str, Any]] = []
        while len(configs) < count:
            config = self._draw(rng)
            key = config_key(config)
            if key in picked:
                continue
            picked.add(key)
            configs.append(config)
        return configs

    def _draw(self, rng: np.random.Generator) -> Dict[str, Any]:
        return {
            c.name: c.values[int(rng.integers(0, len(c.values)))] for c in self.choices
        }

    def subspace(self, names: Sequence[str]) -> "ParameterSpace":
        """The space restricted to the named parameters (order preserved).

        Raises:
            KeyError: If any name is not a parameter of this space.
        """
        known = {c.name: c for c in self.choices}
        missing = [name for name in names if name not in known]
        if missing:
            raise KeyError(f"unknown parameters {missing}; space has {sorted(known)}")
        return ParameterSpace([c for c in self.choices if c.name in set(names)])

    def contains(self, config: Dict[str, Any]) -> bool:
        """Whether *config* assigns every parameter one of its candidate values."""
        known = {c.name: c.values for c in self.choices}
        if set(config) != set(known):
            return False
        return all(config[name] in values for name, values in known.items())

    def mutate(
        self, config: Dict[str, Any], rng: np.random.Generator
    ) -> Dict[str, Any]:
        """Flip one randomly chosen parameter of *config* to a different value.

        Parameters with a single candidate are left untouched; a space where
        every parameter has one value returns the config unchanged.
        """
        mutable = [c for c in self.choices if len(c.values) > 1]
        if not mutable:
            return dict(config)
        choice = mutable[int(rng.integers(0, len(mutable)))]
        alternatives = [v for v in choice.values if v != config.get(choice.name)]
        mutated = dict(config)
        mutated[choice.name] = alternatives[int(rng.integers(0, len(alternatives)))]
        return mutated

    def crossover(
        self, left: Dict[str, Any], right: Dict[str, Any], rng: np.random.Generator
    ) -> Dict[str, Any]:
        """Uniform crossover: each parameter inherits from one parent at random."""
        return {
            c.name: (left if rng.integers(0, 2) == 0 else right)[c.name]
            for c in self.choices
        }
