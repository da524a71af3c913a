"""Central defaults for every tunable knob.

One frozen object holds the default term counts, thresholds, and budgets;
the GRADEFORGE_CONFIG environment variable may name a JSON file whose
keys override individual fields.  Commands print the effective object via
--show-config so reports stay reproducible.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .errors import SchemaError
from .rationals import read_json_arg, wire_object


@dataclass(frozen=True)
class Defaults:
    terms: int = 32
    window: int = 10
    max_period: int = 60
    zero_threshold: float = 0.5
    positive_threshold: float = 0.1
    max_states: int = 4096
    depth_budget: int = 8
    fingerprint_length: int = 64
    laguerre_nodes: int = 64
    quad_tolerance: float = 1e-10
    branch_terms: int = 40
    diagonal_order: int = 10

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not getattr(self, f.name) > 0:
                raise SchemaError(f"config field {f.name} must be positive")

    def depth_for_base(self, q: int) -> int:
        """Kernel depth scaled so the work stays near q^depth ~ 2^depth_budget,
        for a base q >= 2 (`christol_report` refuses any other first)."""
        return max(1, int(self.depth_budget / math.log2(q)))

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


#: The field defaults; the one source for every library-level default.
DEFAULTS = Defaults()

_INT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(Defaults) if f.type == "int"
)


def load_defaults(env: dict | None = None) -> Defaults:
    """Defaults, with overrides from the file named by GRADEFORGE_CONFIG."""
    source = os.environ if env is None else env
    path = source.get("GRADEFORGE_CONFIG")
    if not path:
        return DEFAULTS
    obj = wire_object(read_json_arg("@" + path, "config"), (), "config file")
    known = {f.name for f in dataclasses.fields(Defaults)}
    unknown = set(obj) - known
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    clean = {}
    for key, value in obj.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"config key {key} must be a number")
        if key in _INT_FIELDS:
            if isinstance(value, float) and not value.is_integer():
                raise SchemaError(f"config key {key} must be an integer")
            value = int(value)
        else:
            value = float(value)
        clean[key] = value
    return dataclasses.replace(DEFAULTS, **clean)
