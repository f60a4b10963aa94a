"""Type checks for the numeric fields of the plain-data configuration classes.

Scenario specs come from JSON, where a field can hold any JSON value.  The
configuration dataclasses call :func:`check_number_fields` before their
range checks, so a string or a list in a numeric field raises a
``ValueError`` naming the field while the spec is parsed, not a
``TypeError`` from a comparison here or from ``range()`` inside a campaign
worker.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any

#: Field annotation, as written (the config modules postpone annotations),
#: mapped to the number type its value must have and how errors name it.
_NUMBER_FIELDS = {
    "int": (numbers.Integral, "an integer"),
    "Optional[int]": (numbers.Integral, "an integer or null"),
    "float": (numbers.Real, "a real number"),
}


def check_number_fields(config: Any) -> None:
    """Raise a ``ValueError`` naming the first numeric field of the wrong type.

    A ``bool`` is rejected although Python counts it as a number, and an
    ``Optional[int]`` field also takes ``None``.
    """
    for field in dataclasses.fields(config):
        rule = _NUMBER_FIELDS.get(field.type)
        value = getattr(config, field.name)
        if rule is None or (value is None and field.type == "Optional[int]"):
            continue
        kind, wanted = rule
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{field.name} must be {wanted}, got {value!r}")
