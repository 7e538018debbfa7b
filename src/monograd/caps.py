"""Resource caps, overridable through the MONOGRAD_CAPS environment variable.

Format: comma-separated key=value pairs, e.g.

    MONOGRAD_CAPS="polarized-vars=20,component-enum=100000"

Recognized keys: polarized-vars, component-enum, lq-generators, colex-enum,
nonface-unions.  polarized-vars bounds only polarize(); nonface-unions
bounds the lcm-lattice elements, bottom included, that the walk's mask
search reaches before it raises.  lq-generators bounds the generators of any
linear-quotients search; past it the auto Betti and regularity engines
skip the certificate.  component-enum bounds the monomials of a degree
component, the Koszul strand bases, and the (d+1)*2d exponents of the
overlapping-windows family (`family thm23 --d`).  Values are integers >= 0.
"""

import os
from typing import NamedTuple

from .errors import CapsFormatError

_ENV_VAR = "MONOGRAD_CAPS"

class Caps(NamedTuple):
    polarized_vars: int = 24
    component_enum: int = 10**6
    lq_generators: int = 64
    colex_enum: int = 10**6
    nonface_unions: int = 1 << 20


_KEYMAP = {name.replace("_", "-"): name for name in Caps._fields}


def _from_env(base: Caps) -> Caps:
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return base
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _KEYMAP:
            raise CapsFormatError(f"unknown {_ENV_VAR} key: {key!r}")
        try:
            cap = overrides[_KEYMAP[key]] = int(value)
        except ValueError:
            cap = -1
        if cap < 0:
            raise CapsFormatError(
                f"{_ENV_VAR} value for {key!r} is not a nonnegative "
                f"integer: {value.strip()!r}")
    return base._replace(**overrides)


_DEFAULTS = Caps()


def default_caps() -> Caps:
    """Caps from defaults plus any MONOGRAD_CAPS overrides (read per call)."""
    return _from_env(_DEFAULTS)
