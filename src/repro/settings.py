"""Every ``REPRO_*`` environment knob, parsed in one place.

:func:`current` reads ``os.environ`` into a frozen :class:`Settings`; no
other module in the package reads the environment. Each field ``name``
is driven by the variable ``REPRO_<NAME>`` (see :func:`env_name`).

Boolean knobs share one contract: ``1``/``true``/``yes``/``on`` are true;
unset, empty, ``0``/``false``/``no``/``off`` are false (case-insensitive,
surrounding whitespace ignored). Any other value raises
:class:`~repro.errors.ConfigError` naming the variable, so a typo can
never silently flip a pipeline stage. Path knobs treat empty as unset.

:func:`current` parses on every call and caches nothing: tests patch the
environment, ``repro --no-jit`` writes it before dispatch, and sweep
workers inherit it. Callers read it when they construct an interpreter,
a framework or a store, never per instruction.

Only ``transform`` and the backend tier (``no_jit``/``no_vec``) change
what the caches hold; both already reach the profile-store and JIT
code-cache keys through the values derived from them. The rest only
relocate, disable or observe.
"""

# No ``from __future__ import annotations``: current() dispatches on the
# field types themselves.
import dataclasses
import os
from typing import Optional

from .errors import ConfigError

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"", "0", "false", "no", "off"})


@dataclasses.dataclass(frozen=True)
class Settings:
    #: Run on the closure interpreter (outranks ``no_vec``).
    no_jit: bool = False
    #: Run on the scalar JIT instead of the vector-enabled one.
    no_vec: bool = False
    #: Opt into the structural transform stage (fission/peel/fusion).
    transform: bool = False
    #: Verify the IR between every pipeline stage.
    verify_passes: bool = False
    #: Disable the default profile store and JIT code cache.
    no_profile_cache: bool = False
    #: Root of the default profile store (the code cache is ``<root>/code``).
    cache_dir: Optional[str] = None
    #: Root of the run ledgers.
    runs_dir: Optional[str] = None
    #: The fuzzing quarantine directory.
    fuzz_corpus: Optional[str] = None
    #: Directory that receives every generated JIT source.
    jit_dump: Optional[str] = None
    #: Sweep-worker fault hook: ``always`` or a sentinel file path.
    sweep_fault_sentinel: Optional[str] = None

    @property
    def backend(self):
        """The default interpreter backend: ``closure``, ``jit`` or ``vec``."""
        if self.no_jit:
            return "closure"
        if self.no_vec:
            return "jit"
        return "vec"

    def to_dict(self):
        return dataclasses.asdict(self)


def env_name(field):
    """The environment variable behind a :class:`Settings` field."""
    return "REPRO_" + field.upper()


def _parse_bool(name, raw):
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ConfigError(
        f"{name}={raw!r}: expected one of 1/true/yes/on or 0/false/no/off"
    )


#: ``(field, variable, is_boolean)`` for every :class:`Settings` field.
_KNOBS = tuple((field.name, env_name(field.name), field.type is bool)
               for field in dataclasses.fields(Settings))


def current():
    """The settings the environment describes right now."""
    environ = os.environ
    values = {}
    for field, name, is_bool in _KNOBS:
        raw = environ.get(name, "")
        values[field] = _parse_bool(name, raw) if is_bool else raw or None
    return Settings(**values)
