"""The ``REPRO_*`` settings contract (:mod:`repro.settings`).

Every knob is parsed in one place under one boolean contract. Before it,
``REPRO_TRANSFORM=false`` and ``REPRO_VERIFY_PASSES=off`` turned their
stages *on* and an unknown spelling silently meant "true" for some knobs
and "false" for others. The AST guard at the bottom keeps every other
module from reading the environment directly.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

import pytest

from repro.core.framework import Loopapalooza
from repro.errors import ConfigError
from repro.frontend.codegen import compile_source
from repro.interp import codegen
from repro.interp.interpreter import Interpreter
from repro.interp.veccodegen import vec_available
from repro.passes import pass_manager
from repro.runtime import profile_store
from repro.runtime.profile_store import CodeCache, ProfileStore
from repro.settings import Settings, current, env_name

FIELDS = {field.name: field for field in dataclasses.fields(Settings)}
BOOL_KNOBS = sorted(env_name(name) for name, field in FIELDS.items()
                    if field.type is bool)
PATH_KNOBS = sorted(env_name(name) for name, field in FIELDS.items()
                    if field.type is not bool)
TRUE_SPELLINGS = ["1", "TRUE", "yes", "on"]
FALSE_SPELLINGS = ["0", "false", "No", "off", "", None]  # None: unset

SOURCE = """
int A[64];
int main() { int i; int s; s = 0;
  for (i = 0; i < 64; i = i + 1) { A[i] = i * 3; }
  for (i = 0; i < 64; i = i + 1) { s = s + A[i]; }
  return s & 255; }
"""


@pytest.fixture
def clean_env(monkeypatch):
    for field in FIELDS:
        monkeypatch.delenv(env_name(field), raising=False)
    return monkeypatch


def _attr(variable):
    return variable[len("REPRO_"):].lower()


@pytest.mark.parametrize("value", TRUE_SPELLINGS + FALSE_SPELLINGS)
@pytest.mark.parametrize("variable", BOOL_KNOBS)
def test_boolean_spellings(clean_env, variable, value):
    if value is not None:
        clean_env.setenv(variable, value)
    assert getattr(current(), _attr(variable)) is (value in TRUE_SPELLINGS)


@pytest.mark.parametrize("variable", BOOL_KNOBS)
def test_unknown_spelling_raises_naming_the_variable(clean_env, variable):
    clean_env.setenv(variable, "maybe")
    with pytest.raises(ConfigError, match=variable):
        current()


def test_whitespace_is_stripped(clean_env):
    clean_env.setenv("REPRO_TRANSFORM", " On ")
    clean_env.setenv("REPRO_NO_VEC", " 0 ")
    assert current().transform is True
    assert current().no_vec is False


@pytest.mark.parametrize("variable", PATH_KNOBS)
def test_path_knobs(clean_env, variable, tmp_path):
    assert getattr(current(), _attr(variable)) is None
    clean_env.setenv(variable, "")
    assert getattr(current(), _attr(variable)) is None
    clean_env.setenv(variable, str(tmp_path))
    assert getattr(current(), _attr(variable)) == str(tmp_path)


# -- the two regressions ----------------------------------------------------------


def test_transform_false_keeps_the_stage_off(clean_env):
    clean_env.setenv("REPRO_TRANSFORM", "false")
    assert Loopapalooza(SOURCE).transform is False


def test_verify_passes_off_is_not_forced(clean_env):
    checkpoints = []
    original = pass_manager._checkpoint

    def counting(module, stage):
        checkpoints.append(stage)
        original(module, stage)

    clean_env.setattr(pass_manager, "_checkpoint", counting)
    clean_env.setenv("REPRO_VERIFY_PASSES", "off")
    compile_source(SOURCE, transform=False)
    assert checkpoints == ["indvars"]  # the one unconditional check
    clean_env.setenv("REPRO_VERIFY_PASSES", "on")
    compile_source(SOURCE, transform=False)
    assert len(checkpoints) > 2


# -- which knobs may change what the caches hold ------------------------------------

#: Settings that change a cached artifact, and how they reach its key:
#: ``transform`` is hashed into both the profile-store and the code-cache
#: key; the tier (``no_jit``/``no_vec``) is in the code-cache key, and
#: profiles are backend-independent (``test_differential_backends.py``).
CACHE_KEYED = {"transform", "no_jit", "no_vec"}
#: Settings that only relocate, disable or observe.
NOT_KEYED = {"verify_passes", "no_profile_cache", "cache_dir", "runs_dir",
             "fuzz_corpus", "jit_dump", "sweep_fault_sentinel"}


def test_every_setting_is_classified_for_the_cache_keys():
    """A new knob fails here until someone decides whether it must reach
    the cache keys (a knob that changed cached output but never reached
    the key once served stale profiles)."""
    assert not CACHE_KEYED & NOT_KEYED
    assert set(FIELDS) == CACHE_KEYED | NOT_KEYED


def test_transform_reaches_the_profile_store_key(clean_env, tmp_path):
    store = ProfileStore(tmp_path)
    for value in ("0", "1"):
        clean_env.setenv("REPRO_TRANSFORM", value)
        Loopapalooza(SOURCE, store=store).profile()
    assert store.stats.stores == 2
    assert len(store.entries()) == 2


@pytest.mark.skipif(not vec_available(), reason="vector tier needs NumPy")
def test_backend_tier_reaches_the_code_cache_key(clean_env, tmp_path):
    cache = CodeCache(tmp_path)
    clean_env.setattr(profile_store, "_DEFAULT_CODE_CACHE", cache)
    module = compile_source(SOURCE)
    for value in ("0", "1"):
        clean_env.setenv("REPRO_NO_VEC", value)
        clean_env.setattr(codegen, "_CODE_MEMO", {})
        Interpreter(module).run("main")
    assert cache.stats.stores == 2
    assert len(cache.entries()) == 2


# -- tooling guard ------------------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
_ENV_ATTRS = {"environ", "getenv", "environb", "getenvb"}


def _environment_reads(tree):
    """Line numbers of every ``os.environ``/``os.getenv`` use that is not
    the target of an item assignment (``os.environ[name] = value``)."""
    aliases = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "os"}
    writes = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(a.name in _ENV_ATTRS for a in node.names)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _ENV_ATTRS
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases and id(node) not in writes):
            lines.append(node.lineno)
    return sorted(lines)


def test_guard_sees_reads_and_allows_writes():
    tree = ast.parse(
        "import os\nimport os as _o\nfrom os import getenv\n"
        "os.environ['A'] = '1'\nos.environ.get('B')\n_o.getenv('C')\n"
        "x = os.environ\n"
    )
    assert _environment_reads(tree) == [3, 5, 6, 7]


def test_no_environment_reads_outside_settings():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "settings.py" and path.parent == SRC:
            continue
        for line in _environment_reads(ast.parse(path.read_text())):
            offenders.append(f"{path.relative_to(SRC)}:{line}")
    assert offenders == [], (
        "read REPRO_* knobs through repro.settings.current(): "
        + ", ".join(offenders))
