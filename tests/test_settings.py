"""Settings: every ``REPRO_*`` variable parsed in one module, one policy.

Unset or empty means the default; a valid value parses exactly as the
readers parsed it before; anything malformed, non-finite or out of range
raises a ValueError naming the variable — at the readers too, which
resolve the environment through :class:`~repro.settings.Settings` only
(the AST guard below keeps it that way).
"""

import ast
import re
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import pytest

from repro.runner import BatchRunner, RetryPolicy
from repro.runner.batch import resolve_workers
from repro.service.server import ReproService
from repro.settings import (
    KINDS,
    Settings,
    non_negative_float,
    non_negative_int,
    path,
    positive_float,
    positive_int,
)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: (variable, raw value, parsed value): one valid row per variable
VALID = [
    ("REPRO_WORKERS", "5", 5),
    ("REPRO_RESULT_CACHE", "/tmp/results", "/tmp/results"),
    ("REPRO_TRACE_CACHE", "store", "store"),
    ("REPRO_MEM_CACHE_MB", "2", 2.0),
    ("REPRO_SIM_SCALE", "0.25", 0.25),
    ("REPRO_MAX_MAPPINGS", "6", 6),
    ("REPRO_JOB_TIMEOUT", "12.5", 12.5),
    ("REPRO_MAX_ATTEMPTS", "5", 5),
    ("REPRO_RETRY_BACKOFF", "0.25", 0.25),
    ("REPRO_RETRY_JITTER", "0.3", 0.3),
    ("REPRO_MAX_POOL_RESPAWNS", "0", 0),
]

#: one bad value per way a kind of value can be wrong
BAD = {
    positive_int: {"malformed": "many", "fractional": "2.5", "zero": "0",
                   "negative": "-4"},
    non_negative_int: {"malformed": "lots", "fractional": "2.5",
                       "negative": "-1"},
    positive_float: {"malformed": "soon", "nan": "nan", "inf": "inf",
                     "zero": "0", "negative": "-0.5"},
    non_negative_float: {"malformed": "abc", "nan": "nan", "inf": "inf",
                         "-inf": "-inf", "negative": "-3"},
    path: {},
}

FIELDS = {f.metadata["env"]: f for f in fields(Settings)}
VARIABLES = list(FIELDS)


def _bad_rows():
    for name, f in FIELDS.items():
        for kind, raw in BAD[f.metadata["parse"]].items():
            yield pytest.param(name, raw, id=f"{name}-{kind}")


def test_rows_cover_every_variable_and_kind():
    assert [name for name, _, _ in VALID] == VARIABLES
    assert len(VARIABLES) == 11
    assert list(READERS) == VARIABLES
    assert BAD.keys() == KINDS.keys()


@pytest.mark.parametrize("name", VARIABLES)
@pytest.mark.parametrize("environ", ["unset", "empty"])
def test_unset_or_empty_means_default(name, environ):
    env = {} if environ == "unset" else {name: ""}
    assert Settings.from_env(env) == Settings()


@pytest.mark.parametrize("name,raw,expected", VALID)
def test_valid_value_parses(name, raw, expected):
    settings = Settings.from_env({name: raw})
    assert getattr(settings, FIELDS[name].name) == expected
    assert type(getattr(settings, FIELDS[name].name)) is type(expected)


@pytest.mark.parametrize("name,raw", _bad_rows())
def test_bad_value_raises_naming_the_variable(name, raw):
    with pytest.raises(ValueError, match=f"^{name} must be .*{re.escape(raw)}"):
        Settings.from_env({name: raw})


def test_reads_os_environ_by_default(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_MAPPINGS", "7")
    assert Settings.from_env().max_mappings == 7


def test_default_policy_is_retry_policy_defaults():
    assert Settings().retry_policy() == RetryPolicy()


def test_retry_policy_from_settings():
    p = Settings.from_env({
        "REPRO_MAX_ATTEMPTS": "5",
        "REPRO_JOB_TIMEOUT": "12.5",
        "REPRO_RETRY_BACKOFF": "0.25",
        "REPRO_RETRY_JITTER": "0.3",
        "REPRO_MAX_POOL_RESPAWNS": "1",
    }).retry_policy()
    assert p == RetryPolicy(max_attempts=5, timeout=12.5, backoff_base=0.25,
                            jitter=0.3, max_pool_respawns=1)


def test_resolve_workers(monkeypatch):
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    monkeypatch.setenv("REPRO_WORKERS", "5")
    assert resolve_workers() == 5
    monkeypatch.delenv("REPRO_WORKERS")
    assert resolve_workers() >= 1


# -- the readers fail loudly too ---------------------------------------------


def _runner(tmp_path):
    return BatchRunner(workers=1, trace_store=False)


def _service(tmp_path):
    return ReproService(runner=None)


@pytest.mark.parametrize("name,raw,build", [
    # Each of these used to be accepted: a nan deadline never expires,
    # an inf jitter makes time.sleep raise OverflowError, and a garbled
    # frame budget fell back to 64 MB with a warning.
    ("REPRO_JOB_TIMEOUT", "nan", _runner),
    ("REPRO_RETRY_JITTER", "inf", _runner),
    ("REPRO_MEM_CACHE_MB", "abc", _service),
    # ... and the ones that warned or clamped before.
    ("REPRO_MAX_ATTEMPTS", "lots", _runner),
    ("REPRO_WORKERS", "-4", _runner),
])
def test_readers_raise_on_bad_values(monkeypatch, tmp_path, name, raw, build):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=name):
        build(tmp_path)


def _scale():
    from repro.experiments.scale import default_scale

    return default_scale()


def _built(attr, workers=1, trace_store=False):
    """``attr`` of a runner built from the environment (closed again)."""
    with BatchRunner(workers=workers, trace_store=trace_store) as runner:
        return attrgetter(attr)(runner)


#: variable -> what its reader made of it (the reader builds from the env)
READERS = {
    "REPRO_WORKERS": lambda tmp: _built("workers", workers=None),
    "REPRO_RESULT_CACHE": lambda tmp: _built("cache_dir"),
    "REPRO_TRACE_CACHE": lambda tmp: _built("store_dir", trace_store=None),
    "REPRO_MEM_CACHE_MB": lambda tmp: _service(tmp).frame_budget_bytes,
    "REPRO_SIM_SCALE": lambda tmp: _scale().commit_target,
    "REPRO_MAX_MAPPINGS": lambda tmp: _scale().max_mappings,
    "REPRO_JOB_TIMEOUT": lambda tmp: _built("policy.timeout"),
    "REPRO_MAX_ATTEMPTS": lambda tmp: _built("policy.max_attempts"),
    "REPRO_RETRY_BACKOFF": lambda tmp: _built("policy.backoff_base"),
    "REPRO_RETRY_JITTER": lambda tmp: _built("policy.jitter"),
    "REPRO_MAX_POOL_RESPAWNS": lambda tmp: _built("policy.max_pool_respawns"),
}

#: what each reader holds for the VALID row's value, where that is not
#: the parsed value itself (paths are redirected under tmp_path)
DERIVED = {
    "REPRO_RESULT_CACHE": lambda tmp: str(tmp / "results"),
    "REPRO_TRACE_CACHE": lambda tmp: str(tmp / "store"),
    "REPRO_MEM_CACHE_MB": lambda tmp: 2 * 1024 * 1024,
    "REPRO_SIM_SCALE": lambda tmp: 2_000,
}


@pytest.mark.parametrize("name,raw,expected", VALID)
def test_each_variable_reaches_its_reader(monkeypatch, tmp_path, name, raw,
                                          expected):
    """Setting a variable changes what its reader builds, to the value
    the README's Settings table promises."""
    if name in DERIVED:
        expected = DERIVED[name](tmp_path)
    if FIELDS[name].metadata["parse"] is path:
        raw = expected
    # unset REPRO_WORKERS falls back to the cpu count: pin it below 5
    monkeypatch.setattr("repro.runner.batch.os.cpu_count", lambda: 1)
    monkeypatch.delenv(name, raising=False)
    unset = READERS[name](tmp_path)
    monkeypatch.setenv(name, raw)
    assert READERS[name](tmp_path) == expected != unset


# -- the guard: settings.py is the only REPRO_* reader ------------------------

#: the test-only fault-injection protocol re-reads its own variables
ALLOWED = {"settings.py", "runner/faults.py"}


def _env_reads(tree: ast.AST) -> list:
    """Line numbers of environment reads whose key is a ``REPRO_*``
    name or not a literal at all (a helper's parameter, say)."""

    def is_env(node) -> bool:  # os.environ / os.getenv
        return (isinstance(node, ast.Attribute) and node.attr in
                ("environ", "getenv") and isinstance(node.value, ast.Name)
                and node.value.id == "os")

    def suspicious(key) -> bool:
        return not (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and not key.value.startswith("REPRO_"))

    lines = []
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if is_env(func) or (isinstance(func, ast.Attribute)
                                and is_env(func.value)):
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and is_env(node.value):
            key = node.slice
        elif (isinstance(node, ast.Compare)
              and any(is_env(c) for c in node.comparators)):
            key = node.left
        if key is not None and suspicious(key):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,flagged", [
    ('import os\nos.environ.get("REPRO_WORKERS")', True),
    ('import os\nos.getenv("REPRO_SIM_SCALE", "1")', True),
    ('import os\nx = os.environ["REPRO_TRACE_CACHE"]', True),
    ('import os\n"REPRO_X" in os.environ', True),
    ('import os\ndef f(name):\n    return os.environ.get(name)', True),
    ('import os\nos.environ.get("HOME")', False),
    ('import os\nenv = dict(os.environ, PYTHONPATH="src")', False),
])
def test_guard_flags_environment_reads(source, flagged):
    assert bool(_env_reads(ast.parse(source))) is flagged


def test_only_settings_reads_repro_variables():
    offenders = []
    for module in sorted(PACKAGE.rglob("*.py")):
        rel = module.relative_to(PACKAGE).as_posix()
        if rel in ALLOWED:
            continue
        for line in _env_reads(ast.parse(module.read_text(), str(module))):
            offenders.append(f"{rel}:{line}")
    assert offenders == []


# -- the README's Settings table ---------------------------------------------


def test_readme_table_lists_exactly_the_settings_variables():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE)
    assert rows == VARIABLES
