"""Every span boundary of the repository benchmark's tracer resolves.

``benchmarks/e2e/tracing.py`` binds its spans to names under ``src/``
(``BOUNDARIES``).  A boundary that no longer resolves produces no
spans, and its time silently folds into its parent's.  This resolves
each target the way ``Tracer._install_one`` does, without installing
anything: ``Tracer.install`` would wrap the classes for the rest of
the test session.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib

import pytest

TRACING = (pathlib.Path(__file__).resolve().parents[1]
           / "benchmarks" / "e2e" / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(target: str, opts: dict) -> None:
    """Raise if ``target`` ("module:attr.path") is not a function the
    tracer can wrap."""
    modname, path = target.split(":")
    module = importlib.import_module(modname)
    parts = path.split(".")
    if len(parts) == 1:
        fn = getattr(module, parts[0])
        assert inspect.isfunction(fn), f"{target} is not a function"
        only = opts.get("only")
        if only is not None:
            holder = importlib.import_module(only)
            assert any(v is fn for v in vars(holder).values()), \
                f"{only} does not import {parts[0]}"
        return
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = owner.__dict__[parts[-1]]
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{target} is not a function"


@pytest.mark.parametrize("target,opts",
                         [(t, o) for _n, t, o in tracing.BOUNDARIES],
                         ids=[f"{n}={t}" for n, t, _o in tracing.BOUNDARIES])
def test_boundary_resolves(target, opts):
    _resolve(target, opts)


def test_store_classes_resolve():
    """The modules whose ``ByteStore`` subclasses the tracer wraps."""
    for modname in tracing._STORE_MODULES:
        importlib.import_module(modname)
    assert inspect.isclass(
        importlib.import_module("repro.drx.storage").ByteStore)
