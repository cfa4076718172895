"""The benchmark tracer (perfbench/tracing.py) against the current package.

The tracer wraps extcalc callables by name, so a rename or deletion in
extcalc would otherwise show up only in a traced benchmark run.  Here it
is installed and uninstalled once: every name it wraps must resolve, and
every binding must be the original object again afterwards.
"""

import importlib.util
import os

import extcalc
import extcalc.cli  # noqa: F401  (binds every layer module)

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("extcalc_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    """Every module binding of each layer, and every attribute of the
    classes those modules define: all the tracer may patch."""
    out = {}
    for layer in layers:
        module = getattr(extcalc, layer)
        for key, value in vars(module).items():
            out[(layer, key)] = value
            if (isinstance(value, type)
                    and value.__module__ == module.__name__):
                for attr, member in vars(value).items():
                    out[(layer, key, attr)] = member
    return out


def test_tracer_wraps_every_name_and_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings(tracing.LAYERS)
    targets = tracing._targets(extcalc)
    for owner, attr, _, _ in targets:
        found = (attr in vars(owner) if isinstance(owner, type)
                 else hasattr(owner, attr))
        assert found, f"tracer target {owner.__name__}.{attr} is gone"
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install(extcalc)
        for (owner, attr, _, _), orig in zip(targets, originals):
            assert vars(owner)[attr] is not orig, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    after = _bindings(tracing.LAYERS)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
