"""Every name a ``repro`` module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import repro


def test_every_all_entry_resolves():
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    assert {"repro.core", "repro.host", "repro.telemetry"} <= set(names)
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        undefined = [
            attr for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
        if undefined:
            missing[name] = undefined
    assert not missing, f"__all__ lists undefined names: {missing}"
