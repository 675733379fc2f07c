"""Plugin loading: import modules/files that register systems.

A plugin is any Python module that calls
:func:`repro.systems.register_system` at import time (see
``examples/custom_system.py``).  ``load_plugins`` accepts dotted module names
and ``.py`` file paths; file plugins are imported under a stable synthetic
module name derived from their resolved path, so loading the same file twice
returns the cached module instead of re-registering (pass ``reload=True`` to
force a re-import, e.g. after :func:`repro.systems.unregister_system`).

The CLI exposes this as ``--plugins`` (repeatable) and additionally honours
the ``REPRO_PLUGINS`` environment variable (``os.pathsep``-separated
entries), so scripted sweeps can inject systems without editing commands.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import sys
from hashlib import sha256
from pathlib import Path
from types import ModuleType

from repro.systems.registry import SystemRegistryError

__all__ = ["load_plugins"]

#: Environment variable holding extra plugin entries (os.pathsep-separated).
PLUGIN_ENV_VAR = "REPRO_PLUGINS"


def load_plugins(
    entries=(), *, include_env: bool = False, reload: bool = False
) -> list[ModuleType]:
    """Import every plugin entry and return the loaded modules.

    ``entries`` mixes dotted module names and ``.py`` paths.  With
    ``include_env=True`` the ``REPRO_PLUGINS`` environment variable
    contributes additional entries.  Failures raise
    :class:`~repro.systems.registry.SystemRegistryError` naming the entry.
    """
    resolved = [str(entry) for entry in entries]
    if include_env:
        env = os.environ.get(PLUGIN_ENV_VAR, "")
        resolved.extend(part for part in (p.strip() for p in env.split(os.pathsep)) if part)
    return [_load_one(entry, reload=reload) for entry in resolved]


def _load_one(entry: str, *, reload: bool) -> ModuleType:
    path = Path(entry)
    if entry.endswith(".py") or path.exists():
        if not path.is_file():
            raise SystemRegistryError(
                f"plugin file not found: {entry!r} (give a .py file or an importable module name)"
            )
        return _load_file(path, reload=reload)
    try:
        module = importlib.import_module(entry)
        return importlib.reload(module) if reload else module
    except SystemRegistryError:
        raise
    except Exception as exc:
        raise SystemRegistryError(
            f"error while importing plugin module {entry!r}: {exc}"
        ) from exc


def _load_file(path: Path, *, reload: bool) -> ModuleType:
    resolved = path.resolve()
    # sha256 (not md5): stays available on FIPS-restricted Python builds.
    digest = sha256(str(resolved).encode("utf-8")).hexdigest()[:8]
    name = f"repro_plugins.{resolved.stem.replace('-', '_')}_{digest}"
    if not reload and name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, resolved)
    if spec is None or spec.loader is None:  # pragma: no cover - importlib internals
        raise SystemRegistryError(f"cannot build an import spec for plugin file {path!s}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(name, None)
        raise SystemRegistryError(f"error while loading plugin {path!s}: {exc}") from exc
    return module
