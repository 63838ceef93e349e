"""Worker-pool and shared-resource lifecycle for the execution backends.

The ``"process"`` backend's process pool and the sharded databases'
shared-memory page publishers hold OS resources that outlive a single
query.  Each registers itself here the first time it materializes its
resource; :func:`close_all` — installed as an ``atexit`` hook on first
registration — shuts every registered object down in reverse registration
order, so a cleanly exiting process leaves no child processes and no
linked ``/dev/shm`` segments behind (``tests/test_process.py`` runs a leg under
``-W error::ResourceWarning`` to keep it that way).

Registration is idempotent and survives :meth:`close`: backends recreate
their pools lazily, so a closed-then-reused backend simply re-registers.
"""

from __future__ import annotations

import atexit
import threading
from typing import Any, Protocol

__all__ = ["Closeable", "close_all", "register", "unregister"]


class Closeable(Protocol):
    def close(self) -> None: ...


_lock = threading.Lock()
_closeables: list[Any] = []
_hook_installed = False


def register(closeable: Closeable) -> None:
    """Ensure ``closeable.close()`` runs at interpreter exit (idempotent)."""
    global _hook_installed
    with _lock:
        if not any(item is closeable for item in _closeables):
            _closeables.append(closeable)
        if not _hook_installed:
            atexit.register(close_all)
            _hook_installed = True


def unregister(closeable: Closeable) -> None:
    """Remove a registration (no-op when absent)."""
    with _lock:
        for i, item in enumerate(_closeables):
            if item is closeable:
                del _closeables[i]
                break


def close_all() -> None:
    """Close every registered object, newest first.  Idempotent."""
    with _lock:
        items = list(_closeables)
        _closeables.clear()
    for item in reversed(items):
        try:
            item.close()
        except Exception:
            pass  # exit hook: never let one failure block the rest
