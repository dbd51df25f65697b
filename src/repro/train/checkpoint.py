"""Model/optimiser checkpointing to compressed ``.npz`` archives."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from ..nn.module import Module
from .optim import Optimizer

__all__ = ["save_checkpoint", "load_checkpoint", "load_model_like"]

_META_KEY = "__meta__"


def save_checkpoint(path: str | Path, model: Module,
                    optimizer: Optional[Optimizer] = None,
                    extra: Optional[Dict] = None) -> None:
    """Write model weights (+ optimiser scalars + user metadata)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"model/{k}": v for k, v in model.state_dict().items()}
    meta: Dict = {"extra": extra or {}}
    if optimizer is not None:
        meta["optimizer"] = optimizer.state_dict()
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_model_like(path: str | Path, like: Module) -> Module:
    """A fresh model of ``like``'s class/config with weights from ``path``.

    The serving deploy path must never mutate the live model — in-flight
    requests are pinned to the weights that admitted them — so a new
    checkpoint is always restored into a *new* instance, built from the
    running model's class and config (``type(like)(like.config)``), and
    the live one is left untouched.  Raises whatever
    :func:`load_checkpoint` raises on a missing or mismatched archive,
    before anything serving-visible has changed.
    """
    model = type(like)(like.config)
    load_checkpoint(path, model)
    return model


def load_checkpoint(path: str | Path, model: Module) -> Dict:
    """Restore weights in place; returns the stored metadata dict."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path) as z:
        state = {
            k[len("model/"):]: z[k] for k in z.files if k.startswith("model/")
        }
        meta = json.loads(bytes(z[_META_KEY]).decode("utf-8")) \
            if _META_KEY in z.files else {}
    model.load_state_dict(state)
    return meta
