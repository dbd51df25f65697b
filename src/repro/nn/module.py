"""Module system: parameter containers with state-dict (de)serialisation.

Mirrors the ergonomics of ``torch.nn.Module`` closely enough that the
surrogate model code reads like the paper's reference implementation:
attribute assignment registers parameters/submodules, ``state_dict`` /
``load_state_dict`` round-trip through flat name→array mappings (used by
:mod:`repro.train.trainer`), and ``train()``/``eval()`` toggle
behavioural flags (batch-norm statistics).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a trainable leaf when assigned."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def register_buffer(self, key: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running stats)."""
        self._buffers[key] = np.asarray(value)
        object.__setattr__(self, key, self._buffers[key])

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield (f"{prefix}{name}", self._buffers[name])
        for name, mod in self._modules.items():
            yield from mod.named_buffers(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total trainable scalar count (paper reports this in Table IV)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[f"{name}"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters and buffers in place; every
        parameter must be present, at its own shape."""
        own = dict(self.named_parameters())
        missing = []
        for name, p in own.items():
            if name in state:
                if p.data.shape != state[name].shape:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{p.data.shape} vs {state[name].shape}"
                    )
                p.data[...] = state[name]
            else:
                missing.append(name)
        for name, buf in self.named_buffers():
            if name in state:
                buf[...] = state[name]
        if missing:
            raise KeyError(f"missing parameters in state dict: {missing}")

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """List container whose entries are registered submodules."""

    def __init__(self, modules: Optional[List[Module]] = None):
        super().__init__()
        self._list: List[Module] = []
        for m in modules or []:
            self.append(m)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._list))] = module
        self._list.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)
