"""Module base class: parameter registration and traversal."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["Module", "weight_fingerprint"]


def weight_fingerprint(arr: np.ndarray) -> tuple:
    """Content stamp of a weight array for eval-cache invalidation.

    ``(id(arr), shape, hash of the raw bytes)``.  The content hash
    catches any in-place mutation of the weights — optimizer step,
    quantization, ``load_from_rconv``, even a value-permuting shuffle —
    and ``id`` catches a parameter rebound to another array, so a cache
    keyed on the stamp can never serve stale weights.  ``id`` rather
    than the buffer address, because reading ``arr.ctypes.data`` costs
    about 3 µs per call.  O(size), but ring weights are small by design
    (the paper's n-times DoF reduction), so this is negligible next to
    a convolution.
    """
    return (id(arr), arr.shape, hash(arr.tobytes()))


class Module:
    """Base class for layers and models.

    Parameters are discovered by walking instance attributes (including
    lists/tuples of modules), mirroring the familiar torch.nn API surface
    at a much smaller scale.
    """

    def __init__(self) -> None:
        self.training = True
        # Bumped whenever module state changes through a sanctioned
        # channel (train()/eval(), load_state_dict); consumed by
        # repro.nn.compile.model_stamp to invalidate compiled plans
        # together with the eval weight caches.
        self._state_version = 0

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        """Immediate sub-modules."""
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """This module and all descendants, depth first."""
        yield self
        for child in self.children():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """(name, parameter) pairs, names reflecting attribute paths."""
        for key, value in self.__dict__.items():
            path = f"{prefix}{key}"
            if isinstance(value, Parameter):
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{path}.{idx}.")
                    elif isinstance(item, Parameter):
                        yield f"{path}.{idx}", item

    def parameters(self) -> list[Parameter]:
        """All trainable parameters."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total count of real-valued trainable weights."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
            module._state_version = getattr(module, "_state_version", 0) + 1
            module._clear_weight_cache()
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def _clear_weight_cache(self) -> None:
        """Drop eval-mode cached weights; overridden by caching layers."""

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Load parameters in place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            param.data[...] = state[name]
        for module in self.modules():
            module._state_version = getattr(module, "_state_version", 0) + 1
            module._clear_weight_cache()
