"""Per-rank device-memory accounting.

The paper's Eq. 7-10 compare the per-GPU memory of Tesseract and
Megatron-LM.  The tracker measures the *actual* bytes held by each rank in
the simulation, split into categories, so the memory benchmark can put
measured numbers next to the closed forms.

Categories
----------
``params``       weights (persist across steps)
``grads``        weight gradients
``optimizer``    optimizer state (Adam moments, ...)
``activations``  forward-pass intermediates (peak tracked within a step)
``buffers``      temporary communication/work buffers
``kvcache``      per-request KV cache held by the serving engine
"""

from __future__ import annotations

from repro.errors import SimulationError

__all__ = ["MemoryTracker"]

_CATEGORIES = ("params", "grads", "optimizer", "activations", "buffers",
               "kvcache")


class MemoryTracker:
    """Tracks current and peak bytes per category for one rank."""

    def __init__(self, capacity_bytes: float | None = None, strict: bool = False):
        self.capacity_bytes = capacity_bytes
        #: raise when usage exceeds capacity (off by default: the simulator
        #: is often used to *demonstrate* that a config would not fit).
        self.strict = strict
        self._current = {c: 0.0 for c in _CATEGORIES}
        self._peak = {c: 0.0 for c in _CATEGORIES}
        self.peak_total = 0.0
        #: calls that changed the accounting so far; equal readings mean
        #: nothing touched the tracker in between
        self.changes = 0

    def alloc(self, nbytes: float, category: str = "buffers") -> None:
        """Record an allocation."""
        self._check_cat(category)
        if nbytes < 0:
            raise SimulationError(f"cannot allocate negative bytes {nbytes}")
        self.changes += 1
        current = self._current
        current[category] = held = current[category] + nbytes
        if held > self._peak[category]:
            self._peak[category] = held
        # summed afresh in category order, never kept as a running total:
        # a float sum depends on its order and peaks appear in reports
        total = sum(current.values())
        if total > self.peak_total:
            self.peak_total = total
        if (
            self.strict
            and self.capacity_bytes is not None
            and total > self.capacity_bytes
        ):
            raise SimulationError(
                f"simulated OOM: {total:.3e} B used > {self.capacity_bytes:.3e} B "
                f"capacity (category {category})"
            )

    def free(self, nbytes: float, category: str = "buffers") -> None:
        """Record a deallocation."""
        self._check_cat(category)
        if nbytes < 0:
            raise SimulationError(f"cannot free negative bytes {nbytes}")
        self.changes += 1
        self._current[category] -= nbytes
        if self._current[category] < -1e-6:
            raise SimulationError(
                f"double free in category {category}: balance "
                f"{self._current[category]:.3e} B"
            )

    def reset_activations(self) -> None:
        """Clear activation accounting at a step boundary."""
        self.changes += 1
        self._current["activations"] = 0.0

    @property
    def current_total(self) -> float:
        return sum(self._current.values())

    def current(self, category: str) -> float:
        self._check_cat(category)
        return self._current[category]

    def peak(self, category: str) -> float:
        self._check_cat(category)
        return self._peak[category]

    def would_fit(self) -> bool:
        """True if the peak stayed within the device capacity."""
        if self.capacity_bytes is None:
            return True
        return self.peak_total <= self.capacity_bytes

    def summary(self) -> dict[str, float]:
        """Peak bytes by category plus the overall peak."""
        out = {f"peak_{c}": self._peak[c] for c in _CATEGORIES}
        out["peak_total"] = self.peak_total
        return out

    @staticmethod
    def _check_cat(category: str) -> None:
        if category not in _CATEGORIES:
            raise SimulationError(
                f"unknown memory category {category!r}; valid: {_CATEGORIES}"
            )
