"""The time budget of a run and the one checkpoint every stage calls.

A `Budget` is made active for a block with `with budget.active():`; inside
it, `checkpoint()` raises BudgetExceeded once the budget has run out.  With
no active budget `checkpoint()` does nothing, so library calls outside the
command line run unbounded.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


class BudgetExceeded(RuntimeError):
    """The configured time budget ran out."""


@dataclass
class Budget:
    seconds: float | None = None
    start: float = field(default_factory=time.monotonic)

    def check(self):
        if self.seconds is not None and time.monotonic() - self.start > self.seconds:
            raise BudgetExceeded(f"time budget of {self.seconds}s exceeded")

    @contextmanager
    def active(self):
        """Make this the budget that `checkpoint` checks, for the block."""
        token = _ACTIVE.set(self)
        try:
            yield
        finally:
            _ACTIVE.reset(token)


_ACTIVE: ContextVar[Budget | None] = ContextVar("budget", default=None)


def checkpoint():
    """Raise BudgetExceeded if the active budget has run out."""
    budget = _ACTIVE.get()
    if budget is not None:
        budget.check()
