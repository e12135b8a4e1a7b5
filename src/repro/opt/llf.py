"""Load-to-load forwarding (LLF), Appendix D / Fig 8a.

The abstract state maps each location ``x`` to the set of registers that
hold a value loaded from ``x`` since the last acquire access.  The
ordering is reverse inclusion (``D1 ⊑ D2 ⇔ ∀x. D1(x) ⊇ D2(x)``), so the
join at merge points is the intersection.

Transitions (Fig 8a): a store to ``x`` empties ``x``'s set; a load
``a := x^na`` adds ``a``; any acquire access empties every set.  As with
SLF we additionally kill a register from all sets when it is reassigned
(the paper's Coq development does the same; Fig 8a leaves it to the
"otherwise" case).

A load ``b := x^na`` is rewritten to ``b := a`` for any ``a`` in the set
of ``x``.  This is sound across release writes: if the permission on
``x`` was lost, the load would return undef, and any value refines undef
— unless the program goes on to observe that undef (``freeze`` or
``print``, see :mod:`repro.opt.observe`).  The state therefore also
records which registers hold a value of ``x`` from before a release
write or fence, and such a register is not forwarded into an observed
load.  A load that is itself forwarded from such a register holds that
value too, so it is recorded the same way.
"""

from __future__ import annotations

from typing import Optional

from ..lang.ast import Assign, Fence, Freeze, Load, Reg, Rmw, Stmt, Store
from ..lang.events import ACQ, NA, REL, FenceKind
from ..util.fmap import FrozenMap
from .framework import ForwardPass
from .observe import ObservedLoads


class LlfState:
    """Per-location register sets; absent locations map to ∅.

    ``released`` holds the registers of those sets whose value was loaded
    before a release write or fence that has run since.  A register sits
    in at most one set: a load into it first kills it everywhere.
    """

    __slots__ = ("regs", "released")

    def __init__(self, regs: Optional[FrozenMap] = None,
                 released: frozenset[str] = frozenset()) -> None:
        self.regs = regs if regs is not None else FrozenMap()
        self.released = released

    def get(self, loc: str) -> frozenset[str]:
        return self.regs.get(loc, frozenset())

    def get_released(self, loc: str) -> frozenset[str]:
        return self.get(loc) & self.released

    def set(self, loc: str, regs: frozenset[str]) -> "LlfState":
        released = self.released - (self.get(loc) - regs)
        if not regs:
            trimmed = {k: v for k, v in self.regs.as_dict().items()
                       if k != loc}
            return LlfState(FrozenMap.of(trimmed), released)
        return LlfState(self.regs.set(loc, regs), released)

    def add(self, loc: str, reg: str, released: bool) -> "LlfState":
        return LlfState(self.regs.set(loc, self.get(loc) | {reg}),
                        self.released | {reg} if released else self.released)

    def kill_register(self, reg: str) -> "LlfState":
        updated = {loc: regs - {reg}
                   for loc, regs in self.regs.as_dict().items()}
        return LlfState(FrozenMap.of(
            {loc: regs for loc, regs in updated.items() if regs}),
            self.released - {reg})

    def release(self) -> "LlfState":
        return LlfState(self.regs, frozenset().union(*self.regs.values()))

    def clear(self) -> "LlfState":
        return LlfState()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LlfState) and self.regs == other.regs
                and self.released == other.released)

    def __hash__(self) -> int:
        return hash((self.regs, self.released))

    def __repr__(self) -> str:
        if not len(self.regs):
            return "{all ∅}"
        body = ", ".join(f"{loc} ↦ {set(regs)}"
                         for loc, regs in self.regs.items)
        return "{" + body + "}"


class LlfPass(ForwardPass[LlfState]):
    """The load-to-load forwarding pass."""

    #: The loads whose undefinedness is observed (set by ``run``).
    observed: ObservedLoads = ObservedLoads()

    def initial(self) -> LlfState:
        return LlfState()

    def run(self, stmt: Stmt) -> Stmt:
        self.observed = ObservedLoads(stmt)
        return super().run(stmt)

    def join(self, left: LlfState, right: LlfState) -> LlfState:
        locs = set(left.regs.keys()) & set(right.regs.keys())
        regs = FrozenMap.of(
            {loc: left.get(loc) & right.get(loc) for loc in locs
             if left.get(loc) & right.get(loc)})
        return LlfState(regs, (left.released | right.released)
                        & frozenset().union(*regs.values()))

    def transfer(self, stmt: Stmt, state: LlfState) -> LlfState:
        if isinstance(stmt, Store):
            state = state.set(stmt.loc, frozenset())
            return state.release() if stmt.mode is REL else state
        if isinstance(stmt, Load):
            if stmt.mode is NA:
                released = self._source(stmt, state) in state.released
                return state.kill_register(stmt.reg).add(
                    stmt.loc, stmt.reg, released)
            state = state.kill_register(stmt.reg)
            return state.clear() if stmt.mode is ACQ else state
        if isinstance(stmt, (Assign, Freeze)):
            return state.kill_register(stmt.reg)
        if isinstance(stmt, Rmw):
            return state.kill_register(stmt.reg).clear()
        if isinstance(stmt, Fence):
            if stmt.kind is FenceKind.REL:
                return state.release()
            return state.clear()  # acquire and SC fences
        return state

    def _source(self, stmt: Load, state: LlfState) -> Optional[str]:
        """The register a non-atomic load is forwarded from, if any.

        A register loaded since the last release is preferred; one
        holding an older value serves only a load whose undef is not
        observed.  The smallest name wins, so the choice is deterministic.
        """
        regs = state.get(stmt.loc)
        if not regs:
            return None
        fresh = regs - state.released
        if fresh:
            return min(fresh)
        return None if stmt in self.observed else min(regs)

    def rewrite(self, stmt: Stmt, state: LlfState) -> Stmt:
        if isinstance(stmt, Load) and stmt.mode is NA:
            source = self._source(stmt, state)
            if source is not None:
                return Assign(stmt.reg, Reg(source))
        return stmt


def llf_pass(stmt: Stmt) -> Stmt:
    """Run load-to-load forwarding over a program."""
    return LlfPass().run(stmt)
