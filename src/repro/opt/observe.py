"""Loads whose undefinedness the rest of the program can observe.

SLF and LLF forward a value across a release write (Fig 3 ``•(v)``,
Fig 8a).  After the release the thread may have lost the permission on
``x``, so in SEQ the original load ``b := x^na`` reads ``undef``; the
forwarded value refines it (Def 2.3).  That argument covers every use
of ``b`` that compares values with ``⊑`` — stores, returns, branch
conditions (branching on ``undef`` is UB) and arithmetic, which
propagates ``undef``.  Two statements tell ``undef`` apart from a
defined value, though:

* ``freeze`` of ``undef`` takes a visible ``choose(v)`` step (Remark 3),
  while ``freeze`` of a defined value is silent;
* ``print`` puts its argument into a system-call label, which must
  match exactly.

So ``c := freeze(b)`` after a load of ``b`` forwarded across a release
makes the optimized program show a trace the source cannot, and the
checker rightly rejects the pair.
:func:`undef_observed_loads` finds the non-atomic loads whose value may
reach one of those statements — through registers and through
non-atomic memory — with a backward analysis, so the forwarding passes
can leave exactly those loads alone when a release intervenes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Assign, Freeze, Load, Print, Rmw, Stmt, Store
from ..lang.events import NA
from .framework import BackwardPass


@dataclass(frozen=True)
class Observed:
    """Registers and non-atomic locations whose current value may reach
    a ``freeze`` or ``print``."""

    regs: frozenset[str] = frozenset()
    locs: frozenset[str] = frozenset()


class ObservedPass(BackwardPass[Observed]):
    """Backward: the values observed after a statement → before it.

    Running it records, by node identity, every non-atomic load whose
    register is observed right after the load.
    """

    def __init__(self) -> None:
        super().__init__()
        self.loads: set[int] = set()

    def initial(self) -> Observed:
        return Observed()

    def join(self, left: Observed, right: Observed) -> Observed:
        return Observed(left.regs | right.regs, left.locs | right.locs)

    def transfer(self, stmt: Stmt, state: Observed) -> Observed:
        if isinstance(stmt, Freeze):
            return Observed((state.regs - {stmt.reg})
                            | stmt.expr.registers(), state.locs)
        if isinstance(stmt, Print):
            return Observed(state.regs | stmt.expr.registers(), state.locs)
        if isinstance(stmt, Assign):
            if stmt.reg not in state.regs:
                return state
            return Observed((state.regs - {stmt.reg})
                            | stmt.expr.registers(), state.locs)
        if isinstance(stmt, Load):
            if stmt.reg not in state.regs:
                return state
            locs = (state.locs | {stmt.loc}) if stmt.mode is NA \
                else state.locs
            return Observed(state.regs - {stmt.reg}, locs)
        if isinstance(stmt, Store) and stmt.mode is NA:
            if stmt.loc not in state.locs:
                return state
            return Observed(state.regs | stmt.expr.registers(),
                            state.locs - {stmt.loc})
        if isinstance(stmt, Rmw):
            return Observed(state.regs - {stmt.reg}, state.locs)
        return state  # atomic stores, returns, fences: compared with ⊑

    def rewrite(self, stmt: Stmt, state: Observed) -> Stmt:
        if isinstance(stmt, Load) and stmt.mode is NA \
                and stmt.reg in state.regs:
            self.loads.add(id(stmt))
        return stmt


def undef_observed_loads(stmt: Stmt) -> frozenset[int]:
    """Identities (``id``) of the non-atomic loads in ``stmt`` whose
    value may reach a ``freeze`` or ``print``."""
    pass_ = ObservedPass()
    pass_.run(stmt)
    return frozenset(pass_.loads)


class ObservedLoads:
    """The observed loads of one program, computed on the first query.

    The forwarding passes ask only about a load they could forward
    across a release, which many programs never reach.
    """

    def __init__(self, program: Optional[Stmt] = None) -> None:
        self._program = program
        self._loads: Optional[frozenset[int]] = \
            None if program is not None else frozenset()

    def __contains__(self, load: Load) -> bool:
        if self._loads is None:
            self._loads = undef_observed_loads(self._program)
        return id(load) in self._loads
