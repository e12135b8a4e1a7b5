"""Store-to-load forwarding (SLF), §4 / Fig 3 / Fig 4.

At every program point the analysis assigns each non-atomic location one
of the abstract tokens:

* ``x ↦ ◦(v)`` — ``v`` was written by the most recent store to ``x`` and
  no release write has executed since (so the thread still holds the
  permission and ``v ⊑ M(x)``);
* ``x ↦ •(v)`` — as above but a release write has executed while a
  release-acquire pair has not (the permission may be lost, but the
  memory value is unchanged — a racy load reads undef, which ``v``
  refines);
* ``x ↦ ⊤`` — anything else.

Transitions (Fig 3): a non-atomic store to ``x`` sets ``◦(v)``; a release
write moves ``◦(v)`` to ``•(v)``; an acquire read moves ``•(v)`` to ``⊤``.
A load ``a := x^na`` is rewritten to ``a := v`` when the token is ``◦(v)``
or ``•(v)`` — but not at ``•(v)`` when the program goes on to observe
the undef the load may read (``freeze`` or ``print``, see
:mod:`repro.opt.observe`).

Beyond the paper's figure we also kill tokens whose abstract value is a
register that gets reassigned, and treat acquire/release *fences* like
acquire reads / release writes (matching the SEQ extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import (
    Assign,
    Fence,
    Freeze,
    Load,
    Rmw,
    Stmt,
    Store,
)
from ..lang.events import ACQ, NA, REL, FenceKind
from .absval import AbsVal, absval_to_expr, expr_to_absval, mentions_register
from .framework import ForwardPass
from .observe import ObservedLoads
from ..util.fmap import FrozenMap


@dataclass(frozen=True)
class Top:
    def __repr__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class Before:
    """``◦(v)`` — no release since the store."""

    value: AbsVal

    def __repr__(self) -> str:
        return f"◦({self.value})"


@dataclass(frozen=True)
class After:
    """``•(v)`` — a release happened, no release-acquire pair yet."""

    value: AbsVal

    def __repr__(self) -> str:
        return f"•({self.value})"


Token = Top | Before | After

TOP = Top()


def token_join(left: Token, right: Token) -> Token:
    """Least upper bound in the order ``◦(v) ⊑ •(v) ⊑ ⊤``."""
    if left == right:
        return left
    values = {token.value for token in (left, right)
              if not isinstance(token, Top)}
    if len(values) != 1:
        return TOP
    if isinstance(left, Top) or isinstance(right, Top):
        return TOP
    return After(values.pop())


def token_leq(left: Token, right: Token) -> bool:
    return token_join(left, right) == right


class SlfState:
    """A per-location token map; absent locations are ⊤."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: Optional[FrozenMap] = None) -> None:
        self.tokens = tokens if tokens is not None else FrozenMap()

    def get(self, loc: str) -> Token:
        return self.tokens.get(loc, TOP)

    def set(self, loc: str, token: Token) -> "SlfState":
        if isinstance(token, Top):
            trimmed = {k: v for k, v in self.tokens.as_dict().items()
                       if k != loc}
            return SlfState(FrozenMap.of(trimmed))
        return SlfState(self.tokens.set(loc, token))

    def map_tokens(self, fn) -> "SlfState":
        updated = {loc: fn(loc, token)
                   for loc, token in self.tokens.as_dict().items()}
        return SlfState(FrozenMap.of(
            {loc: token for loc, token in updated.items()
             if not isinstance(token, Top)}))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SlfState) and self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash(self.tokens)

    def __repr__(self) -> str:
        if not len(self.tokens):
            return "{all ⊤}"
        body = ", ".join(f"{loc} ↦ {token!r}"
                         for loc, token in self.tokens.items)
        return "{" + body + "}"


class SlfPass(ForwardPass[SlfState]):
    """The store-to-load forwarding pass."""

    #: The loads whose undefinedness is observed (set by ``run``).
    observed: ObservedLoads = ObservedLoads()

    def initial(self) -> SlfState:
        return SlfState()  # every location starts at ⊤

    def run(self, stmt: Stmt) -> Stmt:
        self.observed = ObservedLoads(stmt)
        return super().run(stmt)

    def join(self, left: SlfState, right: SlfState) -> SlfState:
        locs = set(left.tokens.keys()) | set(right.tokens.keys())
        joined = {loc: token_join(left.get(loc), right.get(loc))
                  for loc in locs}
        return SlfState(FrozenMap.of(
            {loc: token for loc, token in joined.items()
             if not isinstance(token, Top)}))

    def transfer(self, stmt: Stmt, state: SlfState) -> SlfState:
        if isinstance(stmt, Store):
            if stmt.mode is NA:
                value = expr_to_absval(stmt.expr)
                token = Before(value) if value is not None else TOP
                return state.set(stmt.loc, token)
            if stmt.mode is REL:
                return state.map_tokens(_release_transition)
            return state  # relaxed writes leave the analysis unchanged
        if isinstance(stmt, Load):
            state = _kill_register(state, stmt.reg)
            if stmt.mode is ACQ:
                return state.map_tokens(_acquire_transition)
            return state
        if isinstance(stmt, (Assign, Freeze)):
            return _kill_register(state, stmt.reg)
        if isinstance(stmt, Rmw):
            state = _kill_register(state, stmt.reg)
            state = state.map_tokens(_acquire_transition)
            return state.map_tokens(_release_transition)
        if isinstance(stmt, Fence):
            if stmt.kind is FenceKind.ACQ:
                return state.map_tokens(_acquire_transition)
            if stmt.kind is FenceKind.REL:
                return state.map_tokens(_release_transition)
            state = state.map_tokens(_acquire_transition)
            return state.map_tokens(_release_transition)
        return state

    def rewrite(self, stmt: Stmt, state: SlfState) -> Stmt:
        if isinstance(stmt, Load) and stmt.mode is NA:
            token = state.get(stmt.loc)
            if isinstance(token, After) and stmt in self.observed:
                return stmt
            if isinstance(token, (Before, After)):
                return Assign(stmt.reg, absval_to_expr(token.value))
        return stmt


def _release_transition(loc: str, token: Token) -> Token:
    if isinstance(token, Before):
        return After(token.value)
    return token


def _acquire_transition(loc: str, token: Token) -> Token:
    if isinstance(token, After):
        return TOP
    return token


def _kill_register(state: SlfState, reg: str) -> SlfState:
    return state.map_tokens(
        lambda loc, token: TOP
        if not isinstance(token, Top) and mentions_register(token.value, reg)
        else token)


def slf_pass(stmt: Stmt) -> Stmt:
    """Run store-to-load forwarding over a program."""
    return SlfPass().run(stmt)


def slf_annotations(stmt: Stmt) -> list[tuple[str, SlfState]]:
    """Per-point annotations for a straight-line program (Fig 4 display).

    Returns ``(pretty statement, state before it)`` pairs plus a final
    entry for the state after the program.
    """
    from ..lang.ast import Seq

    pass_ = SlfPass()
    state = pass_.initial()
    rows: list[tuple[str, SlfState]] = []
    stmts = stmt.stmts if isinstance(stmt, Seq) else (stmt,)
    for sub in stmts:
        rows.append((repr(sub), state))
        state = pass_.analyze(sub, state)
    rows.append(("(end)", state))
    return rows
