"""Known answers for every request the benchmark sends.

Nothing here is computed by the code under test.  The catalog verdicts
are the paper's (copied from ``TransformationCase.expected``; a test
keeps the copy in step with the catalog), the litmus-shape outcome sets
are the ones ``tests/test_psna_litmus.py`` pins, generated optimizer
pairs must validate because the §4 optimizer is sound, and explored
pairs must refine (Def 5.3) as Theorem 6.2 predicts — checked with the
comparison below over the service's behaviour strings, not with
``repro.psna``.

Every ``check_*`` function returns ``None`` for a right answer and a
one-line reason otherwise.
"""

from __future__ import annotations

import re
from typing import Optional

#: The paper's verdict for each of the 64 extended-catalog cases.
CATALOG_VERDICTS: dict[str, str] = {
    "slf-basic": "simple",
    "na-reorder-diff-loc": "simple",
    "na-reorder-same-loc": "invalid",
    "overwritten-store-elim": "simple",
    "store-load-forward": "simple",
    "load-load-forward": "simple",
    "read-before-write-elim": "simple",
    "write-after-read-intro": "invalid",
    "redundant-store-intro": "simple",
    "store-load-pair-intro": "simple",
    "load-load-pair-intro": "simple",
    "write-across-infinite-loop": "invalid",
    "write-across-loop-partial-trace": "invalid",
    "read-across-infinite-loop": "simple",
    "write-across-finite-loop": "simple",
    "unused-load-elim": "simple",
    "unused-load-intro": "simple",
    "unused-store-intro": "invalid",
    "acq-then-na-write": "invalid",
    "na-write-then-rel": "invalid",
    "acq-then-na-read": "invalid",
    "na-read-then-rel": "invalid",
    "na-write-then-acq": "simple",
    "na-read-then-acq": "simple",
    "rel-then-na-read": "simple",
    "rel-then-na-write": "advanced",
    "store-reintro-after-rel": "invalid",
    "store-reintro-after-rlx": "simple",
    "slf-across-rlx-read": "simple",
    "slf-across-rlx-write": "simple",
    "slf-across-acq-read": "simple",
    "slf-across-rel-write": "simple",
    "slf-across-rel-acq-pair": "invalid",
    "rlx-read-then-na-write": "advanced",
    "acq-then-div-by-zero": "invalid",
    "example-3-1-chain": "invalid",
    "late-ub-needs-oracle": "invalid",
    "unconditional-late-ub": "advanced",
    "rel-write-then-na-write": "advanced",
    "dse-across-rlx-read": "simple",
    "dse-across-rlx-write": "simple",
    "dse-across-acq-read": "simple",
    "dse-across-rel-write": "advanced",
    "choose-then-rel": "invalid",
    "choose-then-na-write": "advanced",
    "reorder-na-read-rlx-read": "simple",
    "reorder-rlx-read-na-read": "simple",
    "reorder-na-write-rlx-read": "simple",
    "reorder-rlx-read-na-write": "advanced",
    "reorder-na-read-rlx-write": "simple",
    "reorder-rlx-write-na-read": "simple",
    "reorder-na-write-rlx-write": "simple",
    "reorder-rlx-write-na-write": "advanced",
    "reorder-rlx-rlx": "invalid",
    "slf-across-rel-fence": "simple",
    "slf-across-acq-fence": "simple",
    "slf-across-fence-pair": "invalid",
    "write-into-acq-fence": "simple",
    "write-out-of-acq-fence": "invalid",
    "write-into-rel-fence": "advanced",
    "write-out-of-rel-fence": "invalid",
    "dse-across-rel-fence": "advanced",
    "read-into-acq-fence": "simple",
    "read-out-of-rel-fence": "simple",
}

#: Cases whose programs contain ``freeze(undef)``, which has no concrete
#: syntax: they travel only as ``litmus`` jobs (by name).
LITMUS_ONLY = frozenset({"choose-then-rel", "choose-then-na-write"})

#: The ``promise-explore`` population: (SEQ-valid catalog case, adequacy
#: contexts) whose source ∥ context and target ∥ context explorations
#: each visit at most 350 states at promise budget 1.  Every context
#: passes ``respects_location_discipline``.  The cap keeps one run near
#: its time budget; heavier pairs are listed as unmeasured in README.md.
EXPLORE_PAIRS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("slf-basic", ("empty", "atomic-writer", "atomic-reader",
                   "acquiring-reader", "relay")),
    ("na-reorder-diff-loc", ("empty", "racy-reader", "atomic-writer",
                             "atomic-reader", "acquiring-reader", "relay")),
    ("overwritten-store-elim", ("empty", "atomic-writer", "atomic-reader",
                                "acquiring-reader")),
    ("store-load-forward", ("empty", "atomic-writer", "atomic-reader",
                            "acquiring-reader", "relay")),
    ("load-load-forward", ("empty", "racy-reader", "atomic-writer",
                           "atomic-reader", "acquiring-reader",
                           "interfering-pair", "relay")),
    ("read-before-write-elim", ("empty", "racy-reader", "atomic-writer",
                                "atomic-reader", "acquiring-reader",
                                "relay")),
    ("redundant-store-intro", ("empty", "atomic-writer", "atomic-reader",
                               "acquiring-reader")),
    ("store-load-pair-intro", ("empty", "atomic-writer", "atomic-reader",
                               "acquiring-reader", "relay")),
    ("load-load-pair-intro", ("empty", "racy-reader", "atomic-writer",
                              "atomic-reader", "acquiring-reader",
                              "interfering-pair", "relay")),
    ("read-across-infinite-loop", ("empty", "racy-reader", "racy-writer",
                                   "atomic-writer", "atomic-reader",
                                   "acquiring-reader", "interfering-pair",
                                   "relay")),
    ("write-across-finite-loop", ("empty", "atomic-reader")),
    ("unused-load-elim", ("empty", "racy-reader", "racy-writer",
                          "atomic-writer", "atomic-reader",
                          "acquiring-reader", "interfering-pair", "relay")),
    ("unused-load-intro", ("empty", "racy-reader", "racy-writer",
                           "atomic-writer", "atomic-reader",
                           "acquiring-reader", "interfering-pair", "relay")),
    ("na-write-then-acq", ("empty", "atomic-writer", "atomic-reader",
                           "acquiring-reader", "relay")),
    ("na-read-then-acq", ("empty", "racy-reader", "racy-writer",
                          "atomic-writer", "atomic-reader",
                          "acquiring-reader", "interfering-pair", "relay")),
    ("rel-then-na-read", ("empty", "racy-reader", "atomic-writer",
                          "atomic-reader", "acquiring-reader", "relay")),
    ("rel-then-na-write", ("empty", "racy-reader", "atomic-reader")),
    ("store-reintro-after-rlx", ("empty", "atomic-reader")),
    ("slf-across-rlx-read", ("empty", "atomic-reader", "acquiring-reader")),
    ("slf-across-rlx-write", ("empty", "atomic-reader", "acquiring-reader")),
    ("slf-across-acq-read", ("empty", "atomic-reader", "acquiring-reader")),
    ("slf-across-rel-write", ("empty", "atomic-reader", "acquiring-reader")),
    ("rlx-read-then-na-write", ("empty", "atomic-writer", "atomic-reader",
                                "acquiring-reader", "relay")),
    ("unconditional-late-ub", ("empty", "racy-reader", "racy-writer",
                               "atomic-writer", "atomic-reader",
                               "acquiring-reader", "interfering-pair",
                               "relay")),
    ("rel-write-then-na-write", ("empty", "racy-reader", "atomic-reader")),
    ("dse-across-rlx-read", ("empty", "atomic-reader", "acquiring-reader")),
    ("dse-across-rlx-write", ("empty", "atomic-reader")),
    ("dse-across-acq-read", ("empty", "atomic-reader", "acquiring-reader")),
    ("dse-across-rel-write", ("empty", "atomic-reader")),
    ("reorder-na-read-rlx-read", ("empty", "racy-reader", "racy-writer",
                                  "atomic-writer", "atomic-reader",
                                  "acquiring-reader", "interfering-pair",
                                  "relay")),
    ("reorder-rlx-read-na-read", ("empty", "racy-reader", "racy-writer",
                                  "atomic-writer", "atomic-reader",
                                  "acquiring-reader", "interfering-pair",
                                  "relay")),
    ("reorder-na-write-rlx-read", ("empty", "atomic-writer",
                                   "atomic-reader", "acquiring-reader",
                                   "relay")),
    ("reorder-rlx-read-na-write", ("empty", "atomic-writer",
                                   "atomic-reader", "acquiring-reader",
                                   "relay")),
    ("reorder-na-read-rlx-write", ("empty", "racy-reader", "atomic-writer",
                                   "atomic-reader", "acquiring-reader",
                                   "relay")),
    ("reorder-rlx-write-na-read", ("empty", "racy-reader", "atomic-writer",
                                   "atomic-reader", "acquiring-reader",
                                   "relay")),
    ("reorder-na-write-rlx-write", ("empty", "atomic-writer",
                                    "atomic-reader", "acquiring-reader",
                                    "relay")),
    ("reorder-rlx-write-na-write", ("empty", "atomic-writer",
                                    "atomic-reader", "acquiring-reader",
                                    "relay")),
)

# The classic two-thread shapes and the outcomes tests/test_psna_litmus.py
# pins for them.  ``exact`` is the whole return set; ``has``/``lacks``
# are single outcomes that must (not) occur.
_MP = ("x_na := 1; y_rel := 1; return 0;",
       "a := y_acq; if a == 1 { b := x_na; return b; } return 9;")
_SB = ("x_rlx := 1; a := y_rlx; return a;",
       "y_rlx := 1; b := x_rlx; return b;")
_LB = ("a := x_rlx; y_rlx := a; return a;",
       "b := y_rlx; x_rlx := 1; return b;")
_LB_DATA = ("a := x_rlx; y_rlx := a; return a;",
            "b := y_rlx; x_rlx := b; return b;")


def _shape(name, programs, machine, promises, exact=None, has=(),
           lacks=()):
    return {"name": name, "programs": programs, "machine": machine,
            "promises": promises, "exact": exact, "has": has,
            "lacks": lacks}


#: Shapes replayed by ``warm-restart``.
WARM_SHAPES = (
    _shape("mp-rel-acq", _MP, "pf", 0, exact={(0, 1), (0, 9)}),
    _shape("sb-rlx", _SB, "pf", 0,
           exact={(0, 0), (0, 1), (1, 0), (1, 1)}),
    _shape("lb-pf", _LB, "pf", 0, lacks=((1, 1),)),
    _shape("lb-b1", _LB, "full", 1, has=((1, 1),)),
    _shape("lb-data-b1", _LB_DATA, "full", 1, has=((0, 0),),
           lacks=((1, 1),)),
)

#: LB added to ``promise-explore`` at promise budgets 1 and 2.
PROMISE_SHAPES = (
    _shape("lb-b1", _LB, "full", 1, has=((1, 1),)),
    _shape("lb-b2", _LB, "full", 2, has=((1, 1),)),
    _shape("lb-data-b1", _LB_DATA, "full", 1, has=((0, 0),),
           lacks=((1, 1),)),
    _shape("lb-data-b2", _LB_DATA, "full", 2, has=((0, 0),),
           lacks=((1, 1),)),
)


# ---------------------------------------------------------------------------
# Behaviour strings and refinement (Def 5.3)
# ---------------------------------------------------------------------------

_CALL = re.compile(r"(\w+)\(([^()]*)\); ")


def _value(token: str):
    token = token.strip()
    return "undef" if token == "undef" else int(token)


def parse_behavior(text: str) -> tuple:
    """``⟨print(1); ret (0, undef)⟩`` → ``("ret", calls, values)``;
    ``⟨⊥⟩`` → ``("bottom", calls, None)``."""
    if not (text.startswith("⟨") and text.endswith("⟩")):
        raise ValueError(f"not a behaviour: {text!r}")
    body = text[1:-1]
    calls = []
    while True:
        match = _CALL.match(body)
        if match is None:
            break
        calls.append((match.group(1), _value(match.group(2))))
        body = body[match.end():]
    if body == "⊥":
        return ("bottom", tuple(calls), None)
    if not (body.startswith("ret (") and body.endswith(")")):
        raise ValueError(f"not a behaviour: {text!r}")
    values = tuple(_value(token) for token in body[5:-1].split(",")
                   if token.strip())
    return ("ret", tuple(calls), values)


def _leq(target, source) -> bool:
    return target == source or source == "undef"


def _calls_leq(target, source) -> bool:
    return len(target) == len(source) and all(
        t_name == s_name and _leq(t_value, s_value)
        for (t_name, t_value), (s_name, s_value) in zip(target, source))


def behavior_leq(target: tuple, source: tuple) -> bool:
    """``target ⊑ source``: a source ``undef`` matches any value in its
    position, and a source ⊥ matches every target whose observable
    prefix it matches."""
    t_kind, t_calls, t_values = target
    s_kind, s_calls, s_values = source
    if s_kind == "bottom":
        return _calls_leq(t_calls[:len(s_calls)], s_calls)
    if t_kind == "bottom":
        return False
    return (_calls_leq(t_calls, s_calls) and len(t_values) == len(s_values)
            and all(_leq(t, s) for t, s in zip(t_values, s_values)))


def unmatched(target: list[str], source: list[str]) -> list[str]:
    """Target behaviours no source behaviour matches (empty = refines)."""
    sources = [parse_behavior(text) for text in source]
    return [text for text in target
            if not any(behavior_leq(parse_behavior(text), candidate)
                       for candidate in sources)]


def returns(behaviors: list[str]) -> set[tuple]:
    """The return tuples of a behaviour list (⊥ contributes none)."""
    parsed = (parse_behavior(text) for text in behaviors)
    return {values for kind, _calls, values in parsed if kind == "ret"}


# ---------------------------------------------------------------------------
# Per-request checks
# ---------------------------------------------------------------------------


def check_litmus(result: dict, case: str) -> Optional[str]:
    expected = CATALOG_VERDICTS[case]
    if result.get("case") != case:
        return f"answered case {result.get('case')!r}"
    if result.get("measured") != expected or result.get("agree") is not True:
        return (f"measured {result.get('measured')!r}, paper says "
                f"{expected!r}")
    return None


def check_validate(result: dict, verdict: str) -> Optional[str]:
    """``verdict`` is the paper's verdict for a catalog pair, or
    ``"valid"`` for a generated optimizer pair (any notion)."""
    valid = verdict != "invalid"
    if result.get("valid") is not valid:
        return f"valid={result.get('valid')!r}, expected {valid}"
    if valid and verdict != "valid" and result.get("notion") != verdict:
        return f"notion {result.get('notion')!r}, expected {verdict!r}"
    return None


def check_shape(result: dict, shape: dict) -> Optional[str]:
    if result.get("complete") is not True:
        return "exploration incomplete"
    outcomes = returns(result.get("behaviors", []))
    if shape["exact"] is not None and outcomes != shape["exact"]:
        return f"outcomes {sorted(outcomes)}, expected " \
               f"{sorted(shape['exact'])}"
    if shape["exact"] is not None and any(
            kind == "bottom" for kind, _c, _v in
            map(parse_behavior, result.get("behaviors", []))):
        return "unexpected ⊥"
    for outcome in shape["has"]:
        if outcome not in outcomes:
            return f"missing outcome {outcome}"
    for outcome in shape["lacks"]:
        if outcome in outcomes:
            return f"forbidden outcome {outcome}"
    return None


def check_pair(source: dict, target: dict) -> Optional[str]:
    """Both explorations complete and target ⊑ source (Theorem 6.2)."""
    if source.get("complete") is not True \
            or target.get("complete") is not True:
        return "exploration incomplete"
    missing = unmatched(target.get("behaviors", []),
                        source.get("behaviors", []))
    if missing:
        return f"target behaviours not refined: {', '.join(missing)}"
    return None
