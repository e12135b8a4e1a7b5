"""Job kinds served by ``repro serve``: normalization, digests, runners.

A *job* is one verification request — a litmus case, a ``source {~>
target`` pair, an exploration, or an adequacy check.  Every request is
**normalized** before anything else happens: program arguments are
parsed and re-serialized through :func:`repro.lang.pretty.to_source`, so
two requests that differ only in formatting are the *same* job.  The
canonical form is then content-addressed (:func:`request_digest`): the
BLAKE2b digest over the canonical parameters, the semantics version,
and the semantic knobs is the job id, the dedup key, and the verdict
store key, all at once.

Result payloads are deliberately the CLI's own shapes:

* ``litmus``   — the row dict ``repro litmus --format json`` prints
  (:data:`repro.runner.LITMUS_ROW_KEYS`, same key order);
* ``validate`` — the fields of the CLI's ``result`` event for
  ``repro validate``;
* ``explore``  — the fields of the CLI's ``result`` event for
  ``repro explore`` (behaviors as sorted ``repr`` strings);
* ``adequacy`` — the fields of the CLI's ``result`` event for
  ``repro adequacy``.

so ``repro query``, the dashboard, and the CI byte-identity gate consume
service output unchanged.

:func:`serve_job_worker` is module-level and takes only the (picklable)
canonical dict, so the service's spawn workers run it through the same
:func:`repro.runner._subprocess_entry` the ``--jobs`` sweeps use.
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Callable, Optional

from .. import runner
from ..lang.parser import ParseError, parse
from ..lang.pretty import to_source
from ..psna import certstore
from ..psna.semantics import SEMANTICS_VERSION

#: Upper bound on one program argument's source text; anything larger is
#: rejected with a 413 before it ever reaches the parser.
DEFAULT_MAX_PROGRAM_BYTES = 65536

#: Bounds a service exploration may request (mirrors the CLI defaults).
MAX_EXPLORE_STATES = 200_000
MAX_EXPLORE_DEPTH = 400


class RequestError(Exception):
    """A malformed request: carries the HTTP status and a stable code.

    Raised during normalization and mapped to a ``repro-error/1`` body
    by the HTTP front end — a bad request must *never* surface as a
    traceback.
    """

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail


def _require(body: dict, field: str) -> object:
    if field not in body:
        raise RequestError(400, "missing-field",
                           f"job kind {body.get('kind')!r} requires "
                           f"field {field!r}")
    return body[field]


def _canonical_program(body: dict, field: str,
                       max_bytes: int) -> str:
    """Parse + re-serialize one program argument (the canonical form)."""
    text = _require(body, field)
    if not isinstance(text, str):
        raise RequestError(400, "bad-program",
                           f"field {field!r} must be WHILE source text")
    if len(text.encode("utf-8", errors="replace")) > max_bytes:
        raise RequestError(413, "program-too-large",
                           f"field {field!r} exceeds {max_bytes} bytes")
    try:
        return to_source(parse(text))
    except (ParseError, ValueError, RecursionError) as error:
        raise RequestError(400, "bad-program",
                           f"field {field!r} does not parse: {error}")


def _int_field(body: dict, field: str, default: int, lo: int,
               hi: int) -> int:
    value = body.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or not lo <= value <= hi:
        raise RequestError(400, "bad-field",
                           f"field {field!r} must be an integer in "
                           f"[{lo}, {hi}]")
    return value


# ---------------------------------------------------------------------------
# Normalization (request -> canonical dict)
# ---------------------------------------------------------------------------


def _normalize_litmus(body: dict, max_bytes: int) -> dict:
    from ..litmus import case_by_name

    name = _require(body, "case")
    if not isinstance(name, str):
        raise RequestError(400, "bad-field", "field 'case' must be a "
                                             "litmus case name")
    try:
        case_by_name(name)
    except KeyError:
        raise RequestError(400, "unknown-case",
                           f"unknown litmus case {name!r}")
    return {"kind": "litmus", "case": name}


def _normalize_validate(body: dict, max_bytes: int) -> dict:
    return {"kind": "validate",
            "source": _canonical_program(body, "source", max_bytes),
            "target": _canonical_program(body, "target", max_bytes)}


def _normalize_explore(body: dict, max_bytes: int) -> dict:
    programs = _require(body, "programs")
    if not isinstance(programs, list) or not programs \
            or len(programs) > 8:
        raise RequestError(400, "bad-field",
                           "field 'programs' must be a list of 1..8 "
                           "WHILE programs")
    machine = body.get("machine", "full")
    if machine not in ("sc", "pf", "full"):
        raise RequestError(400, "bad-field",
                           "field 'machine' must be 'sc', 'pf', or "
                           "'full'")
    canonical = {
        "kind": "explore",
        "machine": machine,
        "programs": [_canonical_program({"p": text}, "p", max_bytes)
                     for text in programs],
        "promises": _int_field(body, "promises", 1, 0, 4),
        "max_states": _int_field(body, "max_states", MAX_EXPLORE_STATES,
                                 1, MAX_EXPLORE_STATES),
        "max_depth": _int_field(body, "max_depth", MAX_EXPLORE_DEPTH,
                                1, MAX_EXPLORE_DEPTH),
    }
    return canonical


def _normalize_adequacy(body: dict, max_bytes: int) -> dict:
    return {"kind": "adequacy",
            "source": _canonical_program(body, "source", max_bytes),
            "target": _canonical_program(body, "target", max_bytes)}


_NORMALIZERS: dict[str, Callable[[dict, int], dict]] = {
    "litmus": _normalize_litmus,
    "validate": _normalize_validate,
    "explore": _normalize_explore,
    "adequacy": _normalize_adequacy,
}

JOB_KINDS = tuple(sorted(_NORMALIZERS))


def normalize_request(body: object,
                      max_program_bytes: int = DEFAULT_MAX_PROGRAM_BYTES,
                      ) -> dict:
    """Validate one job spec and return its canonical dict.

    Raises :class:`RequestError` (with an HTTP status) on anything
    malformed — unknown kind, missing fields, unparseable or oversized
    programs, out-of-range bounds.
    """
    if not isinstance(body, dict):
        raise RequestError(400, "bad-request",
                           "job spec must be a JSON object")
    kind = body.get("kind")
    if kind not in _NORMALIZERS:
        raise RequestError(400, "unknown-kind",
                           f"unknown job kind {kind!r}; choices: "
                           + ", ".join(JOB_KINDS))
    return _NORMALIZERS[kind](body, max_program_bytes)


def request_digest(canonical: dict) -> str:
    """The content address of one canonical request.

    Mixes the canonical parameters with the semantics version, so a
    semantics bump re-keys every job — the same discipline
    :mod:`repro.psna.certstore` applies to certification verdicts.
    """
    stable = repr(sorted(canonical.items()))
    payload = f"{stable}\x00{SEMANTICS_VERSION}"
    return blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def job_id_for(canonical: dict) -> str:
    return "j-" + request_digest(canonical)


# ---------------------------------------------------------------------------
# Execution (canonical dict -> result payload)
# ---------------------------------------------------------------------------


def _run_litmus(canonical: dict) -> dict:
    payload = runner.litmus_case_worker(canonical["case"])
    # Exactly the CLI's JSON row: same keys, same order, no timing.
    return {key: payload[key] for key in runner.LITMUS_ROW_KEYS}


def _run_validate(canonical: dict) -> dict:
    from ..seq import check_transformation

    verdict = check_transformation(parse(canonical["source"]),
                                   parse(canonical["target"]))
    result = {"command": "validate", "valid": verdict.valid,
              "notion": verdict.notion,
              "game_states": verdict.game_states,
              "complete": verdict.complete,
              "incomplete_reasons": list(verdict.incomplete_reasons)}
    if not verdict.valid:
        cex = (verdict.advanced.counterexample
               if verdict.advanced is not None
               else verdict.simple.counterexample)
        if cex is not None:
            result["counterexample"] = {
                "trace": [repr(label) for label in cex.trace],
                "reason": str(cex.reason),
            }
    return result


def _run_explore(canonical: dict) -> dict:
    from dataclasses import replace

    from ..psna import PsConfig, explore, explore_sc, promise_free_config

    threads = [parse(text) for text in canonical["programs"]]
    machine = canonical["machine"]
    if machine == "sc":
        result = explore_sc(threads, max_states=canonical["max_states"],
                            max_depth=canonical["max_depth"])
    else:
        config = promise_free_config() if machine == "pf" \
            else PsConfig(promise_budget=canonical["promises"])
        config = replace(config, max_states=canonical["max_states"],
                         max_depth=canonical["max_depth"])
        result = explore(threads, config)
    return {"command": "explore", "machine": machine,
            "states": result.states, "complete": result.complete,
            "incomplete_reason": result.incomplete_reason,
            "behaviors": [repr(outcome) for outcome
                          in sorted(result.behaviors, key=repr)]}


def _run_adequacy(canonical: dict) -> dict:
    from ..adequacy import check_adequacy
    from ..psna import PsConfig

    report = check_adequacy(parse(canonical["source"]),
                            parse(canonical["target"]),
                            config=PsConfig(allow_promises=False))
    return {"command": "adequacy", "adequate": report.adequate,
            "seq_valid": report.seq.valid, "seq_notion": report.seq.notion,
            "contexts": {r.context.name: r.verdict.refines
                         for r in report.contexts},
            "skipped": [c.name for c in report.skipped]}


_RUNNERS: dict[str, Callable[[dict], dict]] = {
    "litmus": _run_litmus,
    "validate": _run_validate,
    "explore": _run_explore,
    "adequacy": _run_adequacy,
}


def serve_job_worker(canonical: dict) -> dict:
    """Execute one canonical job; module-level so a task carries it to
    a spawn worker by qualified name (the :mod:`repro.runner`
    discipline).

    A job is one run of the process's cert store (see
    :class:`repro.psna.certstore.CertStore`): the certification
    verdicts it queued join the store's lookup snapshot when it ends,
    so later jobs in this process — the service's own with ``--jobs
    1``, or the same spawn worker's — reuse them.
    """
    try:
        return _RUNNERS[canonical["kind"]](canonical)
    finally:
        store = certstore.active()
        if store is not None:
            store.end_run()


def describe(canonical: dict) -> str:
    """A short human label for logs and heartbeats."""
    kind = canonical["kind"]
    if kind == "litmus":
        return f"litmus:{canonical['case']}"
    if kind == "explore":
        return (f"explore:{canonical['machine']}"
                f"×{len(canonical['programs'])}")
    return kind
