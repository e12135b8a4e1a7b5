"""The three workloads: request lists built from ``--seed`` alone.

Each builder returns plain :class:`Request` lists — warm-up requests
(outside the timed set), the timed requests, and for ``warm-restart``
the populate pass — all generated before any service starts.  The same
``(seed, seconds)`` always gives the same lists.

Sizing: the timed work is fixed per run and every seed gets the same
mix of work.  ``cold-verify`` and ``warm-restart`` scale it from
``--seconds`` by rates measured on a 2-core x86-64 VM, so a run measures
about ``--seconds`` of work there; ``promise-explore`` always explores
its whole capped population (about 15 s of work there).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from repro.adequacy import contexts_for, respects_location_discipline
from repro.fuzz.gen import FuzzConfig
from repro.lang.pretty import to_source
from repro.litmus import ALL_TRANSFORMATION_CASES, EXTENDED_CASES
from repro.litmus.generator import GeneratorConfig, ProgramGenerator
from repro.opt import Optimizer

from . import answers

WORKLOADS = ("cold-verify", "warm-restart", "promise-explore")

#: Service flags and client connections per workload.
SERVICE_JOBS = {"cold-verify": 2, "warm-restart": 1, "promise-explore": 1}
CONNECTIONS = {"cold-verify": 2, "warm-restart": 2, "promise-explore": 1}

#: Generated validate pairs per measured second (cold-verify).
GENERATED_PER_S = 110
#: Warm replay passes over the populate set per measured second.
WARM_PASSES_PER_S = 5.5

#: Statements per generated straightline program.  Checker cost grows
#: steeply with length (at 6 statements single pairs take seconds); at 3
#: the slowest pair of 2000 sampled took 0.2 s.
GENERATED_LENGTH = 3

#: Share of each access-shape class among generated programs (measured
#: over 20 000 generator seeds).  Every run draws these exact shares, so
#: the costly classes (two non-atomic locations plus an acquire) carry
#: the same weight whatever the seed.  Key: (non-atomic locations,
#: has an acquire, has a release).
SHAPE_SHARES = {
    (0, False, False): 0.0464, (0, False, True): 0.0349,
    (0, True, False): 0.0362, (0, True, True): 0.0140,
    (1, False, False): 0.3451, (1, False, True): 0.1150,
    (1, True, False): 0.1176, (1, True, True): 0.0173,
    (2, False, False): 0.2180, (2, False, True): 0.0279,
    (2, True, False): 0.0276,
}


@dataclass
class Request:
    """One job submission and the known answer it must get."""

    label: str
    spec: dict
    #: ("litmus", case) | ("validate", verdict) | ("shape", shape dict)
    #: | ("explore", [(pair label, source programs), ...]): complete,
    #: and refining each listed source exploration
    answer: tuple


@dataclass
class Workload:
    """Service flags, client connections and request lists of a run."""

    jobs: int
    connections: int
    warmup: list[Request]
    timed: list[Request]
    populate: Optional[list[Request]] = None


# ---------------------------------------------------------------------------
# Spelling variants
# ---------------------------------------------------------------------------

# The WHILE lexical grammar (``repro.lang.parser``): whitespace and
# comments separate integers, identifiers and operators.
_TOKEN = re.compile(r"\s+|//[^\n]*|#[^\n]*|(\d+|[A-Za-z_]\w*|:=|==|!=|<=|"
                    r">=|&&|\|\||[-+*/%<>!(){},;])")
_TIGHT = frozenset(";(){},")
_SEPARATORS = (" ", "  ", "\n", "\n    ", "\t", " // layout\n",
               "\n# layout\n    ")


def respell(text: str, rng: random.Random) -> str:
    """The same program with seeded whitespace, line breaks and comments
    between tokens (no separator next to ``;(){},``, where none is
    needed), so it normalizes to the same canonical form."""
    tokens = [match.group(1) for match in _TOKEN.finditer(text)
              if match.group(1)]
    out = [tokens[0]]
    for left, right in zip(tokens, tokens[1:]):
        if (left in _TIGHT or right in _TIGHT) and rng.random() < 0.5:
            out.append(right)
        else:
            out.append(rng.choice(_SEPARATORS) + right)
    return "".join(out)


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _catalog_litmus(cases) -> list[Request]:
    return [Request(f"litmus:{case.name}",
                    {"kind": "litmus", "case": case.name},
                    ("litmus", case.name))
            for case in cases]


def _catalog_validate() -> list[Request]:
    """The catalog pairs as validate jobs, one per distinct pair text
    (two catalog cases spell the same pair)."""
    requests, seen = [], set()
    for case in ALL_TRANSFORMATION_CASES:
        if case.name in answers.LITMUS_ONLY:
            continue
        pair = (to_source(case.source), to_source(case.target))
        if pair in seen:
            continue
        seen.add(pair)
        requests.append(Request(
            f"validate:{case.name}",
            {"kind": "validate", "source": pair[0], "target": pair[1]},
            ("validate", answers.CATALOG_VERDICTS[case.name])))
    return requests


def _shape_requests(shapes) -> list[Request]:
    return [Request(f"explore:{shape['name']}",
                    {"kind": "explore", "machine": shape["machine"],
                     "promises": shape["promises"],
                     "programs": list(shape["programs"])},
                    ("shape", shape))
            for shape in shapes]


def shape_class(source: str) -> tuple:
    """A generated program's access-shape class (see SHAPE_SHARES)."""
    na = set(re.findall(r"\b([A-Za-z]\w*)_na\b", source))
    return (len(na), "_acq" in source, "_rel" in source)


def _generator_config() -> GeneratorConfig:
    fuzz = FuzzConfig()
    return GeneratorConfig(na_locs=fuzz.na_locs,
                           atomic_locs=fuzz.atomic_locs,
                           registers=fuzz.registers, values=fuzz.values,
                           atomic_probability=fuzz.atomic_probability)


def generated_pairs(stream: str, count: int, taken: set) -> list[Request]:
    """``count`` distinct generated optimizer pairs in the fixed shape
    shares, drawn from the seeded ``stream``.  ``taken`` holds the
    (source, target) texts already in use; new pairs are added to it."""
    rng = random.Random(stream)
    config = _generator_config()
    quotas = {key: round(count * share)
              for key, share in SHAPE_SHARES.items()}
    requests = []
    while any(quotas.values()):
        seed = rng.randrange(2 ** 32)
        program = ProgramGenerator(config, seed).straightline(
            GENERATED_LENGTH)
        source = to_source(program)
        key = shape_class(source)
        if not quotas.get(key):
            continue
        target = to_source(Optimizer().optimize(program).optimized)
        if (source, target) in taken:
            continue
        taken.add((source, target))
        quotas[key] -= 1
        requests.append(Request(
            f"validate:gen-{seed}",
            {"kind": "validate", "source": source, "target": target},
            ("validate", "valid")))
    rng.shuffle(requests)
    return requests


def _validate_warmup(count: int) -> list[Request]:
    """Fixed small pairs outside every timed set: they store a value no
    generated or catalog program uses."""
    return [Request(f"warmup:validate-{value}",
                    {"kind": "validate",
                     "source": f"x_na := {value}; a := x_na; return a;",
                     "target": f"x_na := {value}; a := {value}; return a;"},
                    ("validate", "valid"))
            for value in range(7, 7 + count)]


def _explore_warmup(count: int) -> list[Request]:
    """Small explorations outside every timed set."""
    return [Request(f"warmup:explore-{value}",
                    {"kind": "explore", "machine": "full", "promises": 1,
                     "programs": ["a := y_rlx; return a;",
                                  f"y_rlx := {value}; return 0;"]},
                    ("explore", []))
            for value in range(7, 7 + count)]


def explore_pairs() -> list[tuple[str, str, list[str], str, str]]:
    """The capped promise-explore population as
    ``(case, context, context_texts, source_text, target_text)``."""
    cases = {case.name: case for case in ALL_TRANSFORMATION_CASES}
    pairs = []
    for name, context_names in answers.EXPLORE_PAIRS:
        case = cases[name]
        contexts = {context.name: context
                    for context in contexts_for(case.source, case.target)}
        for context_name in context_names:
            context = contexts[context_name]
            if not respects_location_discipline(
                    [case.source, case.target, *context.threads]):
                raise ValueError(f"{name} ∥ {context_name} mixes "
                                 f"atomic and non-atomic accesses")
            pairs.append((name, context_name,
                          [to_source(thread) for thread in context.threads],
                          to_source(case.source), to_source(case.target)))
    return pairs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def cold_verify(seed: int, seconds: int) -> Workload:
    """Every request distinct and new: the extended catalog as litmus
    jobs, the catalog pairs and seeded optimizer pairs as validate jobs."""
    catalog = _catalog_litmus(EXTENDED_CASES) + _catalog_validate()
    taken = {(r.spec["source"], r.spec["target"])
             for r in catalog if r.spec["kind"] == "validate"}
    generated = generated_pairs(f"cold-verify/{seed}",
                                GENERATED_PER_S * seconds, taken)
    timed = catalog + generated
    random.Random(f"cold-verify/order/{seed}").shuffle(timed)
    jobs = SERVICE_JOBS["cold-verify"]
    # The 64 litmus cases are all timed, so warm-up uses validate jobs.
    warmup = _validate_warmup(2 * jobs)
    return Workload(jobs, CONNECTIONS["cold-verify"], warmup, timed)


def warm_restart(seed: int, seconds: int) -> Workload:
    """Populate with the catalog and the classic shapes, restart, then
    replay them in seeded order and seeded spellings."""
    populate = (_catalog_litmus(ALL_TRANSFORMATION_CASES)
                + _catalog_validate() + _shape_requests(answers.WARM_SHAPES))
    rng = random.Random(f"warm-restart/{seed}")
    timed = []
    for _ in range(max(1, round(WARM_PASSES_PER_S * seconds))):
        order = list(populate)
        rng.shuffle(order)
        for request in order:
            spec = dict(request.spec)
            if spec["kind"] == "validate":
                spec["source"] = respell(spec["source"], rng)
                spec["target"] = respell(spec["target"], rng)
            elif spec["kind"] == "explore":
                spec["programs"] = [respell(text, rng)
                                    for text in spec["programs"]]
            timed.append(Request(request.label, spec, request.answer))
    jobs = SERVICE_JOBS["warm-restart"]
    paper = {case.name for case in ALL_TRANSFORMATION_CASES}
    extra = [case for case in EXTENDED_CASES if case.name not in paper]
    warmup = (_catalog_litmus(extra[:2 * jobs]) + _validate_warmup(2 * jobs)
              + _explore_warmup(2 * jobs))
    return Workload(jobs, CONNECTIONS["warm-restart"], warmup, timed,
                    populate)


def promise_explore(seed: int, seconds: int) -> Workload:
    """The whole capped population of (SEQ-valid case, context) pairs
    in seeded order, each sent as source ∥ context and target ∥ context,
    plus LB at budgets 1 and 2.  The population is about 15 s of work on
    the reference VM whatever ``seconds`` says, so every run explores
    the same pairs.  Catalog cases share programs, so an exploration
    several pairs need is sent once; each target exploration must refine
    the source exploration of every pair it belongs to."""
    rng = random.Random(f"promise-explore/{seed}")
    population = explore_pairs()
    requests: dict[tuple, Request] = {}
    for name, context, threads, source, target in rng.sample(
            population, len(population)):
        pair = f"{name}|{context}"
        keys = {}
        for side, program in (("source", source), ("target", target)):
            programs = (program, *threads)
            if programs not in requests:
                requests[programs] = Request(
                    f"explore:{pair}|{side}",
                    {"kind": "explore", "machine": "full", "promises": 1,
                     "programs": list(programs)},
                    ("explore", []))
            keys[side] = programs
        requests[keys["target"]].answer[1].append((pair, keys["source"]))
    timed = list(requests.values())
    for request in _shape_requests(answers.PROMISE_SHAPES):
        timed.insert(rng.randrange(len(timed) + 1), request)
    jobs = SERVICE_JOBS["promise-explore"]
    return Workload(jobs, CONNECTIONS["promise-explore"],
                    _explore_warmup(2 * jobs), timed)


BUILDERS = {"cold-verify": cold_verify, "warm-restart": warm_restart,
            "promise-explore": promise_explore}


def build(name: str, seed: int, seconds: int) -> Workload:
    return BUILDERS[name](seed, seconds)


def check_answers(requests: list[Request],
                  results: list[Optional[dict]]) -> list[Optional[str]]:
    """One verdict per request: ``None`` when the result equals the known
    answer, else the reason.  ``results[i]`` is ``None`` when request
    ``i`` got no result at all."""
    explored = {tuple(request.spec["programs"]): result
                for request, result in zip(requests, results)
                if request.answer[0] == "explore" and result is not None}
    reasons: list[Optional[str]] = []
    for request, result in zip(requests, results):
        kind = request.answer[0]
        if result is None:
            reason = "no result"
        elif kind == "litmus":
            reason = answers.check_litmus(result, request.answer[1])
        elif kind == "validate":
            reason = answers.check_validate(result, request.answer[1])
        elif kind == "shape":
            reason = answers.check_shape(result, request.answer[1])
        elif result.get("complete") is not True:
            reason = "exploration incomplete"
        else:
            reason = None
            for pair, source_key in request.answer[1]:
                source = explored.get(source_key)
                why = "source exploration has no result" if source is None \
                    else answers.check_pair(source, result)
                if why:
                    reason = f"{pair}: {why}"
                    break
        reasons.append(reason)
    return reasons
