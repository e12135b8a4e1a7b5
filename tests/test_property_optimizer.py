"""Property-based testing: the optimizer is sound on random programs.

This is the "testing of optimizations based on a sequential model" the
paper's introduction advertises: every optimizer run over a randomly
generated program is translation-validated by the SEQ refinement checker,
and additionally differentially tested against the SC interpreter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse
from repro.lang.pretty import to_source
from repro.litmus.generator import GeneratorConfig, ProgramGenerator
from repro.opt import Optimizer, optimize
from repro.psna import explore_sc
from repro.psna.explore import behavior_leq
from repro.seq import Limits, check_transformation

FAST_LIMITS = Limits(max_game_states=8_000, max_closure_states=2_000,
                     max_escape_states=2_000)

SMALL = GeneratorConfig(na_locs=("x",), atomic_locs=("y",),
                        registers=("a", "b", "c"), values=(0, 1))


# The two straightline-validation properties draw a deterministic
# example stream.  The generator seeds that exposed SLF/LLF forwarding
# into a frozen racy read (straightline and loop shapes alike) are
# pinned in test_undef_observation.py.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_optimizer_refines_straightline_programs(seed):
    generator = ProgramGenerator(SMALL, seed)
    program = generator.straightline(length=6)
    optimized = optimize(program)
    verdict = check_transformation(program, optimized, limits=FAST_LIMITS)
    assert verdict.valid, (
        f"unsound optimization on seed {seed}:\n"
        f"source: {program!r}\noptimized: {optimized!r}\n{verdict!r}")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_optimizer_refines_looping_programs(seed):
    generator = ProgramGenerator(SMALL, seed)
    program = generator.loop_nest(depth=1, body_length=3)
    optimized = optimize(program)
    verdict = check_transformation(program, optimized, limits=FAST_LIMITS)
    assert verdict.valid or not verdict.simple.complete, (
        f"unsound optimization on seed {seed}:\n"
        f"source: {program!r}\noptimized: {optimized!r}")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_optimizer_preserves_single_thread_sc_behaviors(seed, length):
    generator = ProgramGenerator(SMALL, seed)
    program = generator.program(length=length)
    optimized = optimize(program)
    source = explore_sc([program], values=(0, 1))
    target = explore_sc([optimized], values=(0, 1))
    assert source.complete and target.complete
    for behavior in target.behaviors:
        assert any(behavior_leq(behavior, candidate)
                   for candidate in source.behaviors), (
            f"seed {seed}: behavior {behavior!r} of the optimized program "
            f"is not matched\nsource: {program!r}\n"
            f"optimized: {optimized!r}")


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_validated_pipeline_never_raises_on_random_programs(seed):
    generator = ProgramGenerator(SMALL, seed)
    program = generator.straightline(length=5)
    result = Optimizer(validate=True, limits=FAST_LIMITS).optimize(program)
    assert result.validated


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_pretty_printer_round_trips(seed, length):
    generator = ProgramGenerator(seed=seed)
    program = generator.program(length=length)
    assert parse(to_source(program)) == program


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_optimizer_idempotent_on_random_programs(seed):
    generator = ProgramGenerator(SMALL, seed)
    program = generator.straightline(length=6)
    once = optimize(program)
    assert optimize(once) == once
