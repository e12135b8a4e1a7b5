"""Forwarding passes and loads whose undefinedness is observed.

SLF and LLF forward values across release writes: after the release a
load may read ``undef`` in SEQ, and any value refines it.  ``freeze``
and ``print`` tell ``undef`` apart from a defined value, so a forwarded
load whose value reaches one of them makes the optimized program show a
trace the source cannot (:mod:`repro.opt.observe`).  The generator
seeds below are the smallest programs on which the optimizer used to
produce such a pair, and the SEQ checker rightly rejected it.
"""

import pytest

from repro.lang import parse
from repro.lang.ast import Load, walk
from repro.litmus.generator import GeneratorConfig, ProgramGenerator
from repro.opt import Optimizer, optimize
from repro.opt.observe import undef_observed_loads
from repro.seq import Limits, check_transformation

FAST_LIMITS = Limits(max_game_states=8_000, max_closure_states=2_000,
                     max_escape_states=2_000)

SMALL = GeneratorConfig(na_locs=("x",), atomic_locs=("y",),
                        registers=("a", "b", "c"), values=(0, 1))


def observed_registers(source: str) -> list[str]:
    """Registers of the observed loads of ``source``, in program order."""
    program = parse(source)
    observed = undef_observed_loads(program)
    return [node.reg for node in walk(program)
            if isinstance(node, Load) and id(node) in observed]


class TestObservedLoads:
    def test_freeze_and_print_observe(self):
        assert observed_registers(
            "a := x_na; b := x_na; c := freeze(a); print(b); "
            "return 0;") == ["a", "b"]

    def test_value_uses_do_not_observe(self):
        assert observed_registers(
            "a := x_na; y_rlx := a; x_na := a; if a { skip; } "
            "return a;") == []

    def test_flow_through_assignment(self):
        assert observed_registers(
            "a := x_na; b := a + 1; c := freeze(b); return 0;") == ["a"]

    def test_reassignment_ends_the_flow(self):
        assert observed_registers(
            "a := x_na; a := 1; c := freeze(a); return 0;") == []

    def test_flow_through_memory(self):
        assert observed_registers(
            "a := x_na; z_na := a; b := z_na; c := freeze(b); "
            "return 0;") == ["a", "b"]

    def test_overwritten_memory_ends_the_flow(self):
        assert observed_registers(
            "a := x_na; z_na := a; z_na := 1; b := z_na; "
            "c := freeze(b); return 0;") == ["b"]

    def test_atomic_loads_are_not_tracked(self):
        assert observed_registers(
            "a := y_rlx; c := freeze(a); return 0;") == []

    def test_loop_carried_flow(self):
        assert observed_registers(
            "while i < 2 { c := freeze(b); b := x_na; i := i + 1; } "
            "return 0;") == ["b"]


#: (generator seed, program length).  Seed 4183 generates
#: ``a := x_na; b := x_na; y_rel := (1 * c); a := x_na; b := freeze(a);
#: return 0``.
STRAIGHTLINE_SEEDS = [(4183, 5), (228, 6)]

#: Seeds of the one-loop shape of test_property_optimizer; 379 generates
#: ``i1 := 0; while (i1 < 2) do { y_rel := b; b := freeze(c);
#: c := x_na; i1 := (i1 + 1) }; return 0``, where LICM used to forward
#: the hoisted load of ``x`` into ``c``.
LOOP_SEEDS = [379, 568, 752]


@pytest.mark.parametrize("seed,length", STRAIGHTLINE_SEEDS)
def test_straightline_seeds_validate(seed, length):
    program = ProgramGenerator(SMALL, seed).straightline(length=length)
    result = Optimizer(validate=True, limits=FAST_LIMITS).optimize(program)
    assert result.validated


@pytest.mark.parametrize("seed", LOOP_SEEDS)
def test_loop_seeds_refine(seed):
    program = ProgramGenerator(SMALL, seed).loop_nest(depth=1,
                                                      body_length=3)
    verdict = check_transformation(program, optimize(program),
                                   limits=FAST_LIMITS)
    assert verdict.valid and verdict.complete
