"""Witness / counterexample / trace explanation."""

from repro import obs
from repro.cli import main
from repro.lang import parse
from repro.litmus import case_by_name
from repro.obs import explain
from repro.psna.explore import PsBottom
from repro.seq.refinement import check_transformation


def _counterexample(name):
    case = case_by_name(name)
    verdict = check_transformation(case.source, case.target)
    assert not verdict.valid
    cex = (verdict.advanced.counterexample if verdict.advanced is not None
           else verdict.simple.counterexample)
    return case, cex


class TestWitness:
    def test_shortest_witness_found(self):
        witness = explain.find_witness([parse(
            "x_na := 1; b := x_na; return b;")])
        assert witness is not None
        assert witness.outcome.returns == (1,)
        assert witness.steps
        tags = [info.tag for info in witness.steps]
        assert "write" in tags and "read" in tags

    def test_accept_filters_outcomes(self):
        programs = [parse("x_na := 1; return 0;"),
                    parse("x_na := 2; return 0;")]
        witness = explain.find_witness(
            programs, accept=lambda r: isinstance(r, PsBottom))
        assert witness is not None
        assert isinstance(witness.outcome, PsBottom)

    def test_timeline_narrates_rules_and_views(self):
        timeline = explain.explain_witness([parse(
            "x_na := 1; b := x_na; return b;")])
        text = explain.render_text(timeline)
        assert "psna.thread.write" in text
        assert "V=" in text and "M =" in text
        assert "outcome" in text

    def test_race_points_marked(self):
        timeline = explain.explain_witness(
            [parse("x_na := 1; return 0;"), parse("x_na := 2; return 0;")],
            accept=lambda r: isinstance(r, PsBottom))
        text = explain.render_text(timeline)
        assert "racy-write" in text
        assert "!!" in text  # race entries are visually loud

    def test_unreachable_outcome_reports_no_witness(self):
        timeline = explain.explain_witness(
            [parse("return 0;")], accept=lambda r: isinstance(r, PsBottom),
            max_states=50)
        assert "no matching execution" in explain.render_text(timeline)


class TestCounterexample:
    def test_replay_shows_frontier_and_failed_obligation(self):
        case, cex = _counterexample("na-reorder-same-loc")
        timeline = explain.explain_counterexample(case.source, case.target,
                                                  cex)
        text = explain.render_text(timeline)
        assert "source frontier" in text
        assert "failed obligation" in text
        assert cex.reason in text

    def test_labeled_trace_replay(self):
        # An invalid case whose counterexample trace carries labels.
        case, cex = _counterexample("write-across-infinite-loop")
        timeline = explain.explain_counterexample(case.source, case.target,
                                                  cex)
        text = explain.render_text(timeline)
        assert "game start" in text
        assert "failed obligation" in text


class TestHtml:
    def test_html_is_self_contained(self):
        case, cex = _counterexample("na-reorder-same-loc")
        timeline = explain.explain_counterexample(case.source, case.target,
                                                  cex)
        page = explain.render_html(timeline)
        assert page.startswith("<!DOCTYPE html>")
        assert "<style>" in page and "http" not in page.split("</style>")[0]
        assert "failed obligation" in page

    def test_html_escapes_content(self):
        timeline = explain.Timeline("t <script>")
        timeline.add("x < y & z")
        page = explain.render_html(timeline)
        assert "<script>" not in page.split("<body>")[1]
        assert "x &lt; y &amp; z" in page


class TestTraceExplainer:
    def test_timeline_from_recorded_session(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.session(trace=path, meta={"argv": ["demo"]}):
            with obs.span("outer"):
                with obs.span("inner", detail=7):
                    pass
            obs.event("result", verdict="ok")
        timeline = explain.explain_trace(path)
        text = explain.render_text(timeline)
        assert "span inner" in text and "span outer" in text
        assert "event result" in text
        assert "verdict = 'ok'" in text
        assert "meta" in "\n".join(timeline.header)

    def test_span_depth_indents(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with obs.session(trace=path):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        text = explain.render_text(explain.explain_trace(path))
        inner = next(line for line in text.splitlines() if "inner" in line)
        outer = next(line for line in text.splitlines() if "outer" in line)
        assert inner.index("span") > outer.index("span")


class TestExplainCli:
    def test_valid_case_renders_witness(self, capsys):
        assert main(["explain", "--case", "slf-basic"]) == 0
        out = capsys.readouterr().out
        assert "witness" in out and "psna.thread" in out

    def test_invalid_case_renders_counterexample(self, capsys, tmp_path):
        path = str(tmp_path / "cex.html")
        assert main(["explain", "--case", "na-reorder-same-loc",
                     "--html", path]) == 0
        out = capsys.readouterr().out
        assert "failed obligation" in out
        page = open(path).read()
        assert page.startswith("<!DOCTYPE html>")

    def test_unknown_case_is_an_error(self, capsys):
        assert main(["explain", "--case", "no-such-case"]) == 2
        assert "unknown litmus case" in capsys.readouterr().err

    def test_witness_mode(self, capsys):
        assert main(["explain", "--witness",
                     "x_na := 1; b := x_na; return b;"]) == 0
        assert "outcome" in capsys.readouterr().out

    def test_witness_text_with_a_midpoint_timestamp(self, capsys):
        """T1's write lands between x@0 and T0's x@1; the narration
        prints the bisected stamp as ``1/2``, byte for byte as when
        timestamps were Fractions."""
        assert main(["explain", "--witness", "x_rlx := 1; return 0;",
                     "x_rlx := 2; return 0;"]) == 0
        assert capsys.readouterr().out == MIDPOINT_WITNESS

    def test_missing_trace_file_is_an_error(self, capsys, tmp_path):
        assert main(["explain", "--trace-file",
                     str(tmp_path / "no-such.jsonl")]) == 2
        assert "unreadable trace file" in capsys.readouterr().err

    def test_trace_file_mode(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["explore", "--machine", "pf", "--trace", path,
                     "x_rlx := 1; return 0;"]) == 0
        capsys.readouterr()
        assert main(["explain", "--trace-file", path]) == 0
        assert "event result" in capsys.readouterr().out


MIDPOINT_WITNESS = """\
== witness: 2 thread(s) ==
threads: 2
shortest witness: 4 machine steps (21 states searched)
outcome: ⟨ret (0, 0)⟩
   [  0] initial state
         T0: V=⟨⟩
         T1: V=⟨⟩
        M = {⟨x@0,0,⊥⟩}
   [  1] T0 fires rule psna.thread.write
        *T0: V=⟨x@1⟩
         T1: V=⟨⟩
        M = {⟨x@0,0,⊥⟩, ⟨x@1,1,⟨x@1⟩⟩}
   [  2] T0 fires rule psna.thread.silent
        *T0: V=⟨x@1⟩
         T1: V=⟨⟩
        M = {⟨x@0,0,⊥⟩, ⟨x@1,1,⟨x@1⟩⟩}
   [  3] T1 fires rule psna.thread.write
         T0: V=⟨x@1⟩
        *T1: V=⟨x@1/2⟩
        M = {⟨x@0,0,⊥⟩, ⟨x@1/2,2,⟨x@1/2⟩⟩, ⟨x@1,1,⟨x@1⟩⟩}
   [  4] T1 fires rule psna.thread.silent
         T0: V=⟨x@1⟩
        *T1: V=⟨x@1/2⟩
        M = {⟨x@0,0,⊥⟩, ⟨x@1/2,2,⟨x@1/2⟩⟩, ⟨x@1,1,⟨x@1⟩⟩}
=> [  5] outcome ⟨ret (0, 0)⟩
"""
