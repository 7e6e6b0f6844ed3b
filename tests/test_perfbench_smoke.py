"""The benchmark's tracer must find every function it wraps: a renamed or
removed traced function fails here rather than in a benchmark run."""
import os

import twistlab.cli
import twistlab.metaplectic

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    original = twistlab.metaplectic.evaluate_meta_word
    tracer = Tracer()
    tracer.install()
    try:
        assert twistlab.metaplectic.evaluate_meta_word is not original
        assert twistlab.cli.main(["metaplectic", "(a b)^6", "--json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert twistlab.metaplectic.evaluate_meta_word is original
    assert twistlab.cli.evaluate_meta_word is original
    assert tracer.calls["metaplectic.evaluate"] == 1
    assert tracer.calls["cli.main"] == 1
