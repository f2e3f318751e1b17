"""Tests for the benchmark's own code: inputs, span arithmetic, op accounting."""

import sys
import textwrap

import numpy as np
import pytest

import inputs
import run
import spans as sp
import susyosc
import susyosc.cli  # noqa: F401


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    assert inputs.generate(workload, 7, 2) == inputs.generate(workload, 7, 2)
    assert inputs.generate(workload, 7, 2) != inputs.generate(workload, 8, 2)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_round_structure_does_not_depend_on_seed(workload):
    def shape(seed):
        return [sorted(str((op["kind"], op.get("k"), op.get("n_max"), op.get("n_points"),
                            op.get("family"), op.get("probe")))
                       for op in rnd)
                for rnd in inputs.generate(workload, seed, 2)]

    assert shape(1) == shape(2)


def test_sweep_covers_the_envelope_and_its_probes():
    ops = [op for rnd in inputs.generate("sweep", 3, 2) for op in rnd]
    cells = {(op["k"], op["n_max"], op["n_points"]) for op in ops if not op["probe"]}
    assert cells == set(inputs.ENVELOPE_CELLS)
    assert sum(op["probe"] for op in ops) == 2
    keys = [tuple(sorted(op.items())) for op in ops]
    assert len(set(keys)) == len(keys)
    # (eps_top, nu) comes from the screened table of its k, whatever the seed
    assert all((op["eps_top"], op["nu"]) in inputs.sweep_pairs(op["k"])
               for op in ops if not op["probe"])


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] with children A [1, 4] and B [5, 9]; B has child C [6, 7];
    # D [2, 3] and E [2.5, 3.5] are overlapping children of A
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 6.0, 7.0, 2, 0],
        ["d", 2.0, 3.0, 1, 0],
        ["e", 2.5, 3.5, 1, 0],
    ]
    own = sp.self_times(spans)
    assert own == pytest.approx([3.0, 1.5, 3.0, 1.0, 1.0, 1.0])
    table = sp.aggregate(spans + [["c", 20.0, 20.5, -1, 1]])
    assert table["c"]["calls"] == 2
    assert table["c"]["self_s"] == pytest.approx(1.5)
    assert table["root"]["total_s"] == pytest.approx(10.0)


def test_builds_per_key_counts_keys_per_scope():
    spans = [["f", 0, 1, -1, op] for op in (0, 0, 1, 1)]
    keys = [(0, "x"), (1, "x"), (2, "x"), (3, "y")]
    assert sp.builds_per_key(spans, keys, "f") == pytest.approx(4 / 2)
    assert sp.builds_per_key(spans, keys, "f", lambda op: op) == pytest.approx(4 / 3)
    assert sp.builds_per_key(spans, keys, "g") == 0.0


def test_recorder_wraps_every_binding_and_restores_it():
    original = susyosc.specfun.hyp1f1
    assert susyosc.susy.hyp1f1 is original
    recorder = sp.SpanRecorder()
    with recorder:
        assert susyosc.susy.hyp1f1 is not original
        assert susyosc.hyp1f1 is susyosc.susy.hyp1f1
        susyosc.susy.seed_solution(np.linspace(-1.0, 1.0, 5), -1.0, 0.3)
    assert susyosc.susy.hyp1f1 is original and susyosc.hyp1f1 is original
    names = [s[0] for s in recorder.spans]
    assert names[0] == "susy.seed_solution"
    children = [s for s in recorder.spans if s[3] == 0]
    assert {s[0] for s in children} >= {"specfun.hyp1f1", "specfun.gamma_fn"}


def test_a_vanished_function_is_reported_absent(tmp_path, monkeypatch):
    pkg = tmp_path / "fakeosc"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "specfun.py").write_text(textwrap.dedent("""
        def gamma_fn(x):
            return x
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    recorder = sp.SpanRecorder(package="fakeosc")
    with recorder:
        sys.modules["fakeosc.specfun"].gamma_fn(2.0)
    assert "susy" in recorder.missing_layers and "specfun" not in recorder.missing_layers
    values, absent = run.per_layer_metrics(recorder, [{"kind": "system"}], [], [])
    assert "susy.iso_state" in absent
    assert values["susy.iso_state.calls"] == 0.0
    assert values["specfun.self_s"] >= 0.0


def test_out_of_envelope_spec_is_a_counted_failure_not_a_crash():
    import ops
    probe = dict(inputs.PROBES[1], kind="system", probe=True, x_max=10.5, n_points=2101)
    outcomes = run.run_ops([probe], lambda op: ops.system_op(susyosc, op), susyosc)
    (outcome,) = outcomes
    assert outcome["failed"] and not outcome["unexpected"]
    assert outcome["error"].startswith("ConstructionError: iso state")
    summary = run.summarize(outcomes)
    assert summary["fail_ratio"] == 1.0 and summary["unexpected"] == 0


def _probe_outcome(execute):
    (outcome,) = run.run_ops([{"kind": "system", "probe": True}], execute, susyosc)
    return outcome


def test_a_probe_is_wrong_when_it_returns_a_check_over_threshold_or_fails_untyped():
    outcome = _probe_outcome(lambda op: [("potential_round_trip", 2.8e-5, 1e-5)])
    assert outcome["failed"] and outcome["unexpected"]
    assert not _probe_outcome(lambda op: [("potential_round_trip", 0.5e-5, 1e-5)])["unexpected"]
    assert _probe_outcome(lambda op: 1 / 0)["unexpected"]


@pytest.mark.parametrize("message, names_value", [
    ("iso state n=30: grid norm disagrees with closed form by 1.15e-06", True),
    ("new state j=2 fails the eigenvalue equation (residual 3.2e-4)", True),
    ("iso state n=30", False),
    ("top seed changes sign on the grid; chain would be singular", False),
])
def test_a_probe_refusal_must_name_the_failing_value(message, names_value):
    def refuse(op):
        raise susyosc.ConstructionError(message)

    outcome = _probe_outcome(refuse)
    assert outcome["failed"] and outcome["unexpected"] is not names_value


def test_tail_percentile_keeps_ten_samples_beyond_it():
    outcomes = [{"kind": "x", "seconds": float(i), "checks": [("c", 0.5, 1.0)],
                 "error": None, "over": [], "op": {}, "failed": False, "unexpected": False}
                for i in range(25)]
    s = run.summarize(outcomes)
    assert s["op_tail_s"] == 14.0 and s["op_tail_beyond"] == 10
    assert s["op_tail_percentile"] == pytest.approx(60.0)
    assert s["op_p50_s"] == 12.0 and s["check_margin"] == 0.5
