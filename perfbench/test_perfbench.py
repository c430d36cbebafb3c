"""Tests of the benchmark itself: its checks, its tracer and its inputs.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads
from kdeform import model as km
from kdeform import ncalg, scalar, twist
from tracer import Tracer

HERE = Path(__file__).resolve().parent
MINK2 = [[-1, 0], [0, 1]]


def _d2_item(expected=None):
    """A tiny d=2 covariant model, checked by the hopf-d4 items' own verify."""
    return workloads.Item(
        "d2",
        lambda: km.Model(km.ModelConfig(MINK2, (1, 0), "covariant_hadic", (2, 0))),
        workloads.verify_hopf,
        expected,
    )


def _t1_small_item():
    def setup():
        m = km.Model(km.ModelConfig(workloads.MINK4, workloads.TIME4,
                                    "orthog_1_plus", (1, 1)))
        return m, twist.build_twist("T1", m)

    return workloads.Item("twist_T1(1, 1)", setup, workloads.verify_twist, None)


def _quick_items():
    """One cheap item of each workload, plus a small T1 twist."""
    hopf = workloads.build("hopf-d4", 0)[0]
    small = workloads.build("exact-small", 0)
    return [hopf, small[0], small[4], _t1_small_item()]


@pytest.fixture(scope="module")
def d2_text():
    return harness.run_pass([_d2_item()]).texts["d2"]


def test_clean_item_passes_and_corrupted_rule_fails(monkeypatch, d2_text):
    expected = workloads.digest(d2_text)
    assert harness.run_pass([_d2_item(expected)]).failed == []

    set_commutator = ncalg.Presentation.set_commutator

    def corrupted(self, i, j, terms):
        if not self.comm_rules:  # double the coefficients of the first rule
            terms = {w: c * 2 for w, c in terms.items()}
        return set_commutator(self, i, j, terms)

    monkeypatch.setattr(ncalg.Presentation, "set_commutator", corrupted)
    res = harness.run_pass([_d2_item(expected)])
    assert res.failed == ["d2"]
    assert res.texts["d2"] != d2_text


def test_self_consistent_truncation_fault_fails_digest(monkeypatch, d2_text):
    """A fault that drops the top h-order keeps every report as it was.

    The Hopf axioms still hold one order lower and the report header comes
    from the configuration, so only the rendered coproducts and antipodes
    show the fault.
    """
    item = _d2_item(workloads.digest(d2_text))
    clean_reports, _ = item.verify(item.setup())

    def keep_lower(key, trunc):
        return trunc is None or (key[0] < trunc[0] and key[1] <= trunc[1])

    monkeypatch.setattr(scalar, "_keep", keep_lower)
    reports, _ = item.verify(item.setup())
    assert all(r.ok for r in reports)
    assert workloads.render(reports) == workloads.render(clean_reports)
    assert harness.run_pass([item]).failed == ["d2"]


def test_item_that_raises_counts_as_failed(d2_text):
    def boom(_):
        raise ZeroDivisionError("corrupted")

    items = [workloads.Item("boom", lambda: None, boom, ""),
             _d2_item(workloads.digest(d2_text))]
    attempted, failed, metrics = harness.end_to_end(items, seconds=0)
    assert (attempted, failed) == (2, 1)
    spec = json.loads(harness.SPEC_FILE.read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["end_to_end"])


def test_traced_and_untraced_outputs_identical():
    items = _quick_items()
    base, traced, tracer = harness.traced_pass(items)
    assert sorted(base.texts) == sorted(it.name for it in items)
    assert traced.texts == base.texts
    assert [f for f in base.failed if f != "twist_T1(1, 1)"] == []
    # the tracer put every original back
    assert all(not hasattr(f, "__wrapped__") for f in (
        scalar.Scalar.__mul__, km.Model.__init__, km.hopf_axiom_check,
        twist.build_twist, ncalg.Presentation.normalize_word))
    for m in harness.per_layer_spec():
        if m["name"] != "trace.overhead_frac":
            tracer.value(m["name"])
    spans = {s["name"] for s in tracer.spans}
    assert {"item:twist_T1(1, 1)", "model.hopf_axiom_check",
            "twist.twist_hopf", "rmatrix.schouten"} <= spans
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_counts_repeat_exactly():
    items = workloads.build("hopf-d4", 0)[:2] + workloads.build("exact-small", 0)[:5]
    counts = []
    for _ in range(2):
        _, _, tracer = harness.traced_pass(items)
        counts.append({m["name"]: tracer.value(m["name"])
                       for m in harness.per_layer_spec() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["scalar.Scalar.mul.calls"] > 0
    assert counts[0]["rmatrix.schouten.calls"] == 2


def test_normalize_word_words_hopf_d4_30():
    """Outside-in word count at (3, 0), against the rewriting cache."""
    with Tracer() as tracer:
        m = km.Model(km.ModelConfig(workloads.MINK4, workloads.TIME4,
                                    "covariant_hadic", (3, 0)))
        stat = tracer.stats["ncalg.normalize_word"]
        setup_words = set(stat.seen)
        stat.seen.clear()
        assert km.hopf_axiom_check(m).ok
    assert tracer.value("ncalg.normalize_word.words") == 16263
    # every word normalized by set-up or by the check is cached, and only those
    assert len(stat.seen | setup_words) == len(m.pres._norm_cache) == 16278


def test_predicted_schouten_reports_match_pins():
    pins = workloads.load_digests()["seeded"]["0"]
    for k, (dim, base, rows, tau) in enumerate(workloads.schouten_inputs(0)):
        name = "schouten_d%d_%d" % (dim, k % 5)
        pred = workloads.predicted_schouten_report(base, rows, tau)
        assert workloads.digest(pred) == pins[name]


def test_held_out_seed_schouten_items_pass():
    items = [it for it in workloads.build("exact-small", 20141404)
             if it.name.startswith("schouten")]
    assert len(items) == 10
    assert harness.run_pass(items).failed == []


def test_inputs_follow_the_seed():
    assert workloads.schouten_inputs(5) == workloads.schouten_inputs(5)
    assert workloads.schouten_inputs(5) != workloads.schouten_inputs(6)


_DIGEST_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
for it in workloads.build("hopf-d4", 0)[:1] + workloads.build("exact-small", 0)[:5]:
    reports, extras = it.verify(it.setup())
    print(it.name, workloads.digest(workloads.render(reports, extras)) == it.expected)
"""


def test_digests_independent_of_hash_seed():
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, str(HERE.parent / "src"),
             str(HERE)], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(" True") == 6


def test_without_sources_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hopf-d4", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_item_has_a_pin_or_a_prediction(workload):
    items = workloads.build(workload, 0)
    assert items and all(len(it.expected) == 64 for it in items)
