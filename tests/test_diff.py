"""Causal run-diff: seeded divergences must be found, named, classified.

Acceptance criteria under test: for deliberately perturbed runs —
a delivery-order flip, a dropped message, a stamp corruption —
``python -m repro.obs diff`` (the ``main()`` entry point) names the exact
first-divergent nid, its sim-time, and the divergence classification.
"""

import json

import pytest

from repro.mom.agent import EchoAgent
from repro.mom.bus import MessageBus
from repro.mom.config import BusConfig
from repro.mom.workloads import OpenLoopDriver, PingPongDriver, SinkAgent
from repro.obs.__main__ import main
from repro.obs.diff import (
    canonical_events,
    diff_dumps,
    explain,
    watch_explain,
)
from repro.obs.export import TraceDump, write_jsonl
from repro.obs.tracer import attach
from repro.topology import builders


def _config():
    return BusConfig(topology=builders.bus(12, 4))


def _churn(bus):
    for src, dst in [(0, 9), (9, 0), (4, 11)]:
        sink_id = bus.deploy(SinkAgent(), dst)
        driver = OpenLoopDriver(period_ms=7.0, count=15)
        driver.bind(sink_id)
        bus.deploy(driver, src)
    return bus


@pytest.fixture(scope="module")
def churn_dump():
    bus = _churn(MessageBus(_config()))
    tracer = attach(bus)
    bus.start()
    bus.run_until_idle()
    return TraceDump.from_tracer(tracer)


def _rebuilt(dump, events):
    return TraceDump(dict(dump.meta), events, dump.cpu, dump.histograms)


def _write(tmp_path, name, dump):
    path = tmp_path / name
    with open(path, "w") as stream:
        write_jsonl(dump, stream)
    return str(path)


# ----------------------------------------------------------------------
# Seeded perturbations
# ----------------------------------------------------------------------


def _seed_order_flip(dump):
    """Swap the sim-times of two deliveries at one server: the canonical
    streams then show them enqueued in opposite order."""
    by_server = {}
    for event in canonical_events(dump):
        if event.kind == "enqueue_in":
            by_server.setdefault(event.server, []).append(event)
    server, pair = next(
        (s, ev) for s, ev in sorted(by_server.items())
        if len(ev) >= 2 and ev[0].t != ev[1].t and ev[0].nid != ev[1].nid
    )
    first, second = pair[0], pair[1]
    events = [
        e._replace(t=second.t) if e == first
        else e._replace(t=first.t) if e == second
        else e
        for e in dump.events
    ]
    return _rebuilt(dump, events), first, second


def _seed_dropped_message(dump):
    """Erase every event of one delivered message from the second run."""
    nid = sorted(
        {e.nid for e in dump.events if e.kind == "reaction_commit"
         and e.nid >= 0}
    )[-1]
    events = [e for e in dump.events if e.nid != nid]
    first = min(
        (e for e in canonical_events(dump) if e.nid == nid),
        key=lambda e: (e.t, e.server),
    )
    return _rebuilt(dump, events), nid, first


def _seed_stamp_corruption(dump):
    """Flip one commit's merged-cell count — a clock payload mismatch."""
    target = next(
        e for e in canonical_events(dump)
        if e.kind == "commit" and e.nid >= 0
    )
    events = [
        e._replace(value=e.value + 1.0) if e == target else e
        for e in dump.events
    ]
    return _rebuilt(dump, events), target


def test_delivery_order_flip_is_found_and_classified(churn_dump, tmp_path, capsys):
    perturbed, first, second = _seed_order_flip(churn_dump)
    report = diff_dumps(churn_dump, perturbed)
    assert report is not None
    assert report.classification == "delivery-order-flip"
    assert report.nid == first.nid
    assert report.t == first.t
    assert report.server == first.server
    assert report.extras["other_nid"] == second.nid

    code = main([
        "diff",
        _write(tmp_path, "a.jsonl", churn_dump),
        _write(tmp_path, "b.jsonl", perturbed),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "delivery-order-flip" in out
    assert f"nid {first.nid}" in out
    assert f"t={first.t:.3f}ms" in out


def test_dropped_message_is_found_and_classified(churn_dump, tmp_path, capsys):
    perturbed, nid, first = _seed_dropped_message(churn_dump)
    report = diff_dumps(churn_dump, perturbed)
    assert report is not None
    assert report.classification == "missing-message"
    assert report.nid == nid
    assert report.t == first.t

    code = main([
        "diff", "--json",
        _write(tmp_path, "a.jsonl", churn_dump),
        _write(tmp_path, "b.jsonl", perturbed),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["classification"] == "missing-message"
    assert payload["nid"] == nid
    assert payload["t"] == first.t


def test_stamp_corruption_is_found_and_classified(churn_dump, tmp_path, capsys):
    perturbed, target = _seed_stamp_corruption(churn_dump)
    report = diff_dumps(churn_dump, perturbed)
    assert report is not None
    assert report.classification == "stamp-mismatch"
    assert report.nid == target.nid
    assert report.t == target.t
    assert report.server == target.server

    code = main([
        "diff",
        _write(tmp_path, "a.jsonl", churn_dump),
        _write(tmp_path, "b.jsonl", perturbed),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "stamp-mismatch" in out
    assert f"nid {target.nid}" in out
    assert f"t={target.t:.3f}ms" in out


# ----------------------------------------------------------------------
# Equivalence: identical runs
# ----------------------------------------------------------------------


def test_identical_dumps_diff_clean(churn_dump, tmp_path, capsys):
    assert diff_dumps(churn_dump, churn_dump) is None
    assert watch_explain(churn_dump, churn_dump) is None
    path = _write(tmp_path, "same.jsonl", churn_dump)
    assert main(["diff", path, path]) == 0
    assert "causally identical" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The explain chain (--watch mode)
# ----------------------------------------------------------------------


def test_explain_chains_into_why_and_critpath(churn_dump):
    perturbed, first, _second = _seed_order_flip(churn_dump)
    report = diff_dumps(churn_dump, perturbed)
    assert report is not None
    text = explain(report, churn_dump, perturbed)
    assert "first divergence" in text
    assert f"nid {report.nid}" in text
    assert "critpath of nid" in text or "never held back" in text
    assert "dig deeper" in text


def test_watch_explain_reports_on_divergence(churn_dump):
    perturbed, nid, _first = _seed_dropped_message(churn_dump)
    text = watch_explain(churn_dump, perturbed)
    assert text is not None
    assert "missing-message" in text
    assert f"nid {nid}" in text


def test_cli_explain_flag(churn_dump, tmp_path, capsys):
    perturbed, first, _second = _seed_order_flip(churn_dump)
    code = main([
        "diff", "--explain",
        _write(tmp_path, "a.jsonl", churn_dump),
        _write(tmp_path, "b.jsonl", perturbed),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "first divergence" in out
    assert "delivery-order-flip" in out
