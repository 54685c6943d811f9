"""repro.obs.propagate: deterministic contexts, wire codec, span logs."""

import json

import pytest

from repro.obs.propagate import (
    WIRE_SCHEMA,
    TraceContext,
    TraceLog,
    build_trace_tree,
    read_trace_spans,
    render_trace_tree,
    spans_by_trace,
)


class TestTraceContext:
    def test_mint_is_deterministic(self):
        a = TraceContext.mint(0, "svc-3", 17)
        b = TraceContext.mint(0, "svc-3", 17)
        assert a == b
        assert len(a.trace_id) == 16 and len(a.span_id) == 12
        int(a.trace_id, 16)  # valid hex

    def test_distinct_inputs_distinct_traces(self):
        ids = {TraceContext.mint(seed, sid, seq).trace_id
               for seed in (0, 1) for sid in ("svc-0", "svc-1")
               for seq in (1, 2, 3)}
        assert len(ids) == 12

    def test_from_wire_decodes_frames_that_carry_sampled(self):
        """Older WALs carry ``"sampled": true`` in every trace context;
        they must replay under the very ids their admission minted."""
        context = TraceContext.mint(0, "svc-0", 9)
        legacy = {"schema": 1, "trace_id": "02b5ed980daaac03",
                  "span_id": "14d98f6904eb", "sampled": True}
        decoded = TraceContext.from_wire(legacy)
        assert decoded == context
        assert (decoded.child("worker.update", qualifier="0:1").span_id
                == "26edf6a4269d")
        assert "sampled" not in context.to_wire()

    def test_child_keeps_trace_changes_span(self):
        root = TraceContext.mint(0, "svc-0", 1)
        child = root.child("worker.update", qualifier="0:1")
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id
        # Same derivation, same id (replay re-derives); different
        # qualifier (another incarnation), different id.
        assert child == root.child("worker.update", qualifier="0:1")
        assert child != root.child("worker.update", qualifier="1:1")

    def test_wire_round_trip(self):
        context = TraceContext.mint(0, "svc-0", 9)
        wire = context.to_wire()
        assert wire["schema"] == WIRE_SCHEMA
        assert TraceContext.from_wire(wire) == context
        assert TraceContext.from_wire(json.loads(json.dumps(wire))) == context

    @pytest.mark.parametrize("wire", [
        None, "x", 7, [], {},                          # absent / foreign
        {"schema": 99, "trace_id": "a", "span_id": "b"},  # future schema
        {"schema": WIRE_SCHEMA, "trace_id": None, "span_id": "b"},
        {"schema": WIRE_SCHEMA, "trace_id": "a"},      # torn shape
    ])
    def test_from_wire_tolerates_bad_shapes(self, wire):
        assert TraceContext.from_wire(wire) is None


class TestTraceLog:
    def test_record_read_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        context = TraceContext.mint(0, "svc-0", 1)
        with TraceLog(path) as log:
            log.record("gateway.submit", context, 0.002,
                       service="svc-0", sequence=1)
            child = context.child("worker.update")
            log.record("worker.update", child, 0.001,
                       parent_span_id=context.span_id, depth=1)
        spans = list(read_trace_spans(path))
        assert [s["name"] for s in spans] == ["gateway.submit",
                                              "worker.update"]
        assert spans[1]["parent_span_id"] == spans[0]["span_id"]
        assert spans[0]["trace_id"] == spans[1]["trace_id"]

    def test_append_mode_survives_reopen(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        context = TraceContext.mint(0, "svc-0", 1)
        for _ in range(2):  # two incarnations, one file
            with TraceLog(path) as log:
                log.record("worker.update", context, 0.001)
        assert len(list(read_trace_spans(path))) == 2

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        context = TraceContext.mint(0, "svc-0", 1)
        with TraceLog(path) as log:
            log.record("gateway.submit", context, 0.002)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"name": "worker.update", "tr')  # kill mid-write
        spans = list(read_trace_spans(path))
        assert [s["name"] for s in spans] == ["gateway.submit"]

    def test_non_jsonable_attrs_coerced(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        context = TraceContext.mint(0, "svc-0", 1)
        with TraceLog(path) as log:
            span = log.record("gateway.submit", context, 0.0,
                              where=tmp_path)
        assert span["attrs"]["where"] == str(tmp_path)
        assert list(read_trace_spans(path))  # round-trips


class TestTreeAssembly:
    def _spans(self):
        root = TraceContext.mint(0, "svc-0", 1)
        first = root.child("worker.update", qualifier="0:1")
        second = root.child("worker.update", qualifier="1:1")
        other = TraceContext.mint(0, "svc-1", 1)
        return root, [
            {"name": "gateway.submit", "trace_id": root.trace_id,
             "span_id": root.span_id, "seconds": 0.002},
            {"name": "worker.update", "trace_id": root.trace_id,
             "span_id": first.span_id, "parent_span_id": root.span_id,
             "seconds": 0.001, "attrs": {"replay": False}},
            {"name": "worker.update", "trace_id": root.trace_id,
             "span_id": second.span_id, "parent_span_id": root.span_id,
             "seconds": 0.001, "attrs": {"replay": True}},
            {"name": "gateway.submit", "trace_id": other.trace_id,
             "span_id": other.span_id, "seconds": 0.003},
        ]

    def test_build_trace_tree_links_parents(self):
        root, spans = self._spans()
        trees = build_trace_tree(spans, root.trace_id)
        assert len(trees) == 1
        assert trees[0]["span"]["name"] == "gateway.submit"
        assert len(trees[0]["children"]) == 2

    def test_orphan_spans_become_roots(self):
        root, spans = self._spans()
        orphans = build_trace_tree(spans[1:], root.trace_id)
        assert len(orphans) == 2  # parent torn away: children surface

    def test_render_trace_tree(self):
        root, spans = self._spans()
        text = render_trace_tree(spans, root.trace_id)
        assert text.splitlines()[0] == f"  trace {root.trace_id}"
        assert "- gateway.submit 2.000 ms" in text
        assert "[replay=True]" in text
        assert render_trace_tree([], "feedbeef").endswith(
            "no spans recorded")

    def test_spans_by_trace_groups_and_drops_untraced(self):
        root, spans = self._spans()
        grouped = spans_by_trace(spans + [{"name": "loose"}])
        assert set(grouped) == {root.trace_id,
                                spans[-1]["trace_id"]}
        assert len(grouped[root.trace_id]) == 3
