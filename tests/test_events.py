"""Structured-completion unit tests: op recorder and completions."""

import pytest

from repro.sim import Completion, DeviceOp, OpRecorder, plane_resource


class TestOpRecorder:
    def test_inactive_recorder_drops_ops(self):
        recorder = OpRecorder()
        recorder.record("disk", "read", 100.0)
        mark = recorder.begin()
        assert recorder.end(mark) == ()

    def test_capture_brackets_ops(self):
        recorder = OpRecorder()
        mark = recorder.begin()
        recorder.record("disk", "read", 100.0)
        recorder.record(plane_resource(0), "page_write", 200.0)
        ops = recorder.end(mark)
        assert [op.resource for op in ops] == ["disk", "plane:0"]

    def test_nested_captures_share_ops(self):
        recorder = OpRecorder()
        outer = recorder.begin()
        recorder.record("disk", "read", 1.0)
        inner = recorder.begin()
        recorder.record("plane:1", "page_read", 2.0)
        assert [op.duration_us for op in recorder.end(inner)] == [2.0]
        # The outer capture still sees the inner capture's operations.
        assert [op.duration_us for op in recorder.end(outer)] == [1.0, 2.0]

    def test_unbalanced_end_raises(self):
        with pytest.raises(RuntimeError):
            OpRecorder().end(0)


class TestCompletion:
    def test_behaves_as_float(self):
        completion = Completion(150.0)
        assert completion == 150.0
        assert completion + 50.0 == 200.0
        assert sorted([Completion(3.0), Completion(1.0)])[0] == 1.0

    def test_breakdown_properties(self):
        ops = (
            DeviceOp("plane:0", "page_read", 25.0),
            DeviceOp("disk", "read", 2000.0),
        )
        completion = Completion(2075.0, ops, hit=False)
        assert completion.latency_us == 2075.0
        assert completion.disk_us == 2000.0
        assert completion.flash_us == 25.0
        assert completion.cache_us == 75.0
        assert completion.overhead_us == 50.0
        assert completion.hit is False

    def test_overhead_never_negative(self):
        completion = Completion(10.0, (DeviceOp("disk", "read", 15.0),))
        assert completion.overhead_us == 0.0
