"""End-to-end tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _positive_int, _warmup_fraction, main
from repro.traces.filefmt import read_trace


class TestWorkloads:
    def test_lists_all_profiles(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("homes", "mail", "usr", "proj"):
            assert name in out


class TestGenerateAnalyze:
    def test_generate_writes_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main([
            "generate", "--workload", "usr", "--scale", "0.02",
            "--seed", "3", "-o", str(path),
        ]) == 0
        records = read_trace(path)
        assert len(records) > 0
        assert "wrote" in capsys.readouterr().out

    def test_analyze_synthetic(self, capsys):
        assert main(["analyze", "--workload", "homes", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "requests:" in out
        assert "unique blocks:" in out

    def test_analyze_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["generate", "--workload", "mail", "--scale", "0.02", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", "--trace", str(path)]) == 0
        assert "overwrite ratio" in capsys.readouterr().out

    def test_analyze_msr_file(self, tmp_path, capsys):
        path = tmp_path / "msr.csv"
        path.write_text("1,hm,0,Read,0,8192,10\n2,hm,0,Write,0,4096,10\n")
        assert main(["analyze", "--trace", str(path), "--msr"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_analyze_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        path.write_text("100 1 smtpd 0 16 W 8 1 aa\n101 1 imapd 16 8 R 8 1 bb\n")
        assert main(["analyze", "--trace", str(path), "--fiu"]) == 0
        out = capsys.readouterr().out
        assert "requests:            3" in out

    def test_replay_fiu_file(self, tmp_path, capsys):
        path = tmp_path / "fiu.blkparse"
        lines = [f"{i} 1 smtpd {i * 8 % 4096} 8 W 8 1 x" for i in range(400)]
        path.write_text("\n".join(lines) + "\n")
        assert main([
            "replay", "--trace", str(path), "--fiu",
            "--system", "ssc", "--mode", "wb", "--warmup", "0",
        ]) == 0
        assert "IOPS:" in capsys.readouterr().out


class TestReplayCompare:
    def test_replay_ssc(self, capsys):
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
        ]) == 0
        out = capsys.readouterr().out
        assert "IOPS:" in out
        assert "write amplification" in out

    def test_replay_native_wt_no_consistency(self, capsys):
        assert main([
            "replay", "--workload", "usr", "--scale", "0.02",
            "--system", "native", "--mode", "wt", "--no-consistency",
        ]) == 0
        assert "IOPS:" in capsys.readouterr().out

    def test_replay_trace_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["generate", "--workload", "homes", "--scale", "0.02", "-o", str(path)])
        capsys.readouterr()
        assert main([
            "replay", "--trace", str(path), "--system", "ssc-r",
            "--mode", "wb", "--limit", "500",
        ]) == 0
        assert "requests measured:" in capsys.readouterr().out

    def test_compare_prints_three_systems(self, capsys):
        assert main(["compare", "--workload", "mail", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("native", "ssc", "ssc-r"):
            assert name in out

    def test_recover(self, capsys):
        assert main(["recover", "--workload", "homes", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "FlashTier recovery" in out
        assert "OOB scan" in out

    def test_recover_over_striped_ssd_array(self, capsys):
        # The native half builds a two-member ShardedSSD; its manager
        # reload reads the timing model through the array's chip view.
        assert main(["recover", "--workload", "homes", "--scale", "0.05",
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        table = [line.split()[0] for line in out.splitlines()
                 if line.startswith(("shard", "serial total"))]
        assert table == ["shard", "shard0", "shard1", "serial"]
        assert "Native-FC reload:" in out
        assert "Native-SSD OOB scan:" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_analyze_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.trace"
        path.write_text("# nothing\n")
        assert main(["analyze", "--trace", str(path)]) == 1

    @pytest.mark.parametrize("flags,code,message", [
        (["--queue-depth", "0"], 2, "argument --queue-depth: must be >= 1"),
        (["--warmup", "1.5"], 2, "argument --warmup: must be in [0, 1)"),
        (["--scale", "0.01"], 1, "error: chip too small"),
        (["--scale", "0.05", "--open-loop"], 1,
         "error: open-loop replay requires arrival_us"),
    ])
    def test_bad_replay_option_is_one_error_line(self, flags, code, message,
                                                  capsys):
        # Bad options exit 2 from argparse; a config or trace the replay
        # cannot run exits 1.  Neither prints a traceback.
        try:
            result = main(["replay", "--workload", "homes", *flags])
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        assert result == code
        assert message in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err
        assert "IOPS" not in captured.out

    @pytest.mark.parametrize("argv,message", [
        (["crashcheck", "--shards", "0"], "argument --shards: must be >= 1"),
        (["crashcheck", "--ops", "0"], "argument --ops: must be >= 1"),
        (["crashcheck", "--stride", "0"], "argument --stride: must be >= 1"),
        (["crashcheck", "--bitflips", "-1"],
         "argument --bitflips: must be >= 0"),
        (["bench", "--shards", "0"], "argument --shards: must be >= 1"),
        (["recover", "--shards", "0"], "argument --shards: must be >= 1"),
        (["recover", "--mode", "xx"], "argument --mode: invalid choice: 'xx'"),
        (["replay", "--shards", "-2"], "argument --shards: must be >= 1"),
        (["compare", "--scale", "0.05", "--warmup", "1.5"],
         "argument --warmup: must be in [0, 1)"),
        (["compare", "--scale", "0.05", "--warmup", "-0.1"],
         "argument --warmup: must be in [0, 1)"),
        (["bench", "--quick", "--queue-depths", "0"],
         "argument --queue-depths: must be >= 1"),
        (["bench", "--quick", "--queue-depths", "4,-1"],
         "argument --queue-depths: must be >= 1"),
        (["bench", "--quick", "--queue-depths", "4,x"],
         "argument --queue-depths: not an integer: 'x'"),
    ])
    def test_bad_integer_or_mode_exits_two_naming_the_flag(self, argv,
                                                          message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestReplayOptionTypes:
    """The argparse types that validate ``--queue-depth`` and ``--warmup``."""

    @pytest.mark.parametrize("text,value", [("1", 1), ("32", 32)])
    def test_queue_depth_accepts_positive_integers(self, text, value):
        assert _positive_int(text) == value

    @pytest.mark.parametrize("text", ["0", "-4", "two", "1.5"])
    def test_queue_depth_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _positive_int(text)

    @pytest.mark.parametrize("text,value", [
        ("0", 0.0), ("0.15", 0.15), ("0.999", 0.999),
    ])
    def test_warmup_accepts_fractions_below_one(self, text, value):
        assert _warmup_fraction(text) == value

    @pytest.mark.parametrize("text", ["1", "-0.1", "nan", "most"])
    def test_warmup_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _warmup_fraction(text)


class TestObservabilityCli:
    def test_replay_writes_all_three_outputs(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        events_out = tmp_path / "events.jsonl"
        metrics_out = tmp_path / "metrics.json"
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
            "--trace-out", str(trace_out),
            "--events-out", str(events_out),
            "--metrics", str(metrics_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace entries" in out

        import json
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "M"}

        lines = events_out.read_text().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["replay.ops"] > 0
        assert metrics["histograms"]["replay.latency_us"]["count"] > 0

    def test_trace_report_summarizes_capture(self, tmp_path, capsys):
        events_out = tmp_path / "events.jsonl"
        main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
            "--events-out", str(events_out),
        ])
        capsys.readouterr()
        assert main(["trace", "report", str(events_out), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Captured events" in out
        assert "Write-amplification breakdown" in out
        assert "user writes" in out

    def test_trace_report_missing_file(self, tmp_path, capsys):
        assert main(["trace", "report", str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_report_empty_capture(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "report", str(path)]) == 1
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ('[1, 2]', ":1: not a JSON object"),
        ('"gc.merge"', ":1: not a JSON object"),
        ('{"name": "gc.merge", "args": [1]}', ':1: "args" is not a JSON object'),
        ('{"name": "gc.merge", "args": {"copies": "x"}}', "bad field value"),
        ('{"name": "log.flush", "dur_us": "slow"}', "bad field value"),
        ('{"name": 5}', "bad field value"),
    ])
    def test_trace_report_malformed_line(self, tmp_path, capsys,
                                         line, message):
        path = tmp_path / "events.jsonl"
        path.write_text('{"name": "op.issue", "args": {"kind": "write"}}\n'
                        + line + "\n")
        assert main(["trace", "report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert message.replace(":1:", ":2:") in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_trace_report_rejects_top_below_one(self, tmp_path, capsys, top):
        path = tmp_path / "events.jsonl"
        path.write_text('{"name": "gc.merge", "args": {"group": 1}}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "report", str(path), "--top", top])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument --top: must be >= 1, got {top}" in captured.err
        assert captured.out == ""

    def test_trace_report_top_one(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(
            f'{{"name": "gc.merge", "dur_us": {group}, '
            f'"args": {{"group": {group}, "copies": 1}}}}\n'
            for group in (1, 2, 3)
        ))
        assert main(["trace", "report", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        section = out.split("Top 1 GC-cost erase groups (of 3 merged)")[1]
        rows = section.strip().splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["3"]

    def test_untraced_replay_unchanged(self, capsys):
        # The observability flags default off; a plain replay must not
        # mention any trace outputs.
        assert main([
            "replay", "--workload", "homes", "--scale", "0.02",
            "--system", "ssc", "--mode", "wb",
        ]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace" not in out
        assert "events" not in out
