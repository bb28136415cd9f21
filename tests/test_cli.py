"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "opennf-repro" in out

    def test_demo_move_lossfree(self, capsys):
        code = main(["demo-move", "--flows", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss-free: yes" in out
        assert "move[loss-free]" in out

    def test_demo_move_op_with_extensions(self, capsys):
        code = main([
            "demo-move", "--guarantee", "op", "--flows", "30",
            "--compress", "--peer-to-peer",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "order-preserving: yes" in out

    def test_demo_move_ng_reports_violation(self, capsys):
        code = main(["demo-move", "--guarantee", "ng", "--flows", "30",
                     "--rate", "6000"])
        out = capsys.readouterr().out
        assert code == 0  # the demo ran; the guarantee simply isn't held
        assert "loss-free: NO" in out

    def test_demo_move_under_faults_reports_recovery(self, capsys):
        code = main(["demo-move", "--guarantee", "op", "--flows", "100",
                     "--faults", "seed=3,drop=0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert ("faults[seed=3]: 165 dropped, 0 duplicated, 0 delayed "
                "across 4 channels") in out
        assert "retries: 21   timeouts: 21" in out
        assert "processed exactly once, 0 duplicated, 0 missing" in out
        assert "loss-free: yes   order-preserving: yes" in out

    def test_demo_move_without_faults_prints_no_plan(self, capsys):
        assert main(["demo-move", "--flows", "20"]) == 0
        out = capsys.readouterr().out
        assert "faults[" not in out and "retries:" not in out

    def test_audit_baseline_refuses_abort_at(self, capsys):
        # Split/Merge does not act on an abort: the flag would be ignored.
        code = main(["audit", "--baseline", "splitmerge", "--abort-at", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--abort-at cannot be combined with --baseline" in captured.err
        assert captured.out == ""

    def test_validate_passes(self, capsys):
        code = main(["validate", "--seeds", "1", "--flows", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all guarantees hold" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestChainCommand:
    def test_chain_move_clean(self, capsys):
        code = main(["chain", "--guarantee", "lf", "--flows", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "chain[loss-free]" in out
        assert "chain loss-free: yes" in out
        assert "actives: ids=ids2" in out
        # Tail-to-head: the proxy hop's move is reported first.
        assert out.index("hop proxy1") < out.index("hop ids1")

    def test_chain_ng_hop_reports_violations(self, capsys):
        # The default 40-flow trace keeps packets in flight through the
        # NG hop's migration window (20 flows would slip through clean).
        code = main(["chain", "--guarantee", "lf",
                     "--hop-guarantee", "nat=ng"])
        out = capsys.readouterr().out
        assert code == 1
        assert "chain loss-free: NO" in out
        assert "never crossed hop 'nat'" in out

    def test_chain_abort_rolls_back(self, capsys):
        code = main(["chain", "--guarantee", "lf", "--flows", "20",
                     "--abort-at", "120"])
        out = capsys.readouterr().out
        assert code == 1
        assert "ABORTED" in out
        assert "rolled back hop" in out
        assert "actives: ids=ids1" in out

    def test_chain_rejects_unknown_hop_override(self, capsys):
        code = main(["chain", "--hop-guarantee", "firewall=ng"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown hop" in err


@pytest.mark.obs
class TestTraceCommand:
    def test_trace_renders_timeline(self, capsys):
        code = main(["trace", "--guarantee", "op", "--flows", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "move.state-transfer" in out
        assert "move.dst-release" in out
        assert "metrics:" in out
        assert "ms" in out

    def test_trace_json_dump(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        code = main(["trace", "--guarantee", "loss-free", "--flows", "20",
                     "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert any(
            entry["type"] == "span" and entry["name"] == "move"
            for entry in lines
        )
        assert any(entry["type"] == "record" for entry in lines)


@pytest.mark.obs
class TestMetricsCommand:
    def test_filter_takes_the_dotted_name(self, capsys):
        code = main(["metrics", "--flows", "20", "--filter", "ctrl.inbox"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# TYPE ctrl_inbox counter\n")
        assert 'ctrl_inbox{kind="event"}' in out
        assert "sb_rpcs" not in out


@pytest.mark.obs
class TestTopCommand:
    def test_top_streams_snapshots_and_exports(self, tmp_path, capsys):
        path = tmp_path / "frames.jsonl"
        code = main([
            "top", "--flows", "20", "--interval", "50",
            "--jsonl", str(path), "--prometheus",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Periodic frames plus the final one: events, shard inboxes,
        # per-NF rates, and the sampler's keep counters.
        assert out.count("ops-in-flight") >= 2
        assert "shard 0:" in out
        assert "nf inst1:" in out
        assert "pkt/s" in out
        assert "sampling:" in out
        assert "move[loss-free]" in out
        # Exports: one JSON line per reporter frame on disk, the
        # metrics registry's Prometheus text on stdout.
        import json

        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == out.count("ops-in-flight") - 1
        assert all(e["type"] == "frame" for e in lines)
        assert lines[0]["time_ms"] == 50.0
        assert "# TYPE op_latency_ms summary" in out
        assert "# TYPE ctrl_inbox counter" in out
        # Appends: a second run adds its frames after the first's.
        main(["top", "--flows", "20", "--interval", "50",
              "--jsonl", str(path)])
        capsys.readouterr()
        assert len(path.read_text().splitlines()) == 2 * len(lines)

    #: sha256 of ``repro top --flows 20 --interval 50`` stdout up to
    #: the ``move[`` summary (every frame), per mode cell. The frames
    #: are pure reads of the deployment, so these move only when the
    #: simulated clock or the frame layout does.
    FRAME_DIGESTS = {
        "plain": "0bfd2617185c7e978f07aeced3a7088e917730a6e127206d464cbe87d5908284",
        "shards2": "bab2b305d418964a6a3616ba7415bf28f03b2536c52948ceb2587022afb3151f",
        "offload": "ebea39f96126e28275d38a46b566143e49045368e5fc08af46a7a7677c661780",
    }

    @pytest.mark.parametrize("cell,extra", [
        ("plain", []),
        ("shards2", ["--shards", "2"]),
        ("offload", ["--offload"]),
    ])
    def test_top_frames_are_pinned(self, cell, extra, capsys):
        import hashlib

        code = main(["top", "--flows", "20", "--interval", "50"] + extra)
        out = capsys.readouterr().out
        assert code == 0
        frames = out[:out.index("\nmove[") + 1]
        digest = hashlib.sha256(frames.encode()).hexdigest()
        assert digest == self.FRAME_DIGESTS[cell], frames

    def test_top_sharded_offloaded(self, capsys):
        code = main(["top", "--flows", "20", "--shards", "2",
                     "--offload", "--interval", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 0:" in out and "shard 1:" in out
