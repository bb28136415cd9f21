"""Tests for the command-line interface.

``repro run`` prints one move through the views ``--show`` names; the
classes below cover its ``report`` view (the default), ``timeline``,
``metrics`` and ``top``, then every mode flag under every view.
"""

import pytest

from repro.cli import _build_parser, main


#: A flag value or combination the run cannot use -> argparse's error.
BAD_FLAGS = {
    "run --no-parallel --early-release":
        "early release requires the parallelizing optimization",
    "run --no-parallel --peer-to-peer":
        "peer-to-peer transfer implies chunk streaming",
    "run --rate 0": "argument --rate: must be > 0, not 0",
    "run --rate -5": "argument --rate: must be > 0, not -5",
    "run --interval 0": "argument --interval: must be > 0",
    "run --flows -3": "argument --flows: must be >= 1, not -3",
    "run --abort-at -1": "argument --abort-at: must be >= 0",
    "chain --flows 0": "argument --flows: must be >= 1, not 0",
    "validate --seeds 0": "argument --seeds: must be >= 1",
}

#: A mode flag value no deployment can take -> argparse's error, in every
#: subcommand that has the flag (each used to end in a traceback, exit 1).
BAD_MODE_FLAGS = {
    "--shards 0": "argument --shards: must be >= 1, not 0",
    "--shards -1": "argument --shards: must be >= 1, not -1",
    "--faults drop=2": "argument --faults: drop_p=2.0 outside [0, 1]",
    "--faults seed=x": "argument --faults: invalid literal for int()",
    "--faults delay=0.5,delay_ms=nan":
        "argument --faults: delay_ms=nan is not a finite ms >= 0",
}


def _subcommands_with(flag):
    subparsers = next(action for action in _build_parser()._actions
                      if action.dest == "command")
    return sorted(name for name, sub in subparsers.choices.items()
                  if flag in sub._option_string_actions)


BAD_FLAGS.update(
    ("%s %s" % (sub, bad), error) for bad, error in BAD_MODE_FLAGS.items()
    for sub in _subcommands_with(bad.split()[0])
)


class TestCli:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out
        assert "opennf-repro" in out

    def test_demo_move_lossfree(self, capsys):
        code = main(["run", "--flows", "30", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "loss-free: yes" in out
        assert "move[loss-free]" in out

    def test_demo_move_op_with_extensions(self, capsys):
        code = main([
            "run", "--guarantee", "op", "--flows", "30",
            "--compress", "--peer-to-peer",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "order-preserving: yes" in out

    def test_demo_move_ng_reports_violation(self, capsys):
        code = main(["run", "--guarantee", "ng", "--flows", "30",
                     "--rate", "6000"])
        out = capsys.readouterr().out
        assert code == 0  # the demo ran; the guarantee simply isn't held
        assert "loss-free: NO" in out

    def test_an_abort_after_the_last_checkpoint_fails_the_run(self, capsys):
        # 30 ms into a 44.7 ms move: past its last checkpoint.
        code = main(["run", "--flows", "60", "--abort-at", "30"])
        out = capsys.readouterr().out
        assert code == 1
        assert ("note: abort requested at +30.0 ms (aborted via CLI) came "
                "after the move's last checkpoint" in out)
        assert "ABORTED" not in out

    def test_demo_move_under_faults_reports_recovery(self, capsys):
        code = main(["run", "--guarantee", "op", "--flows", "100",
                     "--faults", "seed=3,drop=0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert ("faults[seed=3]: 165 dropped, 0 duplicated, 0 delayed "
                "across 4 channels") in out
        assert "retries: 21   timeouts: 21" in out
        assert "processed exactly once, 0 duplicated, 0 missing" in out
        assert "loss-free: yes   order-preserving: yes" in out

    def test_demo_move_without_faults_prints_no_plan(self, capsys):
        assert main(["run", "--flows", "20"]) == 0
        out = capsys.readouterr().out
        assert "faults[" not in out and "retries:" not in out

    def test_audit_baseline_refuses_abort_at(self, capsys):
        # Split/Merge does not act on an abort: the flag would be ignored.
        code = main(["run", "--show", "audit", "--baseline", "splitmerge",
                     "--abort-at", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--abort-at cannot be combined with --baseline" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", list(BAD_FLAGS))
    def test_bad_flags_are_usage_errors(self, command, capsys):
        # Exit 2 with argparse's one-line error: no traceback, and no
        # run that passes because it judged nothing.
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith("repro %s: error: %s"
                               % (command.split()[0], BAD_FLAGS[command]))

    def test_validate_passes(self, capsys):
        code = main(["validate", "--seeds", "1", "--flows", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all guarantees hold" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_view_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--show", "report,bogus"])
        assert exc.value.code == 2
        assert "unknown view(s) ['bogus']" in capsys.readouterr().err

    def test_removed_subcommands_are_gone(self):
        subparsers = next(
            action for action in _build_parser()._actions
            if action.dest == "command"
        )
        assert sorted(subparsers.choices) == [
            "audit", "chain", "conform", "run", "validate", "version",
        ]


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

    def test_chain_rejects_unknown_hop_guarantee(self, capsys):
        code = main(["chain", "--hop-guarantee", "nat=bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "repro chain: error: unknown guarantee 'bogus'\n"
        assert captured.out == ""


@pytest.mark.obs
class TestTraceCommand:
    def test_trace_renders_timeline(self, capsys):
        code = main(["run", "--show", "timeline", "--guarantee", "op",
                     "--flows", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "move.state-transfer" in out
        assert "move.dst-release" in out
        assert "ms" in out
        # The summary line closes the run, after every view.
        assert out.splitlines()[-1].startswith("move[")

    def test_trace_json_dump(self, tmp_path, capsys):
        path = tmp_path / "spans.jsonl"
        code = main(["run", "--show", "timeline", "--guarantee", "loss-free",
                     "--flows", "20", "--json", str(path)])
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
        code = main(["run", "--show", "metrics", "--guarantee", "op",
                     "--flows", "20", "--filter", "ctrl.inbox"])
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
            "run", "--show", "top,metrics", "--flows", "20",
            "--interval", "50", "--jsonl", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Periodic frames plus the final one: events, shard inboxes and
        # per-NF rates.
        assert out.count("ops-in-flight") >= 2
        assert "shard 0:" in out
        assert "nf inst1:" in out
        assert "pkt/s" in out
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
        main(["run", "--show", "top", "--flows", "20", "--interval", "50",
              "--jsonl", str(path)])
        capsys.readouterr()
        assert len(path.read_text().splitlines()) == 2 * len(lines)

    #: sha256 of ``repro run --show top --flows 20 --interval 50``
    #: stdout up to the ``move[`` summary (every frame), per mode cell.
    #: The frames are pure reads of the deployment, so these move only
    #: when the simulated clock or the frame layout does.
    FRAME_DIGESTS = {
        "plain": "f22355df0227c10c964cc17b05c458d1ee35c32d77d1f2bfe545fa50587d8403",
        "shards2": "10e6534bf573042c456eb8b3dbf39ecf350bfb1f5c970ff54154f35d84abdbd8",
        "offload": "e59686b2501001c6d2c6c65135417bcb66f1600efe532b787a0ebe1d16f19013",
    }

    @pytest.mark.parametrize("cell,extra", [
        ("plain", []),
        ("shards2", ["--shards", "2"]),
        ("offload", ["--offload"]),
    ])
    def test_top_frames_are_pinned(self, cell, extra, capsys):
        import hashlib

        code = main(["run", "--show", "top", "--flows", "20",
                     "--interval", "50"] + extra)
        out = capsys.readouterr().out
        assert code == 0
        frames = out[:out.index("\nmove[") + 1]
        digest = hashlib.sha256(frames.encode()).hexdigest()
        assert digest == self.FRAME_DIGESTS[cell], frames

    def test_top_sharded_offloaded(self, capsys):
        code = main(["run", "--show", "top", "--flows", "20", "--shards", "2",
                     "--offload", "--interval", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard 0:" in out and "shard 1:" in out


class TestRunModes:
    """Every mode flag works under every view: one run per mode shows
    all five views and each prints its marker."""

    MARKERS = ("loss-free:", "move.state-transfer", "# TYPE",
               "ops-in-flight", "violations:")

    @pytest.mark.parametrize("mode", [
        [],
        ["--shards", "2"],
        ["--faults", "seed=3,drop=0.05"],
        ["--batching"],
        ["--offload"],
    ], ids=["none", "shards2", "faults", "batching", "offload"])
    def test_every_view_under_every_mode(self, mode, capsys):
        code = main(["run", "--flows", "20",
                     "--show", "report,timeline,metrics,top,audit"] + mode)
        out = capsys.readouterr().out
        assert code == 0, out
        missing = [marker for marker in self.MARKERS if marker not in out]
        assert not missing, out
