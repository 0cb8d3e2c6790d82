"""The command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_run_command(capsys) -> None:
    assert main(["run", "--protocol", "sies", "--sources", "16", "--epochs", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch 1: exact result" in out and "(verified)" in out
    assert "bytes per S-A msg" in out


def test_run_cmt_is_unverified(capsys) -> None:
    assert main(["run", "--protocol", "cmt", "--sources", "16", "--epochs", "1"]) == 0
    assert "UNVERIFIED" in capsys.readouterr().out


def test_runtime_command_lossy(capsys) -> None:
    assert main(["runtime", "--sources", "16", "--epochs", "3",
                 "--loss", "0.3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "delivery rate" in out
    assert "retransmissions" in out
    assert "(verified" in out


def test_runtime_command_json_ledger(capsys) -> None:
    import json

    assert main(["runtime", "--sources", "8", "--epochs", "2", "--loss", "0"]) == 0
    capsys.readouterr()
    assert main(["runtime", "--sources", "8", "--epochs", "2",
                 "--loss", "0", "--json"]) == 0
    ledger = json.loads(capsys.readouterr().out)
    assert ledger["num_epochs"] == 2
    assert ledger["delivery_rate"] == 1.0
    assert all(e["converged"] for e in ledger["epochs"])


def test_query_command_with_predicate(capsys) -> None:
    code = main([
        "query", "--aggregate", "AVG", "--where", "temperature>=20",
        "--sources", "16", "--epochs", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "SELECT AVG(temperature)" in out
    assert "[verified]" in out


def test_attack_tamper_on_sies_detected(capsys) -> None:
    assert main(["attack", "--attack", "tamper", "--protocol", "sies",
                 "--sources", "16", "--epochs", "3"]) == 0
    assert "detected" in capsys.readouterr().out


def test_attack_tamper_on_cmt_reports_silent_corruption(capsys) -> None:
    assert main(["attack", "--attack", "tamper", "--protocol", "cmt",
                 "--sources", "16", "--epochs", "3"]) == 0
    assert "WRONG, accepted" in capsys.readouterr().out


def test_attack_drop_and_replay(capsys) -> None:
    assert main(["attack", "--attack", "drop", "--protocol", "sies",
                 "--sources", "16", "--epochs", "2"]) == 0
    assert main(["attack", "--attack", "replay", "--protocol", "sies",
                 "--sources", "16", "--epochs", "3"]) == 0


def test_bounds_command(capsys) -> None:
    assert main(["bounds", "--sources", "1024"]) == 0
    out = capsys.readouterr().out
    assert "2^-224" in out
    assert "meets paper margins: True" in out


def test_bounds_short_shares(capsys) -> None:
    assert main(["bounds", "--sources", "256", "--share-bytes", "4"]) == 0
    assert "meets paper margins: False" in capsys.readouterr().out


def test_experiment_table3(capsys) -> None:
    assert main(["experiment", "table3"]) == 0
    assert "Table III" in capsys.readouterr().out


def test_info_command_text(capsys) -> None:
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "wire format      : version 1, 16-byte header" in out
    assert "sies" in out and "cluster/data" in out and "codec only" in out


def test_info_command_json_snapshot(capsys) -> None:
    import json

    assert main(["info", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    # The full registry surface, pinned: a new protocol or id is a
    # deliberate snapshot update, never an accident.
    assert info == {
        "wire_version": 1,
        "header_len": 16,
        "protocols": ["cmt", "secoa_m", "secoa_s", "sies"],
        "wire_ids": {
            "sies": 1,
            "cmt": 2,
            "secoa_s": 3,
            "secoa_m": 4,
            "commit_attest": 5,
            "cluster/data": 240,
            "cluster/ack": 241,
        },
    }


def test_cluster_command_text(capsys) -> None:
    assert main(["cluster", "--protocol", "sies", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--loss", "0", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert "epoch 1: result" in out and "(verified, all sources" in out
    assert "delivery rate" in out and "frames per second" in out
    assert "S-A:" in out and "A-Q:" in out


def test_cluster_command_json_ledger(capsys) -> None:
    import json

    assert main(["cluster", "--protocol", "sies", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--loss", "0", "--window", "2", "--json"]) == 0
    ledger = json.loads(capsys.readouterr().out)
    assert ledger["num_epochs"] == 2
    assert ledger["delivery_rate"] == 1.0
    assert all(e["converged"] for e in ledger["epochs"])
    assert ledger["traffic"]["S-A"]["frames_sent"] == 16  # 8 sources x 2 epochs


def test_parser_rejects_unknown(capsys) -> None:
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig99"])
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


#: Every time flag: (command, flag, whether 0 is a valid value).
TIME_FLAGS = [
    ("runtime", "--latency", True),
    ("runtime", "--ack-timeout", False),
    ("cluster", "--hold-time", False),
    ("cluster", "--querier-slack", True),
    ("cluster", "--ack-timeout", False),
]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(("command", "flag", "zero_ok"), TIME_FLAGS)
def test_bad_time_flags_are_usage_errors(
    capsys, command: str, flag: str, zero_ok: bool, value: str
) -> None:
    """A bad time value is an argparse usage error (exit 2) naming the flag,
    raised before anything runs, never a traceback."""
    if value == "0" and zero_ok:
        args = build_parser().parse_args([command, flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == 0.0
        return
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a finite number" in err
    assert "Traceback" not in err


def test_trace_command_records_and_writes_jsonl(tmp_path, capsys) -> None:
    out_path = tmp_path / "runtime.jsonl"
    assert main(["trace", "--substrate", "runtime", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--loss", "0.2", "--seed", "7",
                 "--output", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    assert lines and all('"sub":"runtime"' in line for line in lines)


def test_trace_command_prints_events_and_filters(capsys) -> None:
    import json

    assert main(["trace", "--substrate", "network", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--seed", "7", "--epoch", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert events and all(e["epoch"] == 2 for e in events)
    assert {e["kind"] for e in events} <= {"attempt", "deliver"}


def test_trace_command_dispositions(capsys) -> None:
    import json

    assert main(["trace", "--substrate", "runtime", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--loss", "0.2", "--seed", "7",
                 "--dispositions"]) == 0
    slices = json.loads(capsys.readouterr().out)
    assert set(slices) == {"1", "2"}
    assert set(slices["1"]) == {"delivered", "dropped", "late", "decode_failures"}


def test_trace_command_has_no_sequential_fault_mode(capsys) -> None:
    # One keyed fault oracle serves every substrate; the old sequential
    # per-edge streams (and their CLI switch) are gone.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--sequential"])
    capsys.readouterr()


def test_trace_command_diff_agreement_and_divergence(tmp_path, capsys) -> None:
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    # 55% loss: some hops lose all five ARQ attempts, so different seeds
    # produce genuinely different determined slices.
    common = ["--sources", "8", "--fanout", "2", "--epochs", "3", "--loss", "0.55"]
    assert main(["trace", "--substrate", "runtime", *common, "--seed", "7",
                 "--output", str(a)]) == 0
    assert main(["trace", "--substrate", "runtime", *common, "--seed", "8",
                 "--output", str(b)]) == 0
    capsys.readouterr()
    assert main(["trace", "--input", str(a), "--diff", str(a)]) == 0
    assert "agree" in capsys.readouterr().out
    assert main(["trace", "--input", str(a), "--diff", str(b)]) == 1
    assert "difference" in capsys.readouterr().out


def test_metrics_command_prometheus(capsys) -> None:
    assert main(["metrics", "--substrate", "runtime", "--sources", "8", "--fanout", "2",
                 "--epochs", "2", "--loss", "0.2", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE sies_epochs_total counter" in out
    assert 'sies_epochs_total{substrate="runtime"} 2' in out
    assert "# TYPE sies_completion_latency histogram" in out
    assert 'le="+Inf"' in out


def test_metrics_traffic_series_match_across_substrates(capsys) -> None:
    """Both ARQ substrates count one message and its bytes per attempt."""

    def traffic_lines(substrate: str) -> list[str]:
        assert main(["metrics", "--substrate", substrate, "--seed", "2011"]) == 0
        out = capsys.readouterr().out
        return [
            line.replace(f'substrate="{substrate}",', "")
            for line in out.splitlines()
            if line.startswith("sies_traffic_")
        ]

    runtime = traffic_lines("runtime")
    assert len(runtime) == 6  # messages and bytes on S-A, A-A and A-Q
    assert traffic_lines("cluster") == runtime


def test_metrics_command_json_all_substrates_share_names(capsys) -> None:
    import json

    assert main(["metrics", "--substrate", "network", "--sources", "8", "--fanout", "2",
                 "--epochs", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sies_epochs_total"]["series"] == [{"labels": ["network"], "value": 1}]
    assert "sies_traffic_bytes_total" in doc and "sies_acceptance_rate" in doc
