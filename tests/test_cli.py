"""Tests for the osnt-gen / osnt-mon / oflops-turbo command-line tools."""

import re

import pytest

from repro.net import PcapRecord, build_udp, read_pcap, write_pcap
from repro.oflops.cli import main as oflops_main
from repro.osnt.cli import gen_main, mon_main
from repro.units import us


class TestOsntGen:
    def test_synthetic_run_summary(self, capsys):
        assert gen_main(["--frame-size", "128", "--rate", "1Gbps", "--count", "50"]) == 0
        out = capsys.readouterr().out
        assert "packets sent" in out
        assert "50" in out

    def test_capture_file_written(self, tmp_path, capsys):
        path = tmp_path / "cap.pcap"
        gen_main(
            ["--frame-size", "256", "--count", "20", "--timestamp", "--capture", str(path)]
        )
        records = read_pcap(path)
        assert len(records) == 20
        assert all(len(r.data) == 252 for r in records)  # 256 - FCS
        timestamps = [r.timestamp_ps for r in records]
        assert timestamps == sorted(timestamps)

    def test_replay_mode(self, tmp_path, capsys):
        source = tmp_path / "in.pcap"
        write_pcap(
            source,
            [
                PcapRecord(timestamp_ps=i * us(10), data=build_udp(frame_size=100).data)
                for i in range(5)
            ],
        )
        assert gen_main(["--replay", str(source), "--loop", "2"]) == 0
        out = capsys.readouterr().out
        assert "10" in out  # 5 frames x 2 loops

    def test_duration_mode(self, capsys):
        assert gen_main(["--rate", "2Gbps", "--duration-ms", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "achieved rate" in out


class TestOsntMon:
    def make_input(self, tmp_path):
        path = tmp_path / "in.pcap"
        records = []
        for index in range(40):
            frame = build_udp(
                frame_size=512,
                dst_port=53 if index % 4 == 0 else 9999,
                dst_ip="10.0.0.2" if index % 2 == 0 else "10.9.9.9",
            )
            records.append(PcapRecord(timestamp_ps=index * us(1), data=frame.data))
        write_pcap(path, records)
        return path

    def test_passthrough_stats(self, tmp_path, capsys):
        path = self.make_input(tmp_path)
        assert mon_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "packets in" in out
        assert "packets out             40" in out

    def test_filter_by_port(self, tmp_path, capsys):
        path = self.make_input(tmp_path)
        out_path = tmp_path / "out.pcap"
        mon_main([str(path), "--dst-port", "53", "--output", str(out_path)])
        records = read_pcap(out_path)
        assert len(records) == 10
        from repro.net import decode

        assert all(decode(r.data).udp.dst_port == 53 for r in records)

    def test_prefix_filter(self, tmp_path, capsys):
        path = self.make_input(tmp_path)
        out_path = tmp_path / "out.pcap"
        mon_main([str(path), "--dst-ip", "10.0.0.0/24", "--output", str(out_path)])
        assert len(read_pcap(out_path)) == 20

    def test_cut_and_thin(self, tmp_path, capsys):
        path = self.make_input(tmp_path)
        out_path = tmp_path / "out.pcap"
        mon_main([str(path), "--snaplen", "64", "--thin", "4", "--output", str(out_path)])
        records = read_pcap(out_path)
        assert len(records) == 10
        assert all(len(r.data) == 64 for r in records)
        assert all(r.original_length == 508 for r in records)

    def test_reduction_summary(self, tmp_path, capsys):
        path = self.make_input(tmp_path)
        mon_main([str(path), "--snaplen", "64"])
        out = capsys.readouterr().out
        assert "host-load reduction" in out

    @pytest.mark.parametrize(
        "flags, passed", [([], 2), (["--proto", "17"], 1)], ids=["no-rule", "proto"]
    )
    def test_runt_record_is_non_ip(self, tmp_path, capsys, flags, passed):
        path = tmp_path / "runt.pcap"
        frames = [build_udp(frame_size=64).data, bytes(range(10))]
        write_pcap(path, [PcapRecord(timestamp_ps=i, data=f) for i, f in enumerate(frames)])
        assert mon_main([str(path), *flags]) == 0
        out = capsys.readouterr().out
        assert re.search(rf"passed filter\s+{passed}\n", out)
        assert re.search(rf"dropped by filter\s+{2 - passed}\n", out)


class TestOflopsCli:
    def test_single_module(self, capsys):
        assert oflops_main(["echo_latency"]) == 0
        out = capsys.readouterr().out
        assert "== echo_latency ==" in out
        assert "rtt_mean_us" in out

    def test_barrier_mode_flag(self, capsys):
        assert (
            oflops_main(
                ["flow_mod_latency", "--barrier-mode", "eager", "--rules", "4"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "eager" in out

    def test_unknown_module_rejected(self, capsys):
        with pytest.raises(SystemExit):
            oflops_main(["not_a_module"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "-1"],
            ["--firmware-delay-us", "nan"],
            ["--control-latency-us", "inf"],
        ],
    )
    def test_malformed_option_exits_2(self, capsys, flags):
        assert oflops_main(["echo_latency", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("oflops-turbo: ")
        assert "Traceback" not in err


class TestOsntMonFlows:
    def test_top_flows_table(self, tmp_path, capsys):
        path = tmp_path / "in.pcap"
        records = []
        for index in range(30):
            frame = build_udp(frame_size=200, dst_port=7000 + index % 3)
            records.append(PcapRecord(timestamp_ps=index * us(5), data=frame.data))
        write_pcap(path, records)
        assert mon_main([str(path), "--flows", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 flows (3 total)" in out
        assert "proto=17" in out


class TestPcapngInterop:
    def test_mon_reads_pcapng(self, tmp_path, capsys):
        from repro.net import write_pcapng

        path = tmp_path / "in.pcapng"
        records = [
            PcapRecord(timestamp_ps=i * us(5), data=build_udp(frame_size=120).data)
            for i in range(8)
        ]
        write_pcapng(path, records)
        assert mon_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"packets out\s+8", out)

    def test_gen_replays_pcapng(self, tmp_path, capsys):
        from repro.net import write_pcapng

        path = tmp_path / "in.pcapng"
        write_pcapng(
            path,
            [
                PcapRecord(timestamp_ps=i * us(20), data=build_udp(frame_size=100).data)
                for i in range(6)
            ],
        )
        assert gen_main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "6" in out


class TestDutPresets:
    def test_named_profile(self, capsys):
        assert oflops_main(["echo_latency", "--dut", "soft-switch"]) == 0
        out = capsys.readouterr().out
        assert "rtt_mean_us" in out

    def test_profiles_registry(self):
        from repro.devices import PROFILES

        assert set(PROFILES) == {"soft-switch", "hw-fast-cpu", "hw-slow-cpu", "hw-eager"}
        assert PROFILES["hw-eager"].barrier_mode == "eager"
        assert PROFILES["soft-switch"].table_write_ps < PROFILES["hw-fast-cpu"].table_write_ps


class TestOsntSweepCli:
    def _write_spec(self, tmp_path, **overrides):
        import json

        spec = {
            "name": "cli-sweep",
            "scenario": "echo",
            "axes": {"x": [1, 2, 3]},
            "retries": 0,
            "timeout_s": 30.0,
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_run_inline(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        assert sweep_main(["run", str(path), "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out and "3 ok" in out

    def test_run_with_workers_and_report_file(self, tmp_path, capsys):
        import json

        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        report_path = tmp_path / "report.json"
        assert (
            sweep_main(
                ["run", str(path), "--workers", "2", "--json", str(report_path)]
            )
            == 0
        )
        document = json.loads(report_path.read_text())
        assert len(document["merged"]["shards"]) == 3

    def test_run_resumes_from_checkpoints(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        store = tmp_path / "store"
        args = ["run", str(path), "--workers", "0", "--cache", str(store)]
        assert sweep_main(args + ["--max-shards", "1"]) == 0
        assert sweep_main(args) == 0
        captured = capsys.readouterr()
        assert "3 ok, 0 failed, 0 pending (1 from cache)" in captured.out
        assert "from cache" in captured.out
        assert f"1 shard(s) served from cache {store}" in captured.err

    def test_misspelled_param_fails_the_shard(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(
            tmp_path,
            scenario="line_rate",
            params={"durations": "20us"},
            axes={"frame_size": [64]},
            retries=1,
        )
        assert sweep_main(["run", str(path), "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert "SweepError: scenario 'line_rate': unknown key 'durations'" in captured.out
        # Rejected params fail the same way on every attempt: not retried.
        assert captured.err.splitlines()[-1] == "1 shard(s) failed"

    def test_retried_failure_says_after_retries(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        # The marker's directory does not exist, so every attempt fails.
        path = self._write_spec(
            tmp_path,
            scenario="flaky_marker",
            params={"marker": str(tmp_path / "missing" / "m")},
            axes={},
            retries=1,
        )
        assert sweep_main(["run", str(path), "--workers", "0"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "1 shard(s) failed after retries"
        )

    def test_cache_path_that_is_a_file_exits_two(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        not_a_dir = tmp_path / "store-file"
        not_a_dir.write_text("")
        args = ["run", str(path), "--workers", "0", "--cache", str(not_a_dir)]
        assert sweep_main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("osnt-sweep: ") and str(not_a_dir) in err
        assert "Traceback" not in err

    def test_cache_commands_never_create_a_store(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        typo = tmp_path / "typo"
        for argv in (
            ["cache", "stats", str(typo)],
            ["cache", "gc", str(typo), "--older-than", "1d"],
            ["cache", "stats", str(tmp_path)],
            ["cache", "gc", str(tmp_path), "--older-than", "1d", "--dry-run"],
        ):
            assert sweep_main(argv) == 2
            assert "is not a result store" in capsys.readouterr().err
        assert not typo.exists()
        assert not (tmp_path / "objects").exists()
        # ``run --cache`` creates the store on first use.
        path = self._write_spec(tmp_path)
        run = ["run", str(path), "--workers", "0", "--cache", str(typo)]
        assert sweep_main(run) == 0
        assert sweep_main(["cache", "stats", str(typo)]) == 0
        assert "entries:     3" in capsys.readouterr().out
        assert sweep_main(["cache", "gc", str(typo), "--older-than", "1d"]) == 0
        assert "removed 0 entries" in capsys.readouterr().out

    def test_merged_flag_prints_the_canonical_document(self, tmp_path, capsys):
        from repro.runner import ExperimentSpec, run_spec
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        assert sweep_main(["run", str(path), "--workers", "2", "--merged"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        spec = ExperimentSpec.from_json(path.read_text())
        assert printed == run_spec(spec).merged_json()

    def test_failed_shards_exit_nonzero(self, tmp_path, capsys):
        import json

        from repro.runner.cli import main as sweep_main

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-flaky",
                    "scenario": "flaky_marker",
                    "params": {"marker": str(tmp_path / "missing" / "dir" / "m")},
                    "retries": 0,
                    "timeout_s": 30.0,
                }
            )
        )
        assert sweep_main(["run", str(path), "--workers", "1"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        assert sweep_main(["run", str(path)]) == 2
        assert "osnt-sweep:" in capsys.readouterr().err
        assert sweep_main(["run", str(tmp_path / "absent.json")]) == 2

    def test_expand_lists_shards(self, tmp_path, capsys):
        from repro.runner.cli import main as sweep_main

        path = self._write_spec(tmp_path)
        assert sweep_main(["expand", str(path)]) == 0
        out = capsys.readouterr().out
        assert "3 shard(s)" in out

    def test_scenarios_listing(self, capsys):
        from repro.runner.cli import main as sweep_main

        assert sweep_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "line_rate" in out and "rfc2544" in out

    def test_example_round_trips(self, capsys):
        from repro.runner import ExperimentSpec
        from repro.runner.cli import main as sweep_main

        assert sweep_main(["example"]) == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.scenario == "legacy_latency"

    def test_oflops_spec_flag_round_trips(self, capsys):
        from repro.oflops.cli import main as oflops_main
        from repro.runner import ExperimentSpec

        assert oflops_main(["echo_latency", "--spec"]) == 0
        spec = ExperimentSpec.from_json(capsys.readouterr().out)
        assert spec.scenario == "oflops"
        assert spec.axes == {"module": ["echo_latency"]}
