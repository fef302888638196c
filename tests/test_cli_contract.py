"""The CLI's shared plumbing: the ``--json`` contract and shared flags."""

from __future__ import annotations

import functools
import glob
import json
from pathlib import Path

import pytest

import repro.cli as cli
from repro.cli import main

BASELINE = str(
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "baselines" / "gpu-fast-n8k.json"
)
SMALL = (
    "--n", "400", "--d", "8", "--clusters", "3",
    "--k", "3", "--l", "3", "--a", "20", "--b", "4",
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A monitor directory and a postmortem bundle to read back."""
    root = tmp_path_factory.mktemp("cli-contract")
    spool, mon, pm = (str(root / name) for name in ("spool", "mon", "pm"))
    assert main([
        "loadgen", "--requests", "4", "--workers", "1", "--n", "300",
        "--d", "6", "--clusters", "3", "--monitor-dir", mon,
    ]) == 0
    assert main([
        "submit", spool, *SMALL, "--id", "job-x", "--backend", "fleet-gpu-fast",
    ]) == 0
    assert main([
        "serve", spool, "--once", "--devices", "2",
        "--fault", "device-down@dev1", "--no-degrade", "--max-reshards", "0",
        "--record-dir", pm,
    ]) == 0
    return {"mon": mon, "pm": pm}


def _one_quick_workload(monkeypatch):
    import repro.bench.baseline as baseline

    monkeypatch.setattr(baseline, "run_quick_tier", functools.partial(
        baseline.run_quick_tier,
        tier=baseline.QUICK_TIER[1:2], seeds=baseline.QUICK_SEEDS[:1],
    ))


def _small_fleet_bench(monkeypatch):
    import repro.fleet.bench as fleet_bench

    monkeypatch.setattr(fleet_bench, "run_fleet_bench", functools.partial(
        fleet_bench.run_fleet_bench, n=600, d=8, k=3, l=2,
    ))


def _one_experiment(monkeypatch):
    import repro.bench.runner as runner
    from repro.cli import EXPERIMENTS

    monkeypatch.setattr(
        runner, "ALL_EXPERIMENTS", {"sec54": EXPERIMENTS["sec54"]}
    )


#: Every JSON-emitting subcommand at the smallest input it allows.
JSON_COMMANDS = {
    "bench-all": (("bench", "all"), _one_experiment),
    "bench-quick": (("bench", "quick"), _one_quick_workload),
    "bench-fleet": (("bench", "fleet", "--devices", "1", "2"),
                    _small_fleet_bench),
    "bench-experiment": (("bench", "sec54"), None),
    "fleet": (("fleet", *SMALL, "--check"), None),
    "regress": (("regress",), _one_quick_workload),
    "monitor": (("monitor", "{mon}", "--once"), None),
    "explain": (("explain", *SMALL), None),
    "explain-diff": (("explain", "--diff", BASELINE, BASELINE), None),
    "profile": (("profile", *SMALL), None),
    "sanitize": (("sanitize", "--kernel", "compute_l"), None),
    "chaos": (("chaos", *SMALL, "--backends", "gpu-fast",
               "--fault", "transient#2"), None),
    "chaos-fleet": (("chaos", "--fleet", "--devices", "1", *SMALL,
                     "--backends", "fleet-gpu-fast"), None),
    "loadgen": (("loadgen", "--requests", "4", "--workers", "1",
                 "--n", "300", "--d", "6", "--clusters", "3"), None),
    "postmortem": (("postmortem", "{pm}"), None),
}


class TestJsonContract:
    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_stdout_document_and_file(self, name, artifacts, capsys,
                                      tmp_path, monkeypatch):
        argv, patch = JSON_COMMANDS[name]
        argv = [arg.format(**artifacts) for arg in argv]
        if patch is not None:
            patch(monkeypatch)
        monkeypatch.chdir(tmp_path)

        code = main([*argv, "--json", "-"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # exactly one document
        assert isinstance(payload, dict) and payload
        assert captured.err  # the human-readable text moved here

        path = tmp_path / "out" / "report.json"
        assert main([*argv, "--json", str(path)]) == code
        assert str(path) in capsys.readouterr().out
        assert json.loads(path.read_text()).keys() == payload.keys()
        assert not (tmp_path / "-").exists()


class TestDevicesFlag:
    @pytest.mark.parametrize("argv", [
        ("chaos", "--fleet", "--devices", "0"),
        ("fleet", "--devices", "0"),
        ("explain", "--devices", "0"),
        ("serve", "spool", "--devices", "-1"),
        ("bench", "fleet", "--devices", "2", "0"),
    ])
    def test_non_positive_devices_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert "argument --devices: must be an integer >= 1" in (
            capsys.readouterr().err
        )


class TestFleetCheck:
    def test_medoid_mismatch_fails_the_check(self, capsys, monkeypatch):
        solo = cli.proclus

        def shifted_medoids(*args, **kwargs):
            result = solo(*args, **kwargs)
            result.medoids = result.medoids + 1
            return result

        monkeypatch.setattr(cli, "proclus", shifted_medoids)
        code = main(["fleet", *SMALL, "--check"])
        assert code == 1
        assert "bit-identical to solo gpu-fast: NO" in capsys.readouterr().err

    def test_identical_run_passes(self, capsys):
        assert main(["fleet", *SMALL, "--check"]) == 0
        assert "bit-identical to solo gpu-fast: yes" in capsys.readouterr().out


class TestFleetChaosRecorder:
    def test_record_dir_arms_the_recorder(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.obs import validate_postmortem

        monkeypatch.setattr(cli, "_results_identical", lambda a, b: False)
        record = str(tmp_path / "pm")
        code = main([
            "chaos", "--fleet", "--devices", "1", *SMALL,
            "--backends", "fleet-gpu-fast", "--max-retries", "0",
            "--record-dir", record,
        ])
        assert code == 1
        assert "2/2 device-loss runs violated" in capsys.readouterr().out
        bundles = sorted(glob.glob(record + "/postmortem-*.json"))
        assert bundles
        bundle = json.loads(open(bundles[-1]).read())
        assert validate_postmortem(bundle) == []
        assert bundle["failure"]["reason"] == "chaos-contract"
        assert "fleet-gpu-fast x down-dev0@" in bundle["failure"]["detail"]

    def test_clean_sweep_dumps_nothing(self, capsys, tmp_path):
        record = tmp_path / "pm"
        code = main([
            "chaos", "--fleet", "--devices", "1", *SMALL,
            "--backends", "fleet-gpu-fast", "--record-dir", str(record),
        ])
        assert code == 0
        assert "all 2 device-loss runs recovered" in capsys.readouterr().out
        assert not list(record.glob("postmortem-*.json"))


class TestBenchAllJson:
    def test_payload_holds_every_report(self, capsys, monkeypatch):
        from repro.cli import EXPERIMENTS

        _one_experiment(monkeypatch)
        assert main(["bench", "all", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = EXPERIMENTS["sec54"]().to_dict()
        assert payload == json.loads(json.dumps(
            {"experiments": [expected]}, default=str
        ))


class TestFleetChaosCustomFault:
    @pytest.mark.parametrize("spec", ["device-down@dev1#4", "transient@*#2"])
    def test_the_given_schedule_fires(self, spec, capsys):
        code = main([
            "chaos", "--fleet", "--devices", "2", *SMALL,
            "--backends", "fleet-gpu-fast", "--fault", spec, "--json", "-",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        [row] = payload["rows"]
        assert row["scenario"] == "custom"
        assert row["schedule"] == [spec]
        assert row["fired"] >= 1
        assert [record["spec"] for record in row["injected"]] == [spec]
        assert row["identical"] and row["ok"]

    def test_a_schedule_that_never_fires_fails(self, capsys):
        code = main([
            "chaos", "--fleet", "--devices", "2", *SMALL,
            "--backends", "fleet-gpu-fast", "--fault", "oom@nowhere",
        ])
        assert code == 1
        assert "1/1 injected runs violated" in capsys.readouterr().out
