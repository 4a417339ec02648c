import json
import os
import subprocess
import sys

import pytest

from exactsamp.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_sample_roundtrip(tmp_path, capsys):
    stream = str(tmp_path / "u.jsonl")
    code, out, _ = run(capsys, ["generate", "--kind", "uniform", "--n", "5",
                                "--m", "40", "--out", stream])
    assert code == 0 and "40 updates" in out
    code, out, _ = run(capsys, ["sample", "--stream", stream,
                                "--sampler", "lp", "--p", "1",
                                "--trials", "5", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert sum(report["outcome_counts"].values()) == 5
    assert set(report["outcome_counts"]) == {"index", "bottom", "fail"}
    assert report["fail_rate"] <= 1.0
    assert report["updates_per_s"] is None or report["updates_per_s"] > 0


def test_sample_histogram_keys_are_coords(tmp_path, capsys):
    stream = str(tmp_path / "z.jsonl")
    run(capsys, ["generate", "--kind", "zipf", "--n", "4", "--m", "30",
                 "--out", stream])
    code, out, _ = run(capsys, ["sample", "--stream", stream, "--sampler",
                                "gsampler", "--measure", "huber", "--tau", "2",
                                "--trials", "8", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    for k in report["histogram"]:
        assert 1 <= int(k) <= 4


def test_sample_missing_stream_exit_2(capsys):
    code, _, err = run(capsys, ["sample", "--stream", "/nonexistent.jsonl",
                                "--sampler", "lp"])
    assert code == 2
    assert "error" in err


def test_sample_invalid_stream_exit_2(tmp_path, capsys):
    from exactsamp.core import StreamConfig, Update, write_stream

    bad = tmp_path / "bad.jsonl"
    write_stream(str(bad), StreamConfig(n=3, model="insertion_only"),
                 [Update(9, time=1)])
    code, _, err = run(capsys, ["sample", "--stream", str(bad),
                                "--sampler", "lp"])
    assert code == 2
    assert "invalid stream" in err


def test_sliding_sampler_via_window_flag(tmp_path, capsys):
    stream = str(tmp_path / "w.jsonl")
    run(capsys, ["generate", "--kind", "uniform", "--n", "3", "--m", "12",
                 "--out", stream])
    code, out, _ = run(capsys, ["sample", "--stream", stream, "--sampler",
                                "sliding", "--measure", "lp", "--p", "1",
                                "--window", "4", "--trials", "3",
                                "--format", "json"])
    assert code == 0
    assert sum(json.loads(out)["outcome_counts"].values()) == 3


def test_matrix_roundtrip(tmp_path, capsys):
    stream = str(tmp_path / "mat.jsonl")
    run(capsys, ["generate", "--kind", "matrix", "--n", "3", "--m", "20",
                 "--d", "2", "--out", stream])
    code, out, _ = run(capsys, ["sample", "--stream", stream, "--sampler",
                                "matrix", "--trials", "3", "--format", "json"])
    assert code == 0
    assert sum(json.loads(out)["outcome_counts"].values()) == 3


def test_multipass_and_smallp(tmp_path, capsys):
    stream = str(tmp_path / "mp.jsonl")
    run(capsys, ["generate", "--kind", "uniform", "--n", "4", "--m", "16",
                 "--out", stream])
    code, out, _ = run(capsys, ["sample", "--stream", stream, "--sampler",
                                "multipass", "--p", "1", "--passes-gamma",
                                "1/2", "--format", "json"])
    assert code == 0
    code, out, _ = run(capsys, ["sample", "--stream", stream, "--sampler",
                                "smallp", "--p", "1/2", "--duplication", "32",
                                "--format", "json"])
    assert code == 0


def test_verify_writes_reports(tmp_path, capsys):
    out_path = str(tmp_path / "reports.json")
    code, out, _ = run(capsys, ["verify", "--out", out_path])
    assert code == 0
    with open(out_path) as fh:
        reports = json.load(fh)
    assert reports and all(r["ok"] for r in reports)
    assert {"sampler", "stream_id", "conditional_law", "target_law",
            "exact_match", "ok", "notes"} == set(reports[0])


def test_sample_loads_no_enumerator(tmp_path):
    # Only `exactsamp verify` imports the verify battery and its enumerator.
    import exactsamp

    stream = str(tmp_path / "u.jsonl")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(exactsamp.__file__))))
    code = ("import sys\n"
            "from exactsamp.cli import main\n"
            "assert main(['generate', '--kind', 'uniform', '--n', '5', '--m', '40',\n"
            "             '--out', sys.argv[1]]) == 0\n"
            "assert main(['sample', '--stream', sys.argv[1], '--sampler', 'lp', '--p', '2',\n"
            "             '--trials', '3']) == 0\n"
            "loaded = {'exactsamp.oracle', 'exactsamp.verify'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code, stream], env=env, check=True, timeout=120)


def test_bench_runs(capsys):
    code, out, _ = run(capsys, ["bench", "--n", "50", "--m", "2000"])
    assert code == 0
    assert "updates" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["sample", "--sampler", "lp"])  # missing --stream
    assert e.value.code == 2


def test_sample_deletion_to_insertion_only_sampler_exit_2(tmp_path, capsys):
    from exactsamp.core import StreamConfig, Update, write_stream

    stream = tmp_path / "turnstile.jsonl"
    write_stream(str(stream), StreamConfig(n=3, model="strict_turnstile"),
                 [Update(1, time=1), Update(2, time=2), Update(1, delta=-1, time=3)])
    code, _, err = run(capsys, ["sample", "--stream", str(stream), "--sampler", "gsampler",
                                "--measure", "huber", "--tau", "2"])
    assert code == 2
    assert "delta -1" in err
