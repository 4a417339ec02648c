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
    assert {"sampler", "stream_id", "checks", "conditional_law", "target_law", "mass_fail",
            "mass_fail_target", "ok"} == set(reports[0])


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


def test_zipf_stream_matches_per_update_draws(tmp_path, capsys):
    # Drawing all m coordinates in one choices() call writes the stream that
    # one choices() call per update wrote.
    from exactsamp.core import parse_stream
    from exactsamp.exactrand import substream

    stream = str(tmp_path / "z.jsonl")
    code, _, _ = run(capsys, ["generate", "--kind", "zipf", "--n", "9", "--m", "60",
                              "--alpha", "1.3", "--seed", "5", "--out", stream])
    assert code == 0
    rng = substream(5, "gen", "zipf")
    weights = [1.0 / (i + 1) ** 1.3 for i in range(9)]
    want = [rng.choices(range(1, 10), weights)[0] for _ in range(60)]
    config, updates = parse_stream(stream)
    assert [u.coord for u in updates] == want
    assert [u.time for u in updates] == list(range(1, 61))
    assert config.model == "insertion_only"


@pytest.mark.parametrize("argv,needs", [
    (["--sampler", "matrix"], "matrix stream"),
    (["--sampler", "sliding", "--p", "1"], "window"),
    (["--sampler", "sliding-lp", "--p", "2"], "window"),
], ids=["matrix", "sliding", "sliding-lp"])
def test_sample_needs_what_the_sampler_reads_exit_2(tmp_path, capsys, argv, needs):
    # A matrix sampler needs the column count, a sliding one a window; both
    # are usage errors, caught before a sampler is built.
    stream = str(tmp_path / "u.jsonl")
    run(capsys, ["generate", "--kind", "uniform", "--n", "5", "--m", "20", "--out", stream])
    code, _, err = run(capsys, ["sample", "--stream", stream] + argv)
    assert code == 2
    assert needs in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["sample", "--sampler", "lp"])  # missing --stream
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--window", "-3"],
    ["sample", "--window", "0"],
    ["sample", "--trials", "-2"],
    ["generate", "--window", "-3"],
    ["generate", "--n", "0"],
    ["generate", "--m", "-1"],
    ["generate", "--kind", "matrix", "--d", "0"],
    ["sample", "--delta", "0"],
    ["sample", "--delta", "1"],
    ["sample", "--delta", "5"],
    ["sample", "--delta", "-1"],
    ["sample", "--p", "abc"],
    ["sample", "--p", "1/0"],
    ["sample", "--tau", "abc"],
    ["sample", "--passes-gamma", "abc"],
], ids=" ".join)
def test_out_of_range_counts_exit_2(argv, tmp_path, capsys):
    # A count below its least value, a delta outside (0, 1) and a rational
    # that does not parse are usage errors: exit 2 with argparse's message,
    # before any stream is read or written.
    stream = str(tmp_path / "u.jsonl")
    assert main(["generate", "--kind", "uniform", "--n", "3", "--m", "20", "--out", stream]) == 0
    capsys.readouterr()
    if argv[0] == "sample":
        argv = argv + ["--stream", stream, "--sampler", "pair"]
    else:
        defaults = {"--kind": "uniform", "--n": "3", "--m": "20",
                    "--out": str(tmp_path / "g.jsonl")}
        argv = argv + [x for k, v in defaults.items() if k not in argv for x in (k, v)]
    with pytest.raises(SystemExit) as e:
        main(argv)
    err = capsys.readouterr().err
    assert e.value.code == 2, err
    assert "usage:" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "g.jsonl")


def test_sample_deletion_to_insertion_only_sampler_exit_2(tmp_path, capsys):
    from exactsamp.core import StreamConfig, Update, write_stream

    stream = tmp_path / "turnstile.jsonl"
    write_stream(str(stream), StreamConfig(n=3, model="strict_turnstile"),
                 [Update(1, time=1), Update(2, time=2), Update(1, delta=-1, time=3)])
    code, _, err = run(capsys, ["sample", "--stream", str(stream), "--sampler", "gsampler",
                                "--measure", "huber", "--tau", "2"])
    assert code == 2
    assert "delta -1" in err


@pytest.mark.parametrize("argv", [
    ["--passes-gamma", "0"],
    ["--passes-gamma=-1/2"],
    ["--p", "2", "--passes-gamma=-1/2"],
], ids=" ".join)
def test_nonpositive_passes_gamma_exit_2(argv, tmp_path, capsys):
    # gamma = 0 crashed with a traceback (exit 1); a negative gamma never
    # returned.
    stream = str(tmp_path / "u.jsonl")
    run(capsys, ["generate", "--kind", "uniform", "--n", "4", "--m", "20", "--out", stream])
    code, _, err = run(capsys, ["sample", "--stream", stream, "--sampler", "multipass"] + argv)
    assert code == 2 and "gamma must be positive" in err, err


@pytest.mark.parametrize("sampler", ["pair", "block"])
def test_window_sampler_on_an_empty_stream_exit_2(sampler, tmp_path, capsys):
    # With no --window these samplers take W = the stream length; on a
    # stream of no updates that was a ZeroDivisionError traceback (exit 1).
    stream = str(tmp_path / "empty.jsonl")
    run(capsys, ["generate", "--kind", "shuffled", "--n", "4", "--m", "0", "--out", stream])
    code, _, err = run(capsys, ["sample", "--stream", stream, "--sampler", sampler, "--p", "3"])
    assert code == 2 and "window W must be >= 1" in err, err
    assert "Traceback" not in err


def test_block_sampler_refuses_fractional_p_exit_2(tmp_path, capsys):
    # --p 7/2 was truncated to p = 3 and sampled without a word.
    stream = str(tmp_path / "s.jsonl")
    run(capsys, ["generate", "--kind", "shuffled", "--n", "4", "--m", "40", "--out", stream])
    code, _, err = run(capsys, ["sample", "--stream", stream, "--sampler", "block", "--p", "7/2"])
    assert code == 2 and "integer p >= 3" in err, err
    code, _, _ = run(capsys, ["sample", "--stream", stream, "--sampler", "block", "--p", "3"])
    assert code == 0
