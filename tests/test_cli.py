"""Command-line surface: subcommands, overrides, exit codes."""

import argparse
import csv

import pytest

from wsn_track_sim.cli import _build_parser, main
from wsn_track_sim.scenario import METHODS


def test_run_writes_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["run", "--seed", "1", "--slots", "25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("method,seed,")


def test_run_method_choices_are_the_scenario_methods():
    parser = _build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    (method,) = (a for a in subs.choices["run"]._actions if a.dest == "method")
    assert tuple(method.choices) == METHODS


def test_run_with_config_file(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text("field.n_nodes = 60\nrun.max_slots = 20\nrun.seed = 2\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(conf), "--method", "baseline",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["method"] == "baseline"
    assert row["n_nodes"] == "60"
    assert row["seed"] == "2"


def test_config_error_exit_code(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("field.r_c = 30\n")  # violates r_c >= 2*r_s
    assert main(["run", "--config", str(conf), "--out",
                 str(tmp_path / "x.csv")]) == 1


def test_unknown_key_exit_code(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense.key = 1\n")
    assert main(["run", "--config", str(conf)]) == 1


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.conf")]) == 3


def test_unwritable_output_is_io_error(tmp_path):
    out = tmp_path / "no-such-dir" / "report.csv"
    assert main(["run", "--slots", "5", "--out", str(out)]) == 3


def test_sweep_subcommand(tmp_path):
    conf = tmp_path / "sim.conf"
    conf.write_text("field.n_nodes = 60\nrun.max_slots = 15\n")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", str(conf), "--axis", "comm-radius",
                 "--values", "50,55", "--seeds", "0..1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # values x seeds x methods


def test_sweep_all_values_skipped(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep", "--axis", "comm-radius", "--values", "10,20",
                 "--seeds", "0", "--out", str(out)])
    assert code == 1


def test_trace_subcommand(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["trace", "--seed", "4", "--slots", "40", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "slot,x,y,speed"
    assert len(lines) == 41


def test_trace_replay_matches_run(tmp_path):
    # trace export is deterministic
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    main(["trace", "--seed", "6", "--slots", "30", "--out", str(t1)])
    main(["trace", "--seed", "6", "--slots", "30", "--out", str(t2)])
    assert t1.read_bytes() == t2.read_bytes()
    # replaying it through `run --trace` reproduces the seeded run, and the
    # replay really follows the file: another seed's motion changes the report
    other = tmp_path / "t7.csv"
    main(["trace", "--seed", "7", "--slots", "30", "--out", str(other)])
    for method in ("proposed", "baseline"):
        common = ["run", "--method", method, "--seed", "6", "--slots", "30"]
        seeded, replayed, moved = (tmp_path / f"{method}-{k}.csv"
                                   for k in ("seeded", "replayed", "moved"))
        assert main(common + ["--out", str(seeded)]) == 0
        assert main(common + ["--trace", str(t1), "--out", str(replayed)]) == 0
        assert main(common + ["--trace", str(other), "--out", str(moved)]) == 0
        assert replayed.read_bytes() == seeded.read_bytes()
        assert moved.read_bytes() != seeded.read_bytes()


def test_entry_outside_field_is_config_error(tmp_path, capsys):
    # `trace` must not write a row that `run --trace` would then refuse
    conf = tmp_path / "far.conf"
    conf.write_text("mobility.entry = -10,-10\n")
    out = tmp_path / "t.csv"
    assert main(["trace", "--config", str(conf), "--slots", "5", "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["run", "--config", str(conf), "--slots", "5",
                 "--out", str(tmp_path / "r.csv")]) == 1
    for err in capsys.readouterr().err.splitlines():
        assert err.startswith(f"configuration error: {conf}: ")
        assert "entry point (-10.0, -10.0) is outside the field" in err


def test_entry_on_the_boundary_round_trips(tmp_path):
    conf = tmp_path / "edge.conf"
    conf.write_text("mobility.entry = 500,0\n")
    trace = tmp_path / "t.csv"
    common = ["--config", str(conf), "--slots", "20"]
    assert main(["trace", *common, "--out", str(trace)]) == 0
    assert trace.read_text().splitlines()[1].startswith("0,500.0,0.0,")
    seeded, replayed = tmp_path / "seeded.csv", tmp_path / "replayed.csv"
    assert main(["run", *common, "--out", str(seeded)]) == 0
    assert main(["run", *common, "--trace", str(trace), "--out", str(replayed)]) == 0
    assert replayed.read_bytes() == seeded.read_bytes()


def test_missing_trace_file_is_io_error(tmp_path):
    assert main(["run", "--trace", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "r.csv")]) == 3


def test_header_only_trace_is_config_error(tmp_path, capsys):
    trace = tmp_path / "empty.csv"
    trace.write_text("slot,x,y,speed\n")
    assert main(["run", "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")]) == 1
    assert "empty trajectory" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "t,x,y,v\n0,1.0,2.0,5.0\n",
    "slot,x,y,speed\n0,1.0,abc,5.0\n",
], ids=["wrong-header", "unparseable"])
def test_malformed_trace_is_config_error(tmp_path, capsys, text):
    trace = tmp_path / "bad.csv"
    trace.write_text(text)
    assert main(["run", "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(trace) in err


@pytest.mark.parametrize("flag", ["--config", "--trace"])
def test_non_utf8_input_is_config_error(tmp_path, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\n")
    assert main(["run", flag, str(bad), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and str(bad) in err


def test_trace_outside_field_is_config_error(tmp_path, capsys):
    trace = tmp_path / "far.csv"
    trace.write_text("slot,x,y,speed\n0,9000.0,9000.0,5.0\n")
    assert main(["run", "--trace", str(trace),
                 "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{trace}, line 2" in err
    # the field's own corners are inside: the bounds are inclusive
    for corner in ("0.0,0.0", "500.0,500.0"):
        trace.write_text(f"slot,x,y,speed\n0,{corner},5.0\n")
        assert main(["run", "--trace", str(trace),
                     "--out", str(tmp_path / "r.csv")]) == 0


def test_trace_moving_beyond_r_s_in_a_slot_is_config_error(tmp_path, capsys):
    # a replayed trajectory is held to the displacement bound that
    # validate_mobility holds a generated one to (v_max <= r_s / T)
    trace = tmp_path / "jump.csv"
    trace.write_text("slot,x,y,speed\n0,10.0,10.0,5.0\n1,10.0,35.0,5.0\n2,400.0,400.0,5.0\n")
    assert main(["run", "--trace", str(trace), "--out", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{trace}, line 4" in err
    assert "more than r_s = 25.0 m" in err
    conf = tmp_path / "fast.conf"
    conf.write_text("mobility.v_max = 30\n")
    assert main(["run", "--config", str(conf), "--out", str(tmp_path / "r.csv")]) == 1
    assert "displacement bound would not hold" in capsys.readouterr().err


@pytest.mark.parametrize("text,detail", [
    ("field.n_nodes 60\n", "line 1: expected 'key = value'"),
    ("field.n_nodes = abc\n", "bad value for field.n_nodes"),
    ("field.r_c = 30\n", "violates r_c >= 2*r_s"),
], ids=["no-equals", "bad-value", "invariant"])
def test_config_file_error_names_the_file(tmp_path, capsys, text, detail):
    conf = tmp_path / "bad.conf"
    conf.write_text(text)
    assert main(["run", "--config", str(conf), "--out",
                 str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {conf}: ") and detail in err


def test_flag_error_is_not_blamed_on_config_file(tmp_path, capsys):
    conf = tmp_path / "ok.conf"
    conf.write_text("field.n_nodes = 60\n")
    assert main(["run", "--config", str(conf), "--slots", "0", "--out",
                 str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert "max_slots must be >= 1" in err and str(conf) not in err


@pytest.mark.parametrize("key,value", [
    ("field.r_c", "nan"),
    ("field.r_c", "inf"),
    ("field.area_width", "inf"),
    ("energy.initial", "nan"),
    ("protocol.alpha", "nan"),
    ("radio.e_amp", "nan"),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, key, value):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"{key} = {value}\n")
    out = tmp_path / "r.csv"
    assert main(["run", "--config", str(conf), "--slots", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {conf}: bad value for {key}")
    assert not out.exists()


@pytest.mark.parametrize("flag,spec", [
    ("--seeds", "a"),
    ("--seeds", "0..b"),
    ("--seeds", "5..2"),  # a reversed range holds no seeds
    ("--values", "abc"),
    ("--values", "nan"),
    ("--values", "50,inf"),
    ("--values", ","),  # no values: not blamed on the axis
    ("--values", ""),
])
def test_malformed_sweep_flag_is_config_error(tmp_path, capsys, flag, spec):
    args = {"--values": "50", "--seeds": "0"}
    args[flag] = spec
    assert main(["sweep", "--axis", "comm-radius", "--values", args["--values"],
                 "--seeds", args["--seeds"], "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag}") and repr(spec) in err
