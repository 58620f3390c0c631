"""Command-line behavior: artifacts, errors, determinism on a reduced scene."""

import contextlib
import filecmp
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import helioflux as hf
from helioflux import cli, fileio, metrics
from helioflux.cli import main, run
from helioflux.errors import HelioFluxError
from helioflux.metrics import ENGINES

FAST_SCENE = """
[sunshape]
kind = limb_darkened
half_angle_deg = 0.1432394487827058

[receiver]
diameter = 1.2
grid_extent = 4.0
grid_cells = 64

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 9.0, 12.0

[run]
engine = conv
cases = single
surface_samples = 8
out = out
"""


@pytest.fixture
def fast_scene(tmp_path):
    path = tmp_path / "fast.scene"
    path.write_text(FAST_SCENE, encoding="utf-8")
    return str(path)


def test_validate_only_prints_echo(fast_scene, capsys):
    assert main(["run", fast_scene, "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert "site.latitude = 45.37" in out
    assert "run.engine = conv" in out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_validate_only_into_a_closed_pipe_is_no_error(unbuffered, fast_scene):
    # the reader of the echo closed its end before the first line: as with
    # `helioflux run SCENE --validate-only | true`, with stdout written line
    # by line or only at the final flush
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "helioflux", "run", fast_scene,
                               "--validate-only"], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 0


def test_run_writes_expected_artifacts(fast_scene, tmp_path):
    out_dir = str(tmp_path / "artifacts")
    assert main(["run", fast_scene, "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert "canting_h1.csv" in names
    assert "concentration.csv" in names
    assert "manifest.txt" in names
    for label in ("09h00", "12h00"):
        for variant in ("spherical", "off_axis"):
            stem = f"flux_{label}_{variant}_single_conv"
            assert f"{stem}.csv" in names
            assert f"{stem}.pgm" in names

    manifest = open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8").read()
    assert "run.surface_samples = 8" in manifest
    assert "sunshape.limb_coefficient = 0.5138" in manifest

    canting = open(os.path.join(out_dir, "canting_h1.csv"), encoding="utf-8").read()
    assert canting.splitlines()[1].startswith("i,j,spherical_a")
    rows = [l.split(",") for l in canting.splitlines()
            if l and not l.startswith(("#", "i,"))]
    assert len(rows) == 8
    by_index = {(int(r[0]), int(r[1])): [float(v) for v in r[2:]] for r in rows}
    # golden corner modules of the reference heliostat, reported mrad
    assert by_index[(1, 1)][0] == pytest.approx(12.75, abs=0.01)
    assert by_index[(1, 1)][1] == pytest.approx(7.50, abs=0.01)
    assert by_index[(1, 1)][2] == pytest.approx(14.19, abs=0.15)
    assert by_index[(4, 2)][3] == pytest.approx(-8.24, abs=0.15)


def test_run_records_engine_rms_with_both_engines(fast_scene, tmp_path):
    out_dir = str(tmp_path / "both")
    assert main(["run", fast_scene, "--engine", "both", "--out", out_dir,
                 "--samples", "8"]) == 0
    manifest = open(os.path.join(out_dir, "manifest.txt"), encoding="utf-8").read()
    rms_lines = [l for l in manifest.splitlines() if l.startswith("rms.")]
    assert len(rms_lines) == 4  # 2 times x 2 variants x single case
    for line in rms_lines:
        assert float(line.split(" = ")[1]) <= 0.02


def test_a_conv_run_writes_the_conv_files_of_a_both_run(fast_scene, tmp_path):
    # conv maps and the report they feed do not depend on the GRT maps traced
    # beside them, half of them in the run's child; only the manifest names
    # the engine
    conv, both = str(tmp_path / "conv"), str(tmp_path / "both")
    assert main(["run", fast_scene, "--engine", "conv", "--out", conv]) == 0
    assert main(["run", fast_scene, "--engine", "both", "--out", both]) == 0
    names = sorted(os.listdir(conv))
    assert set(names) < set(os.listdir(both))
    for name in names:
        if name != "manifest.txt":
            assert filecmp.cmp(os.path.join(conv, name), os.path.join(both, name),
                               shallow=False), name


def test_pgm_format(fast_scene, tmp_path):
    out_dir = str(tmp_path / "pgm")
    assert main(["run", fast_scene, "--out", out_dir]) == 0
    with open(os.path.join(out_dir, "flux_12h00_off_axis_single_conv.pgm"), "rb") as fh:
        blob = fh.read()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"64 64"
    maxval, raw = rest.split(b"\n", 1)
    assert maxval == b"65535"
    image = np.frombuffer(raw, dtype=">u2").reshape(64, 64)
    assert image.max() == 65535  # scaled to the peak


def _one_cell(index, value):
    values = np.zeros((6, 6))
    values[index] = value
    return values


# maps whose rows are mostly +0.0: the writer's zero-row string must read
# exactly as the cells formatted one by one
SPARSE_MAPS = {
    "all_zero": np.zeros((6, 6)),
    "first_first": _one_cell((0, 0), 2.5),
    "first_last": _one_cell((0, 5), 2.5),
    "last_first": _one_cell((5, 0), 2.5),
    "last_last": _one_cell((5, 5), 2.5),
    "negative_zero": _one_cell((2, 3), -0.0),
    "subnormal": _one_cell((3, 1), 5e-324),
}


@pytest.mark.parametrize("values", SPARSE_MAPS.values(), ids=SPARSE_MAPS.keys())
def test_flux_csv_rows_match_the_dense_formatter(values, tmp_path):
    flux_map = hf.FluxMap(values=values, grid=hf.GridSpec(6.0, 6), dni=1.0, engine="conv",
                          sun=hf.SunPosition(azimuth=0.0, elevation=45.0),
                          heliostat_ids=("h1",))
    path = tmp_path / "map.csv"
    fileio.write_flux_csv(flux_map, str(path))
    image = values.T[::-1, :]
    row_format = ",".join(["%.9e"] * image.shape[1]) + "\n"
    dense = "".join(row_format % tuple(row.tolist()) for row in image)
    text = path.read_text(encoding="utf-8")
    header = "".join(line for line in text.splitlines(keepends=True) if line.startswith("#"))
    assert text == header + dense
    assert header.count("\n") == 7


def test_pgm_of_a_zero_map_is_black(tmp_path):
    zero = hf.FluxMap(values=np.zeros((4, 4)), grid=hf.GridSpec(4.0, 4), dni=1.0,
                      engine="conv", sun=hf.SunPosition(azimuth=0.0, elevation=45.0),
                      heliostat_ids=("h1",))
    path = tmp_path / "zero.pgm"
    fileio.write_flux_pgm(zero, str(path))
    assert path.read_bytes() == b"P5\n4 4\n65535\n" + bytes(2 * 16)


def _with(after, line):
    return FAST_SCENE.replace(after, after + "\n" + line)


BAD_SCENES = {
    "missing_sections": "[receiver]\ndiameter = 1.2\n",
    "angles_above_zenith": FAST_SCENE.replace("hours = 9.0, 12.0", "angles = 0 95"),
    "angles_below_nadir": FAST_SCENE.replace("hours = 9.0, 12.0",
                                             "angles = 0 45; 10 -95"),
    "reference_above_zenith": FAST_SCENE + "\n[reference]\nsun = 0 95\n",
    "times_after_2100": FAST_SCENE.replace("hours = 9.0, 12.0",
                                           "times = 2200-09-23T12:00"),
    "dni_zero": _with("cases = single", "dni = 0.0"),
    "module_width_zero": _with("position = 86.6, 50.0, 0.0", "module_width = 0.0"),
    "module_height_zero": _with("position = 86.6, 50.0, 0.0", "module_height = 0.0"),
    "angles_nan": FAST_SCENE.replace("hours = 9.0, 12.0", "angles = nan 45"),
    "grid_extent_nan": FAST_SCENE.replace("grid_extent = 4.0", "grid_extent = nan"),
    "diameter_inf": FAST_SCENE.replace("diameter = 1.2", "diameter = inf"),
    "dni_inf": _with("cases = single", "dni = inf"),
    "dni_huge": _with("cases = single", "dni = 1e308"),
    "latitude_nan": FAST_SCENE + "\n[site]\nlatitude = nan\n",
    "near_receiver": FAST_SCENE.replace("position = 86.6, 50.0, 0.0",
                                        "position = 2.0, 0.5, -1.0"),
    "reflectivity_zero": _with("position = 86.6, 50.0, 0.0", "reflectivity = 0.0"),
    # a NUL byte in a name that reaches the file system
    "heliostat_name_nul": FAST_SCENE.replace("[heliostat h1]", "[heliostat h\0" "1]"),
    "label_nul": FAST_SCENE.replace("hours = 9.0, 12.0",
                                    "hours = 9.0, 12.0\nlabels = no\0on, late"),
    "out_nul": FAST_SCENE.replace("out = out", "out = o\0ut"),
    # configparser's own errors span several lines
    "no_section_header": "stray line\n" + FAST_SCENE,
    "parsing_error": FAST_SCENE.replace("diameter = 1.2", "diameter 1.2"),
}


@pytest.mark.parametrize("body", BAD_SCENES.values(), ids=BAD_SCENES.keys())
def test_cli_reports_config_error_single_line(body, tmp_path, capsys):
    bad = tmp_path / "bad.scene"
    bad.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ConfigError: ")
    assert not out.exists()


# maps with no representable power on the grid: every peak is 0, so no
# gain or RMS figure may divide by one
NO_POWER_SCENES = {
    "reflectivity_subnormal_both": (_with("position = 86.6, 50.0, 0.0",
                                          "reflectivity = 5e-324"), "both"),
    "reflectivity_subnormal_conv": (_with("position = 86.6, 50.0, 0.0",
                                          "reflectivity = 5e-324"), "conv"),
}


@pytest.mark.parametrize("body, engine", NO_POWER_SCENES.values(),
                         ids=NO_POWER_SCENES.keys())
def test_cli_run_without_power_on_the_grid_fails_in_one_line(body, engine, tmp_path,
                                                              capsys):
    path = tmp_path / "dark.scene"
    path.write_text(body, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--engine", engine, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: HelioFluxError: ")
    assert "no representable power" in err
    assert not os.listdir(out_dir)


def test_scene_with_byte_order_mark_echoes_as_the_plain_file(tmp_path, capsys):
    plain = hf.table1_scene_path()
    with open(plain, "rb") as fh:
        text = fh.read()
    marked = tmp_path / "bom.scene"
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert main(["run", plain, "--validate-only"]) == 0
    expected = capsys.readouterr()
    assert main(["run", str(marked), "--validate-only"]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("engine", ["conv", "both"])
def test_subnormal_dni_run_matches_the_dni_1_run(engine, tmp_path):
    # maps are in suns and traced per unit DNI: only the watts figures
    # (flux CSV headers, the manifest) see the DNI
    outs = {}
    for dni in ("1.0", "5e-324"):
        path = tmp_path / f"dni_{dni}.scene"
        path.write_text(_with("cases = single", f"dni = {dni}"), encoding="utf-8")
        outs[dni] = tmp_path / f"out_{dni}"
        assert main(["run", str(path), "--engine", engine, "--out", str(outs[dni])]) == 0
    names = sorted(os.listdir(outs["1.0"]))
    assert names == sorted(os.listdir(outs["5e-324"]))
    compared = ["concentration.csv"] + [n for n in names if n.endswith(".pgm")]
    assert len(compared) == 1 + 2 * 2 * len(ENGINES[engine])
    _, mismatch, errors = filecmp.cmpfiles(outs["1.0"], outs["5e-324"], compared,
                                           shallow=False)
    assert (mismatch, errors) == ([], [])


def test_run_removes_written_artifacts_when_a_writer_fails(fast_scene, tmp_path,
                                                           monkeypatch):
    calls = []
    write_flux_pgm = fileio.write_flux_pgm

    def fail_on_third_call(flux_map, path):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        write_flux_pgm(flux_map, path)

    monkeypatch.setattr(fileio, "write_flux_pgm", fail_on_third_call)
    out_dir = tmp_path / "partial"
    config = hf.with_overrides(hf.load_config(fast_scene), out_dir=str(out_dir))
    with pytest.raises(OSError, match="disk full"):
        run(config)
    assert len(calls) == 3
    assert not os.listdir(out_dir)


class TraceFailed(HelioFluxError):
    """A trace's error that pickles by reference, so that the one the
    child of a GRT run raises reaches the caller as the very same object."""

    def __reduce__(self):
        return "TRACE_FAILED"


TRACE_FAILED = TraceFailed("trace failed")


def assert_nothing_left(threads):
    # a run reaps its child: this process has none left, running or ended
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", ["child", "caller"])
def test_a_failing_trace_on_either_side_ends_the_run_like_a_serial_failure(
        failing, fast_scene, tmp_path, monkeypatch, capsys, shared_log):
    # A GRT run forks one child with the caller's numpy state: it traces
    # the off-axis GRT maps while the caller traces the spherical ones.  An
    # error in a trace on either side ends the run as that very error, with
    # the caller's state as it was, and once the child has ended nothing of
    # the run is left.  Each trace logs its numpy state, the child's
    # reaching this process through the shared log.
    error = TRACE_FAILED
    trace = metrics.trace_flux_grt
    caller = os.getpid()

    def failing_trace(*args, **kwargs):
        shared_log.append((np.getbufsize(), np.geterr()))
        in_child = os.getpid() != caller
        if in_child == (failing == "child"):
            raise error
        return trace(*args, **kwargs)

    monkeypatch.setattr(metrics, "trace_flux_grt", failing_trace)
    config = hf.with_overrides(hf.load_config(fast_scene), engine="both",
                               out_dir=str(tmp_path / "direct"))
    threads = threading.active_count()
    with np.errstate(over="raise", under="warn"):
        bufsize = np.setbufsize(4096)
        try:
            state = (np.getbufsize(), np.geterr())
            with pytest.raises(HelioFluxError) as raised:
                run(config)
            assert raised.value is error
            assert_nothing_left(threads)
            assert (np.getbufsize(), np.geterr()) == state
            log = shared_log.read()
            if failing == "child":
                # the child's first trace and both of the caller's
                assert log == [state] * 3
            else:
                # the caller's first trace; the caller then kills the child,
                # which has logged none, one or both of its traces
                assert log and all(entry == state for entry in log)
        finally:
            np.setbufsize(bufsize)
    assert not os.listdir(tmp_path / "direct")
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: TraceFailed: trace failed\n"
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


CHILD_ENDED = ("error: HelioFluxError: the forked process of the run ended before it "
               "finished\n")


def test_a_child_that_dies_mid_trace_ends_the_run_in_one_line(fast_scene, tmp_path,
                                                              monkeypatch, capsys):
    # the child dies, as if killed, in its first trace; the forked child
    # inherits this patch, the caller's traces go through
    trace = metrics.trace_flux_grt
    caller = os.getpid()

    def dying_trace(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(1)
        return trace(*args, **kwargs)

    monkeypatch.setattr(metrics, "trace_flux_grt", dying_trace)
    threads = threading.active_count()
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == CHILD_ENDED
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


@contextlib.contextmanager
def another_thread():
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        yield
    finally:
        done.set()
        other.join(timeout=60)


def test_may_fork_says_no_beside_another_thread():
    # the forked child would hold the other thread's locks as they were
    with another_thread():
        assert not cli.may_fork()
    assert cli.may_fork()


# the fast scene with a sun and its mirror image, and the pair case: every
# twin GRT map is a flip of its heliostat's
PAIRED_SCENE = FAST_SCENE.replace("hours = 9.0, 12.0", "hours = 9.0, 12.0, 15.0").replace(
    "cases = single", "cases = single, symmetric_pair")


@pytest.mark.parametrize("engine, text", [("both", FAST_SCENE), ("grt", FAST_SCENE),
                                          ("both", PAIRED_SCENE)],
                         ids=["both", "grt", "both_paired"])
def test_a_grt_run_writes_the_same_files_with_its_child_as_without(
        engine, text, tmp_path, monkeypatch, shared_log):
    # A GRT run forks one child, which runs the off-axis day course, writes
    # its maps' files and sends back its report while this process runs
    # the spherical one and writes the rest.  Beside another thread the
    # fork rule keeps the whole run in this process.  Each day course and
    # each flux CSV logs whether this process ran it.
    scene = tmp_path / "scene.scene"
    scene.write_text(text, encoding="utf-8")
    loaded = hf.load_config(str(scene))
    caller = os.getpid()
    fork, day_course, write_flux_csv = os.fork, cli.day_course, fileio.write_flux_csv
    forks = []

    def counted_fork():
        forks.append("fork")
        return fork()

    def logged_day_course(config, collect_maps, variants):
        shared_log.append(("day", variants, os.getpid() == caller))
        return day_course(config, collect_maps, variants)

    def logged_csv(flux_map, path):
        shared_log.append(("csv", os.path.basename(path), os.getpid() == caller))
        write_flux_csv(flux_map, path)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(cli, "day_course", logged_day_course)
    monkeypatch.setattr(fileio, "write_flux_csv", logged_csv)
    threads = threading.active_count()
    logs = {}
    for mode in ("split", "serial"):
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        with another_thread() if mode == "serial" else contextlib.nullcontext():
            assert main(["run", str(scene), "--engine", engine, "--out", "out"]) == 0
        assert_nothing_left(threads)
        assert len(forks) == 1
        logs[mode] = shared_log.read()
        shared_log.path.write_bytes(b"")
    assert sorted(r for r in logs["split"] if r[0] == "day") == [
        ("day", ("off_axis",), False), ("day", ("spherical",), True)]
    assert [r for r in logs["serial"] if r[0] == "day"] == [("day", metrics.VARIANTS, True)]
    maps = len(loaded.schedule) * 2 * len(loaded.cases) * len(ENGINES[engine])
    for mode, log in logs.items():
        written = [(name, by_caller) for kind, name, by_caller in log if kind == "csv"]
        assert len(written) == maps
        assert all(by_caller == (mode == "serial" or "off_axis" not in name)
                   for name, by_caller in written)
    names = sorted(os.listdir(tmp_path / "split" / "out"))
    assert names == sorted(os.listdir(tmp_path / "serial" / "out"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "split" / "out",
                                           tmp_path / "serial" / "out", names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_an_error_in_the_childs_writers_ends_the_run_as_that_error(fast_scene, tmp_path,
                                                                   monkeypatch, capsys):
    caller = os.getpid()
    write_flux_pgm = fileio.write_flux_pgm

    def full_disk(flux_map, path):
        if os.getpid() != caller:
            raise OSError("disk full")
        write_flux_pgm(flux_map, path)

    monkeypatch.setattr(fileio, "write_flux_pgm", full_disk)
    threads = threading.active_count()
    config = hf.with_overrides(hf.load_config(fast_scene), engine="both",
                               out_dir=str(tmp_path / "direct"))
    with pytest.raises(OSError) as raised:
        run(config)
    assert type(raised.value) is OSError and str(raised.value) == "disk full"
    assert_nothing_left(threads)
    assert not os.listdir(tmp_path / "direct")
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: OSError: disk full\n"
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


class WriteFailed(OSError):
    """A writer's error that does not pickle."""

    def __reduce__(self):
        raise TypeError("WriteFailed does not pickle")


def test_a_writer_error_that_does_not_pickle_ends_the_run_in_one_line(fast_scene, tmp_path,
                                                                      monkeypatch, capsys):
    caller = os.getpid()
    write_flux_pgm = fileio.write_flux_pgm

    def failing(flux_map, path):
        if os.getpid() != caller:
            raise WriteFailed("disk full")
        write_flux_pgm(flux_map, path)

    monkeypatch.setattr(fileio, "write_flux_pgm", failing)
    threads = threading.active_count()
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: HelioFluxError: WriteFailed: disk full\n"
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


def test_a_child_that_dies_mid_write_ends_the_run_in_one_line(fast_scene, tmp_path,
                                                              monkeypatch, capsys):
    # the child dies, as if killed, in its first graymap
    caller = os.getpid()
    write_flux_pgm = fileio.write_flux_pgm

    def dying(flux_map, path):
        if os.getpid() != caller:
            os._exit(1)
        write_flux_pgm(flux_map, path)

    monkeypatch.setattr(fileio, "write_flux_pgm", dying)
    threads = threading.active_count()
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "grt", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == CHILD_ENDED
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


@pytest.mark.parametrize("kept", [lambda size: size // 2, lambda size: size - 1],
                         ids=["half", "all_but_the_last_byte"])
def test_a_child_message_cut_short_ends_the_run_in_one_line(kept, fast_scene, tmp_path,
                                                             monkeypatch, capsys):
    # the child's figures reach the pipe cut short: the forked child
    # inherits this patch of the pickle.dumps that cli calls, the caller's
    # calls go through
    caller = os.getpid()
    dumps = pickle.dumps

    def cut_short(*args, **kwargs):
        message = dumps(*args, **kwargs)
        return message if os.getpid() == caller else message[:kept(len(message))]

    monkeypatch.setattr(cli.pickle, "dumps", cut_short)
    threads = threading.active_count()
    out_dir = tmp_path / "partial"
    assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == CHILD_ENDED
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


def test_a_failure_in_the_caller_waits_for_the_child_before_cleaning_up(
        fast_scene, tmp_path, monkeypatch, capsys):
    # the child writes its files only once this process has failed in its
    # first flux CSV: a cleanup that did not wait for the child would leave
    # the child's files behind
    caller = os.getpid()
    write_flux_csv = fileio.write_flux_csv
    go_read, go_write = os.pipe()

    def racing(flux_map, path):
        if os.getpid() == caller:
            os.write(go_write, bytes(64))
            raise OSError("caller failed")
        os.read(go_read, 1)
        write_flux_csv(flux_map, path)

    monkeypatch.setattr(fileio, "write_flux_csv", racing)
    out_dir = tmp_path / "partial"
    try:
        assert main(["run", fast_scene, "--engine", "both", "--out", str(out_dir)]) == 1
    finally:
        os.close(go_read)
        os.close(go_write)
    assert capsys.readouterr().err == "error: OSError: caller failed\n"
    left = []  # every child of this process, once ended: none if the run reaped its own
    while True:
        try:
            left.append(os.waitpid(-1, 0))
        except ChildProcessError:
            break
    assert not os.listdir(out_dir)
    assert left == []


def test_a_failure_in_the_caller_kills_the_child_instead_of_waiting_for_it(
        fast_scene, tmp_path, monkeypatch, capsys):
    # each of the child's GRT traces sleeps 8 s while the caller fails in
    # its first flux CSV: the caller kills its child at once, rather than
    # waiting ~16 s for the child's whole variant, and nothing is left
    caller = os.getpid()
    trace, write_flux_csv = metrics.trace_flux_grt, fileio.write_flux_csv

    def slow_trace(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(8)
        return trace(*args, **kwargs)

    def failing(flux_map, path):
        if os.getpid() == caller:
            raise OSError("caller failed")
        write_flux_csv(flux_map, path)

    monkeypatch.setattr(metrics, "trace_flux_grt", slow_trace)
    monkeypatch.setattr(fileio, "write_flux_csv", failing)
    threads = threading.active_count()
    out_dir = tmp_path / "partial"
    started = time.monotonic()
    assert main(["run", fast_scene, "--engine", "grt", "--out", str(out_dir)]) == 1
    assert time.monotonic() - started < 4.0
    assert capsys.readouterr().err == "error: OSError: caller failed\n"
    assert_nothing_left(threads)
    assert not os.listdir(out_dir)


# a run whose every flux CSV, in the caller and in its child, takes 1 s
# more, and which logs each process that starts a day course
SLOW_RUN = """
import os, sys, time
from helioflux import cli, fileio

day_course, write_flux_csv = cli.day_course, fileio.write_flux_csv

def logged_day_course(*args, **kwargs):
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()}\\n")
    return day_course(*args, **kwargs)

def slow_csv(flux_map, path):
    write_flux_csv(flux_map, path)
    time.sleep(1.0)

cli.day_course, fileio.write_flux_csv = logged_day_course, slow_csv
sys.exit(cli.main(sys.argv[2:]))
"""


def test_sigterm_ends_a_forked_run_whole(fast_scene, tmp_path):
    # SIGTERM to the caller of a GRT run once the run's first file is
    # written: the run exits with 128 + SIGTERM, its child is killed and
    # reaped, every file of the run is removed, and none appears later
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(hf.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    log, out_dir = tmp_path / "pids", tmp_path / "out"
    proc = subprocess.Popen([sys.executable, "-c", SLOW_RUN, str(log), "run", fast_scene,
                             "--engine", "grt", "--out", str(out_dir)],
                            stderr=subprocess.PIPE, env=env, text=True)
    pids = []
    try:
        deadline = time.monotonic() + 60
        # both processes in their day courses, and a file written
        while not (log.is_file() and len(log.read_text().split()) == 2
                   and out_dir.is_dir() and os.listdir(out_dir)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        pids = [int(line) for line in log.read_text().split()]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert proc.stderr.read() == ""
        assert proc.pid in pids
        assert not os.listdir(out_dir)
        time.sleep(2.0)  # an orphaned child would write its next files by now
        assert not os.listdir(out_dir)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for pid in pids:  # whatever of the run outlived it
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        proc.stderr.close()
        proc.wait()


def test_a_conv_run_forks_no_process(fast_scene, tmp_path, monkeypatch):
    def forbidden():
        raise AssertionError("a conv run forked")

    monkeypatch.setattr(os, "fork", forbidden)
    assert main(["run", fast_scene, "--engine", "conv", "--out", str(tmp_path / "out")]) == 0
    assert len(os.listdir(tmp_path / "out")) == 2 * 2 * 2 + 3


def test_cli_reports_a_scene_that_is_not_utf8_in_one_line(tmp_path, capsys):
    path = tmp_path / "bad.scene"
    path.write_bytes(FAST_SCENE.encode() + b"# \xff\n")
    assert main(["run", str(path), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: ConfigError: cannot read {path}: not UTF-8 text")


@pytest.mark.parametrize("out, error", [("", "FileNotFoundError"),
                                        ("taken", "FileExistsError")])
def test_cli_reports_an_output_directory_it_cannot_create(out, error, fast_scene, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    taken = tmp_path / "taken"
    taken.write_bytes(b"a regular file\n")
    assert main(["run", fast_scene, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {error}: ")
    assert taken.read_bytes() == b"a regular file\n"
    assert sorted(os.listdir(tmp_path)) == ["fast.scene", "taken"]


def test_cli_removes_partial_outputs_on_failure(tmp_path, capsys):
    # a sunshape too wide for the grid trips the kernel aliasing guard
    # mid-run, after some artifacts would have been written
    scene = FAST_SCENE.replace("half_angle_deg = 0.1432394487827058",
                               "half_angle_deg = 0.9")
    path = tmp_path / "aliased.scene"
    path.write_text(scene, encoding="utf-8")
    out_dir = str(tmp_path / "partial")
    assert main(["run", str(path), "--out", out_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KernelAliasingError:")
    assert not os.listdir(out_dir)


def test_two_runs_are_bit_identical(fast_scene, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    assert main(["run", fast_scene, "--out", a]) == 0
    assert main(["run", fast_scene, "--out", b]) == 0
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        if name == "manifest.txt":
            # the manifest echoes the output directory itself; compare the rest
            la = open(os.path.join(a, name), encoding="utf-8").read().splitlines()
            lb = open(os.path.join(b, name), encoding="utf-8").read().splitlines()
            assert [l for l in la if not l.startswith("run.out")] == \
                   [l for l in lb if not l.startswith("run.out")]
        else:
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), name


# --- configuration echo and command-line overrides --------------------------------

MINIMAL_SCENE = """
[receiver]
diameter = 1.2

[heliostat h1]
position = 86.6, 50.0, 0.0

[schedule]
hours = 12.0
"""

# every default, in echo order, as --validate-only prints it for MINIMAL_SCENE
MINIMAL_ECHO = """\
site.latitude = 45.37
site.longitude = 0.0
sunshape.kind = limb_darkened
sunshape.half_angle_deg = 0.2664253747358328
sunshape.limb_coefficient = 0.5138
receiver.diameter = 1.2
receiver.grid_extent = 4.0
receiver.grid_cells = 256
heliostat.h1.position = 86.6, 50.0, 0.0
heliostat.h1.width = 3.4
heliostat.h1.height = 3.0
heliostat.h1.modules_across = 4
heliostat.h1.modules_up = 2
heliostat.h1.module_width = 0.7
heliostat.h1.module_height = 1.4
heliostat.h1.focal_length = 100.0
heliostat.h1.reflectivity = 1.0
schedule.12h00 = azimuth 0.0, elevation 44.63000000000001
reference.sun = azimuth 0.0, elevation 44.63
run.engine = both
run.cases = single, symmetric_pair
run.dni = 1.0
run.out = out
run.surface_samples = 32
run.radial_nodes = 24
run.azimuth_nodes = 48
"""

TABLE1_ECHO = """\
site.latitude = 45.37
site.longitude = 0.0
sunshape.kind = limb_darkened
sunshape.half_angle_deg = 0.1432394487827058
sunshape.limb_coefficient = 0.5138
receiver.diameter = 1.2
receiver.grid_extent = 4.0
receiver.grid_cells = 256
heliostat.h1.position = 86.6, 50.0, 0.0
heliostat.h1.width = 3.4
heliostat.h1.height = 3.0
heliostat.h1.modules_across = 4
heliostat.h1.modules_up = 2
heliostat.h1.module_width = 0.7
heliostat.h1.module_height = 1.4
heliostat.h1.focal_length = 100.0
heliostat.h1.reflectivity = 1.0
schedule.09h00 = azimuth -54.562127788120996, elevation 29.785922544055193
schedule.10h30 = azimuth -30.201114952377523, elevation 40.469952608874586
schedule.12h00 = azimuth 0.0, elevation 44.63000000000001
schedule.13h30 = azimuth 30.201114952377523, elevation 40.469952608874586
schedule.15h00 = azimuth 54.562127788120996, elevation 29.785922544055193
reference.sun = azimuth 0.0, elevation 44.63
run.engine = both
run.cases = single, symmetric_pair
run.dni = 1.0
run.out = out
run.surface_samples = 32
run.radial_nodes = 24
run.azimuth_nodes = 48
"""


@pytest.mark.parametrize("body, expected", [(MINIMAL_SCENE, MINIMAL_ECHO),
                                            (None, TABLE1_ECHO)],
                         ids=["minimal", "table1"])
def test_validate_only_echo_is_golden(body, expected, tmp_path, capsys):
    path = hf.table1_scene_path()
    if body is not None:
        path = tmp_path / "minimal.scene"
        path.write_text(body, encoding="utf-8")
    assert main(["run", str(path), "--validate-only"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("override", [["--grid", "7"], ["--grid", "0"], ["--grid", "8"],
                                      ["--grid", "17"], ["--samples", "0"],
                                      ["--samples", "1"]], ids="=".join)
def test_cli_override_outside_scene_bounds(override, fast_scene, tmp_path, capsys):
    out_dir = tmp_path / "rejected"
    assert main(["run", fast_scene, "--out", str(out_dir)] + override) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ConfigError:")
    assert not out_dir.exists()
