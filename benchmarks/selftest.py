"""Self-tests of the output checkers: each sees a corrupted output and fails.

    python3 benchmarks/selftest.py

A small version of the bundled scene (noon only, 64-cell grid, 8x8 facet
samples) is run through ``cli.run`` and ``metrics.day_course`` in a
temporary directory; the clean outputs must pass every checker, and each
corruption below must be caught:

* one flux map scaled by 1.02 (energy balance and conv total = spot total);
* one flipped byte in an artifact (repetitions must be byte-identical);
* a pair map that is not the sum of its singles (its mirror shifted a cell).

Runs in a few seconds; it does not run the full workloads.
"""

import dataclasses
import os
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_tmp")
sys.path.insert(0, os.path.join(ROOT, "src"))

from helioflux import metrics, scene  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def small_table1(engine):
    os.makedirs(SCRATCH, exist_ok=True)
    table1 = workloads.Table1(engine, tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
    table1.load()
    config = scene.with_overrides(table1.config, grid_cells=64, surface_samples=8)
    noon = workloads.reference_label(config)
    table1.config = dataclasses.replace(
        config, schedule=tuple(e for e in config.schedule if e.label == noon))
    return table1


def first_run(table1):
    """Run the scene once as the workload's first repetition."""
    table1.after(0, 0, table1.operation(0, 0)())
    return os.path.join(table1.tmp, "first")


def rewrite_csv(path, transform):
    """Rewrite a flux CSV's values through ``transform`` (map layout)."""
    with open(path, encoding="utf-8") as fh:
        header = [line for line in fh if line.startswith("#")]
    values, _ = workloads.read_flux_csv(path)
    image = transform(values).T[::-1, :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(header)
        for row in image:
            fh.write(",".join(f"{v:.9e}" for v in row) + "\n")


def expect(failures, word):
    assert any(word in f for f in failures), f"no {word!r} failure in {failures}"


def test_clean_outputs_pass():
    table1 = small_table1("both")
    try:
        first_run(table1)
        failures = table1.finish()
        assert failures == [], failures
        config = table1.config
        report, maps = metrics.day_course(config, collect_maps=True)
        failures, _ = workloads.check_day(config, config.heliostats[0], ("grt", "conv"),
                                          lambda key: (maps[key].values,
                                                       maps[key].spilled_power))
        assert failures == [], failures
    finally:
        shutil.rmtree(table1.tmp)


def test_scaled_map_fails():
    table1 = small_table1("conv")
    try:
        out = first_run(table1)
        name = next(n for n in sorted(os.listdir(out)) if n.endswith("_single_conv.csv"))
        rewrite_csv(os.path.join(out, name), lambda v: v * 1.02)
        failures = table1.finish()
        expect(failures, "analytic")
        expect(failures, "geometric spot")
    finally:
        shutil.rmtree(table1.tmp)


def test_flipped_byte_fails():
    table1 = small_table1("conv")
    try:
        first_run(table1)
        run = table1.operation(1, 0)
        run()
        out = os.path.join(table1.tmp, "out")
        name = next(n for n in sorted(os.listdir(out)) if n.endswith(".pgm"))
        with open(os.path.join(out, name), "r+b") as fh:
            fh.seek(-7, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-7, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        expect(table1.after(1, 0, None), name)
    finally:
        shutil.rmtree(table1.tmp)


def test_pair_not_sum_fails():
    table1 = small_table1("conv")
    try:
        out = first_run(table1)
        name = next(n for n in sorted(os.listdir(out))
                    if n.endswith("_symmetric_pair_conv.csv"))
        single, _ = workloads.read_flux_csv(os.path.join(out, name.replace(
            "symmetric_pair", "single")))
        # keep the pair's power, move the mirror's half one cell along y'
        rewrite_csv(os.path.join(out, name),
                    lambda pair: single + np.roll(pair - single, 1, axis=0))
        failures = table1.finish()
        expect(failures, "sum of its singles")
        assert not any("analytic" in f for f in failures), failures
    finally:
        shutil.rmtree(table1.tmp)


def test_checkers_reject_corrupted_arrays():
    values = np.zeros((4, 4))
    values[1:3, 1:3] = 1.0
    assert checks.energy_balance("k", values, 0.0, 1.0, 1.0, 4.0) == []
    assert checks.energy_balance("k", values * 1.02, 0.0, 1.0, 1.0, 4.0)
    assert checks.conv_matches_spot("k", values * 1.02, 1.0, 1.0, 4.0)
    assert checks.pair_is_sum("k", 2 * values, values, values) == []
    assert checks.pair_is_sum("k", 2 * values, values, np.roll(values, 1, axis=0))
    first = {"a": checks.digest(b"\x00\x01")}
    assert checks.identical(first, {"a": checks.digest(b"\x00\x01")}, "r") == []
    assert checks.identical(first, {"a": checks.digest(b"\xff\x01")}, "r")


def main():
    tests = [test_checkers_reject_corrupted_arrays, test_clean_outputs_pass,
             test_scaled_map_fails, test_flipped_byte_fails, test_pair_not_sum_fails]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    if not os.listdir(SCRATCH):
        os.rmdir(SCRATCH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
