#!/usr/bin/env python3
"""Every JSON document mnsim_cli writes loads with json.load, even when
names carry control characters (ctest: test_cli_json_valid).

    cli_json_valid.py <mnsim_cli> <source dir> <work dir>

Writes a LeNet copy whose network name and first layer name contain a
tab, and a second copy that appends pooling after the last FC layer so
that `check --json` refuses it (MN-NN-003) with a diagnostic quoting a
layer name that holds a tab and a 0x01 byte. In a fresh work dir
(examples/configs/ci_sweep.ini resumes sweep.ckpt from the cwd) it runs
the report (`--json`), the Chrome trace (`--trace=`), `check --json`
and `sweep --json`, loads every file with json.load and checks that the
control characters survive the round trip. A sweep of the demo MLP under
`--error 0.0001` (percent), where no design is feasible, must still write
its report.
"""
from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys


def run(cli: str, args: list[str], cwd: pathlib.Path, want_rc: int) -> None:
    proc = subprocess.run([cli, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != want_rc:
        sys.exit(f"mnsim_cli {' '.join(args)}: exit {proc.returncode}, "
                 f"want {want_rc}\n{proc.stdout}{proc.stderr}")


def load(path: pathlib.Path):
    try:
        with path.open(encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"{path.name}: {e}")


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(what)


def main() -> None:
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    cli = str(pathlib.Path(sys.argv[1]).resolve())
    src = pathlib.Path(sys.argv[2]).resolve()
    work = pathlib.Path(sys.argv[3]).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    lenet = (src / "examples/networks/lenet.ini").read_text()
    expect("name = lenet5\n" in lenet and "[layer1]\n" in lenet,
           "lenet.ini no longer has the lines this test edits")
    tabbed = lenet.replace("name = lenet5\n", "name = lenet\t5\n").replace(
        "[layer1]\n", "[layer1]\nname = conv\t1\n")
    net = work / "lenet_tab.ini"
    net.write_text(tabbed)
    pooled = work / "lenet_tab_pool.ini"
    pooled.write_text(tabbed + "\n[layer8]\nname = pool\x01\t8\nkind = pool\n"
                      "window = 1\n")
    reference = str(src / "examples/configs/reference.ini")

    run(cli, [str(net), reference, "--json", "run.json"], work, 0)
    run(cli, [str(net), reference, "--trace=trace.json"], work, 0)
    run(cli, ["check", "--json", "check.json", str(net)], work, 0)
    run(cli, ["check", "--json", "check_pool.json", str(pooled)], work, 1)
    run(cli, ["sweep", str(net), str(src / "examples/configs/ci_sweep.ini"),
              "--json", "sweep.json"], work, 0)
    run(cli, ["sweep", "--error", "0.0001", "--json", "infeasible.json"],
        work, 0)

    report = load(work / "run.json")
    expect(report["network"]["name"] == "lenet\t5",
           f"run.json network name: {report['network']['name']!r}")
    trace = load(work / "trace.json")
    expect(len(trace["traceEvents"]) > 0, "trace.json has no events")
    expect(load(work / "check.json") == [], "check.json is not clean")
    refused = load(work / "check_pool.json")
    expect(any(d["code"] == "MN-NN-003" and d["severity"] == "error" and
               "pool\x01\t8" in d["message"] for d in refused),
           f"check_pool.json has no MN-NN-003 error naming the layer: "
           f"{refused!r}")
    sweep = load(work / "sweep.json")
    expect(sweep["network"]["name"] == "lenet\t5",
           f"sweep.json network name: {sweep['network']['name']!r}")
    infeasible = load(work / "infeasible.json")
    expect(infeasible["sweep"]["feasible"] == 0,
           f"infeasible.json feasible: {infeasible['sweep']['feasible']!r}")
    keys = ["code", "severity", "message", "file", "line", "location", "hint"]
    for record in [*report["diagnostics"], *refused, *sweep["diagnostics"],
                   *infeasible["diagnostics"]]:
        expect(list(record) == keys, f"diagnostic keys {list(record)!r}")
    print("cli_json_valid: report, trace, check, sweep and infeasible "
          "sweep JSON load")


if __name__ == "__main__":
    main()
