#!/usr/bin/env python3
"""End-to-end benchmark of the pfsem CLI, with a traced run per workload.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --print-pins

The first run in a checkout builds the pfsem CLI and the benchmark's
layer tracer, pfsem_layers (perfbench/layers.cpp), from src/ into
.bench_build/.

--trace 0 times the workload's CLI command, one fresh child process at a
time, until --seconds is used up, and reports the end-to-end metrics.
--trace 1 alternates one CLI run and one run of pfsem_layers, which
repeats the CLI's library calls and times each layer, and reports the
per-layer metrics.

Every run also runs the workload's differential oracle once (another
pipeline or backend the repository guarantees to print the same bytes)
and checks each CLI output against it; on a pinned seed (pins.json) it
also checks the output digest and the traced run's counts. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the samples, quartiles and
provenance. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CLI = BUILD / "pfsem" / "tools" / "pfsem"
LAYERS = BUILD / "pfsem_layers"
PINS = HERE / "pins.json"

# Threads of the one threaded workload: 4, but never more than this host
# has (a run never oversubscribes the host).
NPROC = len(os.sched_getaffinity(0))
HB_THREADS = str(min(4, NPROC))

# name -> (CLI arguments, differential oracle arguments). Seeds are
# appended as --seed N. Every oracle must print the CLI's bytes exactly.
WORKLOADS = {
    # One N-1 shared HDF5 file, 347 collectives: capture self time, the
    # shared-file close/fsync history scan and chunk decode dominate.
    # Oracle: the materialized pipeline.
    "flash_n1_stream": (
        ["report", "FLASH-fbs", "--ranks", "2048", "--stream", "--threads", "1"],
        ["report", "FLASH-fbs", "--ranks", "2048", "--threads", "1"],
    ),
    # File per process, 16384 live files: vfs write path and window
    # retirement dominate. Oracle: the materialized pipeline.
    "pf3d_fpp_window": (
        ["report", "pF3D-IO", "--ranks", "16384", "--stream", "--threads", "1"],
        ["report", "pF3D-IO", "--ranks", "16384", "--threads", "1"],
    ),
    # Read-heavy, on the multi-server PfsCluster backend. Oracle: the
    # single-server Pfs backend (the topology oracle).
    "lbann_read_cluster": (
        ["report", "LBANN", "--ranks", "4096", "--stream", "--threads", "1",
         "--mds", "2", "--ost", "4"],
        ["report", "LBANN", "--ranks", "4096", "--stream", "--threads", "1"],
    ),
    # Materialized pipeline with happens-before (dense vector clocks).
    # Oracle: the sequential (--threads 1) analysis.
    "adios_hb_run": (
        ["run", "LAMMPS-ADIOS", "--ranks", "1024", "--threads", HB_THREADS],
        ["run", "LAMMPS-ADIOS", "--ranks", "1024", "--threads", "1"],
    ),
}

# Setup probes per run, each in a fresh process; setup_s is their median.
SETUP_PROBES = 15
# No child may run longer than this; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150
# Counts the traced run pins on a pinned seed, besides the stdout digest.
PINNED_COUNTS = ["apps.records", "vfs.open.calls", "vfs.close.calls",
                 "vfs.write.calls", "vfs.read.calls", "vfs.fsync.calls",
                 "vfs.meta.calls", "trace.spill_bytes", "mpi.collectives",
                 "mpi.p2p", "core.conflicts"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the two binaries up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no pfsem sources at {ROOT / 'src'}")
    # Compiler temporaries and any spill file stay inside the checkout.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    with open(BUILD / "build.log", "ab") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(min(4, NPROC)),
                      "--target", "pfsem", "pfsem_layers"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise SystemExit(f"perfbench: build failed; see {BUILD / 'build.log'}")


@dataclass
class Sample:
    """One finished child process."""
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion; wall from spawn to exit, rusage from wait4."""
    out_path, err_path = BUILD / "child.stdout", BUILD / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=err,
                                cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024.0, out_path.read_bytes(),
                  err_path.read_bytes())


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def records_of(stdout):
    m = re.search(rb"records: (\d+)", stdout)
    return int(m.group(1)) if m else 0


def verdict_of(stdout):
    m = re.search(rb"^verdict: (.*)$", stdout, re.M)
    return m.group(1).decode() if m else None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def layers_args(cli, seed):
    """The pfsem_layers flags for a CLI command line."""
    args = ["--app", cli[1]] + cli[2:] + ["--seed", str(seed)]
    return args if "--stream" in cli else args + ["--run"]


def unit_of(name):
    if name.endswith("ns_per_record"):
        return "ns/record"
    if name.endswith("ns_per_call"):
        return "ns"
    if name.endswith("bytes_per_record"):
        return "B/record"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_over_wall")):
        return "ratio"
    return "count"


def provenance():
    info = spawn([LAYERS, "info"])
    prov = json.loads(info.stdout) if info.rc == 0 else {}
    src = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0")
        src.update(path.read_bytes())
    prov["source_sha256"] = src.hexdigest()
    prov["git_sha"] = None
    prov["git_dirty"] = None
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            prov["git_sha"] = head.stdout.strip()
            prov["git_dirty"] = bool(status.stdout.strip())
    prov["host"] = socket.gethostname()
    prov["nproc"] = NPROC
    return prov


class Checker:
    """Counts attempted and failed runs and why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)


def check_oracle(oracle, pin):
    problems = []
    if oracle.rc != 0:
        problems.append(f"oracle exited {oracle.rc}: "
                        + oracle.stderr.decode(errors="replace").strip())
    elif pin is not None and sha256(oracle.stdout) != pin["stdout_sha256"]:
        problems.append("oracle output does not match the pinned digest")
    return problems


def run_timed(name, seed, seconds):
    cli, oracle_args = WORKLOADS[name]
    pin = load_pins().get(name, {}).get(str(seed))
    cmd = [CLI] + cli + ["--seed", str(seed)]
    # The oracle runs first; it also warms the page cache for the binary.
    oracle = spawn([CLI] + oracle_args + ["--seed", str(seed)])
    problems = check_oracle(oracle, pin)
    checker = Checker()
    samples = []
    t0 = time.perf_counter()
    while True:
        s = spawn(cmd)
        samples.append(s)
        checker.attempt(s.rc == 0 and s.stdout == oracle.stdout,
                        f"sample {len(samples)}: exit {s.rc}, "
                        f"output {'matches' if s.stdout == oracle.stdout else 'differs from'} the oracle")
        longest = max(x.wall_s for x in samples)
        if time.perf_counter() - t0 + longest > seconds:
            break
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn([LAYERS, "setup"] + layers_args(cli, seed))
        if probe.rc != 0:
            problems.append("setup probe failed: "
                            + probe.stderr.decode(errors="replace").strip())
            break
        setups.append(float(probe.stdout))
    records = records_of(oracle.stdout)
    if records == 0:
        problems.append("no record count in the output")
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    rss = [s.peak_rss_mb for s in samples]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "ns_per_record": (wall * 1e9 / max(records, 1), "ns/record"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
    }
    detail = {
        "samples": len(samples),
        "quartiles": {"wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
                      "peak_rss_mb": quartiles(rss),
                      "setup_s": quartiles(setups) if setups else None},
        "records": records,
        "output_sha256": sha256(oracle.stdout),
        "digest_check": digest_status(pin, oracle),
    }
    return checker, problems, metrics, detail


def digest_status(pin, oracle):
    if pin is None:
        return "not verified: no pinned digest for this seed"
    return "match" if sha256(oracle.stdout) == pin["stdout_sha256"] else "mismatch"


def traced_metrics(seed, cli, path):
    """One run of pfsem_layers traced; returns (sample, metrics or None)."""
    s = spawn([LAYERS, "traced"] + layers_args(cli, seed) + ["--metrics", path])
    if s.rc != 0:
        return s, None
    return s, json.loads(Path(path).read_text())


def run_traced(name, seed, seconds):
    cli, oracle_args = WORKLOADS[name]
    pin = load_pins().get(name, {}).get(str(seed))
    cmd = [CLI] + cli + ["--seed", str(seed)]
    oracle = spawn([CLI] + oracle_args + ["--seed", str(seed)])
    problems = check_oracle(oracle, pin)
    checker = Checker()
    cli_samples, traced = [], []
    metrics_path = BUILD / "layers.json"
    t0 = time.perf_counter()
    while True:
        c = spawn(cmd)
        cli_samples.append(c)
        checker.attempt(c.rc == 0 and c.stdout == oracle.stdout,
                        f"CLI run {len(cli_samples)}: exit {c.rc} or output differs from the oracle")
        s, m = traced_metrics(seed, cli, metrics_path)
        ok = m is not None and s.stdout == c.stdout
        if ok and pin is not None:
            ok = all(m[k] == pin["counts"][k] for k in PINNED_COUNTS) and \
                verdict_of(s.stdout) == pin["verdict"]
        checker.attempt(ok, f"traced run {len(traced) + 1}: exit {s.rc}, "
                            "report or counts differ from the CLI's / the pins: "
                            + s.stderr.decode(errors="replace").strip())
        if m is not None:
            traced.append((s, m))
        longest = c.wall_s + s.wall_s
        if time.perf_counter() - t0 + longest > seconds:
            break
    metrics = {}
    if traced:
        # All figures come from the traced run with the median wall, so
        # its layer self times and traced.other_s still sum to its wall.
        traced.sort(key=lambda sm: sm[1]["traced.wall_s"])
        s, m = traced[(len(traced) - 1) // 2]
        metrics = {key: (value, unit_of(key)) for key, value in m.items()}
        cli_wall = statistics.median(c.wall_s for c in cli_samples)
        metrics["traced.overhead_frac"] = (s.wall_s / cli_wall - 1, "ratio")
    detail = {"samples": len(traced), "cli_samples": len(cli_samples),
              "output_sha256": sha256(oracle.stdout),
              "digest_check": digest_status(pin, oracle)}
    return checker, problems, metrics, detail


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def print_pins():
    """Digests and traced-run counts for the pinned seeds, as pins.json."""
    pins = {"seeds": [42, 7]}
    for name, (cli, _) in WORKLOADS.items():
        pins[name] = {}
        for seed in pins["seeds"]:
            c = spawn([CLI] + cli + ["--seed", str(seed)])
            s, m = traced_metrics(seed, cli, BUILD / "layers.json")
            if c.rc != 0 or m is None or s.stdout != c.stdout:
                raise SystemExit(f"perfbench: {name} seed {seed}: CLI and "
                                 "pfsem_layers disagree; nothing to pin")
            pins[name][str(seed)] = {
                "stdout_sha256": sha256(c.stdout),
                "verdict": verdict_of(c.stdout),
                "counts": {k: m[k] for k in PINNED_COUNTS},
            }
            log(f"pinned {name} seed {seed}")
    print(json.dumps(pins, indent=2))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-pins", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not args.print_pins and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.print_pins:
        print_pins()
        return 0

    load_before = os.getloadavg()
    prov = provenance()
    run = run_traced if args.trace else run_timed
    checker, problems, metrics, detail = run(args.workload, args.seed, args.seconds)
    prov["loadavg_before"] = list(load_before)
    prov["loadavg_after"] = list(os.getloadavg())
    for why in checker.failures + problems:
        log(why)
    if detail["digest_check"] != "match":
        log(f"{args.workload} seed {args.seed}: output digest "
            f"{detail['digest_check']}")
    correct = not checker.failures and not problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "detail": detail,
                      "provenance": prov, "problems": checker.failures + problems}))
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": len(checker.failures) if not problems else checker.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
